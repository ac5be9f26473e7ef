"""Restricted-weight lattice in simple-root coordinates.

A weight is an integer tuple (m_1, ..., m_r) identifying mu = sum_j m_j alpha_j
in the basis of simple restricted roots of a rank-r space.  Every nonzero mu
determines the codimension-one closed subgroup

    H_mu = {exp(phi) in T : mu(phi) in 2*pi*Z}

of the rank-r torus T.  Since H_mu = H_{-mu}, the subgroup is identified by the
sign-canonical representative of {mu, -mu} (first nonzero coordinate positive).
Proportional weights give *distinct* subgroups: H_mu is a proper subgroup of
H_{2mu}, so identifiers are never reduced by content.
"""

from __future__ import annotations

from dataclasses import dataclass

from .jsonio import int_from_json


@dataclass(frozen=True)
class RestrictedWeight:
    """Integer coordinate vector of a weight in the simple-root basis."""

    coords: tuple[int, ...]

    def __post_init__(self):
        coords = tuple(int(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)

    @property
    def rank(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def __neg__(self) -> "RestrictedWeight":
        return RestrictedWeight(tuple(-c for c in self.coords))

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"

    def to_json(self) -> list[int]:
        return list(self.coords)

    @classmethod
    def from_json(cls, data) -> "RestrictedWeight":
        return cls(tuple(int_from_json(c) for c in data))


@dataclass(frozen=True)
class SubgroupId:
    """Identifier of the codimension-one subgroup H_mu, keyed by the
    sign-canonical weight.  Construct via :func:`canonicalize`."""

    canonical: RestrictedWeight

    def __post_init__(self):
        if self.canonical.is_zero():
            raise ValueError("zero weight has no codimension-one subgroup")
        first = next(c for c in self.canonical.coords if c != 0)
        if first < 0:
            raise ValueError(f"{self.canonical} is not sign-canonical")

    @property
    def rank(self) -> int:
        return self.canonical.rank

    def sort_key(self) -> tuple:
        return (self.canonical.rank, self.canonical.coords)

    def __str__(self) -> str:
        return "H[" + ",".join(str(c) for c in self.canonical.coords) + "]"

    def to_json(self) -> dict:
        return {"H": self.canonical.to_json()}

    @classmethod
    def from_json(cls, data) -> "SubgroupId":
        coords = data["H"] if isinstance(data, dict) else data
        return cls(RestrictedWeight.from_json(coords))


def canonicalize(mu: RestrictedWeight) -> SubgroupId:
    """Identifier of H_mu: the representative of {mu, -mu} whose first nonzero
    coordinate is positive.  Raises for the zero weight, which fixes the whole
    torus rather than a codimension-one subgroup."""
    if mu.is_zero():
        raise ValueError("zero weight has no codimension-one subgroup")
    first = next(c for c in mu.coords if c != 0)
    return SubgroupId(mu if first > 0 else -mu)


def proportional(mu: RestrictedWeight, nu: RestrictedWeight) -> bool:
    """True when mu and nu span the same line over the rationals.  Proportional
    weights have subgroups H_mu, H_nu with equal identity component, so their
    intersection keeps codimension one."""
    if mu.rank != nu.rank:
        raise ValueError(f"rank mismatch: {mu.rank} vs {nu.rank}")
    a, b = mu.coords, nu.coords
    return all(a[i] * b[j] == a[j] * b[i] for i in range(len(a)) for j in range(i + 1, len(a)))
