"""Restricted-weight lattice in simple-root coordinates.

A weight is an integer tuple (m_1, ..., m_r) identifying mu = sum_j m_j alpha_j
in the basis of simple restricted roots of a rank-r space.  Every nonzero mu
determines the codimension-one closed subgroup

    H_mu = {exp(phi) in T : mu(phi) in 2*pi*Z}

of the rank-r torus T.  Since H_mu = H_{-mu}, the subgroup is identified by the
sign-canonical representative of {mu, -mu} (first nonzero coordinate positive).
Proportional weights give *distinct* subgroups: H_mu is a proper subgroup of
H_{2mu}, so identifiers are never reduced by content.  They do share a
primitive direction (the canonical coordinates over their gcd), which is all
the Euler ring needs to tell proportional pairs apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .jsonio import int_from_json


@dataclass(frozen=True)
class RestrictedWeight:
    """Integer coordinate vector of a weight in the simple-root basis."""

    coords: tuple[int, ...]

    def __post_init__(self):
        coords = tuple(int(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "_hash", hash(coords))

    def __hash__(self) -> int:
        return self._hash

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
    sign-canonical weight.  Construct via :func:`canonicalize`.

    Set once at construction: ``sort_key`` is (rank, coords), the order of
    every sorted sequence of ids, and ``direction`` is the primitive
    direction coords // gcd(coords); two ids are proportional exactly when
    their directions are equal."""

    canonical: RestrictedWeight

    def __post_init__(self):
        coords = self.canonical.coords
        if self.canonical.is_zero():
            raise ValueError("zero weight has no codimension-one subgroup")
        first = next(c for c in coords if c != 0)
        if first < 0:
            raise ValueError(f"{self.canonical} is not sign-canonical")
        g = math.gcd(*coords)
        object.__setattr__(self, "sort_key", (len(coords), coords))
        object.__setattr__(self, "direction", tuple(c // g for c in coords))
        object.__setattr__(self, "_hash", self.canonical._hash)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.canonical.coords == other.canonical.coords

    def __hash__(self) -> int:
        return self._hash

    @property
    def rank(self) -> int:
        return self.canonical.rank

    def __str__(self) -> str:
        return "H[" + ",".join(str(c) for c in self.canonical.coords) + "]"

    def to_json(self) -> dict:
        return {"H": self.canonical.to_json()}

    @classmethod
    def from_json(cls, data) -> "SubgroupId":
        coords = data["H"] if isinstance(data, dict) else data
        return cls(RestrictedWeight.from_json(coords))


def _merge_sorted(a, s: int, b, t: int) -> tuple:
    """s*a + t*b for nonzero s, t and two sequences of (SubgroupId, nonzero
    count) pairs sorted by ``sort_key`` with unique ids, merged in one pass.
    Counts that cancel are dropped, the result is sorted the same way, and an
    id present on both sides keeps the object from ``a``."""
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        (h, c), (g, d) = a[i], b[j]
        if h.sort_key < g.sort_key:
            out.append((h, s * c))
            i += 1
        elif g.sort_key < h.sort_key:
            out.append((g, t * d))
            j += 1
        else:
            if s * c + t * d:
                out.append((h, s * c + t * d))
            i += 1
            j += 1
    out += [(h, s * c) for h, c in a[i:]]
    out += [(g, t * d) for g, d in b[j:]]
    return tuple(out)


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
