"""Arithmetic in the Euler ring of a torus, truncated at codimension one.

Elements are stored as an integer multiple of the unit class I (the class of
the full torus) plus a finitely supported integer combination of the classes
of the codimension-one subgroups H_mu.  Multiplication of generator classes
follows the dimension rule for the intersection H'' = H_mu ∩ H_nu:

  * unit times anything is that thing;
  * a product of two codimension-one classes is the class of H'' when
    dim H_mu + dim H_nu = dim T + dim H'' (mu, nu non-proportional), and zero
    when the dimension count drops (mu, nu proportional).

Classes of subgroups of codimension two and higher never feed back into the
unit or codimension-one coefficients, so they are discarded; the ``truncated``
flag records that such terms were dropped somewhere in an element's history.
Once set, the flag is inherited by every derived element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .jsonio import bool_from_json, int_from_json
from .weights import SubgroupId, _merge_sorted

Codim1 = tuple[tuple[SubgroupId, int], ...]


def _normalize(codim1) -> Codim1:
    items = codim1.items() if isinstance(codim1, dict) else codim1
    acc: dict[SubgroupId, int] = {}
    for h, c in items:
        if not isinstance(h, SubgroupId):
            raise TypeError(f"codim1 keys must be SubgroupId, got {type(h).__name__}")
        acc[h] = acc.get(h, 0) + int_from_json(c)
    return tuple(sorted(((h, c) for h, c in acc.items() if c != 0), key=lambda hc: hc[0].sort_key))


# Arithmetic on normalized parts (nonzero coefficients, sorted by subgroup
# key): results come out normalized, so they skip _normalize.


def _scale(a: Codim1, s: int) -> Codim1:
    if s == 1:
        return a
    return tuple((h, s * c) for h, c in a) if s else ()


def _combine(a: Codim1, s: int, b: Codim1, t: int) -> Codim1:
    """Normalized s*a + t*b."""
    if not (s and a):
        return _scale(b, t)
    if not (t and b):
        return _scale(a, s)
    return _merge_sorted(a, s, b, t)


def _spans_two_directions(*parts: Codim1) -> bool:
    """True when the ids of the parts are not all proportional.  Ids of
    different ranks belong to different tori, which is an error."""
    directions = {h.direction for part in parts for h, _ in part}
    if len(directions) < 2:
        return False
    ranks = {len(d) for d in directions}
    if len(ranks) > 1:
        raise ValueError(f"rank mismatch: {min(ranks)} vs {max(ranks)}")
    return True


def _element(unit: int, codim1: Codim1, truncated: bool) -> "EulerRingElement":
    """An element from normalized data, built without re-validating it."""
    x = object.__new__(EulerRingElement)
    x.__dict__.update(unit=unit, codim1=codim1, truncated=truncated)
    return x


@dataclass(frozen=True, eq=False)
class EulerRingElement:
    """Truncated element u*I + sum_mu c_mu * [T/H_mu].

    Equality and hashing compare the ring data only; ``truncated`` is
    provenance bookkeeping and does not affect comparisons.
    """

    unit: int = 0
    codim1: Codim1 = ()
    truncated: bool = False

    def __post_init__(self):
        object.__setattr__(self, "unit", int_from_json(self.unit))
        object.__setattr__(self, "codim1", _normalize(self.codim1))

    @cached_property
    def codim1_map(self) -> dict[SubgroupId, int]:
        return dict(self.codim1)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "EulerRingElement":
        return cls(0)

    @classmethod
    def unit_element(cls) -> "EulerRingElement":
        return cls(1)

    @classmethod
    def generator(cls, h: SubgroupId) -> "EulerRingElement":
        return cls(0, ((h, 1),))

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.unit == 0 and not self.codim1

    def coeff_at(self, h: SubgroupId | None) -> int:
        """Coefficient of the class of H; ``None`` addresses the full torus
        (the unit coefficient)."""
        if h is None:
            return self.unit
        return self.codim1_map.get(h, 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EulerRingElement):
            return NotImplemented
        return self.unit == other.unit and self.codim1 == other.codim1

    def __hash__(self):
        return hash((self.unit, self.codim1))

    # -- module structure ----------------------------------------------------

    def __add__(self, other: "EulerRingElement") -> "EulerRingElement":
        if not isinstance(other, EulerRingElement):
            return NotImplemented
        return _element(
            self.unit + other.unit,
            _combine(self.codim1, 1, other.codim1, 1),
            self.truncated or other.truncated,
        )

    def __neg__(self) -> "EulerRingElement":
        return _element(-self.unit, _scale(self.codim1, -1), self.truncated)

    def __sub__(self, other: "EulerRingElement") -> "EulerRingElement":
        if not isinstance(other, EulerRingElement):
            return NotImplemented
        return self + (-other)

    def scaled(self, n: int) -> "EulerRingElement":
        n = int_from_json(n)
        return _element(n * self.unit, _scale(self.codim1, n), self.truncated)

    # -- ring structure -----------------------------------------------------

    def __mul__(self, other) -> "EulerRingElement":
        if isinstance(other, int):
            return self.scaled(other)
        if not isinstance(other, EulerRingElement):
            return NotImplemented
        a, b = self.codim1, other.codim1
        # products of two codimension-one classes: zero for proportional
        # weights, a discarded codimension-two class otherwise
        dropped = self.truncated or other.truncated or (bool(a and b) and _spans_two_directions(a, b))
        return _element(self.unit * other.unit, _combine(a, other.unit, b, self.unit), dropped)

    def __rmul__(self, other) -> "EulerRingElement":
        if isinstance(other, int):
            return self.scaled(other)
        return NotImplemented

    def inverse(self) -> "EulerRingElement":
        """Multiplicative inverse, defined when the unit coefficient is +-1:
        (u*I + b)^(-1) = u*I - b in the truncated representation."""
        if self.unit not in (1, -1):
            raise ValueError("not invertible in truncated ring")
        dropped = self.truncated or bool(self.codim1)
        return _element(self.unit, _scale(self.codim1, -1), dropped)

    def __pow__(self, n: int) -> "EulerRingElement":
        """(u*I + b)^n = u^n I + n u^(n-1) b, since b*b has no codimension-one
        part; for n >= 2 the power discards codimension-two classes exactly
        when b is supported on two non-proportional ids."""
        n = int_from_json(n)
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return _element(1, (), False)
        u, b = self.unit, self.codim1
        dropped = self.truncated or (n >= 2 and _spans_two_directions(b))
        return _element(u**n, _scale(b, n * u ** (n - 1)), dropped)

    # -- presentation -------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        if self.unit:
            terms.append((self.unit, "I"))
        terms.extend((c, str(h)) for h, c in self.codim1)
        out = f"{terms[0][0]}*{terms[0][1]}"
        for c, sym in terms[1:]:
            out += f" + {c}*{sym}" if c >= 0 else f" - {-c}*{sym}"
        return out

    def __repr__(self) -> str:
        return f"EulerRingElement(unit={self.unit}, codim1={self.codim1!r}, truncated={self.truncated})"

    def to_json(self) -> dict:
        return {
            "unit": self.unit,
            "codim1": [{"H": h.canonical.to_json(), "c": c} for h, c in self.codim1],
            "truncated": self.truncated,
        }

    @classmethod
    def from_json(cls, data) -> "EulerRingElement":
        codim1 = tuple((SubgroupId.from_json(e), e["c"]) for e in data.get("codim1", ()))
        return cls(data["unit"], codim1, bool_from_json(data.get("truncated", False)))


UNIT = EulerRingElement.unit_element()
ZERO = EulerRingElement.zero()
