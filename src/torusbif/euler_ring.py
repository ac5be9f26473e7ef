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
unit or codimension-one coefficients, so they are discarded.  The ids of one
element, and of the operands of a sum or product, all have one rank: the rank
of the torus.
"""

from __future__ import annotations

from ._record import Record, _set
from .jsonio import int_from_json
from .weights import SubgroupId, _check_ranks, _count_at, _id_pairs, _merge_sorted, _pair_key

Codim1 = tuple[tuple[SubgroupId, int], ...]


def _normalize(codim1) -> Codim1:
    """Sort the pairs once by subgroup key, then fold runs of one id (keeping
    its first object) and drop zero sums in one pass."""
    items = codim1.items() if isinstance(codim1, dict) else codim1
    pairs = _id_pairs(items, "codim1")
    pairs.sort(key=_pair_key)
    out = []
    g = key = None
    total = 0
    for h, c in pairs:
        if h.sort_key == key:
            total += c
            continue
        if total:
            out.append((g, total))
        g, key, total = h, h.sort_key, c
    if total:
        out.append((g, total))
    out = tuple(out)
    _check_ranks(out, out[-1:])  # lowest rank against highest
    return out


def _element(unit: int, codim1: Codim1) -> "EulerRingElement":
    """An element from normalized data, built without re-validating it."""
    x = object.__new__(EulerRingElement)
    _set(x, "unit", unit)
    _set(x, "codim1", codim1)
    return x


class EulerRingElement(Record):
    """Truncated element u*I + sum_mu c_mu * [T/H_mu].

    Kept in slots: the unit coefficient and the codimension-one part as
    (SubgroupId, nonzero coefficient) pairs sorted by ``sort_key``."""

    unit: int
    codim1: Codim1
    __slots__ = _fields = ("unit", "codim1")

    def __init__(self, unit: int = 0, codim1=()):
        _set(self, "unit", int_from_json(unit))
        _set(self, "codim1", _normalize(codim1))

    def __eq__(self, other) -> bool:
        if other.__class__ is not EulerRingElement:
            return NotImplemented
        return self.unit == other.unit and self.codim1 == other.codim1

    def __hash__(self) -> int:
        return hash((self.unit, self.codim1))

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.unit == 0 and not self.codim1

    def coeff_at(self, h: SubgroupId) -> int:
        """Coefficient of the class of H; ``unit`` is that of the full torus."""
        return _count_at(self.codim1, h)

    # -- module structure ----------------------------------------------------

    # __add__ and __mul__ carry criterion 07, so they write the two slots
    # themselves instead of calling _element; _merge_sorted refuses parts of
    # two ranks.

    def __add__(self, other: "EulerRingElement") -> "EulerRingElement":
        if other.__class__ is not EulerRingElement:
            return NotImplemented
        out = object.__new__(EulerRingElement)
        _set(out, "unit", self.unit + other.unit)
        _set(out, "codim1", _merge_sorted(self.codim1, 1, other.codim1, 1))
        return out

    def __neg__(self) -> "EulerRingElement":
        return _element(-self.unit, _merge_sorted(self.codim1, -1, (), 0))

    def scaled(self, n: int) -> "EulerRingElement":
        n = int_from_json(n)
        return _element(n * self.unit, _merge_sorted(self.codim1, n, (), 0))

    # -- ring structure -----------------------------------------------------

    def __mul__(self, other: "EulerRingElement") -> "EulerRingElement":
        if other.__class__ is not EulerRingElement:
            return NotImplemented
        s, t = self.unit, other.unit
        # products of two codimension-one classes have no unit or
        # codimension-one part, so only the cross terms with the units remain
        out = object.__new__(EulerRingElement)
        _set(out, "unit", s * t)
        _set(out, "codim1", _merge_sorted(self.codim1, t, other.codim1, s))
        return out

    def inverse(self) -> "EulerRingElement":
        """Multiplicative inverse, defined when the unit coefficient is +-1:
        (u*I + b)^(-1) = u*I - b in the truncated representation."""
        if self.unit not in (1, -1):
            raise ValueError("not invertible in truncated ring")
        return _element(self.unit, _merge_sorted(self.codim1, -1, (), 0))

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

    def to_json(self) -> dict:
        return {
            "unit": self.unit,
            "codim1": [{"H": h.canonical.to_json(), "c": c} for h, c in self.codim1],
        }


UNIT = EulerRingElement(1)
ZERO = EulerRingElement(0)
