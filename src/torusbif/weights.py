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

from bisect import bisect_left

from ._record import Record, _set
from .jsonio import int_from_json


class RestrictedWeight(Record):
    """Integer coordinate vector of a weight in the simple-root basis."""

    coords: tuple[int, ...]
    _fields = ("coords",)
    __slots__ = ("coords", "_hash")

    def __init__(self, coords):
        coords = tuple(int_from_json(c) for c in coords)
        _set(self, "coords", coords)
        _set(self, "_hash", hash(coords))

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


class SubgroupId(Record):
    """Identifier of the codimension-one subgroup H_mu, keyed by the
    sign-canonical weight.  Construct via :func:`canonicalize`.

    Set once at construction: ``sort_key`` is (rank, coords), the order of
    every sorted sequence of ids."""

    canonical: RestrictedWeight
    _fields = ("canonical",)
    __slots__ = ("canonical", "sort_key", "_hash")

    def __init__(self, canonical: RestrictedWeight):
        coords = canonical.coords
        if canonical.is_zero():
            raise ValueError("zero weight has no codimension-one subgroup")
        first = next(c for c in coords if c != 0)
        if first < 0:
            raise ValueError(f"{canonical} is not sign-canonical")
        _set(self, "canonical", canonical)
        _set(self, "sort_key", (len(coords), coords))
        _set(self, "_hash", canonical._hash)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.canonical.coords == other.canonical.coords

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return "H[" + ",".join(str(c) for c in self.canonical.coords) + "]"


def _check_ranks(a, b) -> None:
    """Raise unless the first ids of two sequences of (SubgroupId, count)
    pairs sorted by ``sort_key`` have one rank; ``sort_key`` leads with the
    rank, so a sequence's first id has its lowest rank."""
    if a and b:
        r, s = a[0][0].sort_key[0], b[0][0].sort_key[0]
        if r != s:
            raise ValueError(f"rank mismatch: {min(r, s)} vs {max(r, s)}")


def _id_pairs(items, field: str) -> list:
    """(SubgroupId, int) pairs from (id, count) items; a key that is not a
    SubgroupId raises TypeError, naming the field."""
    pairs = []
    for h, c in items:
        if not isinstance(h, SubgroupId):
            raise TypeError(f"{field} keys must be SubgroupId, got {type(h).__name__}")
        pairs.append((h, int_from_json(c)))
    return pairs


def _pair_key(pair):
    return pair[0].sort_key


def _count_at(pairs, h: SubgroupId) -> int:
    """The count of ``h`` in a sequence of (SubgroupId, count) pairs sorted by
    ``sort_key`` with unique ids, 0 when ``h`` is absent."""
    i = bisect_left(pairs, h.sort_key, key=_pair_key)
    return pairs[i][1] if i < len(pairs) and pairs[i][0].sort_key == h.sort_key else 0


def _merge_sorted(a, s: int, b, t: int) -> tuple:
    """s*a + t*b for integers s, t and two sequences of (SubgroupId, nonzero
    count) pairs sorted by ``sort_key`` with unique ids, merged in one pass.
    Counts that cancel are dropped, the result is sorted the same way, and an
    id present on both sides keeps the object from ``a``.  Either side may be
    empty, a side scaled by 0 adds nothing (not even its objects), and a side
    scaled by 1 passes its pairs through as they are.  Raises ``ValueError``
    when both sides are nonempty and their first ids differ in rank, whatever
    the scales."""
    na, nb = len(a), len(b)
    if na and nb:
        p, q = a[0], b[0]
        hk, gk = p[0].sort_key, q[0].sort_key
        if hk[0] != gk[0]:
            _check_ranks(a, b)
    if not (s and na):
        if not (t and nb):
            return ()
        return tuple(b) if t == 1 else tuple([(g, t * d) for g, d in b])
    if not (t and nb):
        return tuple(a) if s == 1 else tuple([(h, s * c) for h, c in a])
    out = []
    append = out.append
    i = j = 0
    while True:
        if hk < gk:
            append(p if s == 1 else (p[0], s * p[1]))
            i += 1
            if i == na:
                break
            p = a[i]
            hk = p[0].sort_key
        elif gk < hk:
            append(q if t == 1 else (q[0], t * q[1]))
            j += 1
            if j == nb:
                break
            q = b[j]
            gk = q[0].sort_key
        else:
            c = s * p[1] + t * q[1]
            if c:
                append((p[0], c))
            i += 1
            j += 1
            if i == na or j == nb:
                break
            p, q = a[i], b[j]
            hk, gk = p[0].sort_key, q[0].sort_key
    # one side is used up; the other's rest follows, scaled
    if i < na:
        out += a[i:] if s == 1 else [(h, s * c) for h, c in a[i:]]
    if j < nb:
        out += b[j:] if t == 1 else [(g, t * d) for g, d in b[j:]]
    return tuple(out)


def canonicalize(mu: RestrictedWeight) -> SubgroupId:
    """Identifier of H_mu: the representative of {mu, -mu} whose first nonzero
    coordinate is positive.  Raises for the zero weight, which fixes the whole
    torus rather than a codimension-one subgroup."""
    if mu.is_zero():
        raise ValueError("zero weight has no codimension-one subgroup")
    first = next(c for c in mu.coords if c != 0)
    return SubgroupId(mu if first > 0 else -mu)

