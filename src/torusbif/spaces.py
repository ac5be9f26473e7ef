"""Compact symmetric space descriptors and exact Laplace-Beltrami spectra.

A space of rank r is described by the Gram matrix of its simple restricted
roots (exact rationals, positive definite) and the vector rho, the half-sum of
positive restricted roots with multiplicities, in simple-root coordinates.
The eigenvalue attached to a dominant weight alpha is

    lambda_alpha = (alpha + rho, alpha + rho) - (rho, rho)
                 = (alpha, alpha) + 2 (alpha, rho),

computed exactly in the Gram form.  Distinct dominant weights may share an
eigenvalue; a spectral level collects all of them together with the real
eigenspace dimension and its decomposition into irreducible torus blocks.

Sphere and product-of-spheres presets normalize each factor so that the
sphere spectrum is k(k + n - 1) on the nose: Gram = identity, rho_i = (n_i-1)/2.
Their eigenspace decompositions come from a monomial-counting oracle for
spherical harmonics; generic spaces read user-supplied weight tables instead.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

from ._record import Record, _set
from .jsonio import _echo, _int_literal, frac_from_json, frac_to_json, int_from_json
from .weights import RestrictedWeight, SubgroupId, _check_ranks, _count_at, _id_pairs, _merge_sorted, _pair_key

# ---------------------------------------------------------------------------
# torus representation data
# ---------------------------------------------------------------------------


class TorusRepDecomposition(Record):
    """Multiplicities of a real torus representation: k0 trivial lines plus
    k_mu rotation planes for each canonical weight mu, all of one rank."""

    k0: int
    mults: tuple[tuple[SubgroupId, int], ...]
    __slots__ = _fields = ("k0", "mults")

    def __init__(self, k0: int, mults):
        k0 = int_from_json(k0)
        if k0 < 0:
            raise ValueError("k0 must be nonnegative")
        items = tuple(sorted(_id_pairs(mults, "mults"), key=_pair_key))
        if any(m <= 0 for _, m in items):
            raise ValueError("plane multiplicities must be positive")
        if len({h for h, _ in items}) != len(items):
            raise ValueError("duplicate weight id in decomposition")
        _check_ranks(items, items[-1:])  # lowest rank against highest
        _set(self, "k0", k0)
        _set(self, "mults", items)

    def multiplicity(self, h: SubgroupId) -> int:
        return _count_at(self.mults, h)

    @property
    def total_dim(self) -> int:
        return self.k0 + 2 * sum(m for _, m in self.mults)

    def __add__(self, other: "TorusRepDecomposition") -> "TorusRepDecomposition":
        # both sides are validated, so the merge is sorted, positive and free
        # of duplicates: it skips __init__, and _merge_sorted refuses two ranks
        out = object.__new__(TorusRepDecomposition)
        _set(out, "k0", self.k0 + other.k0)
        _set(out, "mults", _merge_sorted(self.mults, 1, other.mults, 1))
        return out

    def to_json(self) -> dict:
        return {
            "k0": self.k0,
            "mults": [{"H": h.canonical.to_json(), "mult": m} for h, m in self.mults],
        }


class SpectralLevel(Record):
    """One eigenvalue of -Delta with every dominant weight realizing it."""

    eigenvalue: Fraction
    alphas: tuple[RestrictedWeight, ...]
    torus_decomp: TorusRepDecomposition
    __slots__ = _fields = ("eigenvalue", "alphas", "torus_decomp")

    @property
    def real_dim(self) -> int:
        return self.torus_decomp.total_dim

    def to_json(self) -> dict:
        return {
            "eigenvalue": frac_to_json(self.eigenvalue),
            "alphas": [a.to_json() for a in self.alphas],
            "real_dim": self.real_dim,
            "decomposition": self.torus_decomp.to_json(),
        }


# ---------------------------------------------------------------------------
# generic-space weight tables
# ---------------------------------------------------------------------------

TableRow = tuple[RestrictedWeight, tuple[tuple[RestrictedWeight, int], ...]]


class GenericTables(Record):
    """Complex restricted-weight multiplicities per irreducible summand,
    supplied by the user for spaces without a built-in oracle.  Each row lists
    every weight of the summand with highest weight alpha, negatives included;
    the complex dimension is the multiplicity total.  Each alpha has one row,
    and each weight of a row appears once, with an integer multiplicity at
    least 1 and the rank of its alpha.  ``rows`` is the canonical form, in
    coordinate order of alpha and of mu whatever the order given, and
    ``by_alpha`` maps alpha coords to that row as {mu coords: mult}."""

    rows: tuple[TableRow, ...]
    _fields = ("rows",)
    __slots__ = ("rows", "by_alpha")

    def __init__(self, rows: Iterable[TableRow]):
        table: dict[tuple[int, ...], tuple[RestrictedWeight, dict]] = {}
        for alpha, weights in rows:
            if alpha.coords in table:
                raise ValueError(f"weight tables repeat alpha {alpha}")
            row: dict[tuple[int, ...], tuple[RestrictedWeight, int]] = {}
            table[alpha.coords] = alpha, row
            for mu, mult in weights:
                if mu.coords in row:
                    raise ValueError(f"weight tables repeat mu {mu} at alpha {alpha}")
                mult = int_from_json(mult)
                if mult < 1:
                    raise ValueError(f"weight tables need mult >= 1, got {_echo(mult)} for mu {mu} at alpha {alpha}")
                if mu.rank != alpha.rank:
                    raise ValueError(
                        f"weight tables give mu {mu} of rank {mu.rank} at alpha {alpha} of rank {alpha.rank}"
                    )
                row[mu.coords] = mu, mult
        rows = tuple((alpha, tuple(map(row.get, sorted(row)))) for alpha, row in map(table.get, sorted(table)))
        _set(self, "rows", rows)
        _set(self, "by_alpha", {alpha.coords: {mu.coords: m for mu, m in row} for alpha, row in rows})

    @classmethod
    def from_json(cls, data) -> "GenericTables":
        return cls(
            (RestrictedWeight(entry["alpha"]), [(RestrictedWeight(w["mu"]), w["mult"]) for w in entry["weights"]])
            for entry in data["entries"]
        )


# ---------------------------------------------------------------------------
# space descriptor
# ---------------------------------------------------------------------------


def _minor_det(gram: Sequence[Sequence[Fraction]], idx: Sequence[int]) -> Fraction:
    # exact Gaussian elimination on the principal minor over the indices idx
    a = [[Fraction(gram[i][j]) for j in idx] for i in idx]
    size = len(a)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, size):
            factor = a[r][col] / a[col][col]
            for c in range(col, size):
                a[r][c] -= factor * a[col][c]
    return det


def _sphere_form(ns: Sequence[int]) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[Fraction, ...]]:
    """Gram = identity and rho_i = (n_i - 1)/2, so S^n has spectrum k(k + n - 1)."""
    r = len(ns)
    gram = tuple(tuple(Fraction(int(i == j)) for j in range(r)) for i in range(r))
    return gram, tuple(Fraction(n - 1, 2) for n in ns)


class SymmetricSpaceData(Record):
    """Exact descriptor: Gram matrix of simple restricted roots, rho in
    simple-root coordinates, and exactly one weight oracle, the sphere factors
    of a product of spheres or user-supplied weight tables.  Sphere factors
    fix the Gram matrix and rho, and a descriptor that states others is
    refused."""

    gram: tuple[tuple[Fraction, ...], ...]
    rho: tuple[Fraction, ...]
    factors: tuple[int, ...] | None
    tables: GenericTables | None
    _fields = ("gram", "rho", "factors", "tables")
    __slots__ = _fields + ("_integer_form",)

    def __init__(self, gram, rho, factors=None, tables=None):
        gram = tuple(tuple(frac_from_json(x) for x in row) for row in gram)
        rho = tuple(frac_from_json(x) for x in rho)
        if (factors is None) == (tables is None):
            raise ValueError("a space needs exactly one weight oracle: sphere factors or weight tables")
        if factors is not None:
            factors = tuple(int_from_json(n) for n in factors)
            if any(n < 2 for n in factors):
                raise ValueError("each sphere factor needs n >= 2")
            if (gram, rho) != _sphere_form(factors):
                raise ValueError(f"sphere factors {list(factors)} fix gram = identity and rho_i = (n_i - 1)/2")
        r = len(gram)
        if r < 1:
            raise ValueError("rank must be positive")
        if any(len(row) != r for row in gram):
            raise ValueError("gram must be a rank x rank matrix")
        if len(rho) != r:
            raise ValueError("rho must have length rank")
        if tables is not None:
            for alpha, _ in tables.rows:
                if alpha.rank != r:
                    raise ValueError(f"weight tables give alpha {alpha} of rank {alpha.rank}, but gram has rank {r}")
        for i in range(r):
            for j in range(i):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("gram must be symmetric")
        for size in range(1, r + 1):
            if _minor_det(gram, range(size)) <= 0:
                raise ValueError("gram must be positive definite")
        # (alpha_i, rho) >= 0 keeps the spectrum enumeration bound valid
        pairings = [sum(gram[i][j] * rho[j] for j in range(r)) for i in range(r)]
        if any(x < 0 for x in pairings):
            raise ValueError("rho must pair nonnegatively with every simple root")
        # the eigenvalue form over one common denominator: den * lambda_alpha
        # = alpha . (den G) alpha + alpha . (2 den G rho), all integers
        den = math.lcm(*(x.denominator for row in gram for x in row), *((2 * x).denominator for x in pairings))
        scaled = (
            den,
            tuple(tuple(int(x * den) for x in row) for row in gram),
            tuple(int(2 * x * den) for x in pairings),
        )
        _set(self, "gram", gram)
        _set(self, "rho", rho)
        _set(self, "factors", factors)
        _set(self, "tables", tables)
        _set(self, "_integer_form", scaled)

    # -- presets --------------------------------------------------------------

    @classmethod
    def sphere(cls, n: int) -> "SymmetricSpaceData":
        """Round n-sphere, n >= 2, normalized so lambda_k = k(k + n - 1)."""
        return cls.product_of_spheres((n,))

    @classmethod
    def product_of_spheres(cls, factors: Iterable[int]) -> "SymmetricSpaceData":
        """Product S^{n_1} x ... x S^{n_s}; Gram block diagonal, rho concatenated."""
        ns = tuple(int_from_json(n) for n in factors)
        return cls(*_sphere_form(ns), factors=ns)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def __str__(self) -> str:
        if self.factors is not None:
            return " x ".join(f"S^{n}" for n in self.factors)
        return f"generic rank-{self.rank} space"


def load_space(descriptor: dict, base_dir=None) -> SymmetricSpaceData:
    """Build a space from its config form: {"kind":"sphere","n":2},
    {"kind":"product","factors":[2,3]}, or
    {"kind":"generic","gram":[[..]],"rho":[..],"tables":"path"}."""
    kind = descriptor.get("kind")
    if kind == "sphere":
        return SymmetricSpaceData.sphere(descriptor["n"])
    if kind == "product":
        return SymmetricSpaceData.product_of_spheres(descriptor["factors"])
    if kind == "generic":
        gram, rho, tables = descriptor["gram"], descriptor["rho"], descriptor["tables"]
        if isinstance(tables, str):
            with open(Path(base_dir or "", tables), "r", encoding="utf-8") as fh:
                tables = json.load(fh, parse_int=_int_literal)
        return SymmetricSpaceData(gram, rho, tables=GenericTables.from_json(tables))
    raise ValueError(f"unknown space kind {_echo(kind, repr)}")


# ---------------------------------------------------------------------------
# eigenvalues and enumeration
# ---------------------------------------------------------------------------


def eigenvalue_of(space: SymmetricSpaceData, alpha: RestrictedWeight) -> Fraction:
    """Exact eigenvalue (alpha, alpha) + 2 (alpha, rho) of a dominant weight."""
    if alpha.rank != space.rank:
        raise ValueError(f"rank mismatch: weight has rank {alpha.rank}, space {space.rank}")
    if not alpha.is_dominant():
        raise ValueError("alpha not dominant")
    den, gram, linear = space._integer_form
    coords = alpha.coords
    scaled = sum(c * (sum(g * a for g, a in zip(row, coords)) + b) for c, row, b in zip(coords, gram, linear))
    return Fraction(scaled, den)


# The most candidate weights, the points of the box of _coordinate_bound,
# that one spectrum enumerates; a larger box is refused before it is walked.
LATTICE_LIMIT = 10**6
# The most harmonics, the summed dimension of the levels up to the cutoff,
# that one spectrum builds weight maps for; a larger count is refused before
# the first map is built.  Peak RSS grows about linearly in the count, by
# about 0.9 KB a harmonic for decompose, the largest: on (S^2)^3 it peaks at
# 1227 MB at cutoff 200 (1,365,223 harmonics) and at 1730 MB at cutoff 225
# (1,954,599), which still answers under a 2.5 GB address-space cap.
HARMONIC_LIMIT = 2 * 10**6


def _coordinate_bound(gram: Sequence[Sequence[Fraction]], cutoff: Fraction) -> tuple[int, ...]:
    """Exact box bound on dominant coordinates with (alpha, alpha) <= cutoff:
    alpha_i^2 <= (alpha, alpha) (G^-1)_ii by Cauchy-Schwarz, with (G^-1)_ii the
    cofactor ratio det G_(ii) / det G.  Candidates are filtered exactly after."""
    r = len(gram)
    det = _minor_det(gram, range(r))
    return tuple(
        math.isqrt(math.floor(cutoff * _minor_det(gram, [j for j in range(r) if j != i]) / det))
        for i in range(r)
    )


def _eigenvalue_groups(space: SymmetricSpaceData, cutoff) -> list[tuple[Fraction, tuple[RestrictedWeight, ...], int, int, int, int]]:
    """The one group stream of the range functions: the dominant weights with
    eigenvalue <= cutoff by exact eigenvalue, ascending, each group (lam,
    alphas, d_v, k0_v, d_w, k0_w) with its alphas in coordinate order, the
    dimension and trivial multiplicity of V at lam, each alpha counted once,
    and those of W, all lower levels.  One ``eigenvalue_of`` per box point; a
    box past ``LATTICE_LIMIT`` points is refused before it is walked."""
    cutoff = frac_from_json(cutoff)
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    bounds = _coordinate_bound(space.gram, cutoff)
    count = math.prod(b + 1 for b in bounds)
    if count > LATTICE_LIMIT:
        count_text = str(count) if count.bit_length() < 64 else f"about 10^{math.log10(count):.1f}"
        raise ValueError(
            f"the cutoff spans a lattice box of {count_text} candidate weights, "
            f"more than LATTICE_LIMIT = {LATTICE_LIMIT}"
        )
    by_eig: dict[Fraction, list[RestrictedWeight]] = {}
    # the box is walked in coordinate order, so each group comes out sorted
    for coords in itertools.product(*(range(b + 1) for b in bounds)):
        alpha = RestrictedWeight(coords)
        lam = eigenvalue_of(space, alpha)
        if lam <= cutoff:
            by_eig.setdefault(lam, []).append(alpha)
    zero = (0,) * space.rank
    groups, d_w, k0_w = [], 0, 0
    for lam, alphas in sorted(by_eig.items()):
        d_v = sum(_weight_count(space, a) for a in alphas)
        k0_v = sum(_weight_count(space, a, zero) for a in alphas)
        groups.append((lam, tuple(alphas), d_v, k0_v, d_w, k0_w))
        d_w, k0_w = d_w + d_v, k0_w + k0_v
    return groups


def spectrum_up_to(space: SymmetricSpaceData, cutoff) -> tuple[SpectralLevel, ...]:
    """All spectral levels with eigenvalue <= cutoff, sorted ascending.

    Enumeration terminates because the Gram form is positive definite and rho
    pairs nonnegatively with dominant weights, so (alpha, alpha) <= cutoff
    bounds every coordinate; a box of more than ``LATTICE_LIMIT`` points is
    refused with ``ValueError`` before it is walked, and a cutoff that admits
    more than ``HARMONIC_LIMIT`` harmonics before any weight map is built.
    Grouping is by exact rational equality.
    """
    return tuple(level for level, _ in _levels_with_maps(space, cutoff))


def summand_decompositions(
    space: SymmetricSpaceData, cutoff
) -> tuple[tuple[SpectralLevel, tuple[TorusRepDecomposition, ...]], ...]:
    """The levels of ``spectrum_up_to``, each with the torus decomposition
    of each of its summands, in the order of its alphas.  Each summand's
    weight map is built once and read for both, and one level's maps are
    held at a time.  A range is refused as ``spectrum_up_to`` refuses it, and
    so is a summand of a table that is real only with its conjugates."""
    return tuple(
        (level, tuple(_summand_decomposition(space, level, a, pairs) for a, pairs in zip(level.alphas, maps)))
        for level, maps in _levels_with_maps(space, cutoff)
    )


def _summand_decomposition(space: SymmetricSpaceData, level: SpectralLevel, alpha, pairs) -> TorusRepDecomposition:
    try:
        return _decomposition(space, (pairs,))
    except ValueError:  # _summed_weights' refusal, the one a summand of a real level can meet
        raise ValueError(
            f"decompose lists one real summand per alpha, but alpha {alpha} at lambda = {level.eigenvalue} "
            "is not real by itself: its weights are not conjugation-symmetric"
        ) from None


def _levels_with_maps(space: SymmetricSpaceData, cutoff):
    """Each level of ``spectrum_up_to`` with the weight maps of its summands,
    one ``_alpha_weight_map`` per alpha, after the stream's harmonic count,
    the last group's d_w + d_v, is checked against ``HARMONIC_LIMIT``."""
    groups = _eigenvalue_groups(space, cutoff)
    _, _, d_v, _, d_w, _ = groups[-1]  # a cutoff is nonnegative, so lambda = 0 makes a group
    if d_w + d_v > HARMONIC_LIMIT:
        raise ValueError(f"the cutoff admits {d_w + d_v} harmonics, more than HARMONIC_LIMIT = {HARMONIC_LIMIT}")
    for lam, alphas, *_ in groups:
        maps = [_alpha_weight_map(space, a) for a in alphas]
        decomp = _decomposition(space, maps)
        if space.factors is not None:
            # sphere factors count the dimension a second, independent way;
            # a table's only count is the sum of its own multiplicities
            real_dim = sum(math.prod(map(harmonic_dim, space.factors, a.coords)) for a in alphas)
            if decomp.total_dim != real_dim:
                raise ValueError(
                    f"decomposition dimension {decomp.total_dim} != eigenspace dimension {real_dim} at lambda={lam}"
                )
        yield SpectralLevel(lam, alphas, decomp), maps


# ---------------------------------------------------------------------------
# spherical-harmonic counting oracle
# ---------------------------------------------------------------------------


def _monomial_count(degree: int, nvars: int) -> int:
    if degree < 0:
        return 0
    return math.comb(degree + nvars - 1, nvars - 1)


def harmonic_dim(n: int, k: int) -> int:
    """Dimension of the degree-k spherical harmonics on S^n.

    Counted as homogeneous degree-k monomials in n+1 variables minus those of
    degree k-2 (the image of multiplication by the squared radius), so the
    value is derived from counting rather than from a quoted dimension formula.
    """
    n, k = int_from_json(n), int_from_json(k)
    if n < 2:
        raise ValueError("need n >= 2")
    if k < 0:
        raise ValueError("need k >= 0")
    return _monomial_count(k, n + 1) - _monomial_count(k - 2, n + 1)


def sphere_weight_multiplicity(n: int, k: int, m: int) -> int:
    """Multiplicity of the rotation weight m in the complexified degree-k
    harmonics on S^n.

    Counting oracle: in coordinates z = x_0 + i x_1 (weight +1), conj(z)
    (weight -1) and the n-1 rotation-fixed variables (weight 0), the weight-m
    multiplicity among degree-d monomials is

        N(d, m) = sum_c #{monomials of degree c in n-1 variables}
                  over c with d - c >= |m| and d - c = m (mod 2),

    and the harmonic multiplicity is N(k, m) - N(k-2, m).
    """
    n, k, m = int_from_json(n), int_from_json(k), int_from_json(m)
    if n < 2 or k < 0:
        raise ValueError("need n >= 2 and k >= 0")

    def count(d: int) -> int:
        if d < 0:
            return 0
        total = 0
        for c in range(d + 1):
            rest = d - c
            if rest >= abs(m) and (rest - m) % 2 == 0:
                total += _monomial_count(c, n - 1)
        return total

    return count(k) - count(k - 2)


@lru_cache(maxsize=None)
def _factor_weights(n: int, k: int) -> dict[int, int]:
    """Rotation weight m -> its multiplicity in the degree-k harmonics on
    S^n, for the m of nonzero multiplicity in ascending order.  Shared
    between callers: read it, never change it."""
    out = {}
    for m in range(-k, k + 1):
        mult = sphere_weight_multiplicity(n, k, m)
        if mult:
            out[m] = mult
    return out


def _alpha_weight_map(space: SymmetricSpaceData, alpha: RestrictedWeight) -> Iterable[tuple[tuple[int, ...], int]]:
    """Complex restricted-weight multiplicities of the irreducible summand with
    highest weight alpha, as (coords, mult) pairs; table weights come in
    coordinate order."""
    if space.factors is not None:
        acc: dict[tuple[int, ...], int] = {(): 1}
        for n, k in zip(space.factors, alpha.coords):
            nxt: dict[tuple[int, ...], int] = {}
            for prefix, mult in acc.items():
                for m, fm in _factor_weights(n, k).items():
                    key = prefix + (m,)
                    nxt[key] = nxt.get(key, 0) + mult * fm
            acc = nxt
        return acc.items()
    return _table_row(space, alpha).items()


def _table_row(space: SymmetricSpaceData, alpha: RestrictedWeight) -> dict[tuple[int, ...], int]:
    entry = space.tables.by_alpha.get(alpha.coords)
    if entry is None:
        raise ValueError(f"weight tables required: no entry for alpha {alpha}")
    return entry


def _weight_count(space: SymmetricSpaceData, alpha: RestrictedWeight, mu: tuple[int, ...] | None = None) -> int:
    """The complex multiplicity of the weight ``mu`` (coordinates) in the
    irreducible summand with highest weight alpha, or with ``mu`` None the sum
    of all its multiplicities, its complex dimension: a product over sphere
    factors, or a lookup in the table row."""
    if space.factors is not None:
        count = 1
        for i, (n, k) in enumerate(zip(space.factors, alpha.coords)):
            per_m = _factor_weights(n, k)
            count *= sum(per_m.values()) if mu is None else per_m.get(mu[i], 0)
            if not count:
                break
        return count
    row = _table_row(space, alpha)
    return sum(row.values()) if mu is None else row.get(mu, 0)


def _summed_weights(maps) -> dict[tuple[int, ...], int]:
    """The sum of summands' weight maps, each (coords, mult) pairs, refused
    with ``ValueError`` unless it is that of a real representation."""
    weights: dict[tuple[int, ...], int] = {}
    for pairs in maps:
        for coords, mult in pairs:
            weights[coords] = weights.get(coords, 0) + mult
    for coords, mult in weights.items():
        if weights.get(tuple(-c for c in coords), 0) != mult:
            raise ValueError(
                f"weight multiplicities are not conjugation-symmetric at {coords}: "
                "not the complexification of a real representation"
            )
    return weights


def _decomposition(space: SymmetricSpaceData, maps) -> TorusRepDecomposition:
    """The torus decomposition of the sum of summands' weight maps."""
    weights = _summed_weights(maps)
    zero = tuple([0] * space.rank)
    # one id per pair {mu, -mu}, built from its sign-canonical member;
    # coordinates are unique keys, so each id comes once
    mults = (
        (SubgroupId(RestrictedWeight(coords)), mult)
        for coords, mult in weights.items()
        if coords != zero and next(c for c in coords if c) > 0
    )
    return TorusRepDecomposition(weights.get(zero, 0), mults)
