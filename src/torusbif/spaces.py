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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterable, Sequence

from .jsonio import frac_from_json, frac_to_json, int_from_json
from .weights import RestrictedWeight, SubgroupId, _check_ranks, _count_at, _merge_sorted, _pair_key

# ---------------------------------------------------------------------------
# torus representation data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusRepDecomposition:
    """Multiplicities of a real torus representation: k0 trivial lines plus
    k_mu rotation planes for each canonical weight mu, all of one rank."""

    k0: int
    mults: tuple[tuple[SubgroupId, int], ...]

    def __post_init__(self):
        k0 = int_from_json(self.k0)
        if k0 < 0:
            raise ValueError("k0 must be nonnegative")
        items = tuple(sorted(((h, int_from_json(m)) for h, m in self.mults), key=_pair_key))
        if any(m <= 0 for _, m in items):
            raise ValueError("plane multiplicities must be positive")
        if len({h for h, _ in items}) != len(items):
            raise ValueError("duplicate weight id in decomposition")
        _check_ranks(items, items[-1:])  # lowest rank against highest
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "mults", items)

    @classmethod
    def from_dict(cls, k0: int, mults: dict[SubgroupId, int]) -> "TorusRepDecomposition":
        return cls(k0, tuple((h, m) for h, m in mults.items() if m != 0))

    def multiplicity(self, h: SubgroupId) -> int:
        return _count_at(self.mults, h)

    @property
    def total_dim(self) -> int:
        return self.k0 + 2 * sum(m for _, m in self.mults)

    def __add__(self, other: "TorusRepDecomposition") -> "TorusRepDecomposition":
        # both sides are validated, so the merge is sorted, positive and free
        # of duplicates: it skips __post_init__ once the ranks agree
        _check_ranks(self.mults, other.mults)
        out = object.__new__(TorusRepDecomposition)
        out.__dict__.update(k0=self.k0 + other.k0, mults=_merge_sorted(self.mults, 1, other.mults, 1))
        return out

    def to_json(self) -> dict:
        return {
            "k0": self.k0,
            "mults": [{"H": h.canonical.to_json(), "mult": m} for h, m in self.mults],
        }


@dataclass(frozen=True)
class SpectralLevel:
    """One eigenvalue of -Delta with every dominant weight realizing it."""

    eigenvalue: Fraction
    alphas: tuple[RestrictedWeight, ...]
    torus_decomp: TorusRepDecomposition

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


@dataclass(frozen=True)
class GenericTables:
    """Complex restricted-weight multiplicities per irreducible summand,
    supplied by the user for spaces without a built-in oracle.  Each row lists
    every weight of the summand with highest weight alpha, negatives included;
    the complex dimension is the multiplicity total.  Each alpha has one
    row, and each weight of a row appears once, with multiplicity at least 1
    and the rank of its alpha."""

    rows: tuple[TableRow, ...]

    def __post_init__(self):
        seen = set()
        for alpha, weights in self.rows:
            if alpha in seen:
                raise ValueError(f"weight tables repeat alpha {alpha}")
            seen.add(alpha)
            mus = set()
            for mu, mult in weights:
                if mu in mus:
                    raise ValueError(f"weight tables repeat mu {mu} at alpha {alpha}")
                mus.add(mu)
                if mult < 1:
                    raise ValueError(f"weight tables need mult >= 1, got {mult} for mu {mu} at alpha {alpha}")
                if mu.rank != alpha.rank:
                    raise ValueError(
                        f"weight tables give mu {mu} of rank {mu.rank} at alpha {alpha} of rank {alpha.rank}"
                    )

    @cached_property
    def by_alpha(self) -> dict[RestrictedWeight, dict[RestrictedWeight, int]]:
        return {alpha: dict(ws) for alpha, ws in self.rows}

    @classmethod
    def from_json(cls, data) -> "GenericTables":
        rows = []
        for entry in data["entries"]:
            alpha = RestrictedWeight.from_json(entry["alpha"])
            weights = tuple(
                sorted(
                    ((RestrictedWeight.from_json(w["mu"]), int_from_json(w["mult"])) for w in entry["weights"]),
                    key=lambda wm: wm[0].coords,
                )
            )
            rows.append((alpha, weights))
        return cls(tuple(sorted(rows, key=lambda r: r[0].coords)))

    @classmethod
    def load(cls, path) -> "GenericTables":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


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


@dataclass(frozen=True)
class SymmetricSpaceData:
    """Exact descriptor: Gram matrix of simple restricted roots, rho in
    simple-root coordinates, and exactly one weight oracle, the sphere factors
    of a product of spheres or user-supplied weight tables.  Sphere factors
    fix the Gram matrix and rho, and a descriptor that states others is
    refused."""

    gram: tuple[tuple[Fraction, ...], ...]
    rho: tuple[Fraction, ...]
    factors: tuple[int, ...] | None = None
    tables: GenericTables | None = None

    def __post_init__(self):
        gram = tuple(tuple(Fraction(x) for x in row) for row in self.gram)
        rho = tuple(Fraction(x) for x in self.rho)
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "rho", rho)
        if (self.factors is None) == (self.tables is None):
            raise ValueError("a space needs exactly one weight oracle: sphere factors or weight tables")
        if self.factors is not None:
            ns = tuple(int_from_json(n) for n in self.factors)
            if any(n < 2 for n in ns):
                raise ValueError("each sphere factor needs n >= 2")
            if (gram, rho) != _sphere_form(ns):
                raise ValueError(f"sphere factors {list(ns)} fix gram = identity and rho_i = (n_i - 1)/2")
            object.__setattr__(self, "factors", ns)
        r = len(gram)
        if r < 1:
            raise ValueError("rank must be positive")
        if any(len(row) != r for row in gram):
            raise ValueError("gram must be a rank x rank matrix")
        if len(rho) != r:
            raise ValueError("rho must have length rank")
        if self.tables is not None:
            for alpha, _ in self.tables.rows:
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
        for i in range(r):
            if sum(gram[i][j] * rho[j] for j in range(r)) < 0:
                raise ValueError("rho must pair nonnegatively with every simple root")

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

    # -- exact inner product ---------------------------------------------------

    def inner(self, x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        return sum(
            Fraction(x[i]) * self.gram[i][j] * Fraction(y[j])
            for i in range(self.rank)
            for j in range(self.rank)
        )

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
        gram = [[frac_from_json(x) for x in row] for row in descriptor["gram"]]
        rho = [frac_from_json(x) for x in descriptor["rho"]]
        tables = descriptor["tables"]
        if isinstance(tables, str):
            path = Path(tables)
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            tables = GenericTables.load(path)
        else:
            tables = GenericTables.from_json(tables)
        return SymmetricSpaceData(gram, rho, tables=tables)
    raise ValueError(f"unknown space kind {kind!r}")


# ---------------------------------------------------------------------------
# eigenvalues and enumeration
# ---------------------------------------------------------------------------


def eigenvalue_of(space: SymmetricSpaceData, alpha: RestrictedWeight) -> Fraction:
    """Exact eigenvalue (alpha, alpha) + 2 (alpha, rho) of a dominant weight."""
    if alpha.rank != space.rank:
        raise ValueError(f"rank mismatch: weight has rank {alpha.rank}, space {space.rank}")
    if not alpha.is_dominant():
        raise ValueError("alpha not dominant")
    coords = [Fraction(c) for c in alpha.coords]
    return space.inner(coords, coords) + 2 * space.inner(coords, space.rho)


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


def spectrum_up_to(space: SymmetricSpaceData, cutoff) -> tuple[SpectralLevel, ...]:
    """All spectral levels with eigenvalue <= cutoff, sorted ascending.

    Enumeration terminates because the Gram form is positive definite and rho
    pairs nonnegatively with dominant weights, so (alpha, alpha) <= cutoff
    bounds every coordinate.  Grouping is by exact rational equality.
    """
    cutoff = Fraction(cutoff)
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    bounds = _coordinate_bound(space.gram, cutoff)
    by_eig: dict[Fraction, list[RestrictedWeight]] = {}
    for coords in itertools.product(*(range(b + 1) for b in bounds)):
        alpha = RestrictedWeight(coords)
        lam = eigenvalue_of(space, alpha)
        if lam <= cutoff:
            by_eig.setdefault(lam, []).append(alpha)
    levels = []
    for lam in sorted(by_eig):
        alphas = tuple(sorted(by_eig[lam], key=lambda a: a.coords))
        decomp = _decompose_alphas(space, alphas)
        if space.factors is not None:
            # sphere factors count the dimension a second, independent way;
            # a table's only count is the sum of its own multiplicities
            real_dim = sum(math.prod(map(harmonic_dim, space.factors, a.coords)) for a in alphas)
            if decomp.total_dim != real_dim:
                raise ValueError(
                    f"decomposition dimension {decomp.total_dim} != eigenspace dimension {real_dim} at lambda={lam}"
                )
        levels.append(SpectralLevel(lam, alphas, decomp))
    return tuple(levels)


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
def _factor_weights(n: int, k: int) -> tuple[tuple[int, int], ...]:
    out = []
    for m in range(-k, k + 1):
        mult = sphere_weight_multiplicity(n, k, m)
        if mult:
            out.append((m, mult))
    return tuple(out)


def _alpha_weight_map(space: SymmetricSpaceData, alpha: RestrictedWeight) -> Iterable[tuple[tuple[int, ...], int]]:
    """Complex restricted-weight multiplicities of the irreducible summand with
    highest weight alpha, as (coords, mult) pairs; table weights come in
    coordinate order."""
    if space.factors is not None:
        acc: dict[tuple[int, ...], int] = {(): 1}
        for n, k in zip(space.factors, alpha.coords):
            nxt: dict[tuple[int, ...], int] = {}
            for prefix, mult in acc.items():
                for m, fm in _factor_weights(n, k):
                    key = prefix + (m,)
                    nxt[key] = nxt.get(key, 0) + mult * fm
            acc = nxt
        return acc.items()
    entry = space.tables.by_alpha.get(alpha)
    if entry is None:
        raise ValueError(f"weight tables required: no entry for alpha {alpha}")
    return sorted((mu.coords, m) for mu, m in entry.items())


def _decompose_alphas(space: SymmetricSpaceData, alphas: Iterable[RestrictedWeight]) -> TorusRepDecomposition:
    weights: dict[tuple[int, ...], int] = {}
    for alpha in alphas:
        for coords, mult in _alpha_weight_map(space, alpha):
            weights[coords] = weights.get(coords, 0) + mult
    zero = tuple([0] * space.rank)
    k0 = weights.get(zero, 0)
    mults: dict[SubgroupId, int] = {}
    for coords, mult in weights.items():
        if coords == zero:
            continue
        if weights.get(tuple(-c for c in coords), 0) != mult:
            raise ValueError(
                f"weight multiplicities are not conjugation-symmetric at {coords}: "
                "not the complexification of a real representation"
            )
        # one id per pair {mu, -mu}, built from its sign-canonical member;
        # coordinates are unique keys, so each id is set once
        if next(c for c in coords if c) > 0:
            mults[SubgroupId(RestrictedWeight(coords))] = mult
    return TorusRepDecomposition.from_dict(k0, mults)


def alpha_decomposition(space: SymmetricSpaceData, alpha: RestrictedWeight) -> TorusRepDecomposition:
    """Torus decomposition of the single irreducible summand with highest
    weight alpha (one piece of a possibly degenerate level)."""
    return _decompose_alphas(space, (alpha,))
