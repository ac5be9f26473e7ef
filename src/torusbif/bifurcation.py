"""Equivariant bifurcation indices in the truncated Euler ring, and
unboundedness certificates for the bifurcating continua.

For a system of p equations with Laplacian signs a_i in {-1, +1} (n_+ of them
positive, n_- negative), the trivial branch loses invertibility exactly on

    Lambda = sigma        if n_- > 0 and n_+ = 0,
             -sigma       if n_+ > 0 and n_- = 0,
             sigma U -sigma otherwise,

where sigma is the spectrum of -Delta.  At a nonzero candidate level the index
is a product of degrees of -Id on the unit balls of the eigenspace V at that
level and the span W of all lower eigenspaces:

    index(+lam) = deg(W)^{n_-} * (deg(V)^{n_-} - I),
    index(-lam) = deg(W + V)^{-n_+} * (deg(V)^{n_+} - I),
    index(0)    = ((-1)^{n_-} - (-1)^{n_+}) I,

with deg the sign (-1)^{k0} times (I - sum of plane multiplicities).  The
product of two codimension-one classes has no unit or codimension-one part, so
these products expand into one linear combination of multiplicities.  With s
the sign of the level, (n, X) = (n_-, W) for s = +1 and (n_+, W + V) for
s = -1, k_X the plane multiplicities of X and u_X = (-1)^{k0(X) n},

    index(s lam) = u_X (u_V - 1) I - n u_X [s (u_V - 1) k_X + u_V k_V],

which is how the index is evaluated; no ring product is formed.  The
coefficient of the subgroup id of alpha in index(+-lambda_alpha) has the closed
form (-1)^{(dim W + dim V) n + 1} * n with n the relevant count n_-/n_+, and it
vanishes at every strictly lower level; a certificate records these
coefficients and the integer identity that rules out cancellation, which is
what forces any bounded return to the trivial branch into a contradiction.

Each level needs only V and W, so one ascending pass over the spectrum
serves a whole range.  Both range functions read one stream of eigenvalue
groups that enumerates the dominant weights once and gives each group's d_V,
d_W and trivial multiplicities k0 of V and W, each summand counted once.
bifurcation_levels decomposes every level (spectrum_up_to), keeps a running
sum for W, holds one eigenvalue's W and W + V at a time (every V stays in
the enumerated tuple until the pass ends) and computes each index once.
certify_levels folds over the groups and builds no decomposition: it adds
the multiplicity of each witness in V and W, one weight multiplicity per
summand, forms each ledger coefficient by the index's expansion and checks
it against witness_coefficient, the one copy of the closed form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple

from ._record import Record, _set
from .euler_ring import UNIT, EulerRingElement, _element
from .jsonio import _echo, frac_to_json, int_from_json
from .spaces import (
    SpectralLevel,
    SymmetricSpaceData,
    TorusRepDecomposition,
    _alpha_weight_map,
    _eigenvalue_groups,
    _summed_weights,
    _weight_count,
    spectrum_up_to,
)
from .weights import RestrictedWeight, SubgroupId, _merge_sorted, canonicalize


class SystemSignature(Record):
    """Ordered Laplacian signs (a_1, ..., a_p) of the system."""

    a: tuple[int, ...]
    __slots__ = _fields = ("a",)

    def __init__(self, a):
        a = tuple(int_from_json(x) for x in a)
        if not a:
            raise ValueError("signature must be nonempty")
        if any(x not in (-1, 1) for x in a):
            raise ValueError("signature entries must be +1 or -1")
        _set(self, "a", a)

    @classmethod
    def from_counts(cls, n_plus: int, n_minus: int) -> "SystemSignature":
        n_plus, n_minus = int_from_json(n_plus), int_from_json(n_minus)
        if n_plus < 0 or n_minus < 0:
            raise ValueError(f"signature counts must be nonnegative, got {n_plus} and {n_minus}")
        return cls((1,) * n_plus + (-1,) * n_minus)

    @property
    def p(self) -> int:
        return len(self.a)

    @property
    def n_plus(self) -> int:
        return sum(1 for x in self.a if x == 1)

    @property
    def n_minus(self) -> int:
        return sum(1 for x in self.a if x == -1)


class BifurcationLevel(Record):
    """Candidate level with its kernel dimension and index.  The JSON form
    marks the index ``truncated`` at nonzero levels, where codimension-two
    classes were discarded; index(0) is a multiple of the unit."""

    level: Fraction
    kernel_dim: int
    index: EulerRingElement
    __slots__ = _fields = ("level", "kernel_dim", "index")

    def to_json(self) -> dict:
        return {
            "level": frac_to_json(self.level),
            "kernel_dim": self.kernel_dim,
            "index": {**self.index.to_json(), "truncated": self.level != 0},
        }


class UnboundednessCertificate(Record):
    """Coefficient ledger showing that the continuum from a level cannot close
    up on the trivial branch, hence is unbounded.

    For a nonzero level the witness is the subgroup id of a highest weight
    realizing |level|; ``ledger`` lists the witness coefficient of the index at
    every candidate level of maximal absolute value, and their sum is nonzero.
    For level zero the witness is absent and the ledger holds the unit
    coefficient of index(0).  The flags and the conclusion are derived from
    these three fields, and a record that contradicts its level is refused
    with ``ValueError``.
    """

    level: Fraction
    witness: SubgroupId | None
    ledger: tuple[tuple[Fraction, int], ...]
    __slots__ = _fields = ("level", "witness", "ledger")

    unbounded = True  # what every issued certificate shows

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if (self.witness is None) != (self.level == 0):
            raise ValueError("a certificate has a witness exactly when its level is nonzero")
        levels = [lv for lv, _ in self.ledger]
        if not levels:
            raise ValueError("the ledger is empty")
        if any(a >= b for a, b in zip(levels, levels[1:])):
            raise ValueError("ledger levels must be strictly ascending")
        if any(abs(lv) != abs(self.level) for lv in levels):
            raise ValueError(f"every ledger level must be +-{abs(self.level)}")
        if self.coefficient_sum() == 0:
            raise ValueError("witness coefficients cancel; certificate cannot be issued")

    @property
    def symmetry_breaking(self) -> bool:
        return self.level != 0

    @property
    def conclusion(self) -> str:
        if self.level == 0:
            return (
                f"index(0) = {self.ledger[0][1]}*I != 0, so 0 is a bifurcation level; any bounded "
                "continuum through 0 would meet a nonzero candidate level, whose "
                "certificate rules out a bounded return"
            )
        return (
            f"sum {self.coefficient_sum()} != 0 at witness {self.witness}: lower levels contribute 0 there, "
            f"so no finite candidate set with max |level| = {abs(self.level)} lets the indices cancel"
        )

    def coefficient_sum(self) -> int:
        return sum(c for _, c in self.ledger)

    def to_json(self) -> dict:
        return {
            "level": frac_to_json(self.level),
            "witness": None if self.witness is None else self.witness.canonical.to_json(),
            "ledger": [{"level": frac_to_json(lv), "coeff": c} for lv, c in self.ledger],
            "conclusion": self.conclusion,
            "unbounded": self.unbounded,
            "symmetry_breaking": self.symmetry_breaking,
        }


# ---------------------------------------------------------------------------
# index computation
# ---------------------------------------------------------------------------


class _Split(NamedTuple):
    """Eigenspace V at one eigenvalue, span W of all lower ones, and W + V."""

    v: SpectralLevel
    w: TorusRepDecomposition
    wv: TorusRepDecomposition


def _sweep(space: SymmetricSpaceData, cutoff) -> Iterator[_Split]:
    """Splits at every eigenvalue up to the cutoff from one enumeration."""
    w = TorusRepDecomposition(0, ())
    for v in spectrum_up_to(space, cutoff):
        wv = w + v.torus_decomp
        yield _Split(v, w, wv)
        w = wv


def _equations_at(sig: SystemSignature, level: Fraction) -> int:
    """n_- above zero, n_+ below, p at zero; 0 means no candidate level."""
    if level == 0:
        return sig.p
    return sig.n_minus if level > 0 else sig.n_plus


def witness_coefficient(n: int, dim_parity: int) -> int:
    """Closed form (-1)^{(d_W + d_V) n + 1} * n of the witness coefficient of
    the index at +-lambda_alpha, given n (n_- for +lambda, n_+ for -lambda) and
    the parity of d_W + d_V; n is a count, so a negative n is refused."""
    n, dim_parity = int_from_json(n), int_from_json(dim_parity)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {_echo(n)}")
    return (-1) ** ((dim_parity % 2) * n + 1) * n


def _expansion(sig: SystemSignature, level: Fraction, k0_x: int, k0_v: int) -> tuple[int, int, int]:
    """(u, t_x, t_v) with index(level) = u I + t_x k_X + t_v k_V at a nonzero
    candidate level: the expansion in the module docstring, given k0 of X
    (W above zero, W + V below) and of V."""
    s, n = (1, sig.n_minus) if level > 0 else (-1, sig.n_plus)
    u_x, u_v = (-1) ** (k0_x * n), (-1) ** (k0_v * n)
    return u_x * (u_v - 1), -n * u_x * s * (u_v - 1), -n * u_x * u_v


def _index(sig: SystemSignature, level: Fraction, split: _Split) -> EulerRingElement:
    """Index across a candidate level by the expansion in the module
    docstring; the zero level does not read the split."""
    if level == 0:
        return UNIT.scaled((-1) ** sig.n_minus - (-1) ** sig.n_plus)
    x, v = split.w if level > 0 else split.wv, split.v.torus_decomp
    unit, t_x, t_v = _expansion(sig, level, x.k0, v.k0)
    return _element(unit, _merge_sorted(x.mults, t_x, v.mults, t_v))


def _indices(sig: SystemSignature, split: _Split) -> dict[Fraction, EulerRingElement]:
    """The index at each candidate level of the split's eigenvalue: +-lambda
    where the level has equations."""
    lam = split.v.eigenvalue
    return {level: _index(sig, level, split) for level in {lam, -lam} if _equations_at(sig, level)}


def bifurcation_levels(space: SymmetricSpaceData, sig: SystemSignature, cutoff) -> tuple[BifurcationLevel, ...]:
    """All candidate levels in [-cutoff, cutoff] with kernel dimensions and
    indices, sorted ascending."""
    out = [
        BifurcationLevel(level, _equations_at(sig, level) * split.v.real_dim, index)
        for split in _sweep(space, cutoff)
        for level, index in _indices(sig, split).items()
    ]
    return tuple(sorted(out, key=lambda bl: bl.level))


def cancellation_impossible(n_minus: int, n_plus: int, dim_parity: int) -> bool:
    """Integer identity behind the certificates: with n_minus > 0 or n_plus > 0
    and e = dim_parity * (n_minus - n_plus),

        (-1)^e * n_minus != -n_plus,

    since equality would force either n_minus = -n_plus <= 0 or, with e odd,
    n_minus = n_plus and hence e = 0.  Both are counts, so a negative one is
    refused."""
    n_minus, n_plus, dim_parity = int_from_json(n_minus), int_from_json(n_plus), int_from_json(dim_parity)
    if n_minus < 0 or n_plus < 0:
        raise ValueError(f"n_minus and n_plus must be nonnegative, got {_echo(n_minus)} and {_echo(n_plus)}")
    e = dim_parity * (n_minus - n_plus)
    return (-1) ** e * n_minus != -n_plus


def _certificate(
    sig: SystemSignature, level: Fraction, witness: SubgroupId | None, coeffs: dict[Fraction, int], dim_parity: int
) -> UnboundednessCertificate:
    """Certificate at a candidate level from the witness coefficients at the
    candidate levels of its eigenvalue (the unit coefficient at level zero),
    or ValueError with the reason there is none."""
    if level == 0:
        if sig.p % 2 == 0:
            raise ValueError("no bifurcation guaranteed at this level: p is even")
        return UnboundednessCertificate(Fraction(0), None, ((Fraction(0), coeffs[level]),))

    ledger = []
    for lv in sorted(coeffs):
        expected = witness_coefficient(_equations_at(sig, lv), dim_parity)
        if coeffs[lv] != expected:
            raise ValueError(
                f"index coefficient {coeffs[lv]} at {witness} disagrees with closed form {expected}"
            )
        ledger.append((lv, coeffs[lv]))

    if not cancellation_impossible(sig.n_minus, sig.n_plus, dim_parity):
        raise ValueError("cancellation identity failed; certificate cannot be issued")
    return UnboundednessCertificate(level, witness, tuple(ledger))


def certify_levels(space: SymmetricSpaceData, sig: SystemSignature, cutoff) -> tuple[tuple[Fraction, UnboundednessCertificate | str], ...]:
    """Every candidate level in [-cutoff, cutoff], ascending, with the
    certificate that the continuum bifurcating there is unbounded, or with the
    reason no certificate was issued.

    Nonzero level: among candidate levels of any bounded return set, only the
    two of maximal absolute value can contribute to the witness coefficient,
    and their contributions cannot sum to zero, so the indices cannot cancel.
    Zero level (p odd): index(0) = +-2I is already nonzero, and a bounded
    continuum through zero would pass through some nonzero level whose own
    certificate applies.

    The witness coefficients come from weight multiplicities of the
    summands, not from decompositions; weight tables are still refused at
    a level where they are not conjugation-symmetric.
    """
    out = []
    lower: list[RestrictedWeight] = []  # the alphas of W
    for lam, alphas, d_v, k0_v, d_w, k0_w in _eigenvalue_groups(space, cutoff):
        if space.tables is not None:
            # a table is checked for a real V at every level
            _summed_weights(_alpha_weight_map(space, a) for a in alphas)
        dim_parity = (d_w + d_v) % 2
        levels = [lv for lv in {lam, -lam} if _equations_at(sig, lv)]
        if lam == 0:
            witness, coeffs = None, {lam: _index(sig, lam, None).unit}
        else:
            # the witness coefficient by _index's expansion, from the witness
            # multiplicities in W and V
            witness = canonicalize(alphas[0])
            mu = witness.canonical.coords
            k_w = sum(_weight_count(space, a, mu) for a in lower)
            k_v = sum(_weight_count(space, a, mu) for a in alphas)
            coeffs = {}
            for lv in levels:
                k0_x, k_x = (k0_w, k_w) if lv > 0 else (k0_w + k0_v, k_w + k_v)
                _, t_x, t_v = _expansion(sig, lv, k0_x, k0_v)
                coeffs[lv] = t_x * k_x + t_v * k_v
        for level in levels:
            try:
                out.append((level, _certificate(sig, level, witness, coeffs, dim_parity)))
            except ValueError as exc:
                out.append((level, str(exc)))
        lower += alphas
    return tuple(sorted(out, key=lambda lc: lc[0]))
