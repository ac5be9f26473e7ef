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
coefficient of the subgroup id of alpha in index(+-lambda_alpha) has the closed
form (-1)^{(dim W + dim V) n + 1} * n with n the relevant count n_-/n_+, and it
vanishes at every strictly lower level; a certificate records these
coefficients and the integer identity that rules out cancellation, which is
what forces any bounded return to the trivial branch into a contradiction.

Each level needs only V and W, so one ascending sweep with a running sum for W
serves a whole range: bifurcation_levels and certify_levels enumerate the
spectrum once; the per-level functions sweep up to |level| and keep the last
split.  witness_coefficient is the one copy of the closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

from .euler_ring import UNIT, EulerRingElement, _element
from .jsonio import bool_from_json, frac_from_json, frac_to_json, int_from_json
from .spaces import SpectralLevel, SymmetricSpaceData, TorusRepDecomposition, eigenvalue_of, spectrum_up_to
from .weights import RestrictedWeight, SubgroupId, canonicalize


@dataclass(frozen=True)
class SystemSignature:
    """Ordered Laplacian signs (a_1, ..., a_p) of the system."""

    a: tuple[int, ...]

    def __post_init__(self):
        a = tuple(int_from_json(x) for x in self.a)
        if not a:
            raise ValueError("signature must be nonempty")
        if any(x not in (-1, 1) for x in a):
            raise ValueError("signature entries must be +1 or -1")
        object.__setattr__(self, "a", a)

    @classmethod
    def from_counts(cls, n_plus: int, n_minus: int) -> "SystemSignature":
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


@dataclass(frozen=True)
class BifurcationLevel:
    """Candidate level with its kernel dimension and index."""

    level: Fraction
    kernel_dim: int
    index: EulerRingElement

    def to_json(self) -> dict:
        return {
            "level": frac_to_json(self.level),
            "kernel_dim": self.kernel_dim,
            "index": self.index.to_json(),
        }

    @classmethod
    def from_json(cls, data) -> "BifurcationLevel":
        return cls(
            frac_from_json(data["level"]),
            int_from_json(data["kernel_dim"]),
            EulerRingElement.from_json(data["index"]),
        )


@dataclass(frozen=True)
class UnboundednessCertificate:
    """Coefficient ledger showing that the continuum from a level cannot close
    up on the trivial branch, hence is unbounded.

    For a nonzero level the witness is the subgroup id of a highest weight
    realizing |level|; ``ledger`` lists the witness coefficient of the index at
    every candidate level of maximal absolute value, and their sum is nonzero.
    For level zero the witness is absent and the ledger holds the unit
    coefficient of index(0).
    """

    level: Fraction
    witness: SubgroupId | None
    ledger: tuple[tuple[Fraction, int], ...]
    conclusion: str
    symmetry_breaking: bool
    unbounded: bool = True

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

    @classmethod
    def from_json(cls, data) -> "UnboundednessCertificate":
        witness = data.get("witness")
        return cls(
            frac_from_json(data["level"]),
            None if witness is None else SubgroupId.from_json(witness),
            tuple((frac_from_json(e["level"]), int_from_json(e["coeff"])) for e in data["ledger"]),
            data["conclusion"],
            bool_from_json(data["symmetry_breaking"]),
            bool_from_json(data["unbounded"]),
        )


# ---------------------------------------------------------------------------
# index computation
# ---------------------------------------------------------------------------


class _Split(NamedTuple):
    """Eigenspace V at one eigenvalue, span W of all lower ones, W + V, and
    the parity of dim W + dim V."""

    v: SpectralLevel
    w: TorusRepDecomposition
    wv: TorusRepDecomposition
    dim_parity: int


def _sweep(space: SymmetricSpaceData, cutoff) -> Iterator[_Split]:
    """Splits at every eigenvalue up to the cutoff from one enumeration."""
    w = TorusRepDecomposition(0, ())
    d_w = 0
    for v in spectrum_up_to(space, cutoff):
        wv = w + v.torus_decomp
        yield _Split(v, w, wv, (d_w + v.real_dim) % 2)
        w, d_w = wv, d_w + v.real_dim


def _split_at(space: SymmetricSpaceData, level) -> _Split:
    """The split at |level|: a sweep up to it, keeping the last split."""
    lam = abs(Fraction(level))
    *_, split = _sweep(space, lam)  # never empty: 0 is always an eigenvalue
    if split.v.eigenvalue != lam:
        raise ValueError(f"{level} is not (plus or minus) an eigenvalue of this space")
    return split


def _equations_at(sig: SystemSignature, level: Fraction) -> int:
    """n_- above zero, n_+ below, p at zero; 0 means no candidate level."""
    if level == 0:
        return sig.p
    return sig.n_minus if level > 0 else sig.n_plus


def _candidates(space: SymmetricSpaceData, sig: SystemSignature, cutoff) -> list[tuple[Fraction, _Split]]:
    """Candidate levels in [-cutoff, cutoff], ascending, with their splits."""
    out = []
    for split in _sweep(space, cutoff):
        lam = split.v.eigenvalue
        out.extend((level, split) for level in {lam, -lam} if _equations_at(sig, level))
    return sorted(out, key=lambda ls: ls[0])


def _check_level_admissible(sig: SystemSignature, level: Fraction) -> None:
    if not _equations_at(sig, level):
        sign = "-1" if level > 0 else "+1"
        raise ValueError(f"level {level} is not a candidate level when no equation has a_i = {sign}")


def neg_identity_degree(decomp: TorusRepDecomposition) -> EulerRingElement:
    """Degree of -Id on the unit ball of the representation with the given
    block multiplicities: (-1)^{k0} (I - sum_mu k_mu [T/H_mu]), truncated."""
    sign = -1 if decomp.k0 % 2 else 1
    # the multiplicities are positive, unique and sorted, so the coefficients
    # are already normalized
    return _element(sign, tuple((h, -sign * m) for h, m in decomp.mults), True)


def witness_coefficient(n: int, dim_parity: int) -> int:
    """Closed form (-1)^{(d_W + d_V) n + 1} * n of the witness coefficient of
    the index at +-lambda_alpha, given n (n_- for +lambda, n_+ for -lambda) and
    the parity of d_W + d_V."""
    return (-1) ** ((dim_parity % 2) * n + 1) * n


def _index(sig: SystemSignature, level: Fraction, split: _Split | None) -> EulerRingElement:
    """Index across a candidate level; the zero level needs no split."""
    if level == 0:
        return UNIT.scaled((-1) ** sig.n_minus - (-1) ** sig.n_plus)
    deg_v = neg_identity_degree(split.v.torus_decomp)
    if level > 0:
        return (neg_identity_degree(split.w) ** sig.n_minus) * (deg_v ** sig.n_minus - UNIT)
    return (neg_identity_degree(split.wv) ** (-sig.n_plus)) * (deg_v ** sig.n_plus - UNIT)


def bifurcation_index(space: SymmetricSpaceData, sig: SystemSignature, level) -> EulerRingElement:
    """Index of the trivial branch across a candidate level, evaluated in the
    truncated Euler ring."""
    lam = Fraction(level)
    _check_level_admissible(sig, lam)
    return _index(sig, lam, _split_at(space, lam) if lam else None)


def bifurcation_levels(space: SymmetricSpaceData, sig: SystemSignature, cutoff) -> tuple[BifurcationLevel, ...]:
    """All candidate levels in [-cutoff, cutoff] with kernel dimensions and
    indices, sorted ascending."""
    return tuple(
        BifurcationLevel(lam, _equations_at(sig, lam) * split.v.real_dim, _index(sig, lam, split))
        for lam, split in _candidates(space, sig, cutoff)
    )


def coeff_formula_check(
    space: SymmetricSpaceData,
    sig: SystemSignature,
    alpha: RestrictedWeight,
    sign: int = 1,
) -> tuple[int, int]:
    """Witness coefficient of the index at sign * lambda_alpha, paired with its
    closed form :func:`witness_coefficient`.  Both integers are returned for
    comparison."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    lam = eigenvalue_of(space, alpha)
    if lam == 0:
        raise ValueError("the zero level has no witness coefficient")
    level = sign * lam
    _check_level_admissible(sig, level)
    split = _split_at(space, level)
    computed = _index(sig, level, split).coeff_at(canonicalize(alpha))
    return computed, witness_coefficient(_equations_at(sig, level), split.dim_parity)


def cancellation_impossible(n_minus: int, n_plus: int, dim_parity: int) -> bool:
    """Integer identity behind the certificates: with n_minus > 0 or n_plus > 0
    and e = dim_parity * (n_minus - n_plus),

        (-1)^e * n_minus != -n_plus,

    since equality would force either n_minus = -n_plus <= 0 or, with e odd,
    n_minus = n_plus and hence e = 0."""
    e = dim_parity * (n_minus - n_plus)
    return (-1) ** e * n_minus != -n_plus


def _certificate(sig: SystemSignature, level: Fraction, split: _Split | None) -> UnboundednessCertificate:
    """Certificate at a level, or ValueError with the reason there is none.
    The split is read only at guaranteed nonzero levels."""
    if level == 0:
        if sig.p % 2 == 0:
            raise ValueError("no bifurcation guaranteed at this level: p is even")
        coeff = _index(sig, level, split).unit
        conclusion = (
            f"index(0) = {coeff}*I != 0, so 0 is a bifurcation level; any bounded "
            "continuum through 0 would meet a nonzero candidate level, whose "
            "certificate rules out a bounded return"
        )
        return UnboundednessCertificate(
            level=Fraction(0),
            witness=None,
            ledger=((Fraction(0), coeff),),
            conclusion=conclusion,
            symmetry_breaking=False,
        )

    if not _equations_at(sig, level):
        sign = "-1" if level > 0 else "+1"
        raise ValueError(f"no bifurcation guaranteed at this level: no equation has a_i = {sign}")

    lam_abs = abs(level)
    witness = canonicalize(split.v.alphas[0])
    ledger = []
    for s, n in ((1, sig.n_minus), (-1, sig.n_plus)):
        if n == 0:
            continue
        coeff = _index(sig, s * lam_abs, split).coeff_at(witness)
        expected = witness_coefficient(n, split.dim_parity)
        if coeff != expected:
            raise ValueError(
                f"index coefficient {coeff} at {witness} disagrees with closed form {expected}"
            )
        ledger.append((s * lam_abs, coeff))
    ledger.sort(key=lambda lc: lc[0])

    if not cancellation_impossible(sig.n_minus, sig.n_plus, split.dim_parity):
        raise ValueError("cancellation identity failed; certificate cannot be issued")
    total = sum(c for _, c in ledger)
    if total == 0:
        raise ValueError("witness coefficients cancel; certificate cannot be issued")
    conclusion = (
        f"sum {total} != 0 at witness {witness}: lower levels contribute 0 there, so no "
        f"finite candidate set with max |level| = {lam_abs} lets the indices cancel"
    )
    return UnboundednessCertificate(
        level=level,
        witness=witness,
        ledger=tuple(ledger),
        conclusion=conclusion,
        symmetry_breaking=True,
    )


def certify_unbounded(space: SymmetricSpaceData, sig: SystemSignature, level) -> UnboundednessCertificate:
    """Certificate that the continuum bifurcating at the level is unbounded.

    Nonzero level: among candidate levels of any bounded return set, only the
    two of maximal absolute value can contribute to the witness coefficient,
    and their contributions cannot sum to zero, so the indices cannot cancel.
    Zero level (p odd): index(0) = +-2I is already nonzero, and a bounded
    continuum through zero would pass through some nonzero level whose own
    certificate applies.
    """
    lam = Fraction(level)
    split = _split_at(space, level) if lam and _equations_at(sig, lam) else None
    return _certificate(sig, lam, split)


def certify_levels(space: SymmetricSpaceData, sig: SystemSignature, cutoff) -> tuple[tuple[Fraction, UnboundednessCertificate | str], ...]:
    """Every candidate level in [-cutoff, cutoff], ascending, with its
    certificate, or with the reason no certificate was issued (the message
    :func:`certify_unbounded` would raise)."""
    out = []
    for lam, split in _candidates(space, sig, cutoff):
        try:
            out.append((lam, _certificate(sig, lam, split)))
        except ValueError as exc:
            out.append((lam, str(exc)))
    return tuple(out)
