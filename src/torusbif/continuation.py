"""Pseudo-arclength continuation of branches bifurcating from the trivial one.

Branch switching pins the kernel coordinate at a small onset amplitude and
solves for the remaining coordinates and the parameter; afterwards the branch
is traced with a tangent predictor and a Newton corrector on the residual
extended by the arclength constraint.  Kernels with symmetry-induced
multiplicity are cut down by restricting to an isotropy subspace, which must
leave a one-dimensional kernel at the chosen crossing.  A restriction is a
subset of the modes (``axisymmetric`` keeps m = 0, no restriction keeps them
all); it only picks the crossing's kernel modes that are counted.

A one-dimensional kernel is always an m = 0 mode (a crossing lists every
order of each degree), and the gradient must keep the m = 0 modes invariant
(checked once per run), so every iterate stays in the fixed space of the
O(2) about the pole, which the m = 0 modes span.  A solution in that space
solves the full system: its residual has no part of order m != 0.  So
``continue_branch`` builds ``GalerkinBasis(K, orders=[0])`` itself, whatever
the restriction, and returns it with the states, whose coefficients it
holds, p (K + 1) per state.  The kernel is still counted over every mode of
the full problem, through ``Crossing.modes``.  Newton solves the Jacobian of those
modes bordered by the constraint row and the lambda column, one
linear solve of p (K + 1) + 1 rows per iteration, and the tangent at an
accepted state is one more solve of the same matrix.

The trace stops when the Sobolev norm reaches the target (the norm-growth
witness), when the step budget runs out, or when the branch re-enters a small
neighbourhood of the trivial solution, which is flagged rather than treated as
success.  Reaching a norm target is a finite proxy only; unboundedness itself
is not a finitely checkable property.
"""

from __future__ import annotations

import math
import numbers
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .galerkin import (
    BranchState,
    GalerkinBasis,
    NonlinearitySpec,
    make_state,
    residual_jacobian,
    trivial_branch_crossings,
)

ISOTROPY_RESTRICTIONS = ("axisymmetric",)

# Fixed solver constants: the kernel amplitude pinned at branch switching (a
# state below a tenth of it counts as back on the trivial branch), the Newton
# residual tolerance and iteration cap, the first arclength step and the
# bounds of the adaptive step, and the budget of accepted states.
ONSET_AMPLITUDE = 1e-3
NEWTON_TOL = 1e-10
MAX_NEWTON_ITER = 25
INITIAL_STEP = 0.05
MIN_STEP = 1e-6
MAX_STEP = 0.2
MAX_STEPS = 500


def _positive_real(name: str, x) -> float:
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not (math.isfinite(x) and x > 0):
        raise ValueError(f"{name} must be a finite positive number, got {x!r}")
    return float(x)


@dataclass(frozen=True)
class ContinuationOptions:
    """Norm target and isotropy restriction of a continuation run.  The
    values are checked here, and the options are frozen so the check holds
    for the whole run."""

    target_norm: float = 1.0
    isotropy_restriction: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "target_norm", _positive_real("target_norm", self.target_norm))
        if self.isotropy_restriction is not None and self.isotropy_restriction not in ISOTROPY_RESTRICTIONS:
            raise ValueError(f"unknown isotropy restriction {self.isotropy_restriction!r}")


@dataclass
class BranchResult:
    basis: GalerkinBasis  # the basis of the states' coefficients
    states: list[BranchState]
    outcome: str  # reached_target | returned_to_trivial | incomplete | diverged


class ContinuationError(RuntimeError):
    """Newton failure at the minimum step, or no tangent at an accepted
    state; ``result`` is the partial branch, with outcome ``diverged``."""

    def __init__(self, message: str, basis: GalerkinBasis, states: list[BranchState]):
        super().__init__(message)
        self.result = BranchResult(basis, states, "diverged")


def _check_order_invariance(basis: GalerkinBasis, nl: NonlinearitySpec, sig, lam: float) -> None:
    """Refuse a nonlinearity whose gradient leaves the m = 0 subspace, seen at
    one fixed-seed random state of ``basis``, the basis of the m = 0 modes.
    The solver rests on that invariance: it solves on the m = 0 modes only,
    and a solution there solves the full system only when the residual has
    no part of order m != 0.  The state's ring values are tiled over the
    QUAD_MARGIN * K + 1 longitudes of the full grid, and the gradient there
    must be constant along each ring, so it projects to zero on every order
    m != 0.  Non-finite gradients are left to the corrector.  The state comes
    from the standard library's generator: importing numpy's random module
    would add several MB to the resident size of a run."""
    rng = random.Random(0)
    c = np.array([[rng.gauss(0.0, 0.5) for _ in basis.modes] for _ in sig.a])
    g = nl.grad(np.repeat(basis.evaluate(c), basis.quad_degree + 1, axis=-1), lam)
    rings = g.reshape(*g.shape[:-1], -1, basis.quad_degree + 1)  # (p, theta, phi) of the full grid
    off, scale = np.max(np.abs(rings - rings[..., :1])), np.max(np.abs(g))
    if off > 1e-12 * scale:
        raise ValueError(
            f"nonlinearity {nl.name!r} does not keep the m = 0 subspace invariant "
            f"(variation along a latitude ring {off:.3g} of {scale:.3g})"
        )


def continue_branch(
    max_degree: int,
    nl: NonlinearitySpec,
    sig,
    crossing,
    opts: ContinuationOptions | None = None,
) -> BranchResult:
    """Trace the branch bifurcating at a trivial-branch crossing, in the
    basis of the modes of order 0 and degree 0..``max_degree``, which the
    result carries.

    Raises ``ValueError`` when ``max_degree`` is not a nonnegative integer,
    when the crossing is not a singular value of the trivial-branch
    linearization, when the restricted kernel is not one-dimensional, or when
    the nonlinearity does not keep the m = 0 subspace invariant, and
    ``ContinuationError`` when the corrector cannot converge even at the
    minimum step or the tangent solve fails.
    """
    opts = opts or ContinuationOptions()
    lam0 = Fraction(crossing)
    p = len(sig.a)
    crossings = {c.lam: c for c in trivial_branch_crossings(max_degree, sig, (lam0, lam0))}
    if lam0 not in crossings:
        raise ValueError(f"{crossing} is not a crossing of the trivial branch")

    kernel = crossings[lam0].modes
    if opts.isotropy_restriction == "axisymmetric":
        kernel = [mode for mode in kernel if mode[2] == 0]
    if len(kernel) != 1:
        raise ValueError(f"restricted kernel is {len(kernel)}-dimensional; apply isotropy restriction")
    comp, k, _ = kernel[0]
    basis = GalerkinBasis(max_degree, orders=[0])
    lam0f = float(lam0)
    _check_order_invariance(basis, nl, sig, lam0f)
    k_pos = comp * basis.n_modes + k
    n_act = p * basis.n_modes

    def newton(x, lam, row, base, offset):
        """Solve R(x, lam) = 0 bordered by ``row . (z - base) = offset`` with
        z = (x, lam).  Returns the corrected (x, lam) and the bordered matrix
        evaluated there, or None in place of the matrix when the corrector
        does not converge."""
        for it in range(MAX_NEWTON_ITER + 1):
            R, J, R_lam = residual_jacobian(basis, nl, sig, x, lam)
            border = np.dot(row[:n_act], x - base[:n_act]) + row[n_act] * (lam - base[n_act]) - offset
            F = np.append(R, border)
            M = np.empty((n_act + 1, n_act + 1))
            M[:-1, :-1] = J
            M[:-1, -1] = R_lam
            M[-1] = row
            nrm = float(np.max(np.abs(F)))
            if np.isfinite(nrm) and nrm < NEWTON_TOL:
                return x, lam, M
            if it == MAX_NEWTON_ITER:
                break
            try:
                dz = np.linalg.solve(M, -F)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(dz)):
                break
            x = x + dz[:n_act]
            lam = lam + dz[n_act]
        return x, lam, None

    def tangent_at(M, prev_t):
        # M is Newton's bordered matrix at the converged point; the border
        # row becomes the previous tangent so the new one keeps its
        # orientation
        M[-1] = prev_t
        rhs = np.zeros(n_act + 1)
        rhs[-1] = 1.0
        try:
            t = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            raise ContinuationError("no tangent: the bordered matrix is singular", basis, states) from None
        nrm = float(np.linalg.norm(t))
        if not np.isfinite(nrm) or nrm == 0.0:
            raise ContinuationError(f"no tangent: the tangent solve gave norm {nrm}", basis, states)
        return t / nrm

    # branch switching: pin the kernel amplitude at the onset amplitude
    unit_row = np.zeros(n_act + 1)
    unit_row[k_pos] = 1.0
    x0 = np.zeros(n_act)
    x0[k_pos] = ONSET_AMPLITUDE
    x, lam, M = newton(x0, lam0f, unit_row, np.zeros(n_act + 1), ONSET_AMPLITUDE)
    if M is None:
        raise ContinuationError("failed to leave the trivial branch at the crossing", basis, [])

    s_total = float(np.sqrt(np.dot(x, x) + (lam - lam0f) ** 2))
    states = [make_state(basis, x, lam, s_total)]
    prev = np.concatenate([x, [lam]])
    first_dir = np.concatenate([x, [lam - lam0f]])
    first_dir /= np.linalg.norm(first_dir)
    tangent = tangent_at(M, first_dir)

    h = INITIAL_STEP
    while True:
        norm = states[-1].h1_norm
        if norm >= opts.target_norm:
            return BranchResult(basis, states, "reached_target")
        if norm < ONSET_AMPLITUDE / 10.0:
            return BranchResult(basis, states, "returned_to_trivial")
        if len(states) >= MAX_STEPS:
            return BranchResult(basis, states, "incomplete")

        z_pred = prev + h * tangent
        x, lam, M = newton(z_pred[:n_act].copy(), float(z_pred[n_act]), tangent, prev, h)
        if M is None:
            if h <= MIN_STEP:
                raise ContinuationError(f"Newton corrector failed at minimum step {MIN_STEP}", basis, states)
            h = max(h / 2.0, MIN_STEP)
            continue
        z_new = np.concatenate([x, [lam]])
        s_total += float(np.linalg.norm(z_new - prev))
        states.append(make_state(basis, x, lam, s_total))
        tangent = tangent_at(M, tangent)
        prev = z_new
        h = min(h * 1.4, MAX_STEP)
