"""Pseudo-arclength continuation of branches bifurcating from the trivial one.

Branch switching pins the kernel coordinate at a small onset amplitude and
solves for the remaining coordinates and the parameter; afterwards the branch
is traced with a tangent predictor and a Newton corrector on the residual
extended by the arclength constraint.

The solver works in the fixed space of the O(2) about the pole, which the
m = 0 modes span.  There a degree-k harmonic of one component contributes the
single mode Y_{k,0}, so the kernel at a crossing is one-dimensional exactly
when one component reaches that level; a level two components share is
refused.  The gradient must keep the m = 0 modes invariant (checked once per
run), so every iterate stays in that space, and a solution there solves the
full system: its residual has no part of order m != 0.  This is the branch
the equivariant branching lemma gives at a crossing.  ``continue_branch``
builds ``GalerkinBasis(K, orders=[0])`` itself and returns it with the
states, whose coefficients it holds, p (K + 1) per state.  Newton solves the
Jacobian of those modes bordered by the constraint row and the lambda
column, one linear solve of p (K + 1) + 1 rows per iteration, and the
tangent at an accepted state is one more solve of the same matrix.

The trace stops when the Sobolev norm reaches the target (the norm-growth
witness), when the step budget runs out, when the branch re-enters a small
neighbourhood of the trivial solution, which is flagged rather than treated as
success, or when it diverges: the corrector fails at the minimum step or at
branch switching, or the tangent solve fails.  Every stop returns the states
traced so far with its outcome.  Reaching a norm target is a finite proxy
only; unboundedness itself is not a finitely checkable property.
"""

from __future__ import annotations

import random

import numpy as np

from ._record import Record
from .galerkin import (
    QUAD_MARGIN,
    BranchState,
    GalerkinBasis,
    NonlinearitySpec,
    _exact,
    make_state,
    residual_jacobian,
    trivial_branch_crossings,
)
from .jsonio import _echo, _positive_real

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


class BranchResult(Record):
    basis: GalerkinBasis  # the basis of the states' coefficients
    states: tuple[BranchState, ...]
    outcome: str  # reached_target | returned_to_trivial | incomplete | diverged
    reason: str | None  # why the trace diverged; set exactly then
    __slots__ = _fields = ("basis", "states", "outcome", "reason")

    def __init__(self, basis, states, outcome, reason=None):
        super().__init__(basis, tuple(states), outcome, reason)


def _check_order_invariance(basis: GalerkinBasis, nl: NonlinearitySpec, sig, lam: float) -> None:
    """Refuse a nonlinearity whose gradient leaves the m = 0 subspace, seen at
    one fixed-seed random state of ``basis``, the basis of the m = 0 modes.
    The solver rests on that invariance: it solves on the m = 0 modes only,
    and a solution there solves the full system only when the residual has
    no part of order m != 0.  The state's ring values, at the colatitudes of
    ``basis``, are tiled over the QUAD_MARGIN * min(K, 8) + 1 longitudes of
    the degree-min(K, 8) grid (33 from K = 8 on), and the gradient there must
    be constant along each ring, so it projects to zero on every order
    m != 0.  The probe's longitudes do not grow with K, so its arrays grow
    only with the 2K + 1 colatitudes, but a fixed probe cannot see what a finer
    longitude grid shows: variation along a ring at a multiple of 33 in
    frequency, which 33 uniform longitudes alias to a constant, or position
    read through arrays sized for the full grid of a larger K, which fails on
    the probe's shape before anything is measured.  Non-finite gradients are
    left to the corrector.  The state comes from the standard library's
    generator: importing numpy's random module would add several MB to the
    resident size of a run."""
    rng = random.Random(0)
    c = np.array([[rng.gauss(0.0, 0.5) for _ in basis.modes] for _ in sig.a])
    n_phi = QUAD_MARGIN * min(basis.max_degree, 8) + 1
    g = nl.grad(np.repeat(basis.evaluate(c), n_phi, axis=-1), lam)
    rings = g.reshape(*g.shape[:-1], -1, n_phi)  # (p, theta, phi) of the probe grid
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
    target_norm: float = 1.0,
) -> BranchResult:
    """Trace the branch bifurcating at a trivial-branch crossing, in the
    basis of the modes of order 0 and degree 0..``max_degree``, which the
    result carries.

    Raises ``ValueError`` when ``max_degree`` is not a nonnegative integer,
    when ``target_norm`` is not a finite positive number, when the crossing
    is not a singular value of the trivial-branch linearization, when two
    components share it (the m = 0 kernel is then not one-dimensional), or
    when the nonlinearity does not keep the m = 0 subspace invariant.  A trace
    that diverges (the corrector cannot converge at branch switching or even
    at the minimum step, or the tangent solve fails) returns the states so
    far with outcome ``diverged`` and the ``reason``.
    """
    target_norm = _positive_real("target_norm", target_norm)
    lam0 = _exact(crossing, "a crossing of the trivial branch")
    p = len(sig.a)
    crossings = {c.lam: c for c in trivial_branch_crossings(max_degree, sig, (lam0, lam0))}
    if lam0 not in crossings:
        raise ValueError(f"{_echo(crossing)} is not a crossing of the trivial branch")

    pairs = crossings[lam0].pairs
    if len(pairs) > 1:
        *rest, last = (str(i) for i, _ in pairs)
        raise ValueError(
            f"components {', '.join(rest)} and {last} share the crossing {lam0}: "
            f"the m = 0 kernel is {len(pairs)}-dimensional"
        )
    ((comp, k),) = pairs
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
        """The unit tangent and None, or None and the reason there is none.
        M is Newton's bordered matrix at the converged point; the border row
        becomes the previous tangent so the new one keeps its orientation."""
        M[-1] = prev_t
        rhs = np.zeros(n_act + 1)
        rhs[-1] = 1.0
        try:
            t = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            return None, "no tangent: the bordered matrix is singular"
        nrm = float(np.linalg.norm(t))
        if not np.isfinite(nrm) or nrm == 0.0:
            return None, f"no tangent: the tangent solve gave norm {nrm}"
        return t / nrm, None

    # branch switching: pin the kernel amplitude at the onset amplitude
    unit_row = np.zeros(n_act + 1)
    unit_row[k_pos] = 1.0
    x0 = np.zeros(n_act)
    x0[k_pos] = ONSET_AMPLITUDE
    x, lam, M = newton(x0, lam0f, unit_row, np.zeros(n_act + 1), ONSET_AMPLITUDE)
    if M is None:
        return BranchResult(basis, (), "diverged", "failed to leave the trivial branch at the crossing")

    s_total = float(np.sqrt(np.dot(x, x) + (lam - lam0f) ** 2))
    states = [make_state(basis, x, lam, s_total)]
    prev = np.concatenate([x, [lam]])
    first_dir = np.concatenate([x, [lam - lam0f]])
    first_dir /= np.linalg.norm(first_dir)
    tangent, reason = tangent_at(M, first_dir)

    h = INITIAL_STEP
    while True:
        if reason is not None:
            return BranchResult(basis, states, "diverged", reason)
        norm = states[-1].h1_norm
        if norm >= target_norm:
            return BranchResult(basis, states, "reached_target")
        if norm < ONSET_AMPLITUDE / 10.0:
            return BranchResult(basis, states, "returned_to_trivial")
        if len(states) >= MAX_STEPS:
            return BranchResult(basis, states, "incomplete")

        z_pred = prev + h * tangent
        x, lam, M = newton(z_pred[:n_act].copy(), float(z_pred[n_act]), tangent, prev, h)
        if M is None:
            if h <= MIN_STEP:
                reason = f"Newton corrector failed at minimum step {MIN_STEP}"
            h = max(h / 2.0, MIN_STEP)
            continue
        z_new = np.concatenate([x, [lam]])
        s_total += float(np.linalg.norm(z_new - prev))
        states.append(make_state(basis, x, lam, s_total))
        tangent, reason = tangent_at(M, tangent)
        prev = z_new
        h = min(h * 1.4, MAX_STEP)
