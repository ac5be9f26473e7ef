"""Pseudo-arclength continuation of branches bifurcating from the trivial one.

Branch switching pins the kernel coordinate at a small onset amplitude and
solves for the remaining coordinates and the parameter; afterwards the branch
is traced with a tangent predictor and a Newton corrector on the residual
extended by the arclength constraint.  Kernels with symmetry-induced
multiplicity are cut down by restricting to an isotropy subspace, which must
leave a one-dimensional kernel at the chosen crossing.  A restriction is a
subset of the modes (``axisymmetric`` keeps m = 0): the solver works in the
restricted basis directly, and states are embedded into the full basis only
when they are recorded.

The kernel mode must have order m = 0, and the gradient must keep the m = 0
modes invariant (checked once per run), so every iterate stays in the fixed
space of the O(2) about the pole, where the Jacobian maps each signed order
m to itself.  The reflection phi -> -phi in that O(2) swaps the cos-type and
sin-type modes of each order and fixes the iterate, so the blocks of m and
-m are equal, and ``residual_jacobian`` returns one block per |m|.  Newton
solves the m = 0 block bordered by the constraint row and the lambda column,
and every other block once, against a two-column right-hand side that holds
the residual parts of m and of -m; the entries of the border and of the
lambda column outside m = 0 are zero in exact arithmetic and are dropped.
The tangent solves the bordered m = 0 block alone, since every other block
has a zero right-hand side.  No dense Jacobian is formed.

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
    h1_norm,
    make_state,
    residual_jacobian,
    trivial_branch_crossings,
)
from .jsonio import int_from_json

ISOTROPY_RESTRICTIONS = ("axisymmetric",)

# Fixed solver constants: the kernel amplitude pinned at branch switching (a
# state below a tenth of it counts as back on the trivial branch), the Newton
# residual tolerance and iteration cap, and the bounds of the adaptive step.
ONSET_AMPLITUDE = 1e-3
NEWTON_TOL = 1e-10
MAX_NEWTON_ITER = 25
MIN_STEP = 1e-6
MAX_STEP = 0.2


def _positive_real(name: str, x) -> float:
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not (math.isfinite(x) and x > 0):
        raise ValueError(f"{name} must be a finite positive number, got {x!r}")
    return float(x)


@dataclass(frozen=True)
class ContinuationOptions:
    """Step, budget and stopping rule of a continuation run.  The values are
    checked here, and the options are frozen so the check holds for the whole
    run: a nan step would halve forever without ever reaching ``MIN_STEP``."""

    step: float = 0.05
    max_steps: int = 500
    target_norm: float = 1.0
    isotropy_restriction: str | None = None

    def __post_init__(self):
        for name in ("step", "target_norm"):
            object.__setattr__(self, name, _positive_real(name, getattr(self, name)))
        max_steps = int_from_json(self.max_steps)
        if max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {max_steps}")
        object.__setattr__(self, "max_steps", max_steps)
        if self.isotropy_restriction is not None and self.isotropy_restriction not in ISOTROPY_RESTRICTIONS:
            raise ValueError(f"unknown isotropy restriction {self.isotropy_restriction!r}")


@dataclass
class BranchResult:
    states: list[BranchState]
    outcome: str  # reached_target | returned_to_trivial | incomplete


class ContinuationError(RuntimeError):
    """Newton failure at the minimum step, or no tangent at an accepted
    state; carries the partial branch."""

    def __init__(self, message: str, states: list[BranchState]):
        super().__init__(message)
        self.states = states


def _kept_modes(basis: GalerkinBasis, restriction: str | None) -> np.ndarray:
    if restriction is None:
        return np.arange(basis.n_modes)
    return np.array([i for i, (k, m) in enumerate(basis.modes) if m == 0])


def _check_order_invariance(basis: GalerkinBasis, nl: NonlinearitySpec, sig, lam: float) -> None:
    """Refuse a nonlinearity whose gradient leaves the m = 0 subspace, seen at
    one fixed-seed random state on the m = 0 modes of ``basis``.  The order
    blocks of the Jacobian and the axisymmetric restriction both rest on that
    invariance.  Non-finite gradients are left to the corrector.  The state
    comes from the standard library's generator: importing numpy.random
    would add several MB to the resident size of a run."""
    m0 = [i for i, (k, m) in enumerate(basis.modes) if m == 0]
    rng = random.Random(0)
    c = np.zeros((len(sig.a), basis.n_modes))
    c[:, m0] = [[rng.gauss(0.0, 0.5) for _ in m0] for _ in sig.a]
    g = basis.project(nl.grad(basis.evaluate(c), lam))
    off = np.delete(g, m0, axis=1)
    if off.size and np.max(np.abs(off)) > 1e-12 * np.max(np.abs(g)):
        raise ValueError(
            f"nonlinearity {nl.name!r} does not keep the m = 0 subspace invariant "
            f"(order m != 0 part {np.max(np.abs(off)):.3g} of {np.max(np.abs(g)):.3g})"
        )


def continue_branch(
    basis: GalerkinBasis,
    nl: NonlinearitySpec,
    sig,
    crossing,
    opts: ContinuationOptions | None = None,
) -> BranchResult:
    """Trace the branch bifurcating at a trivial-branch crossing.

    Raises ``ValueError`` when the crossing is not a singular value of the
    trivial-branch linearization, when the restricted kernel is not
    one-dimensional or its mode has m != 0, or when the nonlinearity does not
    keep the m = 0 subspace invariant, and ``ContinuationError`` when the
    corrector cannot converge even at the minimum step or the tangent solve
    fails.
    """
    opts = opts or ContinuationOptions()
    lam0 = Fraction(crossing)
    p = len(sig.a)
    crossings = {c.lam: c for c in trivial_branch_crossings(basis, sig, (lam0, lam0))}
    if lam0 not in crossings:
        raise ValueError(f"{crossing} is not a crossing of the trivial branch")

    keep = _kept_modes(basis, opts.isotropy_restriction)
    sub = basis if opts.isotropy_restriction is None else basis.restrict(keep)
    kernel = [(comp, k, m) for comp, k, m in crossings[lam0].modes if (k, m) in sub.mode_index]
    if len(kernel) != 1:
        raise ValueError(f"restricted kernel is {len(kernel)}-dimensional; apply isotropy restriction")
    comp, k, m = kernel[0]
    if m != 0:
        raise ValueError(f"kernel mode (k, m) = ({k}, {m}) has m != 0; the solver needs an m = 0 kernel")
    lam0f = float(lam0)
    _check_order_invariance(basis, nl, sig, lam0f)
    k_pos = comp * sub.n_modes + sub.mode_index[(k, m)]
    n_act = p * sub.n_modes
    # positions of the m = 0 part of z = (x, lam): the m = 0 modes of every
    # component, ordered as in the m = 0 block, then lambda
    m0 = [i for i, mode in enumerate(sub.modes) if mode[1] == 0]
    z0 = np.append((sub.n_modes * np.arange(p)[:, None] + m0).ravel(), n_act)

    def embed(x: np.ndarray) -> np.ndarray:
        full = np.zeros((p, basis.n_modes))
        full[:, keep] = x.reshape(p, sub.n_modes)
        return full.ravel()

    def bordered(J_0, R_lam, row):
        M = np.empty((z0.size, z0.size))
        M[:-1, :-1] = J_0
        M[:-1, -1] = R_lam[z0[:-1]]
        M[-1] = row[z0]
        return M

    def newton(x, lam, row, base, offset):
        """Solve R(x, lam) = 0 bordered by ``row . (z - base) = offset`` with
        z = (x, lam).  Returns the corrected (x, lam) and the m = 0 part of
        the bordered matrix evaluated there, or None in place of the matrix
        when the corrector does not converge."""
        for it in range(MAX_NEWTON_ITER + 1):
            R, blocks, R_lam = residual_jacobian(sub, nl, sig, x, lam)
            border = np.dot(row[:n_act], x - base[:n_act]) + row[n_act] * (lam - base[n_act]) - offset
            F = np.append(R, border)
            M = bordered(blocks.pop(0)[1], R_lam, row)
            nrm = float(np.max(np.abs(F)))
            if np.isfinite(nrm) and nrm < NEWTON_TOL:
                return x, lam, M
            if it == MAX_NEWTON_ITER:
                break
            dz = np.empty(n_act + 1)
            try:
                dz[z0] = np.linalg.solve(M, -F[z0])
                for idx, J_b in blocks.values():  # the columns of idx: order m, then -m when paired
                    dz[idx] = np.linalg.solve(J_b, -R[idx])
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(dz)):
                break
            x = x + dz[:n_act]
            lam = lam + dz[n_act]
        return x, lam, None

    def tangent_at(M, prev_t):
        # M is the m = 0 part of Newton's bordered matrix at the converged
        # point; the border row becomes the previous tangent so the new one
        # keeps its orientation.  The other orders have a zero right-hand
        # side, so their part of the tangent is zero.
        M[-1] = prev_t[z0]
        rhs = np.zeros(z0.size)
        rhs[-1] = 1.0
        try:
            t0 = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            raise ContinuationError("no tangent: the bordered matrix is singular", states) from None
        nrm = float(np.linalg.norm(t0))
        if not np.isfinite(nrm) or nrm == 0.0:
            raise ContinuationError(f"no tangent: the tangent solve gave norm {nrm}", states)
        t = np.zeros(n_act + 1)
        t[z0] = t0
        return t / nrm

    # branch switching: pin the kernel amplitude at the onset amplitude
    unit_row = np.zeros(n_act + 1)
    unit_row[k_pos] = 1.0
    x0 = np.zeros(n_act)
    x0[k_pos] = ONSET_AMPLITUDE
    x, lam, M = newton(x0, lam0f, unit_row, np.zeros(n_act + 1), ONSET_AMPLITUDE)
    if M is None:
        raise ContinuationError("failed to leave the trivial branch at the crossing", [])

    s_total = float(np.sqrt(np.dot(x, x) + (lam - lam0f) ** 2))
    states = [make_state(basis, embed(x), lam, s_total)]
    prev = np.concatenate([x, [lam]])
    first_dir = np.concatenate([x, [lam - lam0f]])
    first_dir /= np.linalg.norm(first_dir)
    tangent = tangent_at(M, first_dir)

    h = min(max(opts.step, MIN_STEP), MAX_STEP)
    while True:
        norm = states[-1].h1_norm
        if norm >= opts.target_norm:
            return BranchResult(states, "reached_target")
        if norm < ONSET_AMPLITUDE / 10.0:
            return BranchResult(states, "returned_to_trivial")
        if len(states) >= opts.max_steps:
            return BranchResult(states, "incomplete")

        z_pred = prev + h * tangent
        x, lam, M = newton(z_pred[:n_act].copy(), float(z_pred[n_act]), tangent, prev, h)
        if M is None:
            if h <= MIN_STEP:
                raise ContinuationError(f"Newton corrector failed at minimum step {MIN_STEP}", states)
            h = max(h / 2.0, MIN_STEP)
            continue
        z_new = np.concatenate([x, [lam]])
        s_total += float(np.linalg.norm(z_new - prev))
        states.append(make_state(basis, embed(x), lam, s_total))
        tangent = tangent_at(M, tangent)
        prev = z_new
        h = min(h * 1.4, MAX_STEP)
