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

The trace stops when the Sobolev norm reaches the target (the norm-growth
witness), when the step budget runs out, or when the branch re-enters a small
neighbourhood of the trivial solution, which is flagged rather than treated as
success.  Reaching a norm target is a finite proxy only; unboundedness itself
is not a finitely checkable property.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .galerkin import (
    BranchState,
    GalerkinBasis,
    NonlinearitySpec,
    h1_norm,
    make_state,
    residual_coeffs,
    residual_jacobian,
    residual_lambda_derivative,
    trivial_branch_crossings,
)

ISOTROPY_RESTRICTIONS = ("axisymmetric",)


def _positive_real(name: str, x) -> float:
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not (math.isfinite(x) and x > 0):
        raise ValueError(f"{name} must be a finite positive number, got {x!r}")
    return float(x)


@dataclass(frozen=True)
class ContinuationOptions:
    """Step control and stopping rule of a continuation run.  Step sizes and
    the target norm are checked here, and the options are frozen so the check
    holds for the whole run: a nan step would halve forever without ever
    reaching ``min_step``."""

    step: float = 0.05
    max_steps: int = 500
    target_norm: float = 1.0
    isotropy_restriction: str | None = None
    onset_amplitude: float = 1e-3
    newton_tol: float = 1e-10
    max_newton_iter: int = 25
    min_step: float = 1e-6
    max_step: float = 0.2

    def __post_init__(self):
        for name in ("step", "target_norm", "min_step", "max_step"):
            object.__setattr__(self, name, _positive_real(name, getattr(self, name)))
        if self.min_step > self.max_step:
            raise ValueError(f"min_step {self.min_step} exceeds max_step {self.max_step}")
        if self.isotropy_restriction is not None and self.isotropy_restriction not in ISOTROPY_RESTRICTIONS:
            raise ValueError(f"unknown isotropy restriction {self.isotropy_restriction!r}")


@dataclass
class BranchResult:
    states: list[BranchState]
    outcome: str  # reached_target | returned_to_trivial | incomplete


class ContinuationError(RuntimeError):
    """Newton failure at the minimum step; carries the partial branch."""

    def __init__(self, message: str, states: list[BranchState]):
        super().__init__(message)
        self.states = states


def _kept_modes(basis: GalerkinBasis, restriction: str | None) -> np.ndarray:
    if restriction is None:
        return np.arange(basis.n_modes)
    return np.array([i for i, (k, m) in enumerate(basis.modes) if m == 0])


def continue_branch(
    basis: GalerkinBasis,
    nl: NonlinearitySpec,
    sig,
    crossing,
    opts: ContinuationOptions | None = None,
) -> BranchResult:
    """Trace the branch bifurcating at a trivial-branch crossing.

    Raises ``ValueError`` when the crossing is not a singular value of the
    trivial-branch linearization or when the restricted kernel is not
    one-dimensional, and ``ContinuationError`` when the corrector cannot
    converge even at the minimum step.
    """
    opts = opts or ContinuationOptions()
    lam0 = Fraction(crossing)
    p = len(sig.a)
    crossings = {c.lam: c for c in trivial_branch_crossings(basis, sig, (lam0, lam0))}
    if lam0 not in crossings:
        raise ValueError(f"{crossing} is not a crossing of the trivial branch")

    keep = _kept_modes(basis, opts.isotropy_restriction)
    sub = basis if opts.isotropy_restriction is None else basis.restrict(keep)
    kernel = [
        comp * sub.n_modes + sub.mode_index[(k, m)]
        for comp, k, m in crossings[lam0].modes
        if (k, m) in sub.mode_index
    ]
    if len(kernel) != 1:
        raise ValueError(f"restricted kernel is {len(kernel)}-dimensional; apply isotropy restriction")
    k_pos = kernel[0]
    n_act = p * sub.n_modes
    lam0f = float(lam0)
    delta = opts.onset_amplitude

    def embed(x: np.ndarray) -> np.ndarray:
        full = np.zeros((p, basis.n_modes))
        full[:, keep] = x.reshape(p, sub.n_modes)
        return full.ravel()

    def F_and_J(x, lam, constraint_row, constraint_val):
        R = residual_coeffs(sub, nl, sig, x, lam)
        J = residual_jacobian(sub, nl, sig, x, lam)
        dlam = residual_lambda_derivative(sub, nl, sig, x, lam)
        F = np.concatenate([R, [constraint_val(x, lam)]])
        M = np.zeros((n_act + 1, n_act + 1))
        M[:n_act, :n_act] = J
        M[:n_act, n_act] = dlam
        M[n_act, :] = constraint_row(x, lam)
        return F, M

    def newton(x, lam, constraint_row, constraint_val):
        """Corrected (x, lam) and the bordered matrix evaluated there, or
        None in place of the matrix when the corrector does not converge."""
        for it in range(opts.max_newton_iter + 1):
            F, M = F_and_J(x, lam, constraint_row, constraint_val)
            nrm = float(np.max(np.abs(F)))
            if np.isfinite(nrm) and nrm < opts.newton_tol:
                return x, lam, M
            if it == opts.max_newton_iter:
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

    # branch switching: pin the kernel amplitude at delta
    unit_row = np.zeros(n_act + 1)
    unit_row[k_pos] = 1.0
    pin_row = lambda x, lam: unit_row
    pin_val = lambda x, lam: x[k_pos] - delta
    x0 = np.zeros(n_act)
    x0[k_pos] = delta
    x1, lam1, M1 = newton(x0, lam0f, pin_row, pin_val)
    if M1 is None:
        raise ContinuationError("failed to leave the trivial branch at the crossing", [])

    states: list[BranchState] = []
    s_total = float(np.sqrt(np.dot(x1, x1) + (lam1 - lam0f) ** 2))
    states.append(make_state(basis, embed(x1), lam1, s_total))

    def stop_outcome() -> str | None:
        st = states[-1]
        if st.h1_norm >= opts.target_norm:
            return "reached_target"
        if st.h1_norm < delta / 10.0:
            return "returned_to_trivial"
        return None

    outcome = stop_outcome()
    if outcome is None and len(states) >= opts.max_steps:
        outcome = "incomplete"
    if outcome is not None:
        return BranchResult(states, outcome)

    def tangent_at(M, prev_t):
        # M is Newton's bordered matrix at the converged point; the border row
        # becomes the previous tangent so the new one keeps its orientation
        M[n_act, :] = prev_t
        rhs = np.zeros(n_act + 1)
        rhs[n_act] = 1.0
        try:
            t = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError:
            t = prev_t.copy()
        nrm = float(np.linalg.norm(t))
        if not np.isfinite(nrm) or nrm == 0.0:
            t = prev_t.copy()
            nrm = float(np.linalg.norm(t))
        return t / nrm

    prev = np.concatenate([x1, [lam1]])
    first_dir = np.concatenate([x1, [lam1 - lam0f]])
    first_dir /= np.linalg.norm(first_dir)
    tangent = tangent_at(M1, first_dir)

    h = min(max(opts.step, opts.min_step), opts.max_step)
    while True:
        z_pred = prev + h * tangent
        t_fixed = tangent.copy()
        z_base = prev.copy()
        h_now = h
        arc_row = lambda x, lam: t_fixed
        arc_val = lambda x, lam: float(
            np.dot(t_fixed[:n_act], x - z_base[:n_act]) + t_fixed[n_act] * (lam - z_base[n_act]) - h_now
        )
        x_new, lam_new, M_new = newton(z_pred[:n_act].copy(), float(z_pred[n_act]), arc_row, arc_val)
        if M_new is None:
            if h <= opts.min_step:
                raise ContinuationError(
                    f"Newton corrector failed at minimum step {opts.min_step}", states
                )
            h = max(h / 2.0, opts.min_step)
            continue
        z_new = np.concatenate([x_new, [lam_new]])
        s_total += float(np.linalg.norm(z_new - prev))
        states.append(make_state(basis, embed(x_new), lam_new, s_total))
        tangent = tangent_at(M_new, tangent)
        prev = z_new
        h = min(h * 1.4, opts.max_step)

        outcome = stop_outcome()
        if outcome is not None:
            return BranchResult(states, outcome)
        if len(states) >= opts.max_steps:
            return BranchResult(states, "incomplete")
