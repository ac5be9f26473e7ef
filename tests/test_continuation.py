import math

import numpy as np
import pytest

from torusbif import (
    ContinuationError,
    ContinuationOptions,
    GalerkinBasis,
    NonlinearitySpec,
    SystemSignature,
    continue_branch,
    h1_norm,
    node_variance,
    residual_coeffs,
)
from torusbif import continuation
from test_galerkin import analytic_lambda_column, dense_jacobian, lam_scaled_quartic

BASIS = GalerkinBasis(8)
QUARTIC = NonlinearitySpec.quartic()
NEG = SystemSignature((-1,))


def axisymmetric_opts(**kw):
    defaults = dict(isotropy_restriction="axisymmetric", target_norm=1.0, max_steps=500)
    defaults.update(kw)
    return ContinuationOptions(**defaults)


# crossing and options of the two K = 8 fixtures
RUNS = {
    "branch": (2, axisymmetric_opts()),
    "constant_branch": (0, ContinuationOptions(target_norm=0.8, max_steps=200)),
}


@pytest.fixture(scope="module")
def branch():
    return continue_branch(BASIS, QUARTIC, NEG, *RUNS["branch"])


@pytest.fixture(scope="module")
def constant_branch():
    return continue_branch(BASIS, QUARTIC, NEG, *RUNS["constant_branch"])


# Trajectory pins: the exact state count and the end point of both K = 8
# branches, so a change of step control or tangent shows up in tier-1.
@pytest.mark.parametrize(
    "which, count, lam, h1",
    [
        ("branch", 7, 2.07872453389801, 1.2869460146821294),
        ("constant_branch", 8, 0.07104094391332852, 0.9448422249302512),
    ],
    ids=["axisymmetric", "constant"],
)
def test_branch_trajectory_is_pinned(request, which, count, lam, h1):
    result = request.getfixturevalue(which)
    assert len(result.states) == count
    assert math.isclose(result.states[-1].lam, lam, rel_tol=1e-12)
    assert math.isclose(result.states[-1].h1_norm, h1, rel_tol=1e-12)


@pytest.mark.parametrize("which", RUNS)
def test_branch_states_match_a_run_with_the_dense_jacobian(request, monkeypatch, which):
    factored = request.getfixturevalue(which)
    monkeypatch.setattr(continuation, "residual_jacobian", dense_jacobian)
    dense = continue_branch(BASIS, QUARTIC, NEG, *RUNS[which])
    assert dense.outcome == factored.outcome
    assert len(dense.states) == len(factored.states)
    for got, want in zip(factored.states, dense.states):
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-12 * np.max(np.abs(want.coeffs))
        assert math.isclose(got.lam, want.lam, rel_tol=1e-12)


@pytest.mark.parametrize("which", RUNS)
def test_newton_transforms_the_state_once_per_iteration(monkeypatch, which):
    # residual_jacobian returns R and J from one evaluate, and the quartic does
    # not read lambda, so each Newton iteration evaluates the state once
    calls = {"evaluate": 0, "jacobian": 0}
    evaluate, jacobian = GalerkinBasis.evaluate, continuation.residual_jacobian

    def counted_evaluate(basis, block):
        calls["evaluate"] += 1
        return evaluate(basis, block)

    def counted_jacobian(*args):
        calls["jacobian"] += 1
        return jacobian(*args)

    monkeypatch.setattr(GalerkinBasis, "evaluate", counted_evaluate)
    monkeypatch.setattr(continuation, "residual_jacobian", counted_jacobian)
    result = continue_branch(BASIS, QUARTIC, NEG, *RUNS[which])
    assert calls["jacobian"] > len(result.states)
    assert calls["evaluate"] == calls["jacobian"]


@pytest.mark.parametrize("which", RUNS)
def test_a_spec_of_four_callables_makes_one_transform_pair_per_iteration(monkeypatch, which):
    # a spec states no lambda-dependence: residual_jacobian observes that grad
    # does not read lambda and makes no projection beyond the residual's own
    nl = NonlinearitySpec("plain-quartic", QUARTIC.value, QUARTIC.grad, QUARTIC.hess, grad_degree=3)
    calls = {"evaluate": 0, "project": 0, "jacobian": 0}
    originals = {
        "evaluate": GalerkinBasis.evaluate,
        "project": GalerkinBasis.project,
        "jacobian": continuation.residual_jacobian,
    }

    def counted(name):
        def wrapper(*args):
            calls[name] += 1
            return originals[name](*args)

        return wrapper

    monkeypatch.setattr(GalerkinBasis, "evaluate", counted("evaluate"))
    monkeypatch.setattr(GalerkinBasis, "project", counted("project"))
    monkeypatch.setattr(continuation, "residual_jacobian", counted("jacobian"))
    result = continue_branch(BASIS, nl, NEG, *RUNS[which])
    assert calls["jacobian"] > len(result.states)
    assert calls["evaluate"] == calls["project"] == calls["jacobian"]


@pytest.mark.parametrize(
    "crossing, restriction, count", [(2, "axisymmetric", 13), (0, None, 19)], ids=["axisymmetric", "full"]
)
def test_lambda_dependent_branch_matches_a_run_with_the_analytic_column(monkeypatch, crossing, restriction, count):
    # h = (1 + lam/10) quartic: the central-difference column gives the same
    # branch as the closed form -c - P(q(u))/10
    nl = lam_scaled_quartic()
    opts = ContinuationOptions(isotropy_restriction=restriction, target_norm=3.0)
    observed = continue_branch(BASIS, nl, NEG, crossing, opts)
    jacobian = continuation.residual_jacobian

    def analytic(basis, nl, sig, coeffs, lam):
        R, J, _ = jacobian(basis, nl, sig, coeffs, lam)
        return R, J, analytic_lambda_column(basis, sig, coeffs)

    monkeypatch.setattr(continuation, "residual_jacobian", analytic)
    closed = continue_branch(BASIS, nl, NEG, crossing, opts)
    assert observed.outcome == closed.outcome == "reached_target"
    assert len(observed.states) == len(closed.states) == count
    for got, want in zip(observed.states, closed.states):
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-10 * np.max(np.abs(want.coeffs))
        assert math.isclose(got.lam, want.lam, rel_tol=1e-10)


def test_branch_reaches_target_without_returning(branch):
    assert branch.outcome == "reached_target"
    assert branch.states[-1].h1_norm >= 1.0
    assert all(st.h1_norm >= 1e-4 for st in branch.states)


def test_branch_states_are_solutions(branch):
    for st in branch.states:
        r = residual_coeffs(BASIS, QUARTIC, NEG, st.coeffs, st.lam)
        assert np.max(np.abs(r)) <= 1e-9


def test_branch_states_stay_axisymmetric_and_nonconstant(branch):
    m_nonzero = [i for i, (k, m) in enumerate(BASIS.modes) if m != 0]
    for st in branch.states:
        assert np.max(np.abs(st.coeffs[m_nonzero])) <= 1e-12
        assert node_variance(BASIS, st.coeffs) > 1e-8 * st.h1_norm**2


def test_branch_norm_bookkeeping(branch):
    for st in branch.states:
        assert abs(st.h1_norm - h1_norm(BASIS, st.coeffs)) <= 1e-12


def test_branch_matches_one_mode_reduction(branch):
    # near onset lambda - 2 = gamma t^2 with gamma the quartic self-interaction
    # of the kernel mode, computed by quadrature
    kernel = BASIS.mode_index[(1, 0)]
    y4 = BASIS.values[kernel] ** 4
    gamma = BASIS.integrate(y4)
    assert math.isclose(gamma, 9 / (20 * math.pi), rel_tol=1e-12)
    checked = 0
    for st in branch.states:
        t = st.coeffs[kernel]
        if abs(t) < 1e-6:
            continue
        predicted = 2.0 + gamma * t * t
        assert abs(st.lam - predicted) <= 0.05 * t**4 + 1e-8
        checked += 1
    assert checked >= 3


def test_constant_branch_from_zero_crossing(constant_branch):
    # kernel at lambda = 0 is the constant mode; the branch obeys the exact
    # scalar relation lambda = c^2 * integral(Y00^4)
    result = constant_branch
    assert result.outcome == "reached_target"
    kappa = 1.0 / (4 * math.pi)
    i00 = BASIS.mode_index[(0, 0)]
    for st in result.states:
        c = st.coeffs[i00]
        # residual tolerance 1e-10 on -lam*c + kappa*c^3 bounds the defect by 1e-10/|c|
        assert abs(st.lam - kappa * c * c) <= 1e-10 / max(abs(c), 1e-4)
        others = np.delete(st.coeffs, i00)
        assert np.max(np.abs(others)) <= 1e-9


def test_immediate_stop_when_target_below_onset():
    opts = axisymmetric_opts(target_norm=1e-4)
    result = continue_branch(BASIS, QUARTIC, NEG, 2, opts)
    assert result.outcome == "reached_target"
    assert len(result.states) == 1


def test_budget_exhaustion_is_flagged_incomplete():
    opts = axisymmetric_opts(max_steps=1)
    result = continue_branch(BASIS, QUARTIC, NEG, 2, opts)
    assert result.outcome == "incomplete"
    assert len(result.states) == 1


def test_rejects_non_crossing():
    with pytest.raises(ValueError, match="not a crossing"):
        continue_branch(BASIS, QUARTIC, NEG, 3, axisymmetric_opts())


def test_multidimensional_kernel_requires_restriction():
    with pytest.raises(ValueError, match="apply isotropy restriction"):
        continue_branch(BASIS, QUARTIC, NEG, 2, ContinuationOptions())
    with pytest.raises(ValueError, match="apply isotropy restriction"):
        continue_branch(BASIS, QUARTIC, SystemSignature((-1, -1)), 2, axisymmetric_opts())


def test_unknown_restriction_name():
    with pytest.raises(ValueError, match="unknown isotropy restriction"):
        continue_branch(BASIS, QUARTIC, NEG, 2, axisymmetric_opts(isotropy_restriction="octahedral"))


@pytest.mark.parametrize(
    "kw",
    [
        {"step": float("nan")},
        {"step": float("inf")},
        {"step": "0.05"},
        {"step": True},
        {"target_norm": 0.0},
        {"max_steps": 0},
        {"max_steps": -4},
        {"max_steps": 2.5},
    ],
)
def test_options_reject_bad_step_control(kw):
    with pytest.raises(ValueError):
        ContinuationOptions(**kw)


def test_options_cannot_be_changed_after_validation():
    opts = axisymmetric_opts()
    with pytest.raises(AttributeError):
        opts.step = float("nan")


def test_newton_breakdown_raises_with_partial_branch():
    def bad_grad(u, lam):
        out = -np.sum(u * u, axis=0) * u
        out[np.abs(u) > 0.02] = np.nan
        return out

    nl = NonlinearitySpec(
        "quartic-with-blowup",
        value=lambda u, lam: -0.25 * np.sum(u * u, axis=0) ** 2,
        grad=bad_grad,
        hess=QUARTIC.hess,
        grad_degree=3,
    )
    opts = axisymmetric_opts(step=0.05)
    with pytest.raises(ContinuationError) as excinfo:
        continue_branch(BASIS, nl, NEG, 2, opts)
    assert isinstance(excinfo.value.states, list)
    assert excinfo.value.states  # the states traced before the breakdown


@pytest.mark.parametrize("failure", ["nan", "singular"])
def test_tangent_failure_raises_with_partial_branch(monkeypatch, failure):
    # only the tangent solve (unit right-hand side) fails; Newton's solves do not
    real = np.linalg.solve

    def solve(a, b):
        if b[-1] == 1.0 and not np.any(b[:-1]):
            if failure == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full_like(b, np.nan)
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    with pytest.raises(ContinuationError, match="no tangent") as excinfo:
        continue_branch(BASIS, QUARTIC, NEG, *RUNS["branch"])
    assert excinfo.value.states  # the onset state, accepted before its tangent
