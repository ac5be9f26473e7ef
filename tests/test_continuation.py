import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from torusbif import (
    ContinuationError,
    ContinuationOptions,
    GalerkinBasis,
    NonlinearitySpec,
    SymmetricSpaceData,
    SystemSignature,
    bifurcation_levels,
    continue_branch,
    h1_norm,
    node_variance,
    residual_coeffs,
    trivial_branch_crossings,
)
from torusbif import continuation
from test_galerkin import analytic_lambda_column, dense_jacobian, lam_scaled_quartic, product_grid

# the basis the solver builds at K = 8, of the m = 0 modes, and the full
# basis the states are checked on
BASIS = GalerkinBasis(8, orders=[0])
FULL = GalerkinBasis(8)
QUARTIC = NonlinearitySpec.quartic()
NEG = SystemSignature((-1,))


def axisymmetric_opts(**kw):
    defaults = dict(isotropy_restriction="axisymmetric", target_norm=1.0)
    defaults.update(kw)
    return ContinuationOptions(**defaults)


def embed(full, coeffs):
    # a state's m = 0 coefficients placed in the full basis, every other one 0.0
    K = full.max_degree
    c = np.asarray(coeffs, dtype=float).reshape(-1, K + 1)
    out = np.zeros((c.shape[0], full.n_modes))
    out[:, [full.mode_index[(k, 0)] for k in range(K + 1)]] = c
    return out.ravel()


# crossing and options of the two K = 8 fixtures
RUNS = {
    "branch": (2, axisymmetric_opts()),
    "constant_branch": (0, ContinuationOptions(target_norm=0.8)),
}


@pytest.fixture(scope="module")
def branch():
    return continue_branch(8, QUARTIC, NEG, *RUNS["branch"])


@pytest.fixture(scope="module")
def constant_branch():
    return continue_branch(8, QUARTIC, NEG, *RUNS["constant_branch"])


# the branch-full benchmark config: unrestricted, K = 16, from lambda = 0 to norm 5
FULL_K16 = (16, 0, ContinuationOptions(target_norm=5))


@pytest.fixture(scope="module")
def full_K16_branch():
    K, crossing, opts = FULL_K16
    return continue_branch(K, QUARTIC, NEG, crossing, opts)


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


def dense_branch(K, crossing, opts):
    # an independent solver for p = 1 and a simple kernel: Newton and the
    # tangent solve the dense bordered matrix of dense_jacobian on every kept
    # mode (all of them when unrestricted), with every order coupled, under
    # the same step control and stop rule; it checks that the solver's
    # m = 0 solve gives the solution of the whole system.  States are full-
    # basis coefficient vectors.
    full = GalerkinBasis(K)
    sub = full if opts.isotropy_restriction is None else GalerkinBasis(K, orders=[0])
    n = sub.n_modes
    (kernel,) = [i for i, (k, m) in enumerate(sub.modes) if m == 0 and k * (k + 1) == crossing]
    e = np.eye(n + 1)

    def newton(x, lam, row, base, offset):
        M = np.empty((n + 1, n + 1))
        M[n] = row
        for _ in range(continuation.MAX_NEWTON_ITER + 1):
            R, M[:n, :n], M[:n, n] = dense_jacobian(sub, QUARTIC, NEG, x, lam)
            F = np.append(R, row @ (np.append(x, lam) - base) - offset)
            if np.max(np.abs(F)) < continuation.NEWTON_TOL:
                return x, lam, M
            dz = np.linalg.solve(M, -F)
            x, lam = x + dz[:n], lam + dz[n]
        return x, lam, None

    def tangent(M, prev):
        M[n] = prev
        t = np.linalg.solve(M, e[n])
        return t / np.linalg.norm(t)

    def state(x, lam):
        c = x if sub is full else embed(full, x)
        return c, lam, h1_norm(full, c)

    onset = continuation.ONSET_AMPLITUDE
    x, lam, M = newton(onset * e[kernel, :n], float(crossing), e[kernel], np.zeros(n + 1), onset)
    states = [state(x, lam)]
    prev = np.append(x, lam)
    t = tangent(M, np.append(x, lam - crossing) / np.linalg.norm(np.append(x, lam - crossing)))
    h = continuation.INITIAL_STEP
    while True:
        if states[-1][2] >= opts.target_norm:
            return states, "reached_target"
        if states[-1][2] < onset / 10.0:
            return states, "returned_to_trivial"
        if len(states) >= continuation.MAX_STEPS:
            return states, "incomplete"
        z = prev + h * t
        x, lam, M = newton(z[:n], z[n], t, prev, h)
        if M is None:
            h /= 2.0
            continue
        states.append(state(x, lam))
        t = tangent(M, t)
        prev = np.append(x, lam)
        h = min(h * 1.4, continuation.MAX_STEP)


@pytest.mark.parametrize("which", [*RUNS, "full_K16_branch"])
def test_branch_states_match_a_run_with_the_dense_jacobian(request, which):
    # the unrestricted runs solve on the m = 0 modes; the dense run solves
    # on every mode
    factored = request.getfixturevalue(which)
    run = FULL_K16 if which == "full_K16_branch" else (8, *RUNS[which])
    dense, outcome = dense_branch(*run)
    full = GalerkinBasis(run[0])
    assert outcome == factored.outcome
    assert len(dense) == len(factored.states)
    for got, (coeffs, lam, _) in zip(factored.states, dense):
        assert np.max(np.abs(embed(full, got.coeffs) - coeffs)) <= 1e-12 * np.max(np.abs(coeffs))
        assert math.isclose(got.lam, lam, rel_tol=1e-12)


@pytest.mark.parametrize("which", RUNS)
def test_newton_transforms_the_state_once_per_iteration(monkeypatch, which):
    # residual_jacobian returns R and J from one evaluate, and the
    # quartic does not read lambda, so each Newton iteration evaluates the
    # state once; the one more evaluate is the run's symmetry check
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
    result = continue_branch(8, QUARTIC, NEG, *RUNS[which])
    assert calls["jacobian"] > len(result.states)
    assert calls["evaluate"] == calls["jacobian"] + 1


@pytest.mark.parametrize("which", RUNS)
def test_a_spec_of_four_callables_makes_one_transform_pair_per_iteration(monkeypatch, which):
    # a spec states no lambda-dependence: residual_jacobian observes that grad
    # does not read lambda and makes no projection beyond the residual's own;
    # the one more evaluate is the run's symmetry check, which projects nothing
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
    result = continue_branch(8, nl, NEG, *RUNS[which])
    assert calls["jacobian"] > len(result.states)
    assert calls["project"] == calls["jacobian"]
    assert calls["evaluate"] == calls["jacobian"] + 1


@pytest.mark.parametrize(
    "crossing, restriction, count", [(2, "axisymmetric", 13), (0, None, 19)], ids=["axisymmetric", "full"]
)
def test_lambda_dependent_branch_matches_a_run_with_the_analytic_column(monkeypatch, crossing, restriction, count):
    # h = (1 + lam/10) quartic: the central-difference column gives the same
    # branch as the closed form -c - P(q(u))/10
    nl = lam_scaled_quartic()
    opts = ContinuationOptions(isotropy_restriction=restriction, target_norm=3.0)
    observed = continue_branch(8, nl, NEG, crossing, opts)
    jacobian = continuation.residual_jacobian

    def analytic(basis, nl, sig, coeffs, lam):
        R, J, _ = jacobian(basis, nl, sig, coeffs, lam)
        return R, J, analytic_lambda_column(basis, sig, coeffs)

    monkeypatch.setattr(continuation, "residual_jacobian", analytic)
    closed = continue_branch(8, nl, NEG, crossing, opts)
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
        r = residual_coeffs(FULL, QUARTIC, NEG, embed(FULL, st.coeffs), st.lam)
        assert np.max(np.abs(r)) <= 1e-9


def test_branch_states_stay_axisymmetric_and_nonconstant(branch):
    # a state holds the coefficients of the m = 0 modes only
    for st in branch.states:
        assert st.coeffs.shape == (BASIS.n_modes,)
        assert node_variance(FULL, embed(FULL, st.coeffs)) > 1e-8 * st.h1_norm**2


def test_branch_norm_bookkeeping(branch):
    # the norm over the K + 1 stored coefficients is the full-basis norm of
    # the state up to the order of summation
    for st in branch.states:
        assert abs(st.h1_norm - h1_norm(BASIS, st.coeffs)) <= 1e-12
        assert math.isclose(st.h1_norm, h1_norm(FULL, embed(FULL, st.coeffs)), rel_tol=4.4e-16)


def test_branch_matches_one_mode_reduction(branch):
    # near onset lambda - 2 = gamma t^2 with gamma the quartic self-interaction
    # of the kernel mode, computed by quadrature
    kernel = BASIS.mode_index[(1, 0)]
    y4 = FULL.values[FULL.mode_index[(1, 0)]] ** 4
    gamma = FULL.integrate(y4)
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
    result = continue_branch(8, QUARTIC, NEG, 2, opts)
    assert result.outcome == "reached_target"
    assert len(result.states) == 1


def test_budget_exhaustion_is_flagged_incomplete(monkeypatch):
    monkeypatch.setattr(continuation, "MAX_STEPS", 1)
    result = continue_branch(8, QUARTIC, NEG, 2, axisymmetric_opts())
    assert result.outcome == "incomplete"
    assert len(result.states) == 1


def test_rejects_non_crossing():
    with pytest.raises(ValueError, match="not a crossing"):
        continue_branch(8, QUARTIC, NEG, 3, axisymmetric_opts())


def test_multidimensional_kernel_requires_restriction():
    with pytest.raises(ValueError, match="apply isotropy restriction"):
        continue_branch(8, QUARTIC, NEG, 2, ContinuationOptions())
    with pytest.raises(ValueError, match="apply isotropy restriction"):
        continue_branch(8, QUARTIC, SystemSignature((-1, -1)), 2, axisymmetric_opts())


def test_a_one_dimensional_kernel_is_an_m0_mode():
    # a crossing lists every order of each (component, degree) it holds, so
    # an unrestricted kernel is one-dimensional only at some (i, 0, 0), and
    # the axisymmetric filter keeps m = 0 modes only: the solver, which works
    # on the m = 0 modes, never meets a kernel mode of order m != 0.  The
    # kernel dimension at each crossing is the exact half's at that level
    sphere = SymmetricSpaceData.sphere(2)
    for a in (a for p in (1, 2, 3) for a in itertools.product((1, -1), repeat=p)):
        sig = SystemSignature(a)
        crossings = trivial_branch_crossings(8, sig, (-60, 60))
        for c in crossings:
            held = sorted({(i, k) for i, k, _ in c.modes})
            assert c.modes == tuple((i, k, m) for i, k in held for m in range(-k, k + 1))
            if len(c.modes) == 1:
                assert c.modes[0][1:] == (0, 0)
        exact = [(bl.level, bl.kernel_dim) for bl in bifurcation_levels(sphere, sig, 60)]
        assert [(c.lam, len(c.modes)) for c in crossings] == exact


def phi_quartic():
    # the quartic times 1 + cos(phi)/2: pointwise in u, but it reads longitude
    bump = 1.0 + 0.5 * np.cos(product_grid(8)[1])
    return NonlinearitySpec(
        "phi-quartic",
        lambda u, lam: bump * QUARTIC.value(u, lam),
        lambda u, lam: bump * QUARTIC.grad(u, lam),
        lambda u, lam: bump * QUARTIC.hess(u, lam),
        grad_degree=3,
    )


@pytest.mark.parametrize(
    "crossing, restriction", [(0, None), (2, "axisymmetric")], ids=["full", "axisymmetric"]
)
def test_a_nonlinearity_that_reads_longitude_is_refused(crossing, restriction):
    # the check tiles the state of the m = 0 basis over the full grid's
    # longitudes, which it counts from K
    opts = ContinuationOptions(isotropy_restriction=restriction)
    with pytest.raises(ValueError, match="nonlinearity 'phi-quartic' does not keep the m = 0 subspace invariant"):
        continue_branch(8, phi_quartic(), NEG, crossing, opts)


def test_branch_runs_build_only_bases_of_the_m0_modes(tmp_path, capsys, monkeypatch):
    # continue_branch builds one basis, of the K + 1 modes of order 0, and
    # neither the CLI nor criterion 10 builds one itself
    from torusbif import selftest
    from torusbif.cli import main

    built, inside = [], []
    build, solve = GalerkinBasis._build, continuation.continue_branch

    def recorded_build(basis, K, modes):
        built.append((K, len(modes)))
        return build(basis, K, modes)

    def recorded_solve(*args):
        before = len(built)
        result = solve(*args)
        inside.extend(built[before:])
        return result

    monkeypatch.setattr(GalerkinBasis, "_build", recorded_build)
    monkeypatch.setattr(continuation, "continue_branch", recorded_solve)
    monkeypatch.setattr(selftest, "continue_branch", recorded_solve)
    config = tmp_path / "branch.json"
    galerkin = {"K": 8, "nl": "quartic", "crossing": 0, "target_norm": 0.8}
    config.write_text(json.dumps({"space": {"kind": "sphere", "n": 2}, "a": [-1], "galerkin": galerkin}))
    assert main(["branch", "--config", str(config), "--out", str(tmp_path / "branch.csv")]) == 0
    assert built == inside == [(8, 9)]
    built.clear()
    inside.clear()
    assert selftest.criterion_10_branch_witness().passed
    assert built == inside == [(8, 9)]
    built.clear()
    result = solve(16, QUARTIC, NEG, *RUNS["branch"])
    assert built == [(16, 17)] and result.basis.modes == tuple((k, 0) for k in range(17))


@pytest.mark.parametrize(
    "nl", [QUARTIC, NonlinearitySpec.zero(), lam_scaled_quartic()], ids=["quartic", "zero", "lam-scaled"]
)
def test_pointwise_nonlinearities_pass_the_symmetry_check(monkeypatch, nl):
    monkeypatch.setattr(continuation, "MAX_STEPS", 1)
    result = continue_branch(8, nl, NEG, 0, ContinuationOptions())
    assert result.outcome == "incomplete" and len(result.states) == 1


def test_unrestricted_K16_run_makes_one_bordered_solve_per_jacobian_and_is_pinned(tmp_path, capsys, monkeypatch):
    # the branch-full benchmark config through the CLI: the solver works on
    # the m = 0 modes whatever the restriction, so every Jacobian is followed
    # by exactly one solve of the bordered system of (K + 1) + 1 = 18 rows,
    # a Newton step or, after a converged Jacobian, the tangent (its
    # right-hand side is the last unit vector)
    from torusbif.cli import main

    solves = []  # (matrix shape, right-hand side shape, is the tangent) after each Jacobian
    solve, jacobian = np.linalg.solve, continuation.residual_jacobian

    def recorded_solve(a, b):
        solves[-1].append((a.shape, b.shape, b[-1] == 1.0 and not np.any(b[:-1])))
        return solve(a, b)

    def recorded_jacobian(*args):
        solves.append([])
        return jacobian(*args)

    monkeypatch.setattr(np.linalg, "solve", recorded_solve)
    monkeypatch.setattr(continuation, "residual_jacobian", recorded_jacobian)
    config = tmp_path / "branch.json"
    galerkin = {"K": 16, "nl": "quartic", "crossing": 0, "target_norm": 5}
    config.write_text(json.dumps({"space": {"kind": "sphere", "n": 2}, "a": [-1], "galerkin": galerkin}))
    assert main(["branch", "--config", str(config), "--out", str(tmp_path / "branch.csv")]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert len(solves) == 90
    assert sum(after == [((18, 18), (18,), False)] for after in solves) == 59
    assert sum(after == [((18, 18), (18,), True)] for after in solves) == 31
    assert summary["outcome"] == "reached_target" and summary["steps"] == 31
    assert math.isclose(summary["final"]["lambda"], 2.0284526142497143, rel_tol=0.0, abs_tol=1e-12)
    assert math.isclose(summary["final"]["h1_norm"], 5.048790679393228, rel_tol=0.0, abs_tol=1e-12)


@pytest.mark.parametrize("which", ["constant_branch", "full_K16_branch"])
def test_unrestricted_states_lie_in_the_m0_subspace_and_solve_the_full_system(request, which):
    # the solver works on the m = 0 modes only and stores just their
    # coefficients, and the state, with every other coefficient zero, still
    # solves the system on every mode
    K = FULL_K16[0] if which == "full_K16_branch" else 8
    full = GalerkinBasis(K)
    for st in request.getfixturevalue(which).states:
        assert st.coeffs.shape == (K + 1,)
        r = residual_coeffs(full, QUARTIC, NEG, embed(full, st.coeffs), st.lam)
        assert np.max(np.abs(r)) <= continuation.NEWTON_TOL


def test_unknown_restriction_name():
    with pytest.raises(ValueError, match="unknown isotropy restriction"):
        continue_branch(8, QUARTIC, NEG, 2, axisymmetric_opts(isotropy_restriction="octahedral"))


@pytest.mark.parametrize(
    "kw",
    [
        {"target_norm": float("nan")},
        {"target_norm": float("inf")},
        {"target_norm": "0.05"},
        {"target_norm": True},
        {"target_norm": 0.0},
        {"target_norm": -4.0},
        {"target_norm": float("-inf")},
        {"target_norm": None},
    ],
)
def test_options_reject_bad_step_control(kw):
    with pytest.raises(ValueError):
        ContinuationOptions(**kw)


def test_options_hold_only_the_settings_a_run_varies():
    # the first step and the step budget are the constants INITIAL_STEP and
    # MAX_STEPS, not options
    assert [f.name for f in dataclasses.fields(ContinuationOptions)] == ["target_norm", "isotropy_restriction"]


def test_options_cannot_be_changed_after_validation():
    opts = axisymmetric_opts()
    with pytest.raises(AttributeError):
        opts.target_norm = float("nan")


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
    with pytest.raises(ContinuationError) as excinfo:
        continue_branch(8, nl, NEG, 2, axisymmetric_opts())
    result = excinfo.value.result
    assert result.outcome == "diverged" and result.basis.modes == BASIS.modes
    assert result.states  # the states traced before the breakdown


@pytest.mark.parametrize("which", RUNS)
@pytest.mark.parametrize("failure", ["nan", "singular"])
def test_tangent_failure_raises_with_partial_branch(monkeypatch, failure, which):
    # only the tangent solve (unit right-hand side) fails; Newton's do not
    real = np.linalg.solve

    def solve(a, b):
        if b.ndim == 1 and b[-1] == 1.0 and not np.any(b[:-1]):
            if failure == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return np.full_like(b, np.nan)
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    with pytest.raises(ContinuationError, match="no tangent") as excinfo:
        continue_branch(8, QUARTIC, NEG, *RUNS[which])
    assert excinfo.value.result.states  # the onset state, accepted before its tangent
