import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import lpmv, sph_legendre_p_all

from torusbif import (
    GalerkinBasis,
    NonlinearitySpec,
    SystemSignature,
    energy,
    gradient_check,
    h1_norm,
    make_state,
    node_variance,
    residual_coeffs,
    rotate_coeffs,
    trivial_branch_crossings,
)
from torusbif import ContinuationOptions, continue_branch
from torusbif import galerkin
from torusbif.galerkin import residual_jacobian

BASIS = GalerkinBasis(8)
QUARTIC = NonlinearitySpec.quartic()
LINEAR = NonlinearitySpec.zero()
NEG = SystemSignature((-1,))


# -- basis ----------------------------------------------------------------------


def mass_error(basis):
    # largest deviation of the quadrature Gram matrix from the identity
    return float(np.max(np.abs(basis.project(basis.values) - np.eye(basis.n_modes))))


def dense_jacobian(basis, nl, sig, coeffs, lam):
    # reference: the residual, the Gram blocks through the dense (modes, nodes)
    # table, the formula the factored assembly replaced, and the lambda column
    # -c - P(D) with D the central difference of grad in lambda
    a = np.asarray(sig.a, dtype=float)
    p, n = a.size, basis.n_modes
    c = np.asarray(coeffs, dtype=float).reshape(p, n)
    u = c @ basis.values
    Hw = nl.hess(u, lam) * basis.weights
    J = np.empty((p * n, p * n))
    blocks = J.reshape(p, n, p, n)
    for i in range(p):
        for j in range(i, p):
            blocks[i, :, j, :] = -((basis.values * Hw[i, j]) @ basis.values.T)
            if j > i:
                blocks[j, :, i, :] = blocks[i, :, j, :].T
    diag = np.arange(p * n)
    J[diag, diag] -= (a[:, None] * basis.eigenvalues[None, :] + lam).ravel()
    step = 1e-6 * max(1.0, abs(lam))
    D = (nl.grad(u, lam + step) - nl.grad(u, lam - step)) / (2 * step)
    R_lam = -c - (D * basis.weights) @ basis.values.T
    return residual_coeffs(basis, nl, sig, coeffs, lam), J, R_lam.ravel()


def with_orders(basis, orders):
    if orders is None:
        return basis
    return basis.restrict([i for i, (k, m) in enumerate(basis.modes) if m in orders])


@pytest.mark.parametrize("K", [0, 2, 4, 8, 24])
def test_mode_count_and_orthonormality(K):
    basis = GalerkinBasis(K)
    assert basis.n_modes == (K + 1) ** 2
    assert mass_error(basis) <= 1e-12


def reference_harmonic(k, m, x, phi):
    # the per-mode formula the table replaced: lpmv times a float factorial
    # ratio, which overflows from about degree 86 and so serves only at low K
    am = abs(m)
    ratio = float(Fraction(math.factorial(k - am), math.factorial(k + am)))
    if m == 0:
        return math.sqrt((2 * k + 1) / (4.0 * math.pi)) * lpmv(0, k, x)
    c = math.sqrt((2 * k + 1) / (2.0 * math.pi) * ratio)
    if m > 0:
        return c * lpmv(am, k, x) * np.cos(am * phi)
    return c * lpmv(am, k, x) * np.sin(am * phi)


@pytest.mark.parametrize(
    "kw",
    [
        {"max_degree": 3.9},
        {"max_degree": True},
        {"max_degree": "4"},
    ],
)
def test_basis_rejects_non_integers(kw):
    with pytest.raises(ValueError, match="expected an integer"):
        GalerkinBasis(**kw)


def test_restricted_basis_keeps_the_chosen_modes():
    keep = [i for i, (k, m) in enumerate(BASIS.modes) if m == 0]
    sub = BASIS.restrict(keep)
    assert sub.modes == tuple((k, 0) for k in range(9))
    assert sub.mode_index[(3, 0)] == 3
    assert np.array_equal(sub.values, BASIS.values[keep])
    assert np.array_equal(sub.eigenvalues, BASIS.eigenvalues[keep])
    assert sub.weights is BASIS.weights and sub.quad_degree == BASIS.quad_degree
    assert BASIS.n_modes == 81 and mass_error(sub) <= 1e-12
    # the factors of the parent basis are not inherited: the axisymmetric
    # basis holds the single order m = 0
    colat, lon, slot, blocks = sub._factors
    assert colat.shape[:2] == (1, 9) and lon.shape[0] == 1 and len(blocks) == 1
    assert np.array_equal(slot, np.arange(9))
    assert np.array_equal(lon[0], np.ones(lon.shape[1]))


@pytest.mark.parametrize(
    "keep",
    [[-1, 3, 3], [4, 1], [2, 2], [0, 9], [], [0.0, 1.0], [True, False], [[0, 1]]],
    ids=["negative-repeated", "descending", "repeated", "past-end", "empty", "floats", "bools", "nested"],
)
def test_restrict_rejects_keep_that_is_not_an_increasing_run_of_mode_indices(keep):
    basis = GalerkinBasis(2)
    with pytest.raises(ValueError, match="keep must be"):
        basis.restrict(keep)


def test_restrict_accepts_increasing_integer_indices():
    basis = GalerkinBasis(2)
    assert basis.restrict(np.array([0, 4, 8], dtype=np.uint8)).modes == ((0, 0), (2, -2), (2, 2))
    assert basis.restrict(range(1, 4)).modes == ((1, -1), (1, 0), (1, 1))


@pytest.mark.parametrize("K", [8, 24, 64])
def test_legendre_recurrence_matches_scipy(K):
    # the per-order table against scipy's normalized Legendre functions
    # (Condon-Shortley phase included), on the basis's own colatitude nodes
    x, _ = np.polynomial.legendre.leggauss(2 * K + 1)
    got = galerkin._legendre_table(K, x)
    want = sph_legendre_p_all(K, K, np.arccos(x))[0][:, : K + 1].transpose(1, 0, 2)  # (m, k, node)
    assert got.shape == (K + 1, K + 1, x.size)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_legendre_table_at_high_degree_is_finite_and_orthonormal():
    # K = 90 is past where factorial ratios overflow; the dense table
    # (about 4.3 GB) is never formed
    basis = GalerkinBasis(90)
    assert "values" not in vars(basis)
    assert np.all(np.isfinite(basis.legendre))
    x, wx = np.polynomial.legendre.leggauss(181)
    galerkin._check_legendre_table(basis.legendre, wx)


@pytest.mark.parametrize("bad", [1e-9, math.nan], ids=["perturbed", "nan"])
def test_basis_refuses_a_bad_legendre_table(monkeypatch, bad):
    build = galerkin._legendre_table

    def corrupted(K, x):
        P = build(K, x)
        P[2, 5, 3] += bad
        return P

    monkeypatch.setattr(galerkin, "_legendre_table", corrupted)
    with pytest.raises(ValueError, match="Legendre table"):
        GalerkinBasis(8)


def test_dense_table_is_formed_on_first_use_only():
    basis = GalerkinBasis(6)
    assert "values" not in vars(basis)
    keep = [i for i, (k, m) in enumerate(basis.modes) if m == 0]
    sub = basis.restrict(keep)
    assert sub.values.shape == (7, basis.weights.size)
    assert "values" not in vars(basis)
    assert np.array_equal(sub.values, basis.values[keep])


def test_axisymmetric_branch_at_K40_never_forms_the_full_table():
    # the full K = 40 table is 175 MB; the m = 0 rows are 4.3 MB
    tracemalloc.start()
    try:
        basis = GalerkinBasis(40)
        opts = ContinuationOptions(isotropy_restriction="axisymmetric", target_norm=1.0)
        result = continue_branch(basis, QUARTIC, NEG, 2, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.outcome == "reached_target"
    assert "values" not in vars(basis)
    assert peak < 40e6


def dense_blocks(J, blocks, column=0):
    # the positions of the order blocks and their twins partition the
    # coordinates; return the dense matrix's entries at each block, in the
    # order of ``blocks``: at the formed order (column 0) or at its twin
    idx = np.concatenate([idx.ravel() for idx, _ in blocks.values()])
    assert np.array_equal(np.sort(idx), np.arange(J.shape[0]))
    return [J[np.ix_(idx[:, column], idx[:, column])] for idx, _ in blocks.values()]


@pytest.mark.parametrize("a", [(-1,), (1, -1)], ids=["p1", "p2"])
@pytest.mark.parametrize("orders", [None, (0,), (0, 3, -3), (0, 3)], ids=["full", "m0", "m0+-3", "m0+3"])
@pytest.mark.parametrize("K", [0, 1, 8, 16])
def test_factored_transforms_and_jacobian_match_the_dense_table(K, orders, a):
    # at any state the block of order m is the dense Jacobian's diagonal block
    # there: both sum the longitude rows of m against themselves; one block is
    # formed per |m|, and an order m > 0 whose twin -m is present carries the
    # twin's positions in a second column
    basis = with_orders(GalerkinBasis(K), orders)
    sig = SystemSignature(a)
    rng = np.random.default_rng(K + 100 * len(a))
    c = 0.5 * rng.standard_normal((len(a), basis.n_modes))
    R, blocks, R_lam = residual_jacobian(basis, QUARTIC, sig, c.ravel(), 1.3)
    R_ref, ref, R_lam_ref = dense_jacobian(basis, QUARTIC, sig, c.ravel(), 1.3)
    present = {m for _, m in basis.modes}
    assert sorted(blocks) == sorted(m for m in present if m >= 0 or -m not in present)
    for m, (idx, _) in blocks.items():
        assert idx.shape[1] == (2 if m > 0 and -m in present else 1)
    for (_, J_b), want in zip(blocks.values(), dense_blocks(ref, blocks)):
        assert np.max(np.abs(J_b - want)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(R, R_ref)
    assert np.array_equal(R_lam, R_lam_ref)
    u = c @ basis.values
    assert np.max(np.abs(basis.evaluate(c) - u)) <= 1e-13 * np.max(np.abs(u))
    f = rng.standard_normal((len(a), basis.weights.size))
    proj = (f * basis.weights) @ basis.values.T
    assert np.max(np.abs(basis.project(f) - proj)) <= 1e-13 * np.max(np.abs(proj))


def test_orders_of_different_degrees_keep_their_own_blocks():
    # (3, 3) and (4, -3) are not each other's reflection, so neither block
    # stands for the other
    basis = GalerkinBasis(4)
    sub = basis.restrict(sorted(basis.mode_index[km] for km in [(0, 0), (3, 3), (4, -3)]))
    c = np.array([0.7, -0.4, 0.5])
    _, blocks, _ = residual_jacobian(sub, QUARTIC, NEG, c, 1.3)
    _, ref, _ = dense_jacobian(sub, QUARTIC, NEG, c, 1.3)
    assert sorted(blocks) == [-3, 0, 3]
    assert all(idx.shape == (1, 1) for idx, _ in blocks.values())
    for (_, J_b), want in zip(blocks.values(), dense_blocks(ref, blocks)):
        assert np.max(np.abs(J_b - want)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("a", [(-1,), (1, -1)], ids=["p1", "p2"])
@pytest.mark.parametrize("K", [0, 1, 8, 16])
def test_order_blocks_are_the_whole_jacobian_on_the_m0_subspace(K, a):
    # at a state supported on m = 0 the Hessian does not depend on longitude,
    # so the dense Jacobian has nothing outside the order blocks, and the
    # reflection phi -> -phi makes the -m block equal to the +m block
    basis = GalerkinBasis(K)
    sig = SystemSignature(a)
    m0 = [i for i, (k, m) in enumerate(basis.modes) if m == 0]
    c = np.zeros((len(a), basis.n_modes))
    c[:, m0] = 0.5 * np.random.default_rng(K + 100 * len(a)).standard_normal((len(a), len(m0)))
    _, blocks, _ = residual_jacobian(basis, QUARTIC, sig, c.ravel(), 1.3)
    _, ref, _ = dense_jacobian(basis, QUARTIC, sig, c.ravel(), 1.3)
    scale = np.max(np.abs(ref))
    for (_, J_b), want in zip(blocks.values(), dense_blocks(ref, blocks)):
        assert np.max(np.abs(J_b - want)) <= 1e-12 * scale
    assert sorted(blocks) == list(range(K + 1))
    for (_, J_b), twin in zip(list(blocks.values())[1:], dense_blocks(ref, blocks, column=-1)[1:]):
        assert np.max(np.abs(J_b - twin)) <= 1e-12 * np.max(np.abs(J_b))
    off = ref.copy()
    for idx, _ in blocks.values():
        for col in idx.T:
            off[np.ix_(col, col)] = 0.0
    assert np.max(np.abs(off)) <= 1e-13 * scale
    fd = central_difference_jacobian(basis, QUARTIC, sig, c.ravel(), 1.3)
    for (_, J_b), want in zip(blocks.values(), dense_blocks(fd, blocks)):
        assert np.max(np.abs(J_b - want)) <= 1e-8 * np.max(np.abs(fd))


def test_unrestricted_jacobian_at_K32_stays_small_and_forms_no_table():
    # one block per |m|, 33 of them, 12.5 thousand entries in all (100 kB);
    # the dense J would be 9.5 MB and the dense table 73 MB
    basis = GalerkinBasis(32)
    c = 0.3 * np.random.default_rng(23).standard_normal(basis.n_modes)
    tracemalloc.start()
    try:
        R, blocks, _ = residual_jacobian(basis, QUARTIC, NEG, c, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sorted(blocks) == list(range(33))
    assert [J_b.shape for _, J_b in blocks.values()] == [(33 - m,) * 2 for m in range(33)]
    assert peak < 30e6
    assert "values" not in vars(basis)


def test_unrestricted_branch_at_K16_never_forms_the_table():
    basis = GalerkinBasis(16)
    result = continue_branch(basis, QUARTIC, NEG, 0, ContinuationOptions(target_norm=1.0))
    assert result.outcome == "reached_target"
    assert "values" not in vars(basis)


def test_harmonic_table_matches_legendre_formula():
    basis = GalerkinBasis(12)
    for i, (k, m) in enumerate(basis.modes):
        want = reference_harmonic(k, m, basis.node_x, basis.node_phi)
        assert np.max(np.abs(basis.values[i] - want)) <= 1e-12, (k, m)


def test_no_constant_mode_at_positive_levels():
    # eigenfunctions with positive eigenvalue integrate to zero and are nonconstant
    for i, (k, m) in enumerate(BASIS.modes):
        if k == 0:
            continue
        assert abs(BASIS.integrate(BASIS.values[i])) <= 1e-12
        e = np.zeros(BASIS.n_modes)
        e[i] = 1.0
        assert node_variance(BASIS, e) > 1e-3


def test_quadrature_weights_sum_to_sphere_area():
    assert math.isclose(float(np.sum(BASIS.weights)), 4 * math.pi, rel_tol=1e-13)


# -- residual --------------------------------------------------------------------


def test_trivial_branch_residual_vanishes():
    state = make_state(BASIS, np.zeros(BASIS.n_modes), 3.7)
    assert np.max(np.abs(residual_coeffs(BASIS, QUARTIC, NEG, state.coeffs, state.lam))) == 0.0


def test_linear_single_mode_residual_at_crossing():
    c = np.zeros(BASIS.n_modes)
    c[BASIS.mode_index[(1, 0)]] = 0.8
    state = make_state(BASIS, c, 2.0)
    assert np.max(np.abs(residual_coeffs(BASIS, LINEAR, NEG, state.coeffs, state.lam))) == 0.0


def test_constant_mode_cubic_residual_matches_exact_integral():
    # u = eps Y00 is constant; the quartic term integrates in closed form
    eps, lam = 0.3, 0.5
    c = np.zeros(BASIS.n_modes)
    c[BASIS.mode_index[(0, 0)]] = eps
    state = make_state(BASIS, c, lam)
    r = residual_coeffs(BASIS, QUARTIC, NEG, state.coeffs, state.lam)
    exact = -lam * eps + eps**3 / (4 * math.pi)
    assert abs(r[BASIS.mode_index[(0, 0)]] - exact) <= 1e-14
    others = np.delete(r, BASIS.mode_index[(0, 0)])
    assert np.max(np.abs(others)) <= 1e-14


def test_residual_rejects_wrong_length():
    with pytest.raises(ValueError, match="wrong length"):
        residual_coeffs(BASIS, QUARTIC, SystemSignature((-1, -1)), np.zeros(BASIS.n_modes), 1.0)


def test_underresolved_quadrature_is_rejected():
    # h = -(|u|^2)^3 / 6 has a quintic gradient: its residual needs degree 6K,
    # and the quadrature is exact to degree 4K
    def hess(u, lam):
        s = np.sum(u * u, axis=0)
        out = -4.0 * s * u[:, None, :] * u[None, :, :]
        out[np.arange(len(u)), np.arange(len(u)), :] -= s**2
        return out

    sextic = NonlinearitySpec(
        "sextic",
        lambda u, lam: -np.sum(u * u, axis=0) ** 3 / 6.0,
        lambda u, lam: -np.sum(u * u, axis=0) ** 2 * u,
        hess,
        grad_degree=5,
    )
    with pytest.raises(ValueError, match="quadrature underresolved: exact to degree 32, residual needs 48"):
        residual_coeffs(BASIS, sextic, NEG, np.zeros(BASIS.n_modes), 1.0)


def test_h1_norm_weights():
    c = np.zeros(BASIS.n_modes)
    c[BASIS.mode_index[(0, 0)]] = 2.0
    c[BASIS.mode_index[(1, 0)]] = 1.0
    # (0+1)*4 + (2+1)*1
    assert math.isclose(h1_norm(BASIS, c), math.sqrt(7.0), rel_tol=1e-15)


# -- gradient consistency -----------------------------------------------------------


def test_gradient_check_quartic():
    rng = np.random.default_rng(7)
    sig = SystemSignature((1, -1))
    state = make_state(BASIS, 0.5 * rng.standard_normal(2 * BASIS.n_modes), 1.3)
    assert gradient_check(BASIS, QUARTIC, sig, state, 1e-5) <= 1e-6


def test_gradient_check_zero_state():
    state = make_state(BASIS, np.zeros(BASIS.n_modes), 1.0)
    assert gradient_check(BASIS, QUARTIC, NEG, state, 1e-5) <= 1e-12


def test_gradient_check_linear_functional_is_exact():
    # central differences of a quadratic are exact; only roundoff remains
    rng = np.random.default_rng(11)
    state = make_state(BASIS, 0.2 * rng.standard_normal(BASIS.n_modes), 0.7)
    assert gradient_check(BASIS, LINEAR, NEG, state, 1e-5) <= 1e-8


def central_difference_jacobian(basis, nl, sig, coeffs, lam):
    # reference: central differences of the residual, one column per coordinate
    base = np.asarray(coeffs, dtype=float)
    cols = []
    for idx in range(base.size):
        step = np.zeros_like(base)
        step[idx] = 1e-6 * max(1.0, abs(base[idx]))
        rp = residual_coeffs(basis, nl, sig, base + step, lam)
        rm = residual_coeffs(basis, nl, sig, base - step, lam)
        cols.append((rp - rm) / (2 * step[idx]))
    return np.column_stack(cols)


M0 = [i for i, (k, m) in enumerate(BASIS.modes) if m == 0]


@pytest.mark.parametrize("keep", [None, M0], ids=["full", "m0"])
def test_jacobian_matches_central_differences(keep):
    basis = BASIS if keep is None else BASIS.restrict(keep)
    sig = SystemSignature((1, -1))
    rng = np.random.default_rng(17)
    c = 0.5 * rng.standard_normal(2 * basis.n_modes)
    R, blocks, _ = residual_jacobian(basis, QUARTIC, sig, c, 1.3)
    ref = central_difference_jacobian(basis, QUARTIC, sig, c, 1.3)
    assert np.array_equal(R, residual_coeffs(basis, QUARTIC, sig, c, 1.3))
    for (_, J_b), want in zip(blocks.values(), dense_blocks(ref, blocks)):
        assert np.max(np.abs(J_b - want)) <= 1e-8 * np.max(np.abs(ref))


def test_restricted_residual_is_the_kept_part_of_the_full_one():
    # a state supported on the m = 0 modes: the residual of the restricted
    # coefficients equals the full residual at the kept entries
    sig = SystemSignature((1, -1))
    sub = BASIS.restrict(M0)
    rng = np.random.default_rng(19)
    x = 0.5 * rng.standard_normal((2, sub.n_modes))
    full = np.zeros((2, BASIS.n_modes))
    full[:, M0] = x
    got = residual_coeffs(sub, QUARTIC, sig, x.ravel(), 0.9).reshape(2, -1)
    want = residual_coeffs(BASIS, QUARTIC, sig, full.ravel(), 0.9).reshape(2, -1)
    assert np.max(np.abs(got - want[:, M0])) <= 1e-13 * np.max(np.abs(want))
    # and nothing leaks out of the subspace: the quartic keeps m = 0 invariant
    assert np.max(np.abs(np.delete(want, M0, axis=1))) <= 1e-13 * np.max(np.abs(want))


def test_gradient_check_validates_epsilon():
    state = make_state(BASIS, np.zeros(BASIS.n_modes), 1.0)
    with pytest.raises(ValueError):
        gradient_check(BASIS, QUARTIC, NEG, state, 1e-2)


def test_lambda_derivative_of_a_lambda_dependent_nonlinearity():
    # h(u, lam) = lam * quartic, so R = -(a k(k+1) + lam) c - lam P(q(u)) with
    # q the quartic gradient, and dR/dlam = -c - P(q(u)); grad reads lambda,
    # so the derivative is taken by central differences of grad
    scaled = NonlinearitySpec(
        "lam-quartic",
        lambda u, lam: lam * QUARTIC.value(u, lam),
        lambda u, lam: lam * QUARTIC.grad(u, lam),
        lambda u, lam: lam * QUARTIC.hess(u, lam),
        grad_degree=3,
    )
    rng = np.random.default_rng(13)
    sig = SystemSignature((1, -1))
    c = 0.5 * rng.standard_normal(2 * BASIS.n_modes)
    lam = 1.7
    projected = BASIS.project(QUARTIC.grad(BASIS.evaluate(c.reshape(2, -1)), lam)).ravel()
    want = -c - projected
    got = residual_jacobian(BASIS, scaled, sig, c, lam)[2]
    assert np.max(np.abs(projected)) > 0.1  # the nonlinear term is not negligible
    assert np.max(np.abs(got - want)) <= 1e-7 * np.max(np.abs(want))


def lam_scaled_quartic():
    # h(u, lam) = (1 + lam/10) * quartic: grad reads lambda, and dR/dlam is
    # -c - P(q(u))/10 with q the quartic gradient
    def scale(f):
        return lambda u, lam: (1.0 + lam / 10.0) * f(u, lam)

    return NonlinearitySpec(
        "scaled-quartic", scale(QUARTIC.value), scale(QUARTIC.grad), scale(QUARTIC.hess), grad_degree=3
    )


def analytic_lambda_column(basis, sig, coeffs):
    c = np.asarray(coeffs, dtype=float).reshape(len(sig.a), basis.n_modes)
    return (-c - basis.project(QUARTIC.grad(basis.evaluate(c), 0.0)) / 10.0).ravel()


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.7, -23.5])
def test_lambda_column_matches_the_analytic_one(lam):
    # grad is linear in lambda, so the central difference has no truncation
    # error; its roundoff, about eps (1 + lam/10) / step of q, is near 1e-9 of
    # the lambda term P(q)/10 (up to 6e-10 seen), so that term is held to 1e-8
    sig = SystemSignature((1, -1))
    c = 0.5 * np.random.default_rng(29).standard_normal(2 * BASIS.n_modes)
    R, _, R_lam = residual_jacobian(BASIS, lam_scaled_quartic(), sig, c, lam)
    want = analytic_lambda_column(BASIS, sig, c)
    term = np.max(np.abs(want + c))
    assert term > 0.01  # the nonlinear term is not negligible
    assert np.max(np.abs(R_lam - want)) <= 1e-8 * term
    assert np.array_equal(R, residual_coeffs(BASIS, lam_scaled_quartic(), sig, c, lam))


def test_lambda_column_of_a_lambda_free_spec_is_minus_c_without_a_projection(monkeypatch):
    calls = []
    project = GalerkinBasis.project

    def counted_project(basis, f):
        calls.append(1)
        return project(basis, f)

    monkeypatch.setattr(GalerkinBasis, "project", counted_project)
    c = 0.5 * np.random.default_rng(31).standard_normal(2 * BASIS.n_modes)
    R_lam = residual_jacobian(BASIS, QUARTIC, SystemSignature((1, -1)), c, 1.3)[2]
    assert np.array_equal(R_lam, -c)
    assert len(calls) == 1  # the residual's own projection


def test_gradient_check_requires_a_sample():
    # a gradient off by a factor of two: any sampled coordinate exposes it
    wrong = NonlinearitySpec(
        "quartic-doubled-gradient",
        QUARTIC.value,
        lambda u, lam: 2.0 * QUARTIC.grad(u, lam),
        QUARTIC.hess,
        grad_degree=3,
    )
    rng = np.random.default_rng(5)
    state = make_state(BASIS, 0.5 * rng.standard_normal(BASIS.n_modes), 1.0)
    assert gradient_check(BASIS, wrong, NEG, state, 1e-5, n_samples=5) > 0.1
    for n in (0, -1):
        with pytest.raises(ValueError, match="n_samples must be at least 1"):
            gradient_check(BASIS, wrong, NEG, state, 1e-5, n_samples=n)


# -- crossings -----------------------------------------------------------------------


def test_crossings_negative_laplacian():
    got = trivial_branch_crossings(BASIS, NEG, (0, 7))
    assert [c.lam for c in got] == [0, 2, 6]
    assert [len(c.modes) for c in got] == [1, 3, 5]


def test_crossings_positive_laplacian():
    got = trivial_branch_crossings(BASIS, SystemSignature((1,)), (-7, 0))
    assert [c.lam for c in got] == [-6, -2, 0]


def test_crossing_kernel_counts_two_equations():
    got = {c.lam: c for c in trivial_branch_crossings(BASIS, SystemSignature((-1, -1)), (2, 2))}
    assert len(got[2].modes) == 6  # two copies of the three-dimensional eigenspace


# -- equivariance ----------------------------------------------------------------------


def test_residual_is_rotation_equivariant():
    rng = np.random.default_rng(3)
    c = rng.standard_normal(BASIS.n_modes)
    theta = 0.83
    lhs = residual_coeffs(BASIS, QUARTIC, NEG, rotate_coeffs(BASIS, c, theta), 1.0)
    rhs = rotate_coeffs(BASIS, residual_coeffs(BASIS, QUARTIC, NEG, c, 1.0), theta)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(rhs))


def test_rotation_is_orthogonal_and_periodic():
    rng = np.random.default_rng(5)
    c = rng.standard_normal(BASIS.n_modes)
    rotated = rotate_coeffs(BASIS, c, 1.1)
    assert math.isclose(float(np.linalg.norm(rotated)), float(np.linalg.norm(c)), rel_tol=1e-13)
    back = rotate_coeffs(BASIS, rotated, -1.1)
    assert np.max(np.abs(back - c)) <= 1e-12


@pytest.mark.parametrize("order", [3, -3])
def test_rotation_refuses_a_basis_without_the_twin_order(order):
    basis = with_orders(GalerkinBasis(4), (0, order))
    missing = rf"lacks mode \(k, m\) = \(3, {-order}\), the twin of \(3, {order}\)"
    with pytest.raises(ValueError, match=missing):
        rotate_coeffs(basis, np.ones(basis.n_modes), 0.5)


# -- nonlinearity contract ----------------------------------------------------------------


def test_quartic_gradient_vanishes_to_second_order_at_origin():
    zero = np.zeros((2, 5))
    assert np.all(QUARTIC.grad(zero, 0.3) == 0)
    assert np.all(QUARTIC.hess(zero, 0.3) == 0)



def test_energy_matches_hand_value_for_constants():
    # u = c Y00: energy = -lam c^2 / 2 + c^4 / (16 pi)
    c0, lam = 0.7, 0.4
    c = np.zeros(BASIS.n_modes)
    c[BASIS.mode_index[(0, 0)]] = c0
    got = energy(BASIS, QUARTIC, NEG, c, lam)
    want = -0.5 * lam * c0**2 + c0**4 / (16 * math.pi)
    assert math.isclose(got, want, rel_tol=1e-13)
