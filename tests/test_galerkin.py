import math
import re
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
    # table one component pair at a time, the lower blocks as transposes of
    # the upper ones, and the lambda column -c - P(D) with D the central
    # difference of grad in lambda
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


def product_grid(K, M=None):
    # the nodes (cos theta, phi) of the product rule of a degree-K basis whose
    # largest |m| is M (K by default, the full basis), in its node order:
    # colatitude major, longitude minor
    n_theta, n_phi = galerkin.QUAD_MARGIN * K // 2 + 1, galerkin.QUAD_MARGIN * (K if M is None else M) + 1
    x, _ = np.polynomial.legendre.leggauss(n_theta)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    return np.repeat(x, n_phi), np.tile(phi, n_theta)


def basis_on(K, modes):
    # a basis of degree K on any modes, through the private builder, for the
    # mode sets that no ``orders`` value gives (orders of different degrees,
    # a degree gap) and for the one-order parts of such a basis
    basis = object.__new__(GalerkinBasis)
    basis._build(K, tuple(modes))
    return basis


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
    sub = GalerkinBasis(8, orders=[0])
    assert sub.modes == tuple((k, 0) for k in range(9))
    assert sub.mode_index[(3, 0)] == 3
    # one node per latitude ring: each row is the full basis's row at phi = 0
    assert np.array_equal(sub.values, BASIS.values[keep][:, :: BASIS.longitude.shape[1]])
    assert np.array_equal(sub.eigenvalues, BASIS.eigenvalues[keep])
    assert sub.weights.size == 17 and sub.quad_degree == BASIS.quad_degree
    assert BASIS.n_modes == 81 and mass_error(sub) <= 1e-12
    # the axisymmetric basis holds the single order m = 0: one longitude, so
    # its table is its Legendre block of order 0
    assert np.array_equal(sub.longitude, np.ones((1, 1)))
    assert np.array_equal(sub.values, sub.legendre[0])


@pytest.mark.parametrize(
    "orders, message",
    [
        ([-3, 1, 1], "orders must be"),
        ([1, 0], "orders must be"),
        ([2, 2], "orders must be"),
        ([0, 3], "orders must be"),
        ([], "orders must be"),
        ([0.0, 1.0], "expected an integer"),
        ([True, False], "expected an integer"),
        ([[0, 1]], "expected an integer"),
    ],
    ids=["negative-repeated", "descending", "repeated", "past-end", "empty", "floats", "bools", "nested"],
)
def test_basis_rejects_invalid_orders(orders, message):
    with pytest.raises(ValueError, match=message):
        GalerkinBasis(2, orders)


def test_basis_accepts_increasing_integer_orders():
    assert GalerkinBasis(2, np.array([0, 2], dtype=np.uint8)).modes == ((0, 0), (1, 0), (2, 0), (2, 2))
    assert GalerkinBasis(2, np.array([-2, 2], dtype=np.int8)).modes == ((2, -2), (2, 2))
    assert GalerkinBasis(2, range(-1, 1)).modes == ((0, 0), (1, -1), (1, 0), (2, -1), (2, 0))
    assert GalerkinBasis(2, None).modes == GalerkinBasis(2).modes == tuple(
        (k, m) for k in range(3) for m in range(-k, k + 1)
    )


@pytest.mark.parametrize("K", [0, 8, 24])
def test_basis_of_order_0_is_the_m0_modes_of_the_full_basis_bit_for_bit(K):
    # the basis of order 0 equals the one built on the m = 0 modes picked
    # from the full basis by index, in every array the solver reads
    full = GalerkinBasis(K)
    want = basis_on(K, [full.modes[i] for i, (k, m) in enumerate(full.modes) if m == 0])
    got = GalerkinBasis(K, orders=[0])
    assert got.modes == want.modes == tuple((k, 0) for k in range(K + 1))
    assert got.n_modes == K + 1 and got.max_degree == K and got.quad_degree == want.quad_degree
    rng = np.random.default_rng(K)
    c = rng.standard_normal((2, K + 1))
    f = rng.standard_normal((2, want.weights.size))
    for name in ("weights", "longitude", "eigenvalues", "legendre"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(got.evaluate(c), want.evaluate(c))
    assert np.array_equal(got.project(f), want.project(f))


@pytest.mark.parametrize("K", [8, 24, 64])
def test_legendre_recurrence_matches_scipy(K):
    # the per-order table against scipy's normalized Legendre functions
    # (Condon-Shortley phase included), on the basis's own colatitude nodes
    x, _ = np.polynomial.legendre.leggauss(2 * K + 1)
    got = galerkin._legendre_table(K, K, x)
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


@pytest.mark.parametrize("M", [0, 3, 24])
def test_legendre_table_of_fewer_orders_is_the_leading_blocks_of_the_full_one(M):
    x, _ = np.polynomial.legendre.leggauss(49)
    assert np.array_equal(galerkin._legendre_table(24, M, x), galerkin._legendre_table(24, 24, x)[: M + 1])


@pytest.mark.parametrize("bad", [1e-9, math.nan], ids=["perturbed", "nan"])
def test_basis_refuses_a_bad_legendre_table(monkeypatch, bad):
    build = galerkin._legendre_table

    def corrupted(K, M, x):
        P = build(K, M, x)
        P[2, 5, 3] += bad
        return P

    monkeypatch.setattr(galerkin, "_legendre_table", corrupted)
    basis = GalerkinBasis(8)  # the table is built and checked when first read
    with pytest.raises(ValueError, match="Legendre table"):
        basis.evaluate(np.zeros(basis.n_modes))


def test_dense_table_is_formed_on_first_use_only():
    basis = GalerkinBasis(6)
    assert "values" not in vars(basis)
    keep = [i for i, (k, m) in enumerate(basis.modes) if m == 0]
    sub = GalerkinBasis(6, orders=[0])
    assert sub.values.shape == (7, 13)
    assert "values" not in vars(basis)
    assert np.array_equal(sub.values, basis.values[keep][:, :: basis.longitude.shape[1]])


def only_m0_table(basis):
    # the basis formed the (K + 1, 2K + 1) table of the m = 0 modes, one node
    # per ring, and a Legendre table of order 0 only
    K = basis.max_degree
    return vars(basis)["values"].shape == (K + 1, 2 * K + 1) and basis.legendre.shape == (1, K + 1, 2 * K + 1)


def axisymmetric_branch_peak(K):
    # the traced peak of an axisymmetric run from lambda = 2 to norm 1; the
    # only tables it forms are those of the m = 0 modes
    tracemalloc.start()
    try:
        opts = ContinuationOptions(isotropy_restriction="axisymmetric", target_norm=1.0)
        result = continue_branch(K, QUARTIC, NEG, 2, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.outcome == "reached_target"
    assert only_m0_table(result.basis)
    return peak


def test_axisymmetric_branch_at_K40_never_forms_the_full_table():
    # the full K = 40 table is 175 MB and its Legendre table 1.1 MB; the
    # m = 0 Legendre rows are 0.03 MB
    assert axisymmetric_branch_peak(40) < 40e6


def test_axisymmetric_branch_at_K128_stays_small():
    # the full K = 128 Legendre table is 34 MB, and its check as much again
    assert axisymmetric_branch_peak(128) < 30e6


def order_rows(basis):
    # the mode indices of each order of the basis, ascending in m
    orders = sorted({m for _, m in basis.modes})
    return {o: [i for i, (k, m) in enumerate(basis.modes) if m == o] for o in orders}


# (3, 3) and (4, -3) are not each other's reflection: orders +-3 of different degrees
MIXED_DEGREES = ((0, 0), (3, 3), (4, -3))
# order 3 without degree 4: its Jacobian rows are Legendre rows 3 and 5, not 3 and 4
DEGREE_GAP = ((0, 0), (3, 3), (5, 3))


@pytest.mark.parametrize("a", [(-1,), (1, -1)], ids=["p1", "p2"])
@pytest.mark.parametrize(
    "orders",
    [None, (0,), (-3, 0, 3), (0, 3), MIXED_DEGREES, DEGREE_GAP],
    ids=["full", "m0", "m0+-3", "m0+3", "mixed-degrees", "degree-gap"],
)
@pytest.mark.parametrize("K", [0, 1, 8, 16])
def test_factored_transforms_and_jacobian_match_the_dense_table(K, orders, a):
    # on a basis of any orders the table matches the Legendre formula on the
    # basis's own grid, and the Jacobian of the whole basis matches the dense
    # one assembled pair by pair
    if orders in (MIXED_DEGREES, DEGREE_GAP):
        basis = basis_on(K, [(k, m) for k, m in orders if k <= K])
    else:
        basis = GalerkinBasis(K, orders and [m for m in orders if abs(m) <= K])
    x, phi = product_grid(K, max(abs(m) for _, m in basis.modes))
    for i, (k, m) in enumerate(basis.modes):
        assert np.max(np.abs(basis.values[i] - reference_harmonic(k, m, x, phi))) <= 1e-12, (k, m)
    sig = SystemSignature(a)
    c = 0.5 * np.random.default_rng(K + 100 * len(a)).standard_normal(len(a) * basis.n_modes)
    R, J, R_lam = residual_jacobian(basis, QUARTIC, sig, c, 1.3)
    R_ref, ref, R_lam_ref = dense_jacobian(basis, QUARTIC, sig, c, 1.3)
    assert np.max(np.abs(J - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(R, R_ref)
    assert np.array_equal(R_lam, R_lam_ref)


@pytest.mark.parametrize("a", [(-1,), (1, -1)], ids=["p1", "p2"])
@pytest.mark.parametrize("K", [0, 1, 8, 16])
def test_order_blocks_are_the_whole_jacobian_on_the_m0_subspace(K, a):
    # at a state supported on m = 0 the Hessian does not depend on longitude,
    # so the dense Jacobian has nothing outside the blocks of single orders,
    # and the reflection phi -> -phi makes the -m block equal to the +m
    # block; the m = 0 block is the Jacobian the solver assembles on the
    # m = 0 modes
    basis = GalerkinBasis(K)
    sig = SystemSignature(a)
    p, n = len(a), basis.n_modes
    m0 = [i for i, (k, m) in enumerate(basis.modes) if m == 0]
    c = np.zeros((p, n))
    c[:, m0] = 0.5 * np.random.default_rng(K + 100 * len(a)).standard_normal((p, len(m0)))
    _, ref, _ = dense_jacobian(basis, QUARTIC, sig, c.ravel(), 1.3)
    scale = np.max(np.abs(ref))
    idx = {m: (n * np.arange(p)[:, None] + rows).ravel() for m, rows in order_rows(basis).items()}
    block = {m: ref[np.ix_(i, i)] for m, i in idx.items()}
    for m in range(1, K + 1):
        assert np.max(np.abs(block[m] - block[-m])) <= 1e-12 * np.max(np.abs(block[m]))
    off = ref.copy()
    for i in idx.values():
        off[np.ix_(i, i)] = 0.0
    assert np.max(np.abs(off)) <= 1e-13 * scale
    _, J, _ = residual_jacobian(GalerkinBasis(K, orders=[0]), QUARTIC, sig, c[:, m0].ravel(), 1.3)
    assert np.max(np.abs(J - block[0])) <= 1e-12 * scale
    fd = central_difference_jacobian(basis, QUARTIC, sig, c.ravel(), 1.3)
    assert np.max(np.abs(J - fd[np.ix_(idx[0], idx[0])])) <= 1e-8 * np.max(np.abs(fd))


def test_unrestricted_jacobian_at_K32_stays_small_and_forms_no_table():
    # the Jacobian an unrestricted K = 32 run assembles, on the 33 m = 0
    # modes: 1089 entries (9 kB); the dense J of every mode would be 9.5 MB
    # and the dense table 73 MB
    sub = GalerkinBasis(32, orders=[0])
    c = 0.3 * np.random.default_rng(23).standard_normal(sub.n_modes)
    tracemalloc.start()
    try:
        R, J, _ = residual_jacobian(sub, QUARTIC, NEG, c, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert J.shape == (33, 33)
    assert peak < 30e6
    assert only_m0_table(sub)


def test_unrestricted_branch_at_K16_never_forms_the_table():
    result = continue_branch(16, QUARTIC, NEG, 0, ContinuationOptions(target_norm=1.0))
    assert result.outcome == "reached_target"
    assert only_m0_table(result.basis)


def test_harmonic_table_matches_legendre_formula():
    basis = GalerkinBasis(12)
    x, phi = product_grid(12)
    for i, (k, m) in enumerate(basis.modes):
        want = reference_harmonic(k, m, x, phi)
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


@pytest.mark.parametrize("fn", [residual_coeffs, residual_jacobian, energy], ids=lambda fn: fn.__name__)
def test_residual_rejects_wrong_length(fn):
    # one check for every function that takes a state
    expected = 2 * BASIS.n_modes
    with pytest.raises(ValueError, match=rf"wrong length \(expected {expected}\)"):
        fn(BASIS, QUARTIC, SystemSignature((-1, -1)), np.zeros(BASIS.n_modes), 1.0)


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


def test_a_spec_must_state_its_gradient_degree():
    with pytest.raises(TypeError, match="grad_degree"):
        NonlinearitySpec("quartic", QUARTIC.value, QUARTIC.grad, QUARTIC.hess)


def test_h1_norm_weights():
    c = np.zeros(BASIS.n_modes)
    c[BASIS.mode_index[(0, 0)]] = 2.0
    c[BASIS.mode_index[(1, 0)]] = 1.0
    # (0+1)*4 + (2+1)*1
    assert math.isclose(h1_norm(BASIS, c), math.sqrt(7.0), rel_tol=1e-15)


@pytest.mark.parametrize("coeffs", [[], np.zeros(3), np.zeros(13)], ids=["empty", "short", "not-a-multiple"])
def test_h1_norm_refuses_a_vector_that_is_not_whole_states(coeffs):
    # an empty vector is no state, although 0 is a multiple of the mode count
    with pytest.raises(ValueError, match="positive multiple of the mode count"):
        h1_norm(GalerkinBasis(2), coeffs)


# -- gradient consistency -----------------------------------------------------------


def test_gradient_check_quartic():
    rng = np.random.default_rng(7)
    sig = SystemSignature((1, -1))
    state = make_state(BASIS, 0.5 * rng.standard_normal(2 * BASIS.n_modes), 1.3)
    assert gradient_check(BASIS, QUARTIC, sig, state) <= 1e-6


def test_gradient_check_zero_state():
    state = make_state(BASIS, np.zeros(BASIS.n_modes), 1.0)
    assert gradient_check(BASIS, QUARTIC, NEG, state) <= 1e-12


def test_gradient_check_linear_functional_is_exact():
    # central differences of a quadratic are exact; only roundoff remains
    rng = np.random.default_rng(11)
    state = make_state(BASIS, 0.2 * rng.standard_normal(BASIS.n_modes), 0.7)
    assert gradient_check(BASIS, LINEAR, NEG, state) <= 1e-8


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
M0_BASIS = GalerkinBasis(8, orders=[0])


@pytest.mark.parametrize("K, orders", [(8, [3]), (8, [0]), (4, None)], ids=["m3", "m0", "full-K4"])
def test_jacobian_matches_central_differences(K, orders):
    basis = GalerkinBasis(K, orders)
    sig = SystemSignature((1, -1))
    rng = np.random.default_rng(17)
    c = 0.5 * rng.standard_normal(2 * basis.n_modes)
    R, J, _ = residual_jacobian(basis, QUARTIC, sig, c, 1.3)
    ref = central_difference_jacobian(basis, QUARTIC, sig, c, 1.3)
    assert np.array_equal(R, residual_coeffs(basis, QUARTIC, sig, c, 1.3))
    assert np.max(np.abs(J - ref)) <= 1e-8 * np.max(np.abs(ref))


def restricted_and_full_residual(orders, n_phi):
    # a state supported on the modes of the orders: the residual of the
    # restricted coefficients, on the restricted basis's own longitude grid of
    # n_phi nodes, and the full residual of the same state
    sig = SystemSignature((1, -1))
    sub = GalerkinBasis(8, orders)
    keep = [BASIS.mode_index[km] for km in sub.modes]
    assert sub.longitude.shape[1] == n_phi and mass_error(sub) <= 1e-12
    rng = np.random.default_rng(19)
    x = 0.5 * rng.standard_normal((2, sub.n_modes))
    full = np.zeros((2, BASIS.n_modes))
    full[:, keep] = x
    got = residual_coeffs(sub, QUARTIC, sig, x.ravel(), 0.9).reshape(2, -1)
    want = residual_coeffs(BASIS, QUARTIC, sig, full.ravel(), 0.9).reshape(2, -1)
    return got, want


def test_restricted_residual_is_the_kept_part_of_the_full_one():
    got, want = restricted_and_full_residual([0], 1)
    assert np.max(np.abs(got - want[:, M0])) <= 1e-13 * np.max(np.abs(want))
    # and nothing leaks out of the subspace: the quartic keeps m = 0 invariant
    assert np.max(np.abs(np.delete(want, M0, axis=1))) <= 1e-13 * np.max(np.abs(want))


def test_restricted_residual_of_orders_0_and_3_is_the_kept_part_of_the_full_one():
    # the basis of orders 0 and +-3 has 4 * 3 + 1 longitudes; the full
    # residual of its state also has parts of orders +-6 and +-9, so only
    # the kept part is compared
    keep = [i for i, (k, m) in enumerate(BASIS.modes) if m in (0, 3, -3)]
    got, want = restricted_and_full_residual([-3, 0, 3], 13)
    assert np.max(np.abs(got - want[:, keep])) <= 1e-13 * np.max(np.abs(want))


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
    c = 0.5 * rng.standard_normal(2 * M0_BASIS.n_modes)
    lam = 1.7
    projected = M0_BASIS.project(QUARTIC.grad(M0_BASIS.evaluate(c.reshape(2, -1)), lam)).ravel()
    want = -c - projected
    got = residual_jacobian(M0_BASIS, scaled, sig, c, lam)[2]
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
    c = 0.5 * np.random.default_rng(29).standard_normal(2 * M0_BASIS.n_modes)
    R, _, R_lam = residual_jacobian(M0_BASIS, lam_scaled_quartic(), sig, c, lam)
    want = analytic_lambda_column(M0_BASIS, sig, c)
    term = np.max(np.abs(want + c))
    assert term > 0.01  # the nonlinear term is not negligible
    assert np.max(np.abs(R_lam - want)) <= 1e-8 * term
    assert np.array_equal(R, residual_coeffs(M0_BASIS, lam_scaled_quartic(), sig, c, lam))


def test_lambda_column_of_a_lambda_free_spec_is_minus_c_without_a_projection(monkeypatch):
    calls = []
    project = GalerkinBasis.project

    def counted_project(basis, f):
        calls.append(1)
        return project(basis, f)

    monkeypatch.setattr(GalerkinBasis, "project", counted_project)
    c = 0.5 * np.random.default_rng(31).standard_normal(2 * M0_BASIS.n_modes)
    R_lam = residual_jacobian(M0_BASIS, QUARTIC, SystemSignature((1, -1)), c, 1.3)[2]
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
    assert gradient_check(BASIS, wrong, NEG, state) > 0.1


# -- crossings -----------------------------------------------------------------------


def test_crossings_negative_laplacian():
    got = trivial_branch_crossings(8, NEG, (0, 7))
    assert [c.lam for c in got] == [0, 2, 6]
    assert [len(c.modes) for c in got] == [1, 3, 5]


def test_crossings_positive_laplacian():
    got = trivial_branch_crossings(8, SystemSignature((1,)), (-7, 0))
    assert [c.lam for c in got] == [-6, -2, 0]


def test_crossing_kernel_counts_two_equations():
    got = {c.lam: c for c in trivial_branch_crossings(8, SystemSignature((-1, -1)), (2, 2))}
    assert len(got[2].modes) == 6  # two copies of the three-dimensional eigenspace


@pytest.mark.parametrize("K", [-1, True, 2.5], ids=["negative", "bool", "float"])
def test_crossings_refuse_a_bad_degree_as_the_basis_does(K):
    with pytest.raises(ValueError) as refused:
        GalerkinBasis(K)
    with pytest.raises(ValueError, match="^" + re.escape(str(refused.value)) + "$"):
        trivial_branch_crossings(K, NEG, (0, 7))


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


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_rotation_refuses_a_non_finite_angle(angle):
    with pytest.raises(ValueError, match="rotation angle must be finite"):
        rotate_coeffs(BASIS, np.ones(BASIS.n_modes), angle)


@pytest.mark.parametrize("order", [3, -3])
def test_rotation_refuses_a_basis_without_the_twin_order(order):
    basis = GalerkinBasis(4, sorted((0, order)))
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
