"""Spectral-Galerkin discretization of the variational problem on the unit
2-sphere.

The basis is the real orthonormal spherical harmonics Y_{k,m}, k <= K,
|m| <= k, with -Delta Y_{k,m} = k(k+1) Y_{k,m}.  Quadrature is a tensor rule,
Gauss-Legendre in cos(theta) times a uniform longitude grid sized to the
largest order held, exact for products of four basis functions up to roundoff.

For coefficients c_{i,k,m} of u = (u_1, ..., u_p) the discrete functional is

    Phi(c, lam) = -1/2 sum_i a_i sum_{k,m} k(k+1) c_{i,k,m}^2
                  - lam/2 * sum |c|^2 - integral of h(u, lam),

and the residual returned here is its coefficient gradient

    R_{i,k,m} = -a_i k(k+1) c_{i,k,m} - lam c_{i,k,m} - <d_{u_i} h(u, lam), Y_{k,m}>.

The trivial branch u = 0 solves R = 0 for every lam; its linearization is
diagonal, so eigenvalue crossings are located exactly at lam = -a_i k(k+1).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable

import numpy as np

from ._record import Record
from .jsonio import _echo, frac_from_json, int_from_json

QUAD_MARGIN = 4  # quadrature is exact to degree QUAD_MARGIN * K, enough for a quartic
GRADIENT_STEP = 1e-5  # gradient_check's central-difference step
GRADIENT_SAMPLES = 50  # coordinates gradient_check samples, capped at their count
# The largest degree K a basis is built for.  At K = 2048 the order-0 basis
# that the solver uses holds one (K + 1) x (2K + 1) table of 67 MB, and
# building and checking it peaks at about 200 MB RSS.  A one-state branch run
# peaks at about 265 MB, set by the Jacobian assembly on that table;
# continuation's order-invariance check adds little, evaluating grad on the
# 2K + 1 colatitudes times 33 longitudes, about 1 MB an array.  Memory grows
# as K^2 and the table check's time as K^3, so a larger K is refused before
# any work.
MAX_DEGREE = 2048


def degree_eigenvalue(k: int) -> int:
    """Exact Laplace-Beltrami eigenvalue of degree-k harmonics on S^2."""
    return k * (k + 1)


def _max_degree(max_degree) -> int:
    """The largest harmonic degree K, an integer in 0..MAX_DEGREE."""
    K = int_from_json(max_degree)
    if K < 0:
        raise ValueError(f"max_degree must be nonnegative, got {_echo(K)}")
    if K > MAX_DEGREE:
        raise ValueError(f"max_degree must be at most MAX_DEGREE = {MAX_DEGREE}, got {_echo(K)}")
    return K


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre nodes and weights, ascending.  The nodes
    start from the asymptotic estimate (1 - 1/(8n^2) + 1/(8n^3)) *
    cos(pi (4i - 1) / (4n + 2)), i = n..1 (Hale and Townsend, "Fast and
    accurate computation of Gauss-Legendre and Gauss-Jacobi quadrature nodes
    and weights", SIAM J. Sci. Comput. 2013), and take three Newton steps on
    P_n, which the three-term recurrence evaluates; the weights are
    2 / ((1 - x^2) P_n'(x)^2) at the refined nodes.  numpy's ``leggauss``
    solves an n x n companion eigenproblem for its nodes, and its weights,
    off by up to 1e-7 relative near the ends at these sizes, cost the m = 0
    table more than 1e-12 of orthonormality from K = 448 on."""
    i = np.arange(n, 0, -1)
    x = (1.0 - 1.0 / (8.0 * n * n) + 1.0 / (8.0 * n**3)) * np.cos(math.pi * (4 * i - 1) / (4 * n + 2))
    p_prev, p, t = np.empty((3, n))  # the recurrence writes into these, allocating nothing
    for step in range(4):  # three Newton steps, then P_n' at the refined nodes
        p_prev[:] = 1.0
        p[:] = x
        for j in range(2, n + 1):  # P_j = ((2j - 1) x P_{j-1} - (j - 1) P_{j-2}) / j
            np.multiply(x, 2 * j - 1, out=t)
            t *= p
            p_prev *= j - 1
            t -= p_prev
            np.divide(t, j, out=p_prev)
            p_prev, p = p, p_prev
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        if step < 3:
            x = x - p / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _legendre_table(K: int, M: int, x: np.ndarray) -> np.ndarray:
    """Normalized associated Legendre functions laid out per order,
    ``P[m, k, node] = Pbar_k^m(x[node])`` for m <= M, m <= k <= K and zero
    for k < m, with the Condon-Shortley phase (-1)^m, so that
    Pbar_k^m(cos theta) exp(i m phi) is the orthonormal Y_k^m.

    Sectoral values come from Pbar_m^m = -sqrt((2m+1)/(2m)) sin(theta)
    Pbar_{m-1}^{m-1}, and each order then climbs in degree with the stable
    three-term recurrence Pbar_k^m = a (x Pbar_{k-1}^m - b Pbar_{k-2}^m),
    a = sqrt((4k^2-1)/(k^2-m^2)), b = sqrt(((k-1)^2-m^2)/(4(k-1)^2-1))
    (Schaeffer 2013, section 2); no factorial ratio is formed, so nothing
    overflows at high degree.  Orders 0..M are the full table's first blocks."""
    P = np.zeros((M + 1, K + 1, x.size))
    sin_theta = np.sqrt((1.0 - x) * (1.0 + x))
    P[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, M + 1):
        P[m, m] = -math.sqrt((2 * m + 1) / (2 * m)) * sin_theta * P[m - 1, m - 1]
    m = np.arange(min(M + 1, K))
    P[m, m + 1] = np.sqrt(2.0 * m + 3.0)[:, None] * x * P[m, m]
    for k in range(2, K + 1):
        m = np.arange(min(k - 1, M + 1))[:, None]  # the orders with m <= k - 2
        a = np.sqrt((4.0 * k * k - 1.0) / (k * k - m * m))
        b = np.sqrt(((k - 1.0) ** 2 - m * m) / (4.0 * (k - 1) ** 2 - 1.0))
        P[: m.size, k] = a * (x * P[: m.size, k - 1] - b * P[: m.size, k - 2])
    return P


def _check_legendre_table(P: np.ndarray, wx: np.ndarray) -> None:
    """Refuse a table that is not orthonormal order by order on the
    Gauss-Legendre nodes: sum_x w_x P[m,k,x] P[m,j,x] = delta_kj / (2 pi) for
    k, j >= m.  O(M K^3) for orders 0..M; the dense table is never formed."""
    if not np.all(np.isfinite(P)):
        raise ValueError("Legendre table has non-finite entries")
    orders, degrees = P.shape[:2]
    gram = (P * wx) @ P.transpose(0, 2, 1)  # (m, k, j)
    m, k = np.triu_indices(orders, 0, degrees)  # the diagonal entries with k >= m
    gram[m, k, k] -= 1.0 / (2.0 * math.pi)
    err = float(np.abs(gram, out=gram).max())
    if not err <= 1e-12:
        raise ValueError(f"Legendre table is not orthonormal per order (error {err:.3g})")


class GalerkinBasis:
    """Real spherical-harmonic basis with product quadrature.

    Parameters
    ----------
    max_degree : int
        Largest harmonic degree K.
    orders : sequence of int, optional
        The orders m held, a nonempty, strictly increasing run of integers in
        [-K, K], each with every degree |m|..K.  ``None`` (the default) holds
        every order, (K+1)^2 modes; order 0 alone is the K + 1 modes that
        span the fixed space of the O(2) about the pole.

    Mode Y_{k,m} is the product of the normalized Legendre function of
    degree k and order |m| at the colatitude nodes (``_legendre_table``,
    checked orthonormal when the basis is built) and a longitude row: 1,
    sqrt(2) cos(m phi) or sqrt(2) sin(|m| phi) for m = 0, m > 0 and m < 0 at
    the QUAD_MARGIN * M + 1 longitudes, M = max |m| over the orders held, so
    the basis of order 0 has one node per latitude ring.  The basis keeps
    only the products: ``values``, the dense (n_modes, nodes) table, nodes
    colatitude major, that the transforms and the Jacobian read.
    """

    def __init__(self, max_degree: int, orders=None):
        K = _max_degree(max_degree)
        orders = [int_from_json(m) for m in (range(-K, K + 1) if orders is None else orders)]
        if not orders or any(b <= a for a, b in zip(orders, orders[1:])) or max(map(abs, orders)) > K:
            raise ValueError(f"orders must be a nonempty, strictly increasing run of integers in [{-K}, {K}]")
        self._build(K, tuple((k, m) for k in range(K + 1) for m in orders if abs(m) <= k))

    def _build(self, K: int, modes: tuple[tuple[int, int], ...]) -> None:
        """The mode data, quadrature and checked table of ``modes``."""
        M = max(abs(m) for _, m in modes)
        self.max_degree, self.quad_degree, self.modes = K, QUAD_MARGIN * K, modes
        self.eigenvalues = np.array([degree_eigenvalue(k) for k, _ in modes], dtype=float)
        x, wx = _gauss_legendre(self.quad_degree // 2 + 1)
        P = _legendre_table(K, M, x)
        _check_legendre_table(P, wx)
        n_phi = QUAD_MARGIN * M + 1
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        self.weights = np.repeat(wx, n_phi) * (2.0 * np.pi / n_phi)
        order = np.arange(-M, M + 1)
        angle = np.abs(order)[:, None] * phi[None, :]
        longitude = np.where(order[:, None] > 0, np.cos(angle), np.sin(angle)) * math.sqrt(2.0)
        longitude[M] = 1.0
        k, m = np.array(modes).T
        P = P[np.abs(m), k]  # the mode rows; the per-order table is freed here
        self.values = (P[:, :, None] * longitude[m + M][:, None, :]).reshape(len(modes), -1)

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def integrate(self, node_values: np.ndarray) -> float:
        return float(np.dot(node_values, self.weights))

    def project(self, node_values: np.ndarray) -> np.ndarray:
        """Coefficients <f, Y_{k,m}> of nodal data, rows broadcast over modes."""
        return (np.asarray(node_values) * self.weights) @ self.values.T

    def evaluate(self, coeffs_block: np.ndarray) -> np.ndarray:
        """Nodal values of sum c_{k,m} Y_{k,m}; accepts (..., n_modes)."""
        return np.asarray(coeffs_block) @ self.values


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


class NonlinearitySpec(Record):
    """Lower-order term h(u, lam) of the potential, given pointwise.

    ``value`` maps node values u of shape (p, nodes) to h(u) of shape (nodes,);
    ``grad`` returns d_u h of shape (p, nodes) and ``hess`` the second
    derivative of shape (p, p, nodes), which the Newton corrector's Jacobian
    is assembled from.  ``grad_degree`` is the polynomial degree of grad in u,
    used to confirm the quadrature resolves the projected residual.  All
    three may read lam; the solver observes whether grad does (see
    ``residual_jacobian``).  The gradient must vanish to second order at
    u = 0 so the trivial branch persists.
    """

    name: str
    value: Callable[[np.ndarray, float], np.ndarray]
    grad: Callable[[np.ndarray, float], np.ndarray]
    hess: Callable[[np.ndarray, float], np.ndarray]
    grad_degree: int
    __slots__ = _fields = ("name", "value", "grad", "hess", "grad_degree")

    @classmethod
    def quartic(cls) -> "NonlinearitySpec":
        """Defocusing quartic h(u) = -(|u|^2)^2 / 4 with cubic gradient."""
        return _radial("quartic", {2: -0.25})

    @classmethod
    def zero(cls) -> "NonlinearitySpec":
        """h = 0, leaving the purely linear eigenvalue problem."""
        return _radial("zero", {})


def _radial(name: str, coeffs: dict[int, float]) -> NonlinearitySpec:
    """The spec of h(u) = sum_j c_j s^j, s = |u|^2, from ``{j: c_j}``, j >= 2:
    grad = (sum 2j c_j s^(j-1)) u and hess = (sum 4j(j-1) c_j s^(j-2)) u u^T
    + (sum 2j c_j s^(j-1)) I.  Each term is c * s**e, with s**0 and s**1
    written 1 and s; an empty table gives +0.0 arrays."""
    h0 = [(c, j) for j, c in sorted(coeffs.items())]
    h1 = [(2 * j * c, j - 1) for c, j in h0]
    h2 = [(4 * j * (j - 1) * c, j - 2) for c, j in h0]

    def series(pairs, s):
        terms = [c if e == 0 else c * s if e == 1 else c * s**e for c, e in pairs]
        return sum(terms[1:], terms[0])

    def value(u, lam):
        return series(h0, np.sum(u * u, axis=0)) if h0 else np.zeros(u.shape[1])

    def grad(u, lam):
        return series(h1, np.sum(u * u, axis=0)) * u if h0 else np.zeros_like(u)

    def hess(u, lam):
        p, n = u.shape
        if not h0:
            return np.zeros((p, p, n))
        s, diag = np.sum(u * u, axis=0), np.arange(p)
        out = series(h2, s) * u[:, None, :] * u[None, :, :]
        out[diag, diag, :] += series(h1, s)
        return out

    return NonlinearitySpec(name, value, grad, hess, 2 * max(coeffs) - 1 if coeffs else 0)


NONLINEARITIES = {"quartic": NonlinearitySpec.quartic, "zero": NonlinearitySpec.zero}


# ---------------------------------------------------------------------------
# branch states and residual
# ---------------------------------------------------------------------------


class BranchState(Record):
    """Galerkin coordinates of one point on a solution branch."""

    coeffs: np.ndarray
    lam: float
    arclength: float
    h1_norm: float
    __slots__ = _fields = ("coeffs", "lam", "arclength", "h1_norm")


def h1_norm(basis: GalerkinBasis, coeffs: np.ndarray) -> float:
    """Sobolev norm: squared coefficients weighted by (k(k+1) + 1)."""
    c = np.asarray(coeffs, dtype=float)
    if c.size == 0 or c.size % basis.n_modes:
        raise ValueError("coefficient vector length must be a positive multiple of the mode count")
    blocks = c.reshape(-1, basis.n_modes)
    return float(np.sqrt(np.sum((basis.eigenvalues + 1.0) * blocks**2)))


def make_state(basis: GalerkinBasis, coeffs: np.ndarray, lam: float, arclength: float = 0.0) -> BranchState:
    c = np.array(coeffs, dtype=float)
    c.flags.writeable = False
    return BranchState(c, float(lam), float(arclength), h1_norm(basis, c))


def _check_resolution(basis: GalerkinBasis, nl: NonlinearitySpec) -> None:
    needed = (nl.grad_degree + 1) * basis.max_degree
    if basis.quad_degree < needed:
        raise ValueError(
            f"quadrature underresolved: exact to degree {basis.quad_degree}, residual needs {needed}"
        )


def _coeff_blocks(basis: GalerkinBasis, sig, coeffs: np.ndarray) -> np.ndarray:
    """The state as its (p, n_modes) coefficient blocks; refuses a vector
    whose length is not p * n_modes."""
    c = np.asarray(coeffs, dtype=float)
    expected = len(sig.a) * basis.n_modes
    if c.size != expected:
        raise ValueError(f"coefficient vector has wrong length (expected {expected})")
    return c.reshape(len(sig.a), basis.n_modes)


def _residual_at(
    basis: GalerkinBasis, nl: NonlinearitySpec, sig, c: np.ndarray, u: np.ndarray, lam: float
) -> np.ndarray:
    """The residual from the coefficient blocks c, shape (p, n_modes), and
    their nodal values u."""
    _check_resolution(basis, nl)
    a = np.asarray(sig.a, dtype=float)
    proj = basis.project(nl.grad(u, lam))
    R = -(a[:, None] * basis.eigenvalues[None, :] + lam) * c - proj
    return R.ravel()


def residual_coeffs(
    basis: GalerkinBasis,
    nl: NonlinearitySpec,
    sig,
    coeffs: np.ndarray,
    lam: float,
) -> np.ndarray:
    """Coefficient gradient of the discrete functional at (coeffs, lam); zero
    exactly at discrete critical points."""
    c = _coeff_blocks(basis, sig, coeffs)
    return _residual_at(basis, nl, sig, c, basis.evaluate(c), lam)


def energy(basis: GalerkinBasis, nl: NonlinearitySpec, sig, coeffs: np.ndarray, lam: float) -> float:
    """Discrete functional whose coefficient gradient is the residual."""
    a = np.asarray(sig.a, dtype=float)
    c = _coeff_blocks(basis, sig, coeffs)
    quad = -0.5 * np.sum(a[:, None] * basis.eigenvalues[None, :] * c**2)
    quad -= 0.5 * lam * np.sum(c**2)
    u = basis.evaluate(c)
    return float(quad - basis.integrate(nl.value(u, lam)))


def residual_jacobian(
    basis: GalerkinBasis,
    nl: NonlinearitySpec,
    sig,
    coeffs: np.ndarray,
    lam: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The residual R, its Jacobian J and its lam-derivative R_lam at
    (coeffs, lam), from one transform of the state.

    J is the diagonal linear part minus the quadrature Gram of the pointwise
    Hessian, -(V * w H_ij) @ V^T per component pair with V the dense table
    ``values``, coefficients ordered component by component as in R: O(n^2
    nodes) for the n modes.  ``continuation.continue_branch`` calls this on
    the basis of the m = 0 modes, whose table is its Legendre rows.
    R_lam = -c - P(D), where D is the central difference of grad in lam at
    the nodes, with step 1e-6 max(1, |lam|); when D is zero, that is when
    grad does not read lam, the projection is skipped, and R_lam = -c
    exactly."""
    a = np.asarray(sig.a, dtype=float)
    p, n = a.size, basis.n_modes
    c = _coeff_blocks(basis, sig, coeffs)
    u = basis.evaluate(c)
    R = _residual_at(basis, nl, sig, c, u, lam)
    Hw = nl.hess(u, lam) * basis.weights  # (p, p, nodes), quadrature-weighted
    V = basis.values
    gram = (V * Hw[:, :, None, :]) @ V.T  # (p, p, n, n)
    J = -gram.swapaxes(1, 2).reshape(p * n, p * n)
    J.flat[:: p * n + 1] -= (a[:, None] * basis.eigenvalues[None, :] + lam).ravel()
    step = 1e-6 * max(1.0, abs(lam))
    D = (nl.grad(u, lam + step) - nl.grad(u, lam - step)) / (2 * step)
    R_lam = -c.ravel()
    if np.any(D):
        R_lam -= basis.project(D).ravel()
    return R, J, R_lam


def gradient_check(basis: GalerkinBasis, nl: NonlinearitySpec, sig, state: BranchState, seed: int = 0) -> float:
    """Largest relative mismatch between central finite differences of the
    discrete functional, of step GRADIENT_STEP, and the residual, over
    GRADIENT_SAMPLES coordinates (at most all of them) drawn by
    ``random.Random(seed)``.  A mismatch that is not finite at any sampled
    coordinate (a nan or inf value or gradient) returns inf, which fails
    every bound."""
    r = residual_coeffs(basis, nl, sig, state.coeffs, state.lam)
    sample = random.Random(seed).sample(range(r.size), min(GRADIENT_SAMPLES, r.size))
    worst = 0.0
    base = np.asarray(state.coeffs, dtype=float)
    for idx in sample:
        cp = base.copy()
        cp[idx] += GRADIENT_STEP
        cm = base.copy()
        cm[idx] -= GRADIENT_STEP
        fd = (energy(basis, nl, sig, cp, state.lam) - energy(basis, nl, sig, cm, state.lam)) / (2 * GRADIENT_STEP)
        err = abs(fd - r[idx]) / max(1.0, abs(r[idx]))
        if not math.isfinite(err):
            return math.inf
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# trivial-branch crossings and the nonconstancy witness
# ---------------------------------------------------------------------------


class Crossing(Record):
    """Parameter value where the trivial-branch linearization is singular,
    with the (component, degree) pairs whose harmonics span the kernel."""

    lam: Fraction
    pairs: tuple[tuple[int, int], ...]  # (component, degree), ascending
    __slots__ = _fields = ("lam", "pairs")

    @property
    def kernel_dim(self) -> int:
        """Every order -k..k of each degree k: sum of 2k + 1 over the pairs."""
        return sum(2 * k + 1 for _, k in self.pairs)


def _exact(x, what: str) -> Fraction:
    """x as a Fraction, or one ``ValueError`` that names x as not ``what``.
    A float is exact, so only nan and inf are refused; anything else is read
    by ``jsonio.frac_from_json``, which refuses a bool, a ``Decimal`` and a
    decimal exponent past MAX_EXPONENT.  A refused float is echoed by
    ``str``, anything else by ``repr``."""
    try:
        return Fraction(x) if isinstance(x, float) else frac_from_json(x)
    except (ValueError, OverflowError):
        raise ValueError(f"{_echo(x, str if isinstance(x, float) else repr)} is not {what}") from None


def trivial_branch_crossings(max_degree: int, sig, window) -> tuple[Crossing, ...]:
    """Exact crossing values lam = -a_i k(k+1), k <= max_degree, inside the
    closed window, with the (component, degree) pairs at each; no tolerance
    enters since the linearization is diagonal in the harmonic basis."""
    K = _max_degree(max_degree)
    bound = "a bound of a crossing window"
    lo, hi = _exact(window[0], bound), _exact(window[1], bound)
    if lo > hi:
        raise ValueError("window must be ordered")
    found: dict[Fraction, list[tuple[int, int]]] = {}
    for i, ai in enumerate(sig.a):
        for k in range(K + 1):
            lam = Fraction(-ai * degree_eigenvalue(k))
            if lo <= lam <= hi:
                found.setdefault(lam, []).append((i, k))
    return tuple(Crossing(lam, tuple(found[lam])) for lam in sorted(found))


def node_variance(basis: GalerkinBasis, coeffs: np.ndarray) -> float:
    """Largest quadrature variance of a solution component; zero exactly for
    constants, used as the nonconstancy witness."""
    c = np.asarray(coeffs, dtype=float).reshape(-1, basis.n_modes)
    u = basis.evaluate(c)
    area = float(np.sum(basis.weights))
    mean = (u @ basis.weights) / area
    var = ((u - mean[:, None]) ** 2) @ basis.weights / area
    return float(np.max(var))
