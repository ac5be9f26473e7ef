"""Spectral-Galerkin discretization of the variational problem on the unit
2-sphere.

The basis is the real orthonormal spherical harmonics Y_{k,m}, k <= K,
|m| <= k, with -Delta Y_{k,m} = k(k+1) Y_{k,m}.  Quadrature is a tensor rule,
Gauss-Legendre in cos(theta) times a uniform longitude grid, built with enough
nodes to integrate products of four basis functions exactly up to roundoff.

For coefficients c_{i,k,m} of u = (u_1, ..., u_p) the discrete functional is

    Phi(c, lam) = -1/2 sum_i a_i sum_{k,m} k(k+1) c_{i,k,m}^2
                  - lam/2 * sum |c|^2 - integral of h(u, lam),

and the residual returned here is its coefficient gradient

    R_{i,k,m} = -a_i k(k+1) c_{i,k,m} - lam c_{i,k,m} - <d_{u_i} h(u, lam), Y_{k,m}>.

The trivial branch u = 0 solves R = 0 for every lam; its linearization is
diagonal, so eigenvalue crossings are located exactly at lam = -a_i k(k+1).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

from .jsonio import int_from_json

QUAD_MARGIN = 4  # quadrature is exact to degree QUAD_MARGIN * K, enough for a quartic


def degree_eigenvalue(k: int) -> int:
    """Exact Laplace-Beltrami eigenvalue of degree-k harmonics on S^2."""
    return k * (k + 1)


def _legendre_table(K: int, x: np.ndarray) -> np.ndarray:
    """Normalized associated Legendre functions laid out per order,
    ``P[m, k, node] = Pbar_k^m(x[node])`` for 0 <= m <= k <= K and zero for
    k < m, with the Condon-Shortley phase (-1)^m, so that
    Pbar_k^m(cos theta) exp(i m phi) is the orthonormal Y_k^m.

    Sectoral values come from Pbar_m^m = -sqrt((2m+1)/(2m)) sin(theta)
    Pbar_{m-1}^{m-1}, and each order then climbs in degree with the stable
    three-term recurrence Pbar_k^m = a (x Pbar_{k-1}^m - b Pbar_{k-2}^m),
    a = sqrt((4k^2-1)/(k^2-m^2)), b = sqrt(((k-1)^2-m^2)/(4(k-1)^2-1))
    (Schaeffer 2013, section 2); no factorial ratio is formed, so nothing
    overflows at high degree."""
    P = np.zeros((K + 1, K + 1, x.size))
    sin_theta = np.sqrt((1.0 - x) * (1.0 + x))
    P[0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, K + 1):
        P[m, m] = -math.sqrt((2 * m + 1) / (2 * m)) * sin_theta * P[m - 1, m - 1]
    m = np.arange(K)
    P[m, m + 1] = np.sqrt(2.0 * m + 3.0)[:, None] * x * P[m, m]
    for k in range(2, K + 1):
        m = np.arange(k - 1)[:, None]  # the orders with m <= k - 2
        a = np.sqrt((4.0 * k * k - 1.0) / (k * k - m * m))
        b = np.sqrt(((k - 1.0) ** 2 - m * m) / (4.0 * (k - 1) ** 2 - 1.0))
        P[: k - 1, k] = a * (x * P[: k - 1, k - 1] - b * P[: k - 1, k - 2])
    return P


def _check_legendre_table(P: np.ndarray, wx: np.ndarray) -> None:
    """Refuse a table that is not orthonormal order by order on the
    Gauss-Legendre nodes: sum_x w_x P[m,k,x] P[m,j,x] = delta_kj / (2 pi) for
    k, j >= m.  O(K^4), and the dense table is never formed."""
    if not np.all(np.isfinite(P)):
        raise ValueError("Legendre table has non-finite entries")
    orders = P.shape[0]
    gram = (P * wx) @ P.transpose(0, 2, 1)  # (m, k, j)
    want = np.eye(orders) * np.triu(np.ones((orders, orders)))[:, :, None] / (2.0 * math.pi)
    err = float(np.max(np.abs(gram - want)))
    if not err <= 1e-12:
        raise ValueError(f"Legendre table is not orthonormal per order (error {err:.3g})")


class GalerkinBasis:
    """Real spherical-harmonic basis with product quadrature.

    Parameters
    ----------
    max_degree : int
        Largest harmonic degree K; the basis has (K+1)^2 modes.

    The basis keeps two small factors: ``legendre[m, k, i]``, the normalized
    Legendre function of degree k and order m at the i-th colatitude node,
    and ``longitude[m + K, j]``, which is 1, sqrt(2) cos(m phi_j) or
    sqrt(2) sin(|m| phi_j) for m = 0, m > 0 and m < 0.  Mode Y_{k,m} is their
    outer product.  The transforms and the Jacobian work from the factors;
    the dense (n_modes, nodes) table ``values`` is formed only when read.
    """

    def __init__(self, max_degree: int):
        K = int_from_json(max_degree)
        if K < 0:
            raise ValueError("max_degree must be nonnegative")
        self.max_degree = K
        self.quad_degree = QUAD_MARGIN * K
        n_theta = self.quad_degree // 2 + 1
        n_phi = self.quad_degree + 1

        x, wx = np.polynomial.legendre.leggauss(n_theta)
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        X, PHI = np.meshgrid(x, phi, indexing="ij")
        self.node_x = X.ravel()              # cos(theta) at each node
        self.node_phi = PHI.ravel()
        W = np.repeat(wx, n_phi) * (2.0 * np.pi / n_phi)
        self.weights = W

        self.modes: tuple[tuple[int, int], ...] = tuple(
            (k, m) for k in range(K + 1) for m in range(-k, k + 1)
        )
        self.mode_index = {km: i for i, km in enumerate(self.modes)}
        self.eigenvalues = np.array([degree_eigenvalue(k) for k, _ in self.modes], dtype=float)

        self.legendre = _legendre_table(K, x)
        _check_legendre_table(self.legendre, wx)
        order = np.arange(-K, K + 1)
        angle = np.abs(order)[:, None] * phi[None, :]
        self.longitude = np.where(order[:, None] > 0, np.cos(angle), np.sin(angle)) * math.sqrt(2.0)
        self.longitude[K] = 1.0

    @cached_property
    def _factors(self):
        """Index data of the factored transforms and of the Jacobian blocks,
        for the modes of this basis.

        ``blocks`` holds the modes of each Jacobian block, ascending in m:
        ``rows[:, 0]`` are the modes of order m (by degree), and for m > 0
        whose twin -m has the same degrees in this basis, ``rows[:, 1]`` are
        those of -m, which the block serves too (see ``residual_jacobian``).
        Every other order keeps a block of its own.  ``colat[b, j]`` is the
        colatitude row ``legendre[|m|, k]`` of the j-th mode of the b-th
        order: first the orders of ``blocks``, in their order, then the
        twins.  The tensor is zero-padded to the widest order, so a
        transform over every order is one batched product.  ``slot[mode]``
        is the mode's flat position ``b * width + j`` in it and ``lon[b]``
        the longitude row of order b."""
        degree = np.array([k for k, _ in self.modes])
        order = np.array([m for _, m in self.modes])
        rows = {m: np.flatnonzero(order == m) for m in sorted(set(order.tolist()))}
        degrees = {m: degree[r].tolist() for m, r in rows.items()}
        paired = [m for m in rows if m > 0 and degrees[m] == degrees.get(-m)]
        formed = [m for m in rows if -m not in paired]
        blocks = tuple(
            np.stack((rows[m], rows[-m]), axis=1) if m in paired else rows[m][:, None] for m in formed
        )
        layout = formed + [-m for m in paired]
        width = max(r.size for r in rows.values())
        colat = np.zeros((len(layout), width, self.legendre.shape[2]))
        slot = np.empty(order.size, dtype=np.intp)
        for b, m in enumerate(layout):
            r = rows[m]
            colat[b, : r.size] = self.legendre[abs(m), degree[r]]
            slot[r] = b * width + np.arange(r.size)
        lon = self.longitude[np.array(layout) + self.max_degree]
        return colat, lon, slot, blocks

    @cached_property
    def values(self) -> np.ndarray:
        """Dense table Y_{k,m}(node), one row per mode of this basis.  No
        computation reads it; it serves as a reference for the factored
        transforms."""
        colat, lon, slot, _ = self._factors
        rows = colat.reshape(-1, colat.shape[2])[slot]
        return (rows[:, :, None] * lon[slot // colat.shape[1]][:, None, :]).reshape(self.n_modes, -1)

    def restrict(self, keep) -> "GalerkinBasis":
        """The same quadrature on the modes ``keep`` (strictly increasing
        indices into ``modes``): a smaller basis whose coefficient vectors
        hold only the kept modes, and whose factors hold only their orders."""
        keep = np.asarray(keep)
        if keep.ndim != 1 or keep.size == 0 or keep.dtype.kind not in "iu":
            raise ValueError("keep must be a nonempty sequence of integer mode indices")
        keep = keep.astype(np.intp)  # so that differences of unsigned indices cannot wrap
        if keep[0] < 0 or keep[-1] >= self.n_modes or np.any(np.diff(keep) <= 0):
            raise ValueError(f"keep must be strictly increasing mode indices in [0, {self.n_modes})")
        sub = copy.copy(self)
        sub.modes = tuple(self.modes[i] for i in keep)
        sub.mode_index = {km: i for i, km in enumerate(sub.modes)}
        sub.eigenvalues = self.eigenvalues[keep]
        for cached in ("_factors", "values"):  # rebuilt from the kept modes on first use
            vars(sub).pop(cached, None)
        return sub

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def integrate(self, node_values: np.ndarray) -> float:
        return float(np.dot(node_values, self.weights))

    def project(self, node_values: np.ndarray) -> np.ndarray:
        """Coefficients <f, Y_{k,m}> of nodal data, rows broadcast over modes:
        a sum over longitude for each order present, then over colatitude,
        every order in one batched product."""
        colat, lon, slot, _ = self._factors
        f = np.asarray(node_values) * self.weights
        by_order = f.reshape(-1, colat.shape[2], lon.shape[1]) @ lon.T  # (row, theta, order)
        padded = by_order.transpose(2, 0, 1) @ colat.transpose(0, 2, 1)  # (order, row, width)
        out = padded.transpose(1, 0, 2).reshape(by_order.shape[0], -1)[:, slot]
        return out.reshape(f.shape[:-1] + (slot.size,))

    def evaluate(self, coeffs_block: np.ndarray) -> np.ndarray:
        """Nodal values of sum c_{k,m} Y_{k,m}; accepts (..., n_modes).  A sum
        over degree within each order, every order in one batched product,
        then over order."""
        colat, lon, slot, _ = self._factors
        c = np.asarray(coeffs_block)
        flat = c.reshape(-1, slot.size)
        padded = np.zeros((flat.shape[0], colat.shape[0] * colat.shape[1]))
        padded[:, slot] = flat
        padded = padded.reshape(flat.shape[0], *colat.shape[:2]).transpose(1, 0, 2)  # (order, row, width)
        by_order = padded @ colat  # (order, row, theta)
        return (by_order.transpose(1, 2, 0) @ lon).reshape(c.shape[:-1] + (-1,))


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonlinearitySpec:
    """Lower-order term h(u, lam) of the potential, given pointwise.

    ``value`` maps node values u of shape (p, nodes) to h(u) of shape (nodes,);
    ``grad`` returns d_u h of shape (p, nodes) and ``hess`` the second
    derivative of shape (p, p, nodes), which the Newton corrector's Jacobian
    is assembled from.  ``grad_degree`` is the polynomial degree of grad in u
    when known, used to confirm the quadrature resolves the projected
    residual.  All three may read lam; the solver observes whether grad does
    (see ``residual_jacobian``).  The gradient must vanish to second order at
    u = 0 so the trivial branch persists.
    """

    name: str
    value: Callable[[np.ndarray, float], np.ndarray]
    grad: Callable[[np.ndarray, float], np.ndarray]
    hess: Callable[[np.ndarray, float], np.ndarray]
    grad_degree: int | None = None

    @classmethod
    def quartic(cls) -> "NonlinearitySpec":
        """Defocusing quartic h(u) = -(|u|^2)^2 / 4 with cubic gradient."""

        def value(u, lam):
            return -0.25 * np.sum(u * u, axis=0) ** 2

        def grad(u, lam):
            return -np.sum(u * u, axis=0) * u

        def hess(u, lam):
            p, n = u.shape
            s = np.sum(u * u, axis=0)
            out = -2.0 * u[:, None, :] * u[None, :, :]
            out[np.arange(p), np.arange(p), :] -= s
            return out

        return cls(
            name="quartic",
            value=value,
            grad=grad,
            hess=hess,
            grad_degree=3,
        )

    @classmethod
    def zero(cls) -> "NonlinearitySpec":
        """h = 0, leaving the purely linear eigenvalue problem."""

        def value(u, lam):
            return np.zeros(u.shape[1])

        def grad(u, lam):
            return np.zeros_like(u)

        def hess(u, lam):
            p, n = u.shape
            return np.zeros((p, p, n))

        return cls(
            name="zero",
            value=value,
            grad=grad,
            hess=hess,
            grad_degree=0,
        )


NONLINEARITIES = {"quartic": NonlinearitySpec.quartic, "zero": NonlinearitySpec.zero}


# ---------------------------------------------------------------------------
# branch states and residual
# ---------------------------------------------------------------------------


@dataclass
class BranchState:
    """Galerkin coordinates of one point on a solution branch."""

    coeffs: np.ndarray
    lam: float
    arclength: float
    h1_norm: float


def h1_norm(basis: GalerkinBasis, coeffs: np.ndarray) -> float:
    """Sobolev norm: squared coefficients weighted by (k(k+1) + 1)."""
    c = np.asarray(coeffs, dtype=float)
    if c.size % basis.n_modes:
        raise ValueError("coefficient vector length must be a multiple of the mode count")
    blocks = c.reshape(-1, basis.n_modes)
    return float(np.sqrt(np.sum((basis.eigenvalues + 1.0) * blocks**2)))


def make_state(basis: GalerkinBasis, coeffs: np.ndarray, lam: float, arclength: float = 0.0) -> BranchState:
    c = np.array(coeffs, dtype=float)
    return BranchState(c, float(lam), float(arclength), h1_norm(basis, c))


def _check_resolution(basis: GalerkinBasis, nl: NonlinearitySpec) -> None:
    if nl.grad_degree is None:
        return
    needed = (nl.grad_degree + 1) * basis.max_degree
    if basis.quad_degree < needed:
        raise ValueError(
            f"quadrature underresolved: exact to degree {basis.quad_degree}, residual needs {needed}"
        )


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
    c = np.asarray(coeffs, dtype=float)
    expected = len(sig.a) * basis.n_modes
    if c.size != expected:
        raise ValueError(f"coefficient vector has wrong length (expected {expected})")
    c = c.reshape(len(sig.a), basis.n_modes)
    return _residual_at(basis, nl, sig, c, basis.evaluate(c), lam)


def energy(basis: GalerkinBasis, nl: NonlinearitySpec, sig, coeffs: np.ndarray, lam: float) -> float:
    """Discrete functional whose coefficient gradient is the residual."""
    a = np.asarray(sig.a, dtype=float)
    c = np.asarray(coeffs, dtype=float).reshape(a.size, basis.n_modes)
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
) -> tuple[np.ndarray, dict, np.ndarray]:
    """The residual R, the order blocks of its Jacobian and its
    lam-derivative R_lam at (coeffs, lam), from one transform of the state.

    ``blocks`` maps an order m to ``(idx, J_b)``, one entry per |m| present
    in the basis: ``idx[:, 0]`` lists the coefficient positions of order m in
    every component, component by component, and ``J_b`` is the Jacobian
    restricted to them, the diagonal linear part minus the quadrature Gram of
    the pointwise Hessian.  For m > 0 whose twin -m is in the basis with the
    same degrees, ``idx[:, 1]`` lists the positions of -m, in the same order;
    the -m block is not formed, and ``J_b`` stands for it.  An order whose
    twin is absent has a one-column ``idx`` and its own block.

    Entries between different orders are not formed.  They vanish when the
    Hessian at the state does not depend on longitude, which holds on the
    m = 0 subspace for a nonlinearity that acts pointwise without reading
    phi; the caller keeps its iterates there (see
    ``continuation.continue_branch``).  On that subspace the -m block also
    equals the +m block in exact arithmetic: the reflection phi -> -phi
    swaps the cos-type and sin-type modes of each order and fixes the
    state, and on the equispaced longitude grid sum cos^2(m phi_j) =
    sum sin^2(m phi_j) for 0 < m <= K.  Off that subspace the twin is not
    exact; each formed block is the Jacobian on ``idx[:, 0]`` at any state.
    R_lam = -c - P(D), where D is the central difference of grad in lam at
    the nodes, with step 1e-6 max(1, |lam|); when D is zero, that is when
    grad does not read lam, the projection is skipped, and R_lam = -c
    exactly.

    A block sums the weighted Hessian against one longitude row twice, so it
    needs only T[m, theta] = sum_phi L_m^2 w H, one product for the formed
    orders, and then -(colat_m T[m]) colat_m^T per component pair: one
    batched product over the formed orders, their colatitude rows padded to
    the widest order, O(n_m^2 n_theta) for the n_m modes of order m."""
    a = np.asarray(sig.a, dtype=float)
    p, n = a.size, basis.n_modes
    c = np.asarray(coeffs, dtype=float).reshape(p, n)
    u = basis.evaluate(c)
    R = _residual_at(basis, nl, sig, c, u, lam)
    Hw = nl.hess(u, lam) * basis.weights  # (p, p, nodes), quadrature-weighted
    colat, lon, _, block_rows = basis._factors
    C = colat[: len(block_rows)]  # (block, width, theta): the orders with a block come first
    T = Hw.reshape(p, p, C.shape[2], -1) @ (lon[: len(block_rows)] ** 2).T  # (p, p, theta, block)
    CT = C[:, None, None] * np.moveaxis(T, -1, 0)[:, :, :, None, :]  # (block, p, p, width, theta)
    gram = CT @ C[:, None, None].swapaxes(-1, -2)  # (block, p, p, width, width)
    linear = (a[:, None] * basis.eigenvalues[None, :] + lam).ravel()
    offsets = n * np.arange(p)[:, None, None]
    blocks = {}
    for rows, G in zip(block_rows, gram):
        n_b = rows.shape[0]
        size = p * n_b
        J_b = -G[:, :, :n_b, :n_b].swapaxes(1, 2).reshape(size, size)
        idx = (offsets + rows).reshape(size, -1)
        J_b.flat[:: size + 1] -= linear[idx[:, 0]]
        blocks[basis.modes[rows[0, 0]][1]] = (idx, J_b)
    step = 1e-6 * max(1.0, abs(lam))
    D = (nl.grad(u, lam + step) - nl.grad(u, lam - step)) / (2 * step)
    R_lam = -c.ravel()
    if np.any(D):
        R_lam -= basis.project(D).ravel()
    return R, blocks, R_lam


def gradient_check(
    basis: GalerkinBasis,
    nl: NonlinearitySpec,
    sig,
    state: BranchState,
    epsilon: float,
    n_samples: int = 50,
    seed: int = 0,
) -> float:
    """Largest relative mismatch between central finite differences of the
    discrete functional and the residual, over a random coordinate sample.

    Parameters
    ----------
    epsilon : float
        Central difference step, required in [1e-8, 1e-3].
    n_samples : int
        Number of sampled coordinates, at least 1 (50 by default; capped at
        the total coordinate count).
    """
    if not (1e-8 <= epsilon <= 1e-3):
        raise ValueError("epsilon must lie in [1e-8, 1e-3]")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    r = residual_coeffs(basis, nl, sig, state.coeffs, state.lam)
    total = r.size
    rng = np.random.default_rng(seed)
    count = min(n_samples, total)
    sample = rng.choice(total, size=count, replace=False)
    worst = 0.0
    base = np.asarray(state.coeffs, dtype=float)
    for idx in sample:
        cp = base.copy()
        cp[idx] += epsilon
        cm = base.copy()
        cm[idx] -= epsilon
        fd = (energy(basis, nl, sig, cp, state.lam) - energy(basis, nl, sig, cm, state.lam)) / (2 * epsilon)
        err = abs(fd - r[idx]) / max(1.0, abs(r[idx]))
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# trivial-branch crossings and torus action
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Crossing:
    """Parameter value where the trivial-branch linearization is singular."""

    lam: Fraction
    modes: tuple[tuple[int, int, int], ...]  # (component, degree, order)


def trivial_branch_crossings(basis: GalerkinBasis, sig, window) -> tuple[Crossing, ...]:
    """Exact crossing values lam = -a_i k(k+1) inside the closed window, with
    the kernel modes at each; no tolerance enters since the linearization is
    diagonal in this basis."""
    lo, hi = (Fraction(window[0]), Fraction(window[1]))
    if lo > hi:
        raise ValueError("window must be ordered")
    found: dict[Fraction, list[tuple[int, int, int]]] = {}
    for i, ai in enumerate(sig.a):
        for k in range(basis.max_degree + 1):
            lam = Fraction(-ai * degree_eigenvalue(k))
            if lo <= lam <= hi:
                found.setdefault(lam, []).extend((i, k, m) for m in range(-k, k + 1))
    return tuple(Crossing(lam, tuple(sorted(found[lam]))) for lam in sorted(found))


def rotate_coeffs(basis: GalerkinBasis, coeffs: np.ndarray, angle: float) -> np.ndarray:
    """Coefficient action of the rotation u(theta, phi) -> u(theta, phi - angle):
    each ((k,m),(k,-m)) pair turns by m * angle.  Raises ``ValueError`` when
    the basis holds a mode of order m != 0 without its twin of order -m."""
    for k, m in basis.modes:
        if m != 0 and (k, -m) not in basis.mode_index:
            raise ValueError(f"the basis lacks mode (k, m) = ({k}, {-m}), the twin of ({k}, {m})")
    c = np.asarray(coeffs, dtype=float).reshape(-1, basis.n_modes).copy()
    for (k, m), idx in basis.mode_index.items():
        if m <= 0:
            continue
        jdx = basis.mode_index[(k, -m)]
        cosw, sinw = math.cos(m * angle), math.sin(m * angle)
        cm, cneg = c[:, idx].copy(), c[:, jdx].copy()
        c[:, idx] = cosw * cm + sinw * cneg
        c[:, jdx] = -sinw * cm + cosw * cneg
    return c.reshape(np.asarray(coeffs).shape)


def node_variance(basis: GalerkinBasis, coeffs: np.ndarray) -> float:
    """Largest quadrature variance of a solution component; zero exactly for
    constants, used as the nonconstancy witness."""
    c = np.asarray(coeffs, dtype=float).reshape(-1, basis.n_modes)
    u = basis.evaluate(c)
    area = float(np.sum(basis.weights))
    mean = (u @ basis.weights) / area
    var = ((u - mean[:, None]) ** 2) @ basis.weights / area
    return float(np.max(var))
