"""Axisymmetric boundary-value problem on the flattened strip (0,1) x R.

Per wavenumber k the radial operator is D1 D0 - k^2 with D0 = d/dr and
D1 = d/dr + 1/r; its Green's kernel with a Neumann condition at r = 1 and
regularity on the axis is built from I0, I1, K0, K1:

    G(r, rt) = -I0(|k| r_min) (K0(|k| r_max) + K1(|k|)/I1(|k|) I0(|k| r_max)),

with derivative kernels H1 = G_r, H2 = G_rt, H3 = G_r_rt.  The solution
operator applies

    u = F^-1[ int_0^1 (i k G F2_hat - H2 F1_hat) rt drt - i k G(r,1) xi_hat ],

and the surface operator of the travelling-wave problem is

    K(eta) xi = -u_z|_{r=1},  u = S(F1(eta,u), F2(eta,u), xi).

The forcing is linear in x = (u_z, D0 u), so this fixed point is the affine
system (I - T) x = S(0, 0, xi) with T x = S(F(eta, x), 0), solved by the
restarted GMRES of ``solver.gmres``; each matvec is one application of S.
With eta = 0 a single closed-form mode solve reproduces the multiplier f(k).

Radial quadrature: Gauss-Legendre state nodes on (0,1); kernel integrals are
assembled with per-output-node panels split at the diagonal kink, and panels
graded dyadically toward the kink on the K-Bessel side (the kernels are
analytic except for the log point at rt = 0).  Everything is built from
scaled Bessel values, so large |k| never overflows; each Bessel function is
evaluated once per kernel argument (``specfun._bessel01_scaled``).

Per mode the four kernel matrices form one real block operator
A = [[G, H2], [H1, H3]] acting on (i k F2_hat, -F1_hat) and giving
(u, D0 u - F1_hat), so a sweep is one real batched matmul on the complex
data viewed as (re, im) column pairs.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, DomainError, GeometryError
from .spectral import SpectralField, SpectralGrid
from .specfun import (
    _bessel01_scaled,
    _besseli_scaled,
    _besselk_scaled,
    _iv_scaled,
    besseli,
    struvel,
)

__all__ = [
    "RadialGrid",
    "RadialSolution",
    "greens_kernel",
    "integral_abs_G",
    "integral_abs_H1",
    "integral_H3",
    "closed_form_H1_integral",
    "closed_form_H3_integral",
    "SolutionOperator",
    "solve_flat",
    "apply_solution_operator",
    "solve_flattened_bvp",
]


# -- radial grid ---------------------------------------------------------------


def _barycentric_weights(x: np.ndarray) -> np.ndarray:
    n = x.size
    w = np.ones(n)
    for i in range(n):
        w[i] = 1.0 / np.prod(x[i] - np.delete(x, i))
    return w / np.max(np.abs(w))


def _interp_matrix(x: np.ndarray, bw: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Barycentric Lagrange interpolation matrix from nodes x to points pts."""
    diff = pts[:, None] - x[None, :]
    exact = np.isclose(diff, 0.0, atol=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = bw[None, :] / diff
    w[exact.any(axis=1)] = 0.0
    w[exact] = 1.0
    return w / np.sum(w, axis=1, keepdims=True)


@dataclass(eq=False)
class RadialGrid:
    """Gauss-Legendre nodes on (0,1); weights integrate dr exactly to 2nr-1."""

    nr: int
    r: np.ndarray = None
    w: np.ndarray = None
    _bw: np.ndarray = None

    def __post_init__(self):
        x, w = np.polynomial.legendre.leggauss(self.nr)
        self.r = 0.5 * (x + 1.0)
        self.w = 0.5 * w
        self._bw = _barycentric_weights(self.r)

    @classmethod
    def make(cls, nr: int = 64) -> "RadialGrid":
        return cls(nr=nr)

    def interp_to(self, pts: np.ndarray) -> np.ndarray:
        return _interp_matrix(self.r, self._bw, np.atleast_1d(pts))

    @property
    def boundary_row(self) -> np.ndarray:
        """Extrapolation row to r = 1 (one-sided high-order stencil)."""
        return self.interp_to(np.array([1.0]))[0]

    def diff_matrix(self) -> np.ndarray:
        """Nodal differentiation matrix (for discrete-identity checks)."""
        n, x, bw = self.nr, self.r, self._bw
        D = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                if i != j:
                    D[i, j] = (bw[j] / bw[i]) / (x[i] - x[j])
        D[np.diag_indices(n)] = -np.sum(D, axis=1)
        return D

    def antideriv_from_one(self) -> np.ndarray:
        """Matrix mapping nodal values of p to nodal values of int_1^r p."""
        c_basis = np.polynomial.legendre.legfit(2 * self.r - 1, np.eye(self.nr),
                                                self.nr - 1)
        out = np.zeros((self.nr, self.nr))
        for j in range(self.nr):
            ci = np.polynomial.legendre.legint(c_basis[:, j], lbnd=1.0) * 0.5
            out[:, j] = np.polynomial.legendre.legval(2 * self.r - 1, ci)
        return out


# -- Green's kernels -----------------------------------------------------------


def greens_kernel(k, r, rt) -> dict:
    """Kernel G and its formal derivatives H1 = G_r, H2 = G_rt, H3 = G_r_rt.

    All Bessel combinations are assembled from scaled values with
    nonpositive exponents, so any |k| is safe.  k must be nonzero.  Each
    Bessel function is evaluated once per argument: I0, I1 at |k| r_min,
    all four at |k| r_max, and K1(|k|)/I1(|k|) on k before broadcasting.
    """
    x = np.abs(np.asarray(k, dtype=float))
    if np.any(x == 0.0):
        raise DomainError("k = 0 mode is singular; handled separately")
    r = np.asarray(r, dtype=float)
    rt = np.asarray(rt, dtype=float)
    lo = np.minimum(r, rt)
    hi = np.maximum(r, rt)
    _, i1_x, _, k1_x = _bessel01_scaled(x)
    ratio = k1_x / i1_x
    i0_lo, i1_lo = _iv_scaled(x * lo, (0, 1))
    i0_hi, i1_hi, k0_hi, k1_hi = _bessel01_scaled(x * hi)
    e_between = np.exp(x * (lo - hi))
    e_wall = np.exp(x * (lo + hi - 2.0))

    G = -(i0_lo * k0_hi * e_between + ratio * i0_lo * i0_hi * e_wall)
    # derivative in the small argument (I side) and in the large (K side)
    d_small = -x * i1_lo * (k0_hi * e_between + ratio * i0_hi * e_wall)
    d_large = x * i0_lo * (k1_hi * e_between - ratio * i1_hi * e_wall)
    H3 = x**2 * i1_lo * (k1_hi * e_between - ratio * i1_hi * e_wall)

    r_is_small = r < rt
    H1 = np.where(r_is_small, d_small, d_large)
    H2 = np.where(r_is_small, d_large, d_small)
    return {"G": G, "H1": H1, "H2": H2, "H3": H3}


@functools.lru_cache(maxsize=None)
def _gauss_rule(n: int):
    """n-point Gauss-Legendre nodes and weights on [-1, 1] (shared: read only)."""
    return np.polynomial.legendre.leggauss(n)


def _panels(r0: float, n_inner: int = 24, n_outer: int = 16):
    """Quadrature panels for int_0^1 with a kink at r0 and a log point at 0.

    [0, r0] is one panel (integrand analytic there); [r0, 1] is graded
    dyadically away from r0 so each panel keeps the rt = 0 singularity at a
    distance comparable to its length.
    """
    xg_in, wg_in = _gauss_rule(n_inner)
    xg_out, wg_out = _gauss_rule(n_outer)
    nodes = [0.5 * r0 * (xg_in + 1.0)]
    weights = [0.5 * r0 * wg_in]
    a = r0
    while a < 1.0:
        b = min(2.0 * a, 1.0)
        nodes.append(0.5 * (b - a) * (xg_out + 1.0) + a)
        weights.append(0.5 * (b - a) * wg_out)
        a = b
    return np.concatenate(nodes), np.concatenate(weights)


def integral_abs_G(k: float, r: float) -> float:
    """Quadrature of int_0^1 rt |G(r, rt)| drt (G is negative definite)."""
    q, w = _panels(r)
    G = greens_kernel(k, r, q)["G"]
    return float(np.sum(w * q * np.abs(G)))


def integral_abs_H1(k: float, r: float) -> float:
    """Quadrature of int_0^1 rt |H1(r, rt)| drt (sign flips across rt = r)."""
    q, w = _panels(r)
    H1 = greens_kernel(k, r, q)["H1"]
    return float(np.sum(w * q * np.abs(H1)))


def integral_H3(k: float, r: float) -> float:
    """Quadrature of int_0^1 rt H3(r, rt) drt (H3 is nonnegative)."""
    q, w = _panels(r)
    H3 = greens_kernel(k, r, q)["H3"]
    return float(np.sum(w * q * H3))


def closed_form_H1_integral(k: float, r: float) -> float:
    """|k| int rt |H1| drt = 2|k| r I1(|k|r) (K1(|k|r) - K1(|k|)/I1(|k|) I1(|k|r))."""
    x = abs(k)
    i1r = _besseli_scaled(1, np.array([x * r]))[0]
    k1r = _besselk_scaled(1, np.array([x * r]))[0]
    ratio = (_besselk_scaled(1, np.array([x])) / _besseli_scaled(1, np.array([x])))[0]
    return float(
        2.0 * x * r * i1r * (k1r - ratio * i1r * np.exp(2.0 * x * (r - 1.0)))
    )


def closed_form_H3_integral(k: float, r: float) -> float:
    """int rt H3 drt = (pi/2) (I1(|k|r) L1(|k|)/I1(|k|) - L1(|k|r))."""
    x = abs(k)
    return float(
        0.5 * np.pi * (
            besseli(1, x * r) * struvel(1, x) / besseli(1, x) - struvel(1, x * r)
        )
    )


# -- solution operator ---------------------------------------------------------


@dataclass
class RadialSolution:
    """Per-mode radial profiles and surface traces (rfft layout, m = 0..N/2)."""

    rgrid: RadialGrid
    zgrid: SpectralGrid
    k: np.ndarray
    u_hat: np.ndarray
    uz_hat: np.ndarray
    d0u_hat: np.ndarray
    trace_u: np.ndarray
    trace_uz: np.ndarray
    trace_d0u: np.ndarray

    def surface_velocity_field(self) -> SpectralField:
        """K-output: -u_z at the surface as a spectral field."""
        return SpectralField.from_values(self.zgrid,
                                         self.zgrid.to_rvalues(-self.trace_uz))


def _flat_profiles(x: np.ndarray, r: np.ndarray):
    """I0(xr)/(x I1(x)) and I1(xr)/I1(x) on (x, r), and I0(x)/(x I1(x)).

    The eta = 0 radial profiles per unit i k xi_hat, from scaled values.
    """
    i1x = _besseli_scaled(1, x)
    xr = x[:, None] * r[None, :]
    e_r1 = np.exp(x[:, None] * (r[None, :] - 1.0))
    prof0 = _besseli_scaled(0, xr) * e_r1 / (x * i1x)[:, None]
    prof1 = _besseli_scaled(1, xr) * e_r1 / i1x[:, None]
    return prof0, prof1, _besseli_scaled(0, x) / (x * i1x)


class SolutionOperator:
    """Precomputed per-mode quadrature of the Green's-kernel representation."""

    def __init__(self, zgrid: SpectralGrid, rgrid: RadialGrid):
        # zgrid caches this operator, so hold it weakly: a strong reference
        # would keep both alive until the cyclic collector runs
        self._zgrid = weakref.ref(zgrid)
        self.rgrid = rgrid
        self.kpos = zgrid.kr
        x = self.kpos[1:]
        r = rgrid.r
        nr = rgrid.nr
        nk = x.size

        # one block operator per mode: rows give (u, D0 u), columns act on
        # (i k F2_hat, -F1_hat).  Each node's row blocks are written in place:
        # assembling A from finished blocks would briefly hold it twice
        A = np.empty((nk, 2 * nr, 2 * nr))
        for i, ri in enumerate(r):
            q, wq = _panels(float(ri))
            B = rgrid.interp_to(q)  # (nq, nr)
            ker = greens_kernel(x[:, None], ri, q[None, :])
            wr = wq * q  # quadrature weight times measure rt
            for row, left, right in ((i, "G", "H2"), (nr + i, "H1", "H3")):
                A[:, row, :nr] = (ker[left] * wr[None, :]) @ B
                A[:, row, nr:] = (ker[right] * wr[None, :]) @ B
        self.A = A

        # boundary (xi) kernels and trace rows at r = 1, closed form (the
        # trace integrands are smooth: state-node quadrature), in the same
        # (u, D0 u) / (i k F2_hat, -F1_hat) layout as A
        prof0, prof1, prof0_wall = _flat_profiles(x, r)
        self.b_xi = -np.concatenate([prof0, prof1], axis=1)
        self.G11 = -prof0_wall
        self.trace_row = self.b_xi * np.tile(rgrid.w * r, 2)[None, :]

        self._antideriv = rgrid.antideriv_from_one()

    @property
    def zgrid(self) -> SpectralGrid:
        return self._zgrid()

    def apply(self, F1_hat: np.ndarray, F2_hat: np.ndarray,
              xi_hat: np.ndarray) -> RadialSolution:
        """Quadrature of the displayed integral formula, all modes at once.

        F1_hat, F2_hat: (nr, nk) mode coefficients; xi_hat: (nk,).
        """
        nr, nk = F1_hat.shape
        ik = 1j * self.kpos
        g = np.empty((nk - 1, 2 * nr), dtype=complex)
        g[:, :nr] = (F2_hat[:, 1:] * ik[None, 1:]).T
        g[:, nr:] = -F1_hat[:, 1:].T
        # complex data as (re, im) column pairs: one real batched matmul
        g_re = g.view(float).reshape(nk - 1, 2 * nr, 2)
        ikxi = ik[1:] * xi_hat[1:]
        out = np.matmul(self.A, g_re).view(complex)[..., 0]
        out -= ikxi[:, None] * self.b_xi
        tr_u = (self.trace_row[:, None, :] @ g_re).view(complex)[:, 0, 0]
        tr_u -= ikxi * self.G11

        u_hat = np.zeros((nr, nk), dtype=complex)
        uz_hat = np.zeros((nr, nk), dtype=complex)
        d0u_hat = np.zeros((nr, nk), dtype=complex)
        u_hat[:, 1:] = out[:, :nr].T
        uz_hat[:, 1:] = u_hat[:, 1:] * ik[None, 1:]
        d0u_hat[:, 1:] = out[:, nr:].T + F1_hat[:, 1:]
        # k = 0: r D0 u = r F1 by regularity; u fixed by u(1) = 0
        d0u_hat[:, 0] = F1_hat[:, 0]
        u_hat[:, 0] = self._antideriv @ F1_hat[:, 0]

        trace_u = np.zeros(nk, dtype=complex)
        trace_u[1:] = tr_u
        trace_uz = trace_u * ik
        trace_d0u = self.rgrid.boundary_row @ d0u_hat
        return RadialSolution(
            rgrid=self.rgrid,
            zgrid=self.zgrid,
            k=self.kpos,
            u_hat=u_hat,
            uz_hat=uz_hat,
            d0u_hat=d0u_hat,
            trace_u=trace_u,
            trace_uz=trace_uz,
            trace_d0u=trace_d0u,
        )


def _operator_for(zgrid: SpectralGrid, rgrid: RadialGrid) -> SolutionOperator:
    key = ("dno_operator", id(rgrid))
    if key not in zgrid._cache:
        zgrid._cache[key] = SolutionOperator(zgrid, rgrid)
    return zgrid._cache[key]


def solve_flat(xi: SpectralField, rgrid: RadialGrid) -> RadialSolution:
    """Closed-form per-mode solution of the eta = 0 problem."""
    zgrid = xi.grid
    xi_hat = zgrid.to_rcoeffs(np.asarray(xi.values, dtype=float))
    kpos = zgrid.kr
    prof0, prof1, prof0_wall = _flat_profiles(kpos[1:], rgrid.r)

    nr, nk = rgrid.nr, kpos.size
    ik = 1j * kpos
    u_hat = np.zeros((nr, nk), dtype=complex)
    d0u_hat = np.zeros((nr, nk), dtype=complex)
    u_hat[:, 1:] = prof0.T * (ik[1:] * xi_hat[1:])[None, :]
    d0u_hat[:, 1:] = prof1.T * (ik[1:] * xi_hat[1:])[None, :]
    uz_hat = u_hat * ik[None, :]

    trace_u = np.zeros(nk, dtype=complex)
    trace_u[1:] = ik[1:] * xi_hat[1:] * prof0_wall
    trace_uz = trace_u * ik
    trace_d0u = ik * xi_hat  # D0 u = xi_z at r = 1, exactly
    return RadialSolution(
        rgrid=rgrid, zgrid=zgrid, k=kpos,
        u_hat=u_hat, uz_hat=uz_hat, d0u_hat=d0u_hat,
        trace_u=trace_u, trace_uz=trace_uz, trace_d0u=trace_d0u,
    )


def apply_solution_operator(zgrid: SpectralGrid, rgrid: RadialGrid,
                            F1: np.ndarray, F2: np.ndarray,
                            xi: SpectralField) -> RadialSolution:
    """S(F1, F2, xi) for physical-space forcing fields F1, F2 of shape (nr, N)."""
    operator = _operator_for(zgrid, rgrid)
    return operator.apply(
        zgrid.to_rcoeffs(F1), zgrid.to_rcoeffs(F2),
        zgrid.to_rcoeffs(np.asarray(xi.values, dtype=float)),
    )


def _forcing_terms(rgrid, eta_v, eta_z, uz, d0u):
    r = rgrid.r[:, None]
    one_eta = 1.0 + eta_v[None, :]
    F1 = r * one_eta * eta_z[None, :] * uz - r**2 * eta_z[None, :] ** 2 * d0u
    F2 = r * one_eta * eta_z[None, :] * d0u - (eta_v * (eta_v + 2.0))[None, :] * uz
    return F1, F2


def solve_flattened_bvp(eta: SpectralField, xi: SpectralField,
                        rgrid: Optional[RadialGrid] = None,
                        tol: float = 1e-12, max_iter: int = 60):
    """GMRES solve of u = S(F1(eta,u), F2(eta,u), xi); returns (solution, K field).

    The unknown is x = (u_z, D0 u) on the (nr, N) grid and the system is
    x - S(F(eta, x), 0) = S(0, 0, xi), whose right-hand side is the closed
    form ``solve_flat``.  Each matvec is one sweep (``SolutionOperator.apply``).
    A relative residual above tol after max_iter sweeps, or a Krylov
    breakdown, raises ConvergenceError with the sweep count and residual.
    """
    from .solver import gmres  # solver imports this module

    if rgrid is None:
        rgrid = RadialGrid.make()
    zgrid = eta.grid
    if xi.grid is not zgrid:
        raise GeometryError("eta and xi must share the longitudinal grid")
    eta_v = np.asarray(eta.values, dtype=float)
    if np.min(1.0 + eta_v) <= 0.0:
        raise GeometryError("flattening breaks down: min(1 + eta) <= 0")
    eta_z = zgrid.deriv_values(eta_v)
    operator = _operator_for(zgrid, rgrid)
    xi_hat = zgrid.to_rcoeffs(np.asarray(xi.values, dtype=float))
    sweeps = 0

    def state(sol: RadialSolution) -> np.ndarray:
        return np.concatenate([zgrid.to_rvalues(sol.uz_hat).ravel(),
                               zgrid.to_rvalues(sol.d0u_hat).ravel()])

    def forcing(x: np.ndarray):
        uz, d0u = x.reshape(2, rgrid.nr, zgrid.N)
        F1, F2 = _forcing_terms(rgrid, eta_v, eta_z, uz, d0u)
        return zgrid.to_rcoeffs(F1), zgrid.to_rcoeffs(F2)

    def matvec(x: np.ndarray) -> np.ndarray:
        nonlocal sweeps
        sweeps += 1
        return x - state(operator.apply(*forcing(x), np.zeros_like(xi_hat)))

    try:
        x, _, rel = gmres(matvec, state(solve_flat(xi, rgrid)), rtol=tol,
                          restart=max_iter, max_iter=max_iter)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(
            f"BVP solve: Krylov breakdown after {sweeps} sweeps ({exc})"
        ) from exc
    if rel > tol:
        raise ConvergenceError(
            f"BVP solve: relative residual {rel:.3e} > tol {tol:g} after "
            f"{sweeps} sweeps; eta may be too large"
        )
    sol = operator.apply(*forcing(x), xi_hat)
    return sol, sol.surface_velocity_field()


def dn_oracle_apply(eta: SpectralField, rgrid: Optional[RadialGrid] = None,
                    tol: float = 1e-12) -> Callable[[np.ndarray], np.ndarray]:
    """K(eta) as a callable on nodal values, backed by the BVP solve.

    The box mean of xi is invisible to the Neumann problem (its z-derivative
    vanishes), but on the line the operator carries the long-wave response
    f(0) = 2 at k = 0; restoring that rank-one piece makes the BVP route
    discretise the same operator as the multiplier expansion.
    """
    from .operators import dn_expansion, dn_mean_response

    grid = eta.grid
    eta_values = np.asarray(eta.values, dtype=float)

    def apply(xi_values: np.ndarray) -> np.ndarray:
        xi_arr = np.asarray(xi_values, dtype=float)
        # The k = 0 input direction is a removable singularity of the line
        # operator that the periodic Neumann problem cannot see (constants
        # vanish under d/dz).  Split it off and complete it with the
        # low-order response; the BVP handles the mean-free complement and
        # its lost output mean is restored in closed form.
        xibar = float(np.mean(xi_arr))
        xi_prime = xi_arr - xibar
        xi = SpectralField.from_values(grid, xi_prime)
        _, out = solve_flattened_bvp(eta, xi, rgrid=rgrid, tol=tol)
        vals = np.asarray(out.values, dtype=float)
        vals = vals + dn_mean_response(grid, eta_values, xi_prime)
        if xibar != 0.0:
            vals = vals + dn_expansion(
                grid, eta_values, np.full(grid.N, xibar), 2
            )
        return vals

    return apply
