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
system (I - T) x = S(0, 0, xi) with T x = S(F(eta, x), 0, 0), solved by the
restarted GMRES of ``solver.gmres``; each matvec is one sweep
(``SolutionOperator.apply``), and the right-hand side is the closed-form
flat response (``SolutionOperator.flat``), which with eta = 0 reproduces the
multiplier f(k).  The trace u(1) comes once, from the converged forcing
through the trace rows (``SolutionOperator.trace``), with no sweep.  eta, xi
and K(eta) xi are half spectra in the layout of ``SpectralGrid.kr``, as in
the Newton solvers; only the GMRES unknown x is nodal.

Radial quadrature: Gauss-Legendre state nodes r_1 < ... < r_nr on (0,1).
The kernel is semi-separable (Greengard & Rokhlin, Comm. Pure Appl. Math. 44
(1991) 419-452): G = -a(r_min) b(r_max) with a = I0(|k| .) and
b = K0(|k| .) + K1(|k|)/I1(|k|) I0(|k| .), and H1, H2, H3 take a' or b' on
the side they differentiate.  So row i of each kernel matrix is
-b(r_i) P_i - a(r_i) S_i, where P_i integrates a (or a') times each
Lagrange basis function and rt over (0, r_i), and S_i integrates b (or b')
over (r_i, 1).  One composite rule serves every row and every mode: its
breakpoints 0, r_1, ..., r_nr, 1 are exactly the kernel's kinks (and the
log point of K0 at rt = 0 is an end), each panel has 16 Gauss points, and
P_i, S_i are sums of the panels' integrals.  The build is one loop over
chunks of 32 modes, and its only branch is where a chunk's four factors at
every panel point, state node and r = 1 come from.  Up to SEAM_I = 30 they
are unscaled: I0, I1 and the K0/K1 log-series sums at |k| rt are power
series in (|k|/2)^2 rt^2, so they are one matrix product of a
(modes x terms) power table with a (terms x points) table
(``specfun._bessel01_lattice``; K above SEAM_K is its Chebyshev series).
Above it, where those series stop and unscaled factors would overflow,
they are scaled Bessel values (``specfun._bessel01_scaled``), a and a'
carrying e^{-|k| rt} and b and b' e^{|k| rt}, moved to the panel's right and
left ends.  The rest is shared: the panel integrals are one batched matmul;
P_i and S_i are one triangular product whose entries are e^{-xs d}, with d
the distance from r_i to each panel's end and xs = 0 for unscaled modes
(0/1 triangles) or |k| for scaled ones, so no |k| overflows; and the
boundary kernels (a, a')(r_i)/a'(1) and G(1, 1) = -a(1)/a'(1) are read from
the same values.  Where both sources apply the two builds agree to 2e-15 of
each mode's block (tested through nr = 48).  Solver grids do pass SEAM_I:
``solver.wave_grid`` ends at |k| = 32.15 at gamma = 60, eps = 0.2 (L = 200.1,
N = 4096) and at 128.7 at gamma = 1e3.
Against the same rule with 32 points per panel
the operator agrees to about 1e-14 through |k| = 256 (tested) and 1e-13 at
|k| = 1024; above |k| ~ 2000 sixteen points no longer resolve
e^{-|k| |r - rt|} across a panel (3e-8 at |k| = 2048, 3e-2 at 8192).

Per mode the four kernel matrices form one real block operator
A = [[G, H2], [H1, H3]] acting on (i k F2_hat, -F1_hat) and giving
(u, D0 u - F1_hat), so a sweep is one real batched matmul on the complex
data viewed as (re, im) column pairs.  A is (nk, 2 nr, 2 nr): its memory,
its build and a sweep all grow as nr^2.  A solve's memory peak is A plus
the GMRES basis rows it fills, one row of 2 nr N floats per iteration,
allocated ``solver.GMRES_BLOCK`` rows at a time as GMRES reaches them.  At
nr = 12 and N = 1024 A is 2.25 MiB and a block of rows 3 MiB; the
benchmark's solves take 7 sweeps each, so they fill part of one block.

Certified radial grid: the operator integrates the forcing's degree nr - 1
interpolant on the state nodes, so the error of a solve is the size of the
Legendre coefficients the nodes cannot hold, and the top coefficients of
the converged forcing estimate it (coefficient decay; Boyd, Chebyshev and
Fourier Spectral Methods, 2001, ch. 2).  Without an explicit radial grid a
solve runs on the rungs ``RADIAL_RUNGS`` = 12, 16, 24, 32, 48, 64, 96, 128
in turn and accepts the first whose radial tail (``RadialGrid.legendre_tail``)
is at most max(tol, 16 nr eps), the BVP's own tolerance or the transform's
rounding; 128 nodes that miss it raise ``ConvergenceError`` with nr and the
tail.  A rung after the first starts GMRES from the coarser rung's solution,
interpolated to its nodes; the steps of at most 1.5 keep a climb from
overshooting the rung the data need by much.
The z grid remembers the certified rung, so the next solve on it (every
Newton iterate of an oracle solve) starts there and shares its operator.
The benchmark's (5, 0.1) state reads tails near 7.5e-15 at 12 nodes (at
most 7.6e-15 over its gamma jitter 4.8 to 5.2; 10 nodes read up to
6.6e-13).  A Gaussian on L = 20 reads 2e-8 at 12, 1.6e-11 at 16 and 4e-15
at 24, where the seeded solve takes one sweep; a boundary layer
e^{|k| (r - 1)} with |k| = 40 reads 0.2 at 12, 3e-2 at 16, 6e-5 at 24 and
1e-8 at 32, and needs 48.

This module is the oracle alone; the kernel identities that certify
``greens_kernel`` are in ``checks``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConvergenceError, DomainError, GeometryError
from .spectral import SpectralGrid
from .specfun import (
    SEAM_I,
    _bessel01_lattice,
    _bessel01_scaled,
    _iv_scaled,
    _lattice_table,
    _series_terms,
)

__all__ = [
    "RadialGrid",
    "greens_kernel",
    "SolutionOperator",
    "solve_flattened_bvp",
    "dn_oracle_apply",
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

    def legendre_tail(self, values: np.ndarray) -> float:
        """Largest of the two top Legendre coefficients of ``values`` against
        the largest of all; 0 for zero values.

        ``values`` holds nodal values on axis -2 (any leading axes and
        columns).  The coefficients in 2r - 1 come from the exact transform on
        the Gauss nodes, c_n = (2n + 1) sum_i w_i P_n(2 r_i - 1) f_i; the two
        top degrees cover both parities.
        """
        n = np.arange(self.nr)
        V = np.polynomial.legendre.legvander(2.0 * self.r - 1.0, self.nr - 1)
        c = np.abs(((2 * n + 1)[:, None] * V.T * self.w) @ values)
        top = float(np.max(c))
        return float(np.max(c[..., -2:, :])) / top if top > 0.0 else 0.0


# -- Green's kernels -----------------------------------------------------------


# not on the solve path; stays in dno while the benchmark tracer patches it by name
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


# -- solution operator ---------------------------------------------------------

# Gauss points per panel of the shared radial rule, and modes per chunk of
# the build (its transients stay a few MiB beside the operator itself)
_RULE_POINTS = 16
_BUILD_MODES = 32


class SolutionOperator:
    """Precomputed per-mode quadrature of the Green's-kernel representation."""

    def __init__(self, zgrid: SpectralGrid, rgrid: RadialGrid):
        # zgrid caches this operator, so the operator keeps no reference to
        # it: that would keep both alive until the cyclic collector runs
        self.rgrid = rgrid
        self.kpos = zgrid.kr
        x = self.kpos[1:]
        r = rgrid.r
        nr = rgrid.nr
        nk = x.size

        # the shared rule: Gauss panels between consecutive breakpoints
        # 0, r_1, ..., r_nr, 1, with the weight, the measure rt and the
        # interpolation from the state nodes folded into one (nint, p, nr) map
        t = np.concatenate([[0.0], r, [1.0]])
        h = np.diff(t)
        xg, wg = _gauss_rule(_RULE_POINTS)
        s = 0.5 * (xg + 1.0)
        q = t[:-1, None] + h[:, None] * s
        wq = 0.5 * h[:, None] * wg * q
        B = rgrid.interp_to(q.ravel()).reshape(q.shape + (nr,)) * wq[..., None]
        nint, p = q.shape
        # a chunk's factors at every rule point, the state nodes and r = 1,
        # and the distance by which each factor's scaling moves to its panel's
        # end: the right end for a, a' (P side), the left for b, b' (S side)
        pts = np.concatenate([q.ravel(), r, [1.0]])
        shift = np.zeros((4, 1, pts.size))
        shift[:2, 0, :q.size] = (h[:, None] * (1.0 - s)).ravel()
        shift[2:, 0, :q.size] = (h[:, None] * s).ravel()
        # P_i sums panels m <= i over the distance r_i - t_{m+1}, S_i panels
        # m > i over t_m - r_i; the triangles are where the distance is >= 0
        dist = np.stack([r[:, None] - t[1:], t[:-1] - r[:, None]])
        tri = dist >= 0.0
        dist = np.maximum(dist, 0.0)

        # one block operator per mode: rows give (u, D0 u), columns act on
        # (i k F2_hat, -F1_hat).  Row i of each block is -b(r_i) P_i - a(r_i) S_i
        # (primed factors where the kernel differentiates).  The one branch
        # is the factor source: modes up to SEAM_I take unscaled lattice
        # values (xs = 0), the rest scaled values, a and a' times e^{-xs rt}
        # and b and b' times e^{xs rt} (xs = |k|), moved to the panel ends.
        # With the sums weighted by e^{-xs distance}, the scalings cancel in
        # every product of a sum with a node factor.
        A = np.empty((nk, 2 * nr, 2 * nr))
        self.b_xi = np.empty((nk, 2 * nr))
        self.G11 = np.empty(nk)
        n = int(np.searchsorted(x, SEAM_I, side="right"))
        table = _lattice_table(pts, _series_terms(float(x[n - 1]))) if n else None
        starts = [*range(0, n, _BUILD_MODES), *range(n, nk, _BUILD_MODES)]
        for lo, hi in zip(starts, starts[1:] + [nk]):
            xc = x[lo:hi, None]
            nc = hi - lo
            if lo < n:
                i0, i1, k0, k1 = _bessel01_lattice(xc[:, 0], pts, table)
                wall, xs = 1.0, np.zeros((1, 1))
            else:
                i0, i1, k0, k1 = _bessel01_scaled(xc * pts)
                wall, xs = np.exp(2.0 * xc * (pts - 1.0)), xc
            # a = I0, a' = x I1, b = K0 + ratio I0, b' = x (ratio I1 - K1),
            # ratio = K1(x)/I1(x) from the values at r = 1 (times e^{2x(rt-1)}
            # against the scaled K0)
            wall = wall * (k1[:, -1:] / i1[:, -1:])
            F = np.stack([i0, xc * i1, k0 + wall * i0, xc * (wall * i1 - k1)])
            F *= np.exp(-xs * shift)
            # J[c, side, m]: panel m's integrals of [a, a'] (side 0) or
            # [b, b'] (side 1) against l_j rt; one batched matmul
            panel = F[..., :q.size].reshape(4, nc, nint, p).transpose(2, 1, 0, 3)
            J = np.matmul(panel.reshape(nint, nc * 4, p), B)
            J = J.reshape(nint, nc, 2, 2 * nr).transpose(1, 2, 0, 3)
            weights = tri * np.exp(-xs[..., None, None] * dist)
            P, S = np.moveaxis(np.matmul(weights, J), 1, 0)
            a, da, b, db = F[..., q.size:-1, None]
            A[lo:hi, :nr] = -(b * P + a * S)
            A[lo:hi, nr:] = -(db * P + da * S)
            # the boundary (xi) kernels and G(1, 1): (a, a')(r_i) and a(1)
            # over a'(1), each factor unscaled by e^{xs (r - 1)}
            self.b_xi[lo:hi] = -np.hstack(
                F[:2, :, q.size:-1] * (np.exp(xs * (r - 1.0)) / F[1, :, -1:]))
            self.G11[lo:hi] = -F[0, :, -1] / F[1, :, -1]
        self.A = A

        # trace rows at r = 1 (the trace integrands are smooth: state-node
        # quadrature), in the same (u, D0 u) / (i k F2_hat, -F1_hat) layout as A
        self.trace_row = (self.b_xi * np.tile(rgrid.w * r, 2))[:, None, :]

    def _columns(self, F1_hat: np.ndarray, F2_hat: np.ndarray) -> np.ndarray:
        """(i k F2_hat, -F1_hat) per mode 1.., as (re, im) column pairs."""
        g = np.concatenate([F2_hat[:, 1:] * (1j * self.kpos[1:]), -F1_hat[:, 1:]])
        return np.ascontiguousarray(g.T).view(float).reshape(g.shape[::-1] + (2,))

    def apply(self, F1_hat: np.ndarray, F2_hat: np.ndarray) -> np.ndarray:
        """One sweep S(F1, F2, 0): the displayed integral formula, all modes at once.

        F1_hat, F2_hat: (nr, nk) half spectra.  Returns the half spectra of
        (u, D0 u), stacked as (2, nr, nk): one real batched matmul.
        """
        nr, nk = F1_hat.shape
        out = np.matmul(self.A, self._columns(F1_hat, F2_hat)).view(complex)[..., 0]
        profiles = np.zeros((2, nr, nk), dtype=complex)
        profiles[:, :, 1:] = out.T.reshape(2, nr, nk - 1)
        profiles[1, :, 1:] += F1_hat[:, 1:]
        # k = 0: r D0 u = r F1 by regularity; u there is never read
        profiles[1, :, 0] = F1_hat[:, 0]
        return profiles

    def trace(self, F1_hat: np.ndarray, F2_hat: np.ndarray) -> np.ndarray:
        """The half spectrum of the trace u(1) of S(F1, F2, 0), (nk,), by the
        trace rows alone: no sweep."""
        rows = self.trace_row @ self._columns(F1_hat, F2_hat)
        return np.pad(rows.view(complex)[:, 0, 0], (1, 0))

    def flat(self, xi_hat: np.ndarray):
        """S(0, 0, xi), the eta = 0 response in closed form, from the (nk,)
        half spectrum xi_hat: the outputs of ``apply`` and ``trace``."""
        nr, nk = self.rgrid.nr, self.kpos.size
        ikxi = 1j * self.kpos[1:] * xi_hat[1:]
        profiles = np.zeros((2, nr, nk), dtype=complex)
        profiles[:, :, 1:] = (-ikxi[:, None] * self.b_xi).T.reshape(2, nr, nk - 1)
        trace_u = np.zeros(nk, dtype=complex)
        trace_u[1:] = -ikxi * self.G11
        return profiles, trace_u


def _operator_for(zgrid: SpectralGrid, nr: int) -> SolutionOperator:
    """The z grid's operator on nr radial nodes; the first call builds it
    together with its radial grid, ``operator.rgrid``."""
    key = ("dno_operator", nr)  # a RadialGrid is fully determined by nr
    if key not in zgrid._cache:
        zgrid._cache[key] = SolutionOperator(zgrid, RadialGrid.make(nr))
    return zgrid._cache[key]


def _forcing_coefficients(rgrid, eta_v, eta_z):
    """(r (1 + eta) eta_z, r^2 eta_z^2, eta (eta + 2)) on the (nr, N) nodes:
    the forcing is linear in (u_z, D0 u) with these coefficients."""
    r = rgrid.r[:, None]
    return (r * (1.0 + eta_v[None, :]) * eta_z[None, :], r**2 * eta_z[None, :] ** 2,
            (eta_v * (eta_v + 2.0))[None, :])


def _forcing_terms(coeffs, uz, d0u):
    """F1 = c1 u_z - c2 D0 u and F2 = c1 D0 u - c3 u_z, coeffs from
    ``_forcing_coefficients``."""
    c1, c2, c3 = coeffs
    return c1 * uz - c2 * d0u, c1 * d0u - c3 * uz


# the certified radial grid: Gauss-node counts tried in turn, the rounding
# floor of the Legendre tail per node, and the z-grid cache key of the rung
RADIAL_RUNGS = (12, 16, 24, 32, 48, 64, 96, 128)
_TAIL_ROUNDING = 16.0 * np.finfo(float).eps
_CERTIFIED_NR = "dno_certified_nr"
BVP_MAX_ITER = 60  # GMRES sweeps a BVP solve may take, unrestarted


def solve_flattened_bvp(zgrid: SpectralGrid, eta_hat: np.ndarray,
                        xi_hat: np.ndarray, rgrid: Optional[RadialGrid] = None,
                        tol: float = 1e-12, record: Optional[list] = None):
    """GMRES solve of u = S(F1(eta,u), F2(eta,u), xi); returns (x, K(eta) xi).

    eta_hat, xi_hat and K(eta) xi are half spectra on zgrid.  The periodic
    Neumann problem cannot see k = 0, so coefficient 0 of K(eta) xi is zero
    and the mean of xi has no effect; ``dn_oracle_apply`` completes both in
    closed form.  The unknown is
    x = (u_z, D0 u), nodal values of shape (2, nr, N), and the system is
    x - S(F(eta, x), 0, 0) = S(0, 0, xi), whose right-hand side is the
    closed form ``SolutionOperator.flat``.  Each matvec is one sweep
    (``SolutionOperator.apply``); the trace comes from the converged forcing
    through ``SolutionOperator.trace``, one transform and no sweep.  A
    relative residual above tol after ``BVP_MAX_ITER`` sweeps, or a Krylov
    breakdown, raises ConvergenceError with the sweep count and residual.

    An explicit ``rgrid`` fixes the node count.  Without one the solve climbs
    ``RADIAL_RUNGS`` from the rung the z grid remembers until the converged
    forcing's radial tail is at most max(tol, 16 nr eps), and raises
    ConvergenceError with nr and the tail when 128 nodes miss it.  Each rung
    after the first starts from the previous rung's unknown, interpolated to
    its nodes.  A ``record`` list gets one entry per call: the nr used, its
    radial tail, the sweeps of every rung tried summed, the GMRES relative
    residual, and ``rungs``, one (nr, radial tail, sweeps) per rung tried.
    """
    from .solver import gmres  # solver imports this module

    ik = 1j * zgrid.kr
    eta_v, eta_z = zgrid.to_rvalues(np.stack([eta_hat, ik * eta_hat]))
    if np.min(1.0 + eta_v) <= 0.0:
        raise GeometryError("flattening breaks down: min(1 + eta) <= 0")

    def solve(operator: SolutionOperator, x0: Optional[np.ndarray] = None):
        rgrid = operator.rgrid
        shape = (2, rgrid.nr, zgrid.N)
        coeffs = _forcing_coefficients(rgrid, eta_v, eta_z)
        sweeps = 0

        def state(profiles: np.ndarray) -> np.ndarray:
            profiles[0] *= ik  # (u, D0 u) -> (u_z, D0 u)
            return zgrid.to_rvalues(profiles).ravel()

        def forcing(x: np.ndarray) -> np.ndarray:
            return zgrid.to_rcoeffs(np.stack(_forcing_terms(coeffs, *x.reshape(shape))))

        def matvec(x: np.ndarray) -> np.ndarray:
            nonlocal sweeps
            sweeps += 1
            return x - state(operator.apply(*forcing(x)))

        flat_profiles, flat_trace = operator.flat(xi_hat)
        try:
            x, _, rel = gmres(matvec, state(flat_profiles), rtol=tol,
                              restart=BVP_MAX_ITER, max_iter=BVP_MAX_ITER, x0=x0)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"BVP solve: Krylov breakdown after {sweeps} sweeps ({exc})"
            ) from exc
        if rel > tol:
            raise ConvergenceError(
                f"BVP solve: relative residual {rel:.3e} > tol {tol:g} after "
                f"{sweeps} sweeps; eta may be too large"
            )
        F = forcing(x)
        tail = rgrid.legendre_tail(F)
        info = {"nr": rgrid.nr, "radial_tail": tail, "sweeps": sweeps,
                "relative_residual": rel, "rungs": [(rgrid.nr, tail, sweeps)]}
        return x.reshape(shape), -(ik * (operator.trace(*F) + flat_trace)), info

    if rgrid is not None:
        x, K, info = solve(_operator_for(zgrid, rgrid.nr))
    else:
        start = zgrid._cache.get(_CERTIFIED_NR, RADIAL_RUNGS[0])
        rungs, x = [], None
        for nr in RADIAL_RUNGS[RADIAL_RUNGS.index(start):]:
            operator = _operator_for(zgrid, nr)
            # an escalated rung starts from the coarser rung's solution
            x0 = None if x is None else np.matmul(
                coarse.interp_to(operator.rgrid.r), x).ravel()
            x, K, info = solve(operator, x0)
            rungs += info["rungs"]
            bound = max(tol, _TAIL_ROUNDING * nr)
            if info["radial_tail"] <= bound:
                break
            coarse = operator.rgrid
            # the ladder never returns to a rung it left
            zgrid._cache.pop(("dno_operator", nr), None)
        else:
            raise ConvergenceError(
                f"BVP solve: radial tail {info['radial_tail']:.3e} > "
                f"{bound:.1e} at nr = {nr}, the finest radial grid; the "
                "forcing is too steep in r"
            )
        zgrid._cache[_CERTIFIED_NR] = nr
        info["rungs"] = rungs
        info["sweeps"] = sum(sweeps for _, _, sweeps in rungs)
    if record is not None:
        record.append(info)
    return x, K


def _constant_response(zgrid: SpectralGrid, eta_hat: np.ndarray) -> np.ndarray:
    """K(eta) 1 by the second-order expansion, as a half spectrum:

        2 - 2 K0 eta + (eta^2)_zz - K0 eta^2 + 2 K0 (eta K0 eta),

    with K0 = f(D) and d^2/dz^2 from the grid's half-spectrum table
    (``SpectralGrid.half_symbols``, Nyquist's d^2/dz^2 zeroed, as d/dz).  eta
    and K0 eta are refined to the padded grid in one transform and their two
    products projected back in one, so the products are exact."""
    f, _, d2 = zgrid.half_symbols
    eta, k0_eta = zgrid.refine_to_values(np.stack([eta_hat, f * eta_hat]))
    eta2, eta_k0_eta = zgrid.project_to_coeffs(np.stack([eta * eta, eta * k0_eta]))
    out = (d2 - f) * eta2 + 2.0 * f * (eta_k0_eta - eta_hat)
    out[0] += 2.0
    return out


def dn_oracle_apply(zgrid: SpectralGrid, eta_hat: np.ndarray,
                    rgrid: Optional[RadialGrid] = None, tol: float = 1e-12,
                    record: Optional[list] = None
                    ) -> Callable[[np.ndarray], np.ndarray]:
    """K(eta) as a callable on half spectra, backed by the BVP solve.

    Each call is one ``solve_flattened_bvp`` on ``rgrid``, or on the
    certified radial grid when rgrid is None; ``record`` gets its entry.

    The periodic Neumann problem cannot see k = 0: the box mean of xi
    vanishes under d/dz, and the trace derivative carries no mean.  On the
    line the operator is smooth there (f(0) = 2), so both lost pieces come
    from the second-order expansion in closed form, from K(eta) 1
    (``_constant_response``, two transforms once per eta): the whole of
    K(eta) xibar for the mean xibar = c_0 is xibar K(eta) 1, and coefficient
    0 of K(eta) xi' for the mean-free part xi' is

        -2 <eta K0 xi'> + <eta^2 xi'_zz> - <eta^2 K0 xi'> + 2 <eta K0 (eta K0 xi')>,

    which, K0 and d^2/dz^2 being symmetric, is <xi' K(eta) 1>: one inner
    product of half spectra per call, no transform.  Every other coefficient
    of the output is the BVP's own, so it stays an independent check of the
    expansion.
    """
    response = _constant_response(zgrid, eta_hat)
    # mean(a b) of real fields from their half spectra (Parseval on N points)
    weight = np.full(response.size, 2.0)
    weight[[0, -1]] = 1.0
    weighted = weight * np.conj(response)

    def apply(xi_hat: np.ndarray) -> np.ndarray:
        _, out = solve_flattened_bvp(zgrid, eta_hat, xi_hat, rgrid=rgrid,
                                     tol=tol, record=record)
        out += xi_hat[0].real * response
        # <xi K(eta) 1>: the mean-free part's coefficient 0 and xibar's at once
        out[0] = np.sum(weighted * xi_hat).real
        return out

    return apply
