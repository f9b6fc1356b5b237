"""Reference implementations that the tests compare the package against."""

import math
from typing import Callable, Optional

import numpy as np

from ferrojet.operators import dn0_apply, dn1_apply, dn2_apply, dn_expansion
from ferrojet.specfun import (
    SEAM_K,
    _I_SERIES_TERMS,
    _K0_COEFFS,
    _K1_COEFFS,
    _K_SERIES_TERMS,
    _SERIES_RTOL,
)


def gmres(matvec: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
          rtol: float, restart: int, max_iter: int,
          x0: Optional[np.ndarray] = None):
    """``solver.gmres`` with its whole Krylov basis, ``restart + 1`` rows,
    allocated up front at each restart; same arguments and results."""
    x = np.zeros_like(b)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, 0, 0.0
    r = b
    if x0 is not None:
        x, r = x0, b - matvec(x0)
    its, beta = 0, float(np.linalg.norm(r))
    while beta > rtol * bnorm and its < max_iter:
        m = min(restart, max_iter - its)
        V = np.zeros((m + 1, b.size))
        H = np.zeros((m + 1, m))
        cs, sn, g = np.zeros(m), np.zeros(m), np.zeros(m + 1)
        V[0], g[0] = r / beta, beta
        for j in range(m):
            w = matvec(V[j])
            h = V[: j + 1] @ w
            w = w - h @ V[: j + 1]
            h2 = V[: j + 1] @ w
            w = w - h2 @ V[: j + 1]
            col = np.append(h + h2, np.linalg.norm(w))
            for i in range(j):
                col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                      cs[i] * col[i + 1] - sn[i] * col[i])
            rho = np.hypot(col[j], col[j + 1])
            cs[j], sn[j] = col[j] / rho, col[j + 1] / rho
            H[:j, j], H[j, j] = col[:j], rho
            g[j + 1], g[j] = -sn[j] * g[j], cs[j] * g[j]
            its += 1
            if abs(g[j + 1]) <= rtol * bnorm or col[j + 1] == 0.0:
                break
            V[j + 1] = w / col[j + 1]
        k = j + 1
        x_new = x + np.linalg.solve(np.triu(H[:k, :k]), g[:k]) @ V[:k]
        r_new = b - matvec(x_new)
        beta_new = float(np.linalg.norm(r_new))
        if not beta_new < beta:  # stalled (nan included): keep the best
            break
        x, r, beta = x_new, r_new, beta_new
    return x, its, beta / bnorm


def dn2_bilinear(grid, ea, eb, xi) -> np.ndarray:
    """The symmetrised bilinear form of K2: dn2_bilinear(grid, eta, eta, xi)
    is ``dn2_apply(grid, eta, xi)``, and 2 dn2_bilinear(grid, eta, rho, xi)
    is K2's derivative along rho."""
    k0xi = dn0_apply(grid, xi)
    xiz = grid.deriv_values(xi)
    xizz = grid.deriv_values(xi, 2)
    t1 = 0.5 * grid.deriv_values(grid.product_values([ea, eb, k0xi]), 2)
    t2 = 0.5 * dn0_apply(grid, grid.product_values([ea, eb, xizz]))
    t3 = 0.5 * grid.deriv_values(grid.product_values([ea, eb, xiz]))
    t4 = -0.5 * dn0_apply(grid, grid.product_values([ea, eb, k0xi]))
    nested_ab = dn0_apply(
        grid, grid.product_values([ea, dn0_apply(grid, grid.product_values([eb, k0xi]))])
    )
    nested_ba = dn0_apply(
        grid, grid.product_values([eb, dn0_apply(grid, grid.product_values([ea, k0xi]))])
    )
    return t1 + t2 + t3 + t4 + 0.5 * (nested_ab + nested_ba)


def kinetic_term2_alt(grid, eta) -> np.ndarray:
    """Equivalent quadratic kinetic form written through K1 (consistency check)."""
    ez = grid.deriv_values(eta)
    k0e = dn0_apply(grid, eta)
    return 0.5 * (
        grid.product_values([ez, ez])
        - grid.product_values([k0e, k0e])
        + dn0_apply(grid, grid.product_values([eta, eta]))
        + 2.0 * dn1_apply(grid, eta, eta)
    )


def kinetic_term3_alt(grid, eta) -> np.ndarray:
    """Equivalent cubic kinetic form written through K1, K2 (consistency check)."""
    ez = grid.deriv_values(eta)
    k0e = dn0_apply(grid, eta)
    eta2 = grid.product_values([eta, eta])
    k1_eta = dn1_apply(grid, eta, eta)
    return (
        -grid.product_values([ez, ez, k0e])
        - 0.5 * grid.product_values([k0e, dn0_apply(grid, eta2) + 2.0 * k1_eta])
        + 0.5 * dn1_apply(grid, eta, eta2)
        + dn2_apply(grid, eta, eta)
    )


def diff_matrix(rgrid) -> np.ndarray:
    """Nodal differentiation matrix of a ``dno.RadialGrid`` (for
    discrete-identity checks)."""
    n, x, bw = rgrid.nr, rgrid.r, rgrid._bw
    D = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                D[i, j] = (bw[j] / bw[i]) / (x[i] - x[j])
    D[np.diag_indices(n)] = -np.sum(D, axis=1)
    return D


def boundary_row(rgrid) -> np.ndarray:
    """Extrapolation row of a ``dno.RadialGrid`` to r = 1 (one-sided
    high-order stencil)."""
    return rgrid.interp_to(np.array([1.0]))[0]


def oracle_k0_completion(grid, eta_hat, xi_hat) -> np.ndarray:
    """What ``dno.dn_oracle_apply`` adds to the BVP's K(eta) xi for the
    k = 0 mode the periodic Neumann problem cannot see, by the nodal
    second-order expansion (its former route): the whole of K(eta) xibar for
    the mean xibar = c_0, plus coefficient 0 of K(eta) xi' for the mean-free
    part xi'.  Half spectra in and out."""
    xibar = float(xi_hat[0].real)
    lost = grid.to_rcoeffs(dn_expansion(
        grid, grid.to_rvalues(eta_hat),
        np.stack([grid.to_rvalues(xi_hat) - xibar, np.full(grid.N, xibar)]), 2))
    out = lost[1]
    out[0] += lost[0, 0]
    return out


def harmonic_solution(z, eta, eta_z, W, waves):
    """(xi, K(eta) xi) in nodal values from an exact axisymmetric potential.

    U(R, Z) = W Z + sum_j a_j I0(k_j R) cos(k_j Z), for (k_j, a_j) in
    ``waves``, is harmonic, and its Stokes stream function
    psi = W R^2/2 - sum_j a_j R I1(k_j R) sin(k_j Z) vanishes on the axis.  On
    the surface R = 1 + eta(z), xi = -psi gives the surface flux, so
    K(eta) xi = -d/dz U(1 + eta(z), z), the chain rule with eta_z.
    """
    from scipy.special import iv

    R = 1.0 + eta
    psi = W * R**2 / 2.0
    dU = np.full_like(z, W)  # d/dz of U(R(z), z)
    for k, a in waves:
        c, s = np.cos(k * z), np.sin(k * z)
        psi -= a * R * iv(1, k * R) * s
        dU += a * k * (iv(1, k * R) * c * eta_z - iv(0, k * R) * s)
    return -psi, -dU


def series_terms(z: float) -> int:
    """``specfun._series_terms`` as its own scalar recurrences, before every
    series went through ``specfun._series``; same argument and result."""
    t = 0.25 * z * z
    term0, term1 = 1.0, 0.5 * z
    total0, total1 = term0, term1
    n_i = _I_SERIES_TERMS
    for m in range(1, _I_SERIES_TERMS):
        term0 *= t / (m * m)
        term1 *= t / (m * (m + 1))
        total0 += term0
        total1 += term1
        if term0 <= _SERIES_RTOL * total0 and term1 <= _SERIES_RTOL * total1:
            n_i = m + 1
            break
    t = min(t, 0.25 * SEAM_K**2)
    term, s0, s1 = 1.0, 0.0, float(_K1_COEFFS[0])
    n_k = _K_SERIES_TERMS
    for m in range(1, _K_SERIES_TERMS):
        term *= t / (m * m)
        d0, d1 = term * _K0_COEFFS[m], term * _K1_COEFFS[m]
        s0 += d0
        s1 += d1
        if d0 <= _SERIES_RTOL * s0 and d1 <= _SERIES_RTOL * abs(s1):
            n_k = m + 1
            break
    return max(n_i, n_k)


def lattice_coeffs() -> np.ndarray:
    """``specfun._LATTICE_COEFFS`` built as its own table: per term m, the
    coefficients of t^m in I0, 2 I1 / z and the K0 and K1 log sums."""
    m = np.arange(_I_SERIES_TERMS)
    fac = np.array([float(math.factorial(j)) for j in range(_I_SERIES_TERMS + 1)])
    k = np.zeros((2, _I_SERIES_TERMS))
    k[:, :_K_SERIES_TERMS] = _K0_COEFFS, _K1_COEFFS
    return np.stack([1.0 / fac[m] ** 2, 1.0 / (fac[m] * fac[m + 1]), *(k / fac[m] ** 2)])


def iv_series_scaled(x: np.ndarray, nu: int) -> np.ndarray:
    """e^-x I_nu(x) by the term recurrence t / (m (m + nu)), t = (x/2)^2,
    each element to its own first term below _SERIES_RTOL of its sum."""
    t = 0.25 * x * x
    term = (0.5 * x) ** nu / math.factorial(nu)
    total = term.copy()
    for m in range(1, _I_SERIES_TERMS):
        term = term * t * (1.0 / (m * (m + nu)))
        total += term
        if np.all(term <= _SERIES_RTOL * total):
            break
    return total * np.exp(-x)


def lv_series(nu: int, x: np.ndarray) -> np.ndarray:
    """L_nu(x) by the term recurrence t / ((m + 1/2)(m + nu + 1/2)),
    t = (x/2)^2 (DLMF 11.2.2), stopped as ``iv_series_scaled``."""
    t = 0.25 * x * x
    # the leading term over Gamma(3/2) Gamma(nu + 3/2) = pi/4, 3 pi/8
    term = (0.5 * x) ** (nu + 1) / ((0.25, 0.375)[nu] * np.pi)
    total = term.copy()
    for m in range(1, 130):
        term = term * t / ((m + 0.5) * (m + nu + 0.5))
        total += term
        if np.all(term <= _SERIES_RTOL * total):
            break
    return total
