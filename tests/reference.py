"""Reference implementations that the tests compare the package against."""

from typing import Callable, Optional

import numpy as np

from ferrojet.operators import _dz, dn0_apply, dn1_apply, dn2_apply, dn_expansion


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


def kinetic_term2_alt(grid, eta) -> np.ndarray:
    """Equivalent quadratic kinetic form written through K1 (consistency check)."""
    ez = _dz(grid, eta)
    k0e = dn0_apply(grid, eta)
    return 0.5 * (
        grid.product_values([ez, ez])
        - grid.product_values([k0e, k0e])
        + dn0_apply(grid, grid.product_values([eta, eta]))
        + 2.0 * dn1_apply(grid, eta, eta)
    )


def kinetic_term3_alt(grid, eta) -> np.ndarray:
    """Equivalent cubic kinetic form written through K1, K2 (consistency check)."""
    ez = _dz(grid, eta)
    k0e = dn0_apply(grid, eta)
    eta2 = grid.product_values([eta, eta])
    k1_eta = dn1_apply(grid, eta, eta)
    return (
        -grid.product_values([ez, ez, k0e])
        - 0.5 * grid.product_values([k0e, dn0_apply(grid, eta2) + 2.0 * k1_eta])
        + 0.5 * dn1_apply(grid, eta, eta2)
        + dn2_apply(grid, eta, eta, eta)
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
