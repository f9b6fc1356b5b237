"""Reference implementations that the tests compare the package against."""

from typing import Callable, Optional

import numpy as np


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
