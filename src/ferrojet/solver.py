"""Newton continuation for the envelope equations and the full equation.

All solves run in symmetric subspaces, which removes the translation (and,
for the complex envelope, phase) kernel directions so the roots are
isolated:

  * even real fields   -- cosine coefficients, length N/2 + 1
    (stationary KdV, full-dispersion KdV, full travelling-wave equation);
  * conjugate-even complex fields -- real transform coefficients, length N
    (full-dispersion NLS, zeta(-Z) = conj zeta(Z)).

Every problem prepares its state once per Newton iterate, and its residual
and Jacobian action (J.v) read that context from coordinates to coordinates
(``SolverProblem``).  Each step is matrix-free: restarted GMRES applies J.v,
right-preconditioned by the exact diagonal of the Jacobian at the flat
state, to the problem's ``linear_rtol``: ``GMRES_RTOL`` where J.v is the
exact derivative, the looser ``QUASI_NEWTON_RTOL`` where it is a model of
it (the BVP oracle's quasi-Newton steps).  A GMRES solve that misses its
``linear_rtol``, by the iteration cap or by a stall at the rounding floor
of J.v, raises ``ConvergenceError`` with the residual history and the
linear-solve records, the failed step's included.
The dense Jacobian (``assemble_jacobian``) serves diagnostics only; a
finite-difference cross-check of the derivative is part of the acceptance
suite.  Damped steps (halving on residual growth, plus a geometry guard for
the full equation) keep the accepted residual history strictly decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import dno
from . import operators as op
from .dispersion import DispersionProfile, Regime, make_profile
from .errors import ConvergenceError, ParameterError, RegimeError
from .spectral import CutoffSpec, SpectralField, SpectralGrid
from .wnl import MagnetizationLaw, WnlCoeffs, kdv_coeffs, nls_coeffs, zeta_kdv, zeta_nls

__all__ = [
    "SolveReport",
    "SolverProblem",
    "solve_stationary_kdv",
    "solve_full_dispersion_kdv",
    "solve_full_dispersion_nls",
    "solve_travelling_wave",
    "reconstruct_eta",
    "rung_status",
    "convergence_study",
    "ConvergenceStudy",
    "check_jacobian",
    "kdv_problem",
    "fd_kdv_problem",
    "fd_nls_problem",
    "travelling_wave_problem",
    "default_scaled_grid",
    "travelling_wave_profile",
    "wave_grid",
    "gmres",
]

DEFAULT_SCALED_L = 40.0
DEFAULT_SCALED_N = 1024
ENVELOPE_EPS_MAX = 0.3  # full-dispersion KdV and NLS solve 0 < eps <= this
TRAVELLING_WAVE_EPS_MAX = 0.5  # the full equation solves 0 < eps <= this


def default_scaled_grid() -> SpectralGrid:
    return SpectralGrid.make(DEFAULT_SCALED_L, DEFAULT_SCALED_N)


# -- symmetric-subspace coordinates -------------------------------------------


class EvenBasis:
    """Even real fields <-> real half-spectrum coefficients (cosine modes)."""

    def __init__(self, grid: SpectralGrid):
        self.grid = grid
        self.dim = grid.N // 2 + 1

    def to_values(self, v: np.ndarray) -> np.ndarray:
        return self.grid.to_rvalues(np.asarray(v))

    def to_coords(self, values: np.ndarray) -> np.ndarray:
        return self.grid.to_rcoeffs(values).real

    def field(self, v: np.ndarray) -> SpectralField:
        return SpectralField.from_values(self.grid, self.to_values(v))


class ConjugateEvenBasis:
    """zeta(-Z) = conj zeta(Z) fields <-> real full-FFT coefficients."""

    def __init__(self, grid: SpectralGrid):
        self.grid = grid
        self.dim = grid.N

    def to_values(self, v: np.ndarray) -> np.ndarray:
        return self.grid.to_values(np.asarray(v, dtype=complex))

    def to_coords(self, values: np.ndarray) -> np.ndarray:
        return self.grid.to_coeffs(values).real

    def field(self, v: np.ndarray) -> SpectralField:
        return SpectralField.from_coeffs(self.grid, np.asarray(v, dtype=complex))


# -- generic Newton driver -----------------------------------------------------

# GMRES stops at GMRES_RTOL * |r|.  Much below 1e-12 it stagnates at the
# attainable accuracy of the rounded J.v, and stops at the first restart
# that does not lower the true residual.
GMRES_RTOL = 1e-12
# The oracle's quasi-Newton steps pair the oracle's residual with the
# order-2 expansion's J.v, so each outer step contracts only by the model
# mismatch: by a factor of at least 3.1e-4 (at gamma = 5, eps = 0.05) over
# the oracle solves measured, gamma 3 to 15 and eps 0.025 to 0.3.  A step
# solved far below that buys no outer progress (Dembo, Eisenstat & Steihaug,
# SIAM J. Numer. Anal. 19, 1982): at 1e-4 every solve measured kept its
# Newton iterations and BVP solves on about half the GMRES iterations.
QUASI_NEWTON_RTOL = 1e-4
GMRES_RESTART = 60
GMRES_MAX_ITER = 240
GMRES_BLOCK = 16  # Krylov basis rows allocated at a time
MIN_DAMPING = 2.0**-10  # the smallest step fraction a damped Newton step tries
NEWTON_MAX_ITER = 40  # stationary KdV and the travelling-wave equation
ENVELOPE_MAX_ITER = 25  # full-dispersion KdV and NLS
FLAT_STATE_RATIO = 0.5  # a converged solve below this amplitude_ratio found eta = 0
JACOBIAN_CHECK_DIRS = 5  # random directions ``check_jacobian`` tries


def _combine(c: np.ndarray, rows: list) -> np.ndarray:
    """c @ V for a basis V of len(c) rows kept as row blocks of
    ``GMRES_BLOCK`` rows (the last one possibly shorter), one product per
    block."""
    out = c[:GMRES_BLOCK] @ rows[0]
    for i, Vb in enumerate(rows[1:], 1):
        out += c[i * GMRES_BLOCK:(i + 1) * GMRES_BLOCK] @ Vb
    return out


def gmres(matvec: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
          rtol: float, restart: int, max_iter: int,
          x0: Optional[np.ndarray] = None):
    """Restarted GMRES for ``matvec(x) = b`` from x0, or from x = 0 when x0 is
    None (Saad & Schultz 1986).

    Arnoldi with classical Gram-Schmidt applied twice and Givens rotations;
    each restart recomputes the true residual, which is also the one
    returned: ``(x, iterations, |b - matvec(x)| / |b|)``.  The Krylov basis
    is allocated as the Arnoldi process reaches it, ``GMRES_BLOCK`` rows at
    a time (a cycle's last block only as long as the cycle allows), and the
    row after a cycle's last, which nothing reads, is never formed: a cycle
    that stops after j iterations allocates j rows rounded up to a whole
    block, not ``restart + 1``.
    Gram-Schmidt and the update run block by block, so a cycle within one
    block computes what a preallocated basis would, bit for bit.  A starting
    guess costs one matvec for its residual b - matvec(x0) and returns at once,
    with 0 iterations, when that already meets rtol |b|.  A restart whose
    true residual does not fall below the best so far means GMRES has
    reached the rounding floor of ``matvec``: it stops there and returns the
    best x, short of ``max_iter``.  Raises ``LinAlgError`` when the Krylov
    space exposes an exactly singular map.
    """
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
        V = []  # the basis rows filled so far, one view per block
        H = np.zeros((m + 1, m))
        cs, sn, g = np.zeros(m), np.zeros(m), np.zeros(m + 1)
        w, wnorm, g[0] = r, beta, beta
        for j in range(m):
            if j % GMRES_BLOCK == 0:  # the basis reaches a new block
                block = np.empty((min(GMRES_BLOCK, m - j), b.size))
                V.append(block[:0])
            V[-1] = block[: j % GMRES_BLOCK + 1]
            np.divide(w, wnorm, out=V[-1][-1])
            w = matvec(V[-1][-1])
            h = np.concatenate([Vb @ w for Vb in V])
            w = w - _combine(h, V)
            h2 = np.concatenate([Vb @ w for Vb in V])
            w = w - _combine(h2, V)
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
            wnorm = col[j + 1]
        k = j + 1
        x_new = x + _combine(np.linalg.solve(np.triu(H[:k, :k]), g[:k]), V)
        r_new = b - matvec(x_new)
        beta_new = float(np.linalg.norm(r_new))
        if not beta_new < beta:  # stalled (nan included): keep the best
            break
        x, r, beta = x_new, r_new, beta_new
    return x, its, beta / bnorm


@dataclass
class SolverProblem:
    """Residual map in subspace coordinates plus its Jacobian action.

    ``prepare(v)`` builds the context of the state v once per iterate (the
    state refined onto the padded grid, or the travelling-wave
    linearisation); ``residual(ctx)`` and ``jv_batch(ctx, W)`` read it, the
    rows of W being directions, so one call applies J to a batch.
    ``flat_diagonal`` is the diagonal of J(0), which is diagonal in each
    basis, in closed form: the Newton preconditioner.  ``linear_rtol`` is
    the relative residual each Newton step's GMRES solve must reach:
    ``GMRES_RTOL`` when ``jv_batch`` is the residual's exact derivative,
    looser when it is only a model of it.  ``context`` keeps
    the last context, so the Newton step at an accepted trial point reuses
    the one its residual built.  ``diagnostics`` holds
    what the problem records as it runs; the solve's report carries it.
    """

    basis: object
    prepare: Callable[[np.ndarray], object]
    residual: Callable[[object], np.ndarray]
    jv_batch: Callable[[object, np.ndarray], np.ndarray]
    flat_diagonal: np.ndarray
    geometry_ok: Optional[Callable[[np.ndarray], bool]] = None
    linear_rtol: float = GMRES_RTOL
    diagnostics: dict = field(default_factory=dict)
    _last: tuple = field(default=(), init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def context(self, v: np.ndarray):
        """``prepare(v)``, run once for consecutive calls at the same v."""
        if not (self._last and np.array_equal(self._last[0], v)):
            self._last = ()  # free the previous context first: memory holds one
            self._last = (np.array(v), self.prepare(v))
        return self._last[1]

    def residual_at(self, v: np.ndarray) -> np.ndarray:
        return self.residual(self.context(v))

    def linearize(self, v: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """W -> J(v) W on rows of W."""
        ctx = self.context(v)
        return lambda W: self.jv_batch(ctx, W)

    # tests only; stays here while the benchmark tracer patches it by name
    def assemble_jacobian(self, v: np.ndarray) -> np.ndarray:
        """Dense J(v), 512 basis vectors per batch (a diagnostic)."""
        jac, eye, chunk = self.linearize(v), np.eye(self.dim), 512
        return np.hstack([jac(eye[lo:lo + chunk]).T
                          for lo in range(0, self.dim, chunk)])


@dataclass
class SolveReport:
    """Outcome of one Newton run.

    ``iterations`` counts the iterates, the seed included: it is
    ``len(residual_history)``, whether or not the run converged.
    """

    converged: bool
    iterations: int
    final_residual: float
    final_residual_l2: float
    solution: SpectralField
    epsilon: float
    branch: str
    residual_history: list
    diagnostics: dict = field(default_factory=dict)


def _res_norms(grid: SpectralGrid, basis, r: np.ndarray):
    vals = basis.to_values(r)
    return float(np.max(np.abs(vals))), float(
        np.sqrt(np.sum(np.abs(vals) ** 2) * grid.dz)
    )


def _flat_diagonal(problem: SolverProblem) -> np.ndarray:
    """The problem's diagonal of J(0), zeros set to one."""
    d = problem.flat_diagonal
    return np.where(d == 0.0, 1.0, d)


def _newton_step(problem: SolverProblem, v: np.ndarray, r: np.ndarray,
                 precond: np.ndarray):
    """J(v)^-1 r by GMRES right-preconditioned by the flat-state diagonal, to
    the problem's ``linear_rtol``, and its ``linear_solves`` entry (the
    iterations, the relative residual reached and the rtol asked)."""
    jac = problem.linearize(v)
    rtol = problem.linear_rtol
    try:
        y, its, rel = gmres(lambda u: jac((u / precond)[None, :])[0], r,
                            rtol, GMRES_RESTART, GMRES_MAX_ITER)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"singular Jacobian: {exc}") from exc
    return y / precond, {"iterations": its, "relative_residual": rel, "rtol": rtol}


def _check_tol(tol: float) -> None:
    """A Newton tolerance is finite and positive (NaN fails too): inf would
    accept the seed, and 0 or less is never met."""
    if not 0.0 < tol < np.inf:
        raise ParameterError(f"tol must be finite and positive, got {tol}")


def _newton(problem: SolverProblem, v0: np.ndarray, tol: float,
            max_iter: int, epsilon: float, branch: str) -> SolveReport:
    _check_tol(tol)
    v = np.array(v0, dtype=float)
    grid = problem.basis.grid
    precond = _flat_diagonal(problem)
    r = problem.residual_at(v)
    rmax, rl2 = _res_norms(grid, problem.basis, r)
    history, linear_solves = [rmax], []
    for _ in range(max_iter):
        if rmax <= tol:
            break
        step, trace = _newton_step(problem, v, r, precond)
        linear_solves.append(trace)
        rel, lin_its = trace["relative_residual"], trace["iterations"]
        if not rel <= problem.linear_rtol:  # nan is a miss
            why = (f"stalled at {rel:.3e}" if lin_its < GMRES_MAX_ITER else
                   f"missed rtol {problem.linear_rtol:g}: "
                   f"relative residual {rel:.3e}")
            raise ConvergenceError(f"GMRES {why} after {lin_its} iterations",
                                   history, linear_solves)
        s = 1.0
        while True:
            v_try = v - s * step
            if problem.geometry_ok is None or problem.geometry_ok(v_try):
                r_try = problem.residual_at(v_try)
                rmax_try, rl2_try = _res_norms(grid, problem.basis, r_try)
                if rmax_try < rmax or rmax_try <= tol:
                    break
                failure = f"Newton stagnation: residual stuck at {rmax:.3e}"
            else:
                failure = "step damping hit the geometry guard floor"
            s *= 0.5
            if s < MIN_DAMPING:
                raise ConvergenceError(failure, history, linear_solves)
        v, r, rmax, rl2 = v_try, r_try, rmax_try, rl2_try
        history.append(rmax)
    return SolveReport(
        converged=rmax <= tol,
        iterations=len(history),
        final_residual=rmax,
        final_residual_l2=rl2,
        solution=problem.basis.field(v),
        epsilon=epsilon,
        branch=branch,
        residual_history=history,
        diagnostics={"linear_solves": linear_solves, **problem.diagnostics},
    )


# -- problem factories ---------------------------------------------------------


def _quadratic_even_problem(grid: SpectralGrid, sym: np.ndarray,
                            quad) -> SolverProblem:
    """Even-subspace problem sym * v + quad * coords(u^2), quad per mode or not;
    v is u's half spectrum, and its context is (v, u on the padded grid).
    J(0) is sym."""
    basis = EvenBasis(grid)

    def quadratic(fine):
        return quad * grid.project_to_coeffs(fine).real

    def residual(ctx):
        v, u_f = ctx
        return sym * v + quadratic(u_f * u_f)

    def jv_batch(ctx, W):
        _, u_f = ctx
        return sym * W + 2.0 * quadratic(u_f * grid.refine_to_values(W))

    return SolverProblem(basis=basis,
                         prepare=lambda v: (v, grid.refine_to_values(v)),
                         residual=residual, jv_batch=jv_batch, flat_diagonal=sym)


def kdv_problem(coeffs: WnlCoeffs, grid: SpectralGrid) -> SolverProblem:
    """Stationary KdV: p zeta'' + 2 c0^2 zeta + 2 c0^2 d0 zeta^2 = 0."""
    sym = -coeffs.kdv_dispersion * grid.kr**2 + 2.0 * coeffs.c0_squared
    return _quadratic_even_problem(grid, sym, 2.0 * coeffs.c0_squared * coeffs.d0)


def fd_kdv_problem(gamma: float, law: MagnetizationLaw, epsilon: float,
                   grid: SpectralGrid, delta: float = 0.5) -> SolverProblem:
    """Full-dispersion KdV: eps^-2 g(eps D) + 2 c0^2 + quadratic cutoff term."""
    profile = make_profile(gamma)
    if profile.regime is not Regime.STRONG:
        raise RegimeError("full-dispersion KdV needs the strong regime")
    coeffs = kdv_coeffs(gamma, law)
    sym = profile.g_scaled(epsilon, grid.kr) + 2.0 * coeffs.c0_squared
    chi0 = CutoffSpec(delta, profile.omega).chi0(epsilon * grid.kr)
    quad = 2.0 * coeffs.c0_squared * coeffs.d0
    return _quadratic_even_problem(grid, sym, quad * chi0)


def fd_nls_problem(profile: DispersionProfile, coeffs: WnlCoeffs, epsilon: float,
                   grid: SpectralGrid, delta: Optional[float] = None) -> SolverProblem:
    """Full-dispersion NLS: eps^-2 g(w + eps D) + a2 - a3 chi0 |z|^2 z, with
    the weak-regime ``profile`` and its ``nls_coeffs``; J(0) is the symbol."""
    if delta is None:
        delta = profile.omega / 6.0
    basis = ConjugateEvenBasis(grid)
    k = grid.k
    sym = profile.g(profile.omega + epsilon * k) / epsilon**2 + coeffs.a2
    chi0 = CutoffSpec(delta, profile.omega).chi0(epsilon * k)
    a3 = coeffs.a3

    def cubic(fine):
        return a3 * chi0 * grid.project_to_coeffs(fine).real

    def prepare(v):  # v is z's real full spectrum; z, |z|^2, z^2 padded
        z_f = grid.refine_to_values(v)
        return v, z_f, (z_f * z_f.conj()).real, z_f * z_f

    def residual(ctx):
        v, z_f, abs2_f, _ = ctx
        return sym * v - cubic(abs2_f * z_f)

    def jv_batch(ctx, W):
        _, _, abs2_f, z2_f = ctx
        w_f = grid.refine_to_values(W)
        return sym * W - cubic(2.0 * abs2_f * w_f + z2_f * w_f.conj())

    return SolverProblem(basis=basis, prepare=prepare,
                         residual=residual, jv_batch=jv_batch, flat_diagonal=sym)


def travelling_wave_problem(gamma: float, law: MagnetizationLaw, c2: float,
                            grid: SpectralGrid,
                            dn_oracle: bool = False) -> SolverProblem:
    """Full truncated equation P(eta) - c^2 Q(eta) = 0 in the even subspace.

    ``prepare`` evaluates K(eta) xi once and builds the residual with the
    J.v context, on the padded grid of ``op.KineticLinearization``.  K is the
    order-2 expansion K0 + K1 + K2, or with ``dn_oracle`` the BVP oracle on
    its certified radial grid, whose solves are recorded in
    ``diagnostics["bvp_solves"]``.  In oracle mode each step is a
    quasi-Newton step: dG/dP is taken at the oracle's P, and the dK/deta
    part of the derivative is the expansion's (the two operators differ at
    cubic order).  The outer iteration then contracts only by that model
    mismatch, so the problem's ``linear_rtol`` is ``QUASI_NEWTON_RTOL``
    there, and ``GMRES_RTOL`` with the exact expansion.  At the flat state
    xi = 0, so P = 0 exactly and the expansion gives it.  J(0) is
    gamma nu'(1) - 1 - D^2 - c^2 K0 on the half spectrum (Nyquist's D^2
    zeroed, as d/dz), so the preconditioner evaluates no K, and
    ``bvp_solves`` gets one entry per residual evaluation.
    """
    basis = EvenBasis(grid)
    bvp_solves = []

    def prepare(v):
        dn_apply = None
        if dn_oracle and np.any(v):  # at the flat state xi = 0, so P = 0
            dn_apply = dno.dn_oracle_apply(grid, v, record=bvp_solves)
        kin = op.KineticLinearization(grid, v, dn_apply)
        press, press_fields = op.pressure_jacobian_fields(kin.surface, gamma, law)
        return kin.project(press - c2 * kin.value_f).real, press_fields, kin

    def jv_batch(ctx, W):
        _, press, kin = ctx
        return kin.apply(W, press, c2).real

    def geometry_ok(v):
        return bool(np.min(1.0 + basis.to_values(v)) > 0.0)

    S, _, D2 = grid.half_symbols
    flat = gamma * law.nu_prime(1.0) - 1.0 - D2 - c2 * S
    return SolverProblem(basis=basis, prepare=prepare, residual=lambda ctx: ctx[0],
                         jv_batch=jv_batch, flat_diagonal=flat,
                         geometry_ok=geometry_ok,
                         linear_rtol=QUASI_NEWTON_RTOL if dn_oracle else GMRES_RTOL,
                         diagnostics={"bvp_solves": bvp_solves} if dn_oracle else {})


# -- public solvers -------------------------------------------------------------


def solve_stationary_kdv(coeffs: WnlCoeffs, grid: Optional[SpectralGrid] = None,
                         seed: Optional[np.ndarray] = None) -> SolveReport:
    """Newton solve of the stationary KdV equation from ``seed`` or 0.9 zeta_KdV,
    to a residual of 1e-11."""
    if grid is None:
        grid = default_scaled_grid()
    problem = kdv_problem(coeffs, grid)
    if seed is None:
        seed = 0.9 * zeta_kdv(grid.z, coeffs)
    v0 = problem.basis.to_coords(np.asarray(seed, dtype=float))
    return _newton(problem, v0, 1e-11, NEWTON_MAX_ITER, epsilon=0.0, branch="kdv")


def solve_full_dispersion_kdv(gamma: float, law: MagnetizationLaw,
                              epsilon: float,
                              grid: Optional[SpectralGrid] = None,
                              delta: float = 0.5, tol: float = 1e-10) -> SolveReport:
    """Solve the full-dispersion KdV equation, seeded by the explicit envelope."""
    if not (0.0 < epsilon <= ENVELOPE_EPS_MAX):
        raise ParameterError(f"full-dispersion KdV is solved for 0 < eps <= "
                             f"{ENVELOPE_EPS_MAX}, got {epsilon}")
    if grid is None:
        grid = default_scaled_grid()
    coeffs = kdv_coeffs(gamma, law)
    problem = fd_kdv_problem(gamma, law, epsilon, grid, delta=delta)
    seed = zeta_kdv(grid.z, coeffs)
    v0 = problem.basis.to_coords(seed)
    rep = _newton(problem, v0, tol, ENVELOPE_MAX_ITER, epsilon=epsilon, branch="kdv")
    sol = rep.solution
    rep.diagnostics.update(
        deviation_from_kdv=float(np.max(np.abs(sol.values - seed))),
        even_defect=sol.shift_reflect_defect(),
    )
    return rep


def solve_full_dispersion_nls(gamma: float, law: MagnetizationLaw,
                              epsilon: float, sign: int = +1,
                              grid: Optional[SpectralGrid] = None,
                              delta: Optional[float] = None,
                              tol: float = 1e-10) -> SolveReport:
    """Solve the full-dispersion NLS equation for the +- branch."""
    if sign not in (+1, -1):
        raise ParameterError("branch sign must be +1 or -1")
    if not (0.0 < epsilon <= ENVELOPE_EPS_MAX):
        raise ParameterError(f"full-dispersion NLS is solved for 0 < eps <= "
                             f"{ENVELOPE_EPS_MAX}, got {epsilon}")
    if grid is None:
        grid = default_scaled_grid()
    profile = make_profile(gamma)
    coeffs = nls_coeffs(gamma, law, profile)
    problem = fd_nls_problem(profile, coeffs, epsilon, grid, delta=delta)
    seed = sign * zeta_nls(grid.z, coeffs)
    v0 = problem.basis.to_coords(seed.astype(complex))
    rep = _newton(problem, v0, tol, ENVELOPE_MAX_ITER, epsilon=epsilon,
                  branch="nls_plus" if sign > 0 else "nls_minus")
    sol = rep.solution
    rep.diagnostics.update(
        deviation_from_nls=float(np.max(np.abs(sol.values - seed))),
        subspace_defect=float(np.max(np.abs(sol.coeffs.imag))),
    )
    return rep


def travelling_wave_profile(gamma: float) -> DispersionProfile:
    """``make_profile(gamma)`` for the travelling-wave solver: ``RegimeError``
    at gamma = 9, where no solitary wave continues from an envelope."""
    profile = make_profile(gamma)
    if not profile.solvable:
        raise RegimeError("gamma = 9 admits no solitary-wave continuation")
    return profile


def wave_grid(profile: DispersionProfile, epsilon: float,
              min_box: float) -> SpectralGrid:
    """The travelling-wave solver's default grid at eps: L >= max(min_box / eps,
    min_box), on the omega lattice in the weak regime, and the smallest
    N >= 256 whose Nyquist wavenumber reaches k_target."""
    L = max(min_box / epsilon, min_box)
    k_target = 4.0
    if profile.regime is not Regime.STRONG:
        # resolve the second carrier harmonic with margin.  The grid then ends
        # near the 3 omega band, not beyond it: at gamma = 15, 3 omega = 8.026
        # sits at the Nyquist wavenumber 8.034 (eps <= 0.1), so that band is cut
        L = SpectralGrid.commensurate_length(profile.omega, L)
        k_target = 2.0 * profile.omega + 2.5
    n = 1 << int(np.ceil(np.log2(2.0 * L * k_target / np.pi)))
    return SpectralGrid.make(L, max(n, 256))


def reconstruct_eta(zeta: SpectralField, epsilon: float, regime: Regime,
                    omega: float, target_grid: SpectralGrid) -> SpectralField:
    """Surface profile from a scaled envelope.

    Strong regime: eta(z) = eps^2 zeta(eps z); weak regime:
    eta(z) = eps Re(zeta(eps z) exp(i omega z)), even when zeta is in the
    conjugate-even subspace and omega sits on the target lattice.
    """
    zt = target_grid.z
    env = zeta.evaluate_at(epsilon * zt)
    if regime is Regime.STRONG:
        vals = epsilon**2 * np.real(env)
    else:
        target_grid.mode_index(omega)  # raises GridError if incommensurate
        vals = epsilon * np.real(env * np.exp(1j * omega * zt))
    return SpectralField.from_values(target_grid, vals)


def solve_travelling_wave(gamma: float, law: MagnetizationLaw, epsilon: float,
                          dn_oracle: bool = False,
                          grid: Optional[SpectralGrid] = None,
                          tol: float = 1e-10) -> SolveReport:
    """Newton solve of the full truncated travelling-wave equation.

    Seeded by the explicit leading-order profile evaluated in closed form on
    the grid: eps^2 zeta_KdV(eps z) (strong regime) or
    eps zeta_NLS(eps z) cos(omega z) (weak regime, where omega must sit on
    the grid's lattice or ``GridError`` is raised).  The default grid covers
    at least the envelope solvers' box, eps z in [-DEFAULT_SCALED_L,
    DEFAULT_SCALED_L).  Reports the normalised
    deviation ||eta - seed||_inf / eps^2 (strong) or / eps (weak) alongside
    the solve diagnostics.  With ``dn_oracle`` K(eta) is the BVP oracle on
    its certified radial grid, and ``diagnostics["bvp_solves"]`` has one
    entry per BVP solve (nr, radial tail, sweeps, relative residual, and the
    (nr, radial tail, sweeps) of every rung tried); its Newton steps are
    quasi-Newton, solved to ``QUASI_NEWTON_RTOL``, which each
    ``diagnostics["linear_solves"]`` entry records as its ``rtol``.
    """
    if not (0.0 < epsilon <= TRAVELLING_WAVE_EPS_MAX):  # NaN fails too
        raise ParameterError(f"the travelling-wave equation is solved for "
                             f"0 < eps <= {TRAVELLING_WAVE_EPS_MAX}, got {epsilon}")
    profile = travelling_wave_profile(gamma)
    c2 = profile.c0_squared * (1.0 - epsilon**2)
    if grid is None:
        grid = wave_grid(profile, epsilon, DEFAULT_SCALED_L)

    z = grid.z
    if profile.regime is Regime.STRONG:
        seed = epsilon**2 * zeta_kdv(epsilon * z, kdv_coeffs(gamma, law))
        power = 2
    else:
        grid.mode_index(profile.omega)  # raises GridError if incommensurate
        coeffs = nls_coeffs(gamma, law, profile)
        seed = epsilon * zeta_nls(epsilon * z, coeffs) * np.cos(profile.omega * z)
        power = 1

    problem = travelling_wave_problem(gamma, law, c2, grid, dn_oracle)
    v0 = problem.basis.to_coords(seed)
    rep = _newton(problem, v0, tol, NEWTON_MAX_ITER, epsilon=epsilon, branch="gzcs")
    sol = rep.solution
    seed_amplitude = float(np.max(np.abs(seed)))
    rep.diagnostics.update(
        normalized_deviation=float(np.max(np.abs(sol.values - seed)))
        / epsilon**power,
        seed_amplitude=seed_amplitude,
        # below FLAT_STATE_RATIO: the solve fell to the flat state, not the wave
        amplitude_ratio=sol.max_abs() / seed_amplitude,
        even_defect=sol.shift_reflect_defect(),
        regime=profile.regime.value,
    )
    return rep


# -- convergence studies ---------------------------------------------------------


def rung_status(rep: SolveReport) -> str:
    """The status of one rung of an epsilon ladder: "converged",
    "flat_state" or "not_converged".

    A converged gzcs solve whose ``amplitude_ratio`` is below
    FLAT_STATE_RATIO found the flat state, not the wave; a report without
    the ratio (the envelope solvers') counts as a wave.
    """
    if not rep.converged:
        return "not_converged"
    if rep.diagnostics.get("amplitude_ratio", 1.0) < FLAT_STATE_RATIO:
        return "flat_state"
    return "converged"


@dataclass
class ConvergenceStudy:
    epsilons: list
    errors: list
    residuals: list
    converged: list
    slope: float
    fit_residual: float
    complete: bool


def convergence_study(epsilons: Sequence[float], errors: Sequence[float],
                      residuals: Sequence[float],
                      converged: Sequence[bool]) -> ConvergenceStudy:
    """Fit the error slope over the rungs of an epsilon ladder.

    One entry per rung in each sequence; a failed rung carries NaN for its
    error and residual.  Only rungs that converged (``rung_status``) with a
    finite error enter the fit, and the ladder is complete when every rung
    does.
    """
    if len(epsilons) < 3:
        raise ParameterError("a convergence study needs at least 3 epsilons")
    ok = [i for i, f in enumerate(converged) if f and np.isfinite(errors[i])]
    complete = len(ok) == len(epsilons)
    if len(ok) >= 2:
        x = np.log([epsilons[i] for i in ok])
        y = np.log([errors[i] for i in ok])
        coef, res_ls = np.polyfit(x, y, 1, full=True)[:2]
        slope = float(coef[0])
        fit_residual = float(res_ls[0]) if len(res_ls) else 0.0
    else:
        slope, fit_residual = np.nan, np.nan
    return ConvergenceStudy(
        epsilons=list(epsilons), errors=list(errors), residuals=list(residuals),
        converged=list(converged), slope=slope, fit_residual=fit_residual,
        complete=complete,
    )


def check_jacobian(problem: SolverProblem, v: np.ndarray, seed: int = 0) -> float:
    """Worst relative error of J.v vs central differences of step 1e-6 max(1, |v|),
    over ``JACOBIAN_CHECK_DIRS`` random unit directions."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    scale = max(1.0, float(np.max(np.abs(v))))
    jac = problem.linearize(v)
    for _ in range(JACOBIAN_CHECK_DIRS):
        w = rng.standard_normal(problem.dim)
        w /= np.linalg.norm(w)
        jw = jac(w[None, :])[0]
        step = 1e-6 * scale
        fd = (problem.residual_at(v + step * w)
              - problem.residual_at(v - step * w)) / (2.0 * step)
        err = np.linalg.norm(fd - jw) / max(np.linalg.norm(jw), 1e-300)
        worst = max(worst, float(err))
    return worst
