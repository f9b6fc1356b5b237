"""Matrix-free Newton steps: GMRES against scipy, steps against the dense solve."""

import time

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, gmres as scipy_gmres

from ferrojet import solver
from ferrojet.errors import ConvergenceError
from ferrojet.spectral import SpectralGrid
from ferrojet.wnl import kdv_coeffs, nls_coeffs, zeta_kdv, zeta_nls

PROBLEMS = ["kdv", "fd_kdv", "fd_nls", "gzcs"]


def make_problem(name, law):
    """A small instance of each Newton problem and an iterate with a real residual."""
    grid = SpectralGrid.make(40.0, 256)
    coeffs = kdv_coeffs(5.0, law)
    if name == "kdv":
        problem = solver.kdv_problem(coeffs, grid)
        return problem, problem.basis.to_coords(0.9 * zeta_kdv(grid.z, coeffs))
    if name == "fd_kdv":
        problem = solver.fd_kdv_problem(5.0, law, 0.1, grid)
        return problem, problem.basis.to_coords(zeta_kdv(grid.z, coeffs))
    if name == "fd_nls":
        n = nls_coeffs(15.0, law)
        problem = solver.fd_nls_problem(15.0, law, 0.1, grid)
        return problem, problem.basis.to_coords(zeta_nls(grid.z, n).astype(complex))
    wave = SpectralGrid.make(200.0, 512)
    problem = solver.travelling_wave_problem(5.0, law, 1.98, wave)
    return problem, problem.basis.to_coords(0.01 * zeta_kdv(0.1 * wave.z, coeffs))


def test_gmres_matches_scipy_on_preconditioned_system():
    rng = np.random.default_rng(7)
    n = 300
    d = np.logspace(0, 3, n)  # A d^-1 = I + (compact part), as for the solvers
    A = np.diag(d) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    exact = np.linalg.solve(A, b)
    for restart in (60, 4):  # one cycle, and several restarts
        y, its, rel = solver.gmres(lambda u: A @ (u / d), b, 1e-12, restart, 500)
        x = y / d
        assert rel <= 1e-12
        assert rel == pytest.approx(np.linalg.norm(b - A @ x) / np.linalg.norm(b))
        M = LinearOperator((n, n), matvec=lambda u: u / d)
        ref, info = scipy_gmres(A, b, M=M, rtol=1e-12, atol=0.0, restart=restart,
                                maxiter=500)
        assert info == 0
        assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(exact)
        assert np.linalg.norm(x - exact) <= 1e-9 * np.linalg.norm(exact)


def test_gmres_zero_rhs_and_iteration_cap():
    x, its, rel = solver.gmres(lambda u: 2.0 * u, np.zeros(5), 1e-12, 5, 10)
    assert its == 0 and rel == 0.0 and not x.any()
    rng = np.random.default_rng(1)
    A = rng.standard_normal((50, 50))
    x, its, rel = solver.gmres(lambda u: A @ u, rng.standard_normal(50),
                               1e-12, 4, 6)
    assert its == 6 and rel > 1e-12


@pytest.mark.parametrize("name", PROBLEMS)
def test_flat_state_jacobian_is_diagonal(name, linear_law):
    problem, _ = make_problem(name, linear_law)
    J0 = problem.assemble_jacobian(np.zeros(problem.dim))
    diag = np.diag(J0)
    assert np.max(np.abs(J0 - np.diag(diag))) <= 1e-13 * np.max(np.abs(diag))
    assert np.min(np.abs(diag)) > 0.0
    precond = solver._flat_diagonal(problem)
    assert np.max(np.abs(precond - diag)) <= 1e-13 * np.max(np.abs(diag))


@pytest.mark.parametrize("name", PROBLEMS)
def test_newton_step_matches_dense_step(name, linear_law):
    problem, v = make_problem(name, linear_law)
    r = problem.residual(v)
    dense = np.linalg.solve(problem.assemble_jacobian(v), r)
    step, trace = solver._newton_step(problem, v, r, solver._flat_diagonal(problem))
    assert not trace["dense_fallback"]
    assert 0 < trace["iterations"] <= solver.GMRES_MAX_ITER
    assert trace["relative_residual"] <= solver.GMRES_RTOL
    assert np.linalg.norm(step - dense) <= 1e-12 * np.linalg.norm(dense)


def test_dense_fallback_is_traced(linear_law, monkeypatch):
    coeffs = kdv_coeffs(5.0, linear_law)
    grid = SpectralGrid.make(40.0, 256)
    ref = solver.solve_stationary_kdv(coeffs, grid)
    monkeypatch.setattr(solver, "GMRES_MAX_ITER", 2)
    rep = solver.solve_stationary_kdv(coeffs, grid)
    assert rep.converged and rep.iterations == ref.iterations
    solves = rep.diagnostics["linear_solves"]
    assert len(solves) == len(rep.residual_history) - 1
    for entry in solves:
        assert entry["dense_fallback"] and entry["iterations"] == 2
        assert entry["relative_residual"] > solver.GMRES_RTOL
    assert not any(e["dense_fallback"] for e in ref.diagnostics["linear_solves"])
    assert np.max(np.abs(rep.solution.values - ref.solution.values)) <= 1e-10


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_singular_jacobian_raises_convergence_error(linear_law):
    # J = 0 everywhere: the zero flat-state diagonal is guarded to ones and
    # GMRES finds the map singular
    problem, v = make_problem("kdv", linear_law)
    problem.jv_batch = lambda v, W: 0.0 * W
    with pytest.raises(ConvergenceError, match="singular"):
        solver._newton(problem, v, 1e-11, 5, epsilon=0.0, branch="kdv")


def test_weak_regime_solve_at_n8192(linear_law):
    t0 = time.perf_counter()
    rep = solver.solve_travelling_wave(15.0, linear_law, 0.025)
    elapsed = time.perf_counter() - t0
    assert rep.solution.grid.N == 8192
    assert rep.converged and rep.final_residual <= 1e-10
    assert rep.diagnostics["amplitude_ratio"] > 0.5
    assert not any(e["dense_fallback"] for e in rep.diagnostics["linear_solves"])
    assert elapsed < 30.0
