"""Newton solvers: envelope equations, full-dispersion models, full equation."""

import pickle

import numpy as np
import pytest

from ferrojet import solver
from ferrojet.dispersion import Regime, make_profile
from ferrojet.errors import ConvergenceError, GridError, ParameterError, RegimeError
from ferrojet.spectral import SpectralField, SpectralGrid
from ferrojet.wnl import kdv_coeffs, nls_coeffs, zeta_kdv, zeta_nls


@pytest.fixture(scope="module")
def grid():
    return solver.default_scaled_grid()


def test_stationary_kdv_from_exact_seed(linear_law, grid):
    coeffs = kdv_coeffs(5.0, linear_law)
    rep = solver.solve_stationary_kdv(coeffs, grid, seed=zeta_kdv(grid.z, coeffs))
    assert rep.converged and rep.iterations <= 2
    assert rep.final_residual <= 1e-11


def test_stationary_kdv_from_scaled_seed(linear_law, grid):
    coeffs = kdv_coeffs(5.0, linear_law)
    rep = solver.solve_stationary_kdv(coeffs, grid)  # 0.9 x exact seed
    assert rep.converged
    assert rep.final_residual <= 1e-11
    assert np.max(np.abs(rep.solution.values - zeta_kdv(grid.z, coeffs))) <= 1e-9


def test_stationary_kdv_zero_seed_finds_trivial(linear_law, grid):
    coeffs = kdv_coeffs(5.0, linear_law)
    rep = solver.solve_stationary_kdv(coeffs, grid, seed=np.zeros(grid.N))
    assert rep.converged
    assert rep.solution.max_abs() == 0.0


def test_residual_history_decreasing(linear_law, grid):
    coeffs = kdv_coeffs(5.0, linear_law)
    rep = solver.solve_stationary_kdv(coeffs, grid)
    hist = rep.residual_history
    assert all(hist[i + 1] < hist[i] for i in range(1, len(hist) - 1))


def test_fd_kdv_parameter_checks(linear_law):
    with pytest.raises(ParameterError):
        solver.solve_full_dispersion_kdv(5.0, linear_law, 0.4)
    with pytest.raises(RegimeError):
        solver.fd_kdv_problem(15.0, linear_law, 0.1, solver.default_scaled_grid())


def test_fd_kdv_converges_and_stays_even(linear_law):
    rep = solver.solve_full_dispersion_kdv(5.0, linear_law, 0.1)
    assert rep.converged and rep.iterations <= 10
    assert rep.diagnostics["even_defect"] <= 1e-12
    assert rep.final_residual <= 1e-10


def test_fd_kdv_symbol_limit(linear_law):
    p = make_profile(5.0)
    val = p.g_scaled(1e-3, 1.0)
    target = (9.0 - 5.0) / 8.0
    assert abs(val - target) <= 1e-4 * target


def test_fd_kdv_deviation_ladder(linear_law):
    devs = []
    eps_list = (0.3, 0.2, 0.1, 0.05)
    for eps in eps_list:
        rep = solver.solve_full_dispersion_kdv(5.0, linear_law, eps, delta=2.0)
        assert rep.converged and rep.iterations <= 10
        devs.append(rep.diagnostics["deviation_from_kdv"])
    assert all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    slope = np.polyfit(np.log(eps_list), np.log(devs), 1)[0]
    assert 1.5 <= slope <= 2.5


def test_fd_nls_branches(linear_law):
    rep_p = solver.solve_full_dispersion_nls(15.0, linear_law, 0.1, +1)
    rep_m = solver.solve_full_dispersion_nls(15.0, linear_law, 0.1, -1)
    assert rep_p.converged and rep_m.converged
    # equation is odd under zeta -> -zeta
    assert np.max(np.abs(rep_p.solution.values + rep_m.solution.values)) <= 1e-9
    # conjugate-even subspace: transform coefficients stay real
    assert rep_p.diagnostics["subspace_defect"] <= 1e-12
    with pytest.raises(ParameterError):
        solver.solve_full_dispersion_nls(15.0, linear_law, 0.1, 2)
    with pytest.raises(RegimeError):
        solver.solve_full_dispersion_nls(5.0, linear_law, 0.1)


def test_nls_solve_evaluates_its_coefficients_once(linear_law, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return nls_coeffs(*args, **kwargs)

    monkeypatch.setattr(solver, "nls_coeffs", counted)
    rep = solver.solve_full_dispersion_nls(15.0, linear_law, 0.1, +1)
    assert rep.converged and calls == [15.0]


def test_nls_cubic_lives_on_the_2n_grid(linear_law):
    # |z|^2 z has three factors, the most the one 2N dealiasing grid resolves
    grid = SpectralGrid.make(40.0, 256)
    p = make_profile(15.0)
    n = nls_coeffs(15.0, linear_law, p)
    problem = solver.fd_nls_problem(p, n, 0.1, grid)
    sizes = {"refine_to_values": [], "project_to_coeffs": []}
    refine, project = grid.refine_to_values, grid.project_to_coeffs

    def recorded_refine(coeffs, *args):
        fine = refine(coeffs, *args)
        sizes["refine_to_values"].append(fine.shape[-1])
        return fine

    def recorded_project(fine, *args):
        sizes["project_to_coeffs"].append(fine.shape[-1])
        return project(fine, *args)

    grid.refine_to_values, grid.project_to_coeffs = recorded_refine, recorded_project
    v = problem.basis.to_coords(zeta_nls(grid.z, n).astype(complex))
    problem.residual_at(v)
    problem.linearize(v)(np.eye(problem.dim)[:2])
    assert sizes == {"refine_to_values": [2 * grid.N] * 2,
                     "project_to_coeffs": [2 * grid.N] * 2}


def test_cutoff_width_is_validated(linear_law):
    grid = solver.default_scaled_grid()
    p = make_profile(15.0)
    n = nls_coeffs(15.0, linear_law, p)
    # omega / 3 = 0.892 at gamma = 15: delta = 1.0 lies outside the reduction
    with pytest.raises(ParameterError):
        solver.solve_full_dispersion_nls(15.0, linear_law, 0.1, delta=1.0)
    for delta in (0.0, -0.5, np.nan):  # would silently drop the nonlinear term
        with pytest.raises(ParameterError):
            solver.fd_kdv_problem(5.0, linear_law, 0.1, grid, delta=delta)
        with pytest.raises(ParameterError):
            solver.fd_nls_problem(p, n, 0.1, grid, delta=delta)


def test_fd_nls_symbol_expansion(linear_law):
    p = make_profile(15.0)
    n = nls_coeffs(15.0, linear_law, p)
    eps = 1e-3
    for k in (0.5, 1.0, 2.0):
        val = p.g(p.omega + eps * k) / eps**2
        assert abs(val - n.a1 * k**2) <= 5e-2 * max(1.0, n.a1 * k**2)


def test_fd_nls_error_decreases(linear_law):
    devs = []
    for eps in (0.2, 0.1, 0.05):
        rep = solver.solve_full_dispersion_nls(15.0, linear_law, eps, +1)
        assert rep.converged
        devs.append(rep.diagnostics["deviation_from_nls"])
    assert devs[0] > devs[1] > devs[2]


def test_reconstruct_eta_values(linear_law):
    coeffs = kdv_coeffs(5.0, linear_law)
    zgrid = SpectralGrid.make(40.0, 1024)
    zeta = SpectralField.from_values(zgrid, zeta_kdv(zgrid.z, coeffs))
    target = SpectralGrid.make(400.0, 1024)
    eta = solver.reconstruct_eta(zeta, 0.1, Regime.STRONG, 0.0, target)
    assert eta.values[target.N // 2] == pytest.approx(
        0.01 * (-1.5 / coeffs.d0), rel=1e-10
    )
    assert eta.shift_reflect_defect() <= 1e-10

    n = nls_coeffs(15.0, linear_law)
    zeta_n = SpectralField.from_values(zgrid, zeta_nls(zgrid.z, n).astype(complex))
    prof = make_profile(15.0)
    target_w = SpectralGrid.commensurate(prof.omega, 400.0, 1024)
    eta_w = solver.reconstruct_eta(zeta_n, 0.1, Regime.WEAK, prof.omega, target_w)
    # value at z = 0: eps * sqrt(2 a2 / a3)
    i0 = np.argmin(np.abs(target_w.z))
    assert abs(target_w.z[i0]) <= 1e-12
    assert eta_w.values[i0] == pytest.approx(0.1 * np.sqrt(2 * n.a2 / n.a3),
                                             rel=1e-10)
    # zero envelope reconstructs the quiescent jet
    zero = SpectralField.from_values(zgrid, np.zeros(zgrid.N))
    eta0 = solver.reconstruct_eta(zero, 0.1, Regime.STRONG, 0.0, target)
    assert eta0.max_abs() == 0.0


def test_travelling_wave_strong(linear_law):
    rep = solver.solve_travelling_wave(5.0, linear_law, 0.1)
    assert rep.converged
    assert rep.diagnostics["even_defect"] <= 1e-12
    assert rep.final_residual <= 1e-10
    # elevation/depression follows -sign(d0): gamma=5 has d0 > 0 => depression
    assert rep.solution.values[rep.solution.grid.N // 2] < 0


@pytest.mark.xfail(strict=True, reason="gamma=15, eps=0.2 converges to the "
                   "flat state eta = 0; the continuation needs fixing")
def test_travelling_wave_weak_eps02_keeps_its_amplitude(linear_law):
    rep = solver.solve_travelling_wave(15.0, linear_law, 0.2)
    assert rep.converged
    assert rep.diagnostics["amplitude_ratio"] > 0.5


def test_travelling_wave_rejects_critical_and_zero_eps(linear_law):
    with pytest.raises(RegimeError):
        solver.solve_travelling_wave(9.0, linear_law, 0.1)
    with pytest.raises(ParameterError):
        solver.solve_travelling_wave(5.0, linear_law, 0.0)


# (gamma, eps, min_box) -> (L, N), as the two regimes' separate size rules
# gave them before they became one
WAVE_GRIDS = [
    ((5.0, 0.05, 40.0), (800.0, 2048)),
    ((5.0, 0.2, 40.0), (200.0, 512)),
    ((5.0, 0.5, 40.0), (80.0, 256)),
    ((5.0, 0.1, 3.0), (30.0, 256)),
    ((3.0, 1.0, 40.0), (40.0, 256)),
    ((15.0, 0.1, 40.0), (400.44370393159886, 2048)),
    ((15.0, 0.2, 40.0), (200.80901282200415, 1024)),
    ((15.0, 0.025, 40.0), (1600.6004940139862, 8192)),
    ((15.0, 0.2, 100.0), (500.2610494863963, 4096)),
    ((10.0, 0.1, 40.0), (400.2196128180977, 2048)),
    ((30.0, 0.05, 40.0), (800.2701168445542, 8192)),
    ((60.0, 0.2, 40.0), (200.13137122060283, 4096)),
    ((1e3, 0.1, 40.0), (400.0039633406871, 32768)),
    ((1e3, 0.2, 40.0), (200.00198167034355, 16384)),
]


@pytest.mark.parametrize("args, expected", WAVE_GRIDS, ids=lambda v: str(v))
def test_wave_grid_sizes_are_unchanged(args, expected):
    gamma, eps, min_box = args
    profile = make_profile(gamma)
    grid = solver.wave_grid(profile, eps, min_box)
    assert (grid.L, grid.N) == expected
    if profile.regime is Regime.WEAK:
        grid.mode_index(profile.omega)  # omega stays on the lattice


def test_wave_grid_needs_a_carrier_off_the_strong_regime():
    with pytest.raises(ParameterError, match="omega > 0"):
        solver.wave_grid(make_profile(9.0), 0.1, 40.0)


def test_failed_newton_keeps_its_history(linear_law):
    # gamma = 5, eps = 0.5 fails after some accepted steps: at an iterate
    # whose GMRES solve stalls near its tolerance, so by stagnation or by the
    # GMRES miss
    with pytest.raises(ConvergenceError,
                       match="Newton stagnation|GMRES missed") as info:
        solver.solve_travelling_wave(5.0, linear_law, 0.5)
    exc = info.value
    history = exc.residual_history
    # one linear solve per accepted step, plus the step that failed
    assert len(history) >= 2 and len(exc.linear_solves) == len(history)
    assert np.all(np.diff(history) < 0)
    assert all("iterations" in entry for entry in exc.linear_solves)
    back = pickle.loads(pickle.dumps(exc))
    assert str(back) == str(exc)
    assert back.residual_history == history
    assert back.linear_solves == exc.linear_solves


SOLVES = {
    "kdv": lambda law, tol: solver.solve_full_dispersion_kdv(5.0, law, 0.1, tol=tol),
    "nls": lambda law, tol: solver.solve_full_dispersion_nls(15.0, law, 0.1, tol=tol),
    "gzcs": lambda law, tol: solver.solve_travelling_wave(5.0, law, 0.1, tol=tol),
    "gzcs-oracle": lambda law, tol: solver.solve_travelling_wave(
        5.0, law, 0.1, dn_oracle=True, tol=tol),
}


@pytest.mark.parametrize("tol", [np.inf, 0.0, -1.0, np.nan])
@pytest.mark.parametrize("solve", list(SOLVES))
def test_solves_reject_a_tolerance_they_cannot_mean(solve, tol, linear_law):
    # inf used to return converged after no Newton step, and 0, -1 and NaN
    # ran to a Newton stagnation at the rounding floor
    with pytest.raises(ParameterError,
                       match=f"tol must be finite and positive, got {tol}"):
        SOLVES[solve](linear_law, tol)


def test_iterations_count_the_iterates_in_both_outcomes(linear_law, monkeypatch):
    # a converged run and one stopped by its iteration cap both report
    # len(residual_history); the stopped one used to report one fewer
    rep = solver.solve_travelling_wave(5.0, linear_law, 0.1)
    assert rep.converged and rep.iterations == len(rep.residual_history) == 4
    monkeypatch.setattr(solver, "NEWTON_MAX_ITER", 2)
    rep = solver.solve_travelling_wave(5.0, linear_law, 0.1)
    assert not rep.converged
    assert rep.iterations == len(rep.residual_history) == 3
    assert len(rep.diagnostics["linear_solves"]) == 2


def test_convergence_study_synthetic():
    eps = [0.4, 0.2, 0.1, 0.05]
    study = solver.convergence_study(eps, [e**2 for e in eps], [1e-14] * 4,
                                     [True] * 4)
    assert abs(study.slope - 2.0) <= 1e-10
    assert study.complete
    with pytest.raises(ParameterError):
        solver.convergence_study([0.1, 0.05], [1e-2, 2.5e-3], [1e-14] * 2,
                                 [True] * 2)


def test_convergence_study_flags_failures():
    # the eps = 0.05 rung failed: its error and residual are NaN
    study = solver.convergence_study([0.4, 0.2, 0.05], [0.4, 0.2, np.nan],
                                     [0.0, 0.0, np.nan], [True, True, False])
    assert not study.complete
    assert study.converged == [True, True, False]
    assert abs(study.slope - 1.0) <= 1e-10  # fitted through the other two


@pytest.mark.parametrize("eps", [0.0, -0.1, np.nan, 0.51])
def test_travelling_wave_epsilon_is_validated(eps, linear_law):
    # NaN used to reach the grid sizing as a bare ValueError, and eps > 0.5
    # ran though the CLI rejects it
    with pytest.raises(ParameterError, match="0 < eps <= 0.5"):
        solver.solve_travelling_wave(5.0, linear_law, eps)


@pytest.mark.parametrize("make_problem", ["kdv", "fd_kdv", "fd_nls", "gzcs"])
def test_jacobian_vs_finite_differences(make_problem, linear_law):
    grid = SpectralGrid.make(40.0, 256)
    if make_problem == "kdv":
        coeffs = kdv_coeffs(5.0, linear_law)
        problem = solver.kdv_problem(coeffs, grid)
        v = problem.basis.to_coords(zeta_kdv(grid.z, coeffs))
    elif make_problem == "fd_kdv":
        coeffs = kdv_coeffs(5.0, linear_law)
        problem = solver.fd_kdv_problem(5.0, linear_law, 0.1, grid)
        v = problem.basis.to_coords(zeta_kdv(grid.z, coeffs))
    elif make_problem == "fd_nls":
        p = make_profile(15.0)
        n = nls_coeffs(15.0, linear_law, p)
        problem = solver.fd_nls_problem(p, n, 0.1, grid)
        v = problem.basis.to_coords(zeta_nls(grid.z, n).astype(complex))
    else:
        wave = SpectralGrid.make(200.0, 512)
        problem = solver.travelling_wave_problem(5.0, linear_law, 1.98, wave)
        coeffs = kdv_coeffs(5.0, linear_law)
        v = problem.basis.to_coords(0.01 * zeta_kdv(0.1 * wave.z, coeffs))
    err = solver.check_jacobian(problem, v, seed=3)
    assert err <= 1e-5


def test_kdv_nondegeneracy_under_refinement(linear_law):
    # smallest singular value of the even-subspace Jacobian at the explicit
    # envelope stays bounded away from zero and stable under refinement
    sigmas = []
    for N in (512, 1024):
        grid = SpectralGrid.make(40.0, N)
        coeffs = kdv_coeffs(5.0, linear_law)
        problem = solver.kdv_problem(coeffs, grid)
        v = problem.basis.to_coords(zeta_kdv(grid.z, coeffs))
        J = problem.assemble_jacobian(v)
        sigmas.append(np.linalg.svd(J, compute_uv=False)[-1])
    assert min(sigmas) > 0.1
    assert abs(sigmas[0] - sigmas[1]) <= 0.2 * max(sigmas)


def test_nls_nondegeneracy_under_refinement(linear_law):
    # same proxy at +-zeta_nls in the conjugate-even subspace (at eps = 0.1)
    sigmas = {+1: [], -1: []}
    p = make_profile(15.0)
    n = nls_coeffs(15.0, linear_law, p)
    for N in (256, 512):
        grid = SpectralGrid.make(40.0, N)
        problem = solver.fd_nls_problem(p, n, 0.1, grid)
        for sign in (+1, -1):
            v = problem.basis.to_coords(sign * zeta_nls(grid.z, n).astype(complex))
            J = problem.assemble_jacobian(v)
            sigmas[sign].append(np.linalg.svd(J, compute_uv=False)[-1])
    for sign in (+1, -1):
        assert min(sigmas[sign]) > 0.05
        assert abs(sigmas[sign][0] - sigmas[sign][1]) <= 0.2 * max(sigmas[sign])


def _envelope_route_seed(gamma, law, eps, grid):
    """The travelling-wave seed as it once was built: the explicit envelope
    sampled on a 1024-point box and re-summed at eps z by reconstruct_eta."""
    profile = make_profile(gamma)
    zgrid = SpectralGrid.make(eps * grid.L, 1024)
    if profile.regime is Regime.STRONG:
        zeta = SpectralField.from_values(
            zgrid, zeta_kdv(zgrid.z, kdv_coeffs(gamma, law)))
    else:
        zeta = SpectralField.from_values(
            zgrid, zeta_nls(zgrid.z, nls_coeffs(gamma, law, profile)).astype(complex))
    return solver.reconstruct_eta(zeta, eps, profile.regime, profile.omega,
                                  grid).values


def _seeded_solve(monkeypatch, gamma, law, eps):
    """solve_travelling_wave's report with the problem and seed it solved from."""
    seen = {}
    newton = solver._newton

    def spy(problem, v0, *args, **kwargs):
        seen.update(problem=problem, v0=v0, args=args, kwargs=kwargs)
        return newton(problem, v0, *args, **kwargs)

    monkeypatch.setattr(solver, "_newton", spy)
    rep = solver.solve_travelling_wave(gamma, law, eps)
    monkeypatch.setattr(solver, "_newton", newton)
    return rep, seen


@pytest.mark.parametrize("gamma, eps, n", [(5.0, 0.2, None), (5.0, 0.05, 2048),
                                           (15.0, 0.2, None)])
def test_closed_form_seed_matches_envelope_route(monkeypatch, linear_law,
                                                 gamma, eps, n):
    _, seen = _seeded_solve(monkeypatch, gamma, linear_law, eps)
    problem = seen["problem"]
    grid = problem.basis.grid
    if n is not None:
        assert grid.N == n
    ref = problem.basis.to_coords(_envelope_route_seed(gamma, linear_law, eps, grid))
    assert np.max(np.abs(seen["v0"] - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("gamma, eps", [(5.0, 0.2), (15.0, 0.1)])
def test_solve_unchanged_by_closed_form_seed(monkeypatch, linear_law, gamma, eps):
    rep, seen = _seeded_solve(monkeypatch, gamma, linear_law, eps)
    problem = seen["problem"]
    ref_seed = _envelope_route_seed(gamma, linear_law, eps, problem.basis.grid)
    ref = solver._newton(problem, problem.basis.to_coords(ref_seed),
                         *seen["args"], **seen["kwargs"])

    def gmres(r):
        return [s["iterations"] for s in r.diagnostics["linear_solves"]]

    assert rep.converged and ref.converged
    assert (rep.iterations, gmres(rep)) == (ref.iterations, gmres(ref))
    assert np.max(np.abs(rep.solution.values - ref.solution.values)) <= 1e-12


def test_weak_seed_needs_the_carrier_on_the_lattice(linear_law):
    grid = SpectralGrid.make(400.0, 1024)  # omega(15) * 400 / pi is not whole
    with pytest.raises(GridError):
        solver.solve_travelling_wave(15.0, linear_law, 0.1, grid=grid)
