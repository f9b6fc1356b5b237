"""Matrix-free Newton steps: GMRES against scipy, steps against the dense solve."""

import time

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, gmres as scipy_gmres

from ferrojet import solver
from ferrojet.dispersion import make_profile
from ferrojet.errors import ConvergenceError
from ferrojet.spectral import CutoffSpec, SpectralGrid
from ferrojet.wnl import kdv_coeffs, nls_coeffs, zeta_kdv, zeta_nls

import reference

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
        profile = make_profile(15.0)
        n = nls_coeffs(15.0, law, profile)
        problem = solver.fd_nls_problem(profile, n, 0.1, grid)
        return problem, problem.basis.to_coords(zeta_nls(grid.z, n).astype(complex))
    wave = SpectralGrid.make(200.0, 512)
    problem = solver.travelling_wave_problem(5.0, law, 1.98, wave)
    return problem, problem.basis.to_coords(0.01 * zeta_kdv(0.1 * wave.z, coeffs))


def _nodal_envelope_maps(name, law, grid):
    """The envelope residual and J.v composed through nodal values and
    ``product_values``, the reference of the coordinate path: v -> F(v) and
    (v, W) -> J(v) W, for the problems of ``make_problem``."""
    eps = 0.1
    if name == "fd_nls":
        profile = make_profile(15.0)
        coeffs = nls_coeffs(15.0, law, profile)
        basis = solver.ConjugateEvenBasis(grid)
        sym = profile.g(profile.omega + eps * grid.k) / eps**2 + coeffs.a2
        cubic = -coeffs.a3 * CutoffSpec(profile.omega / 6.0, profile.omega).chi0(
            eps * grid.k)

        def residual(v):
            z = basis.to_values(v)
            return sym * v + cubic * basis.to_coords(
                grid.product_values([z, np.conj(z), z]))

        def jv(v, W):
            z, w = basis.to_values(v), basis.to_values(W)
            dcube = (2.0 * grid.product_values([z, np.conj(z), w])
                     + grid.product_values([z, z, np.conj(w)]))
            return sym * W + cubic * basis.to_coords(dcube)

        return residual, jv
    coeffs = kdv_coeffs(5.0, law)
    basis = solver.EvenBasis(grid)
    quad = 2.0 * coeffs.c0_squared * coeffs.d0
    if name == "kdv":
        sym = -coeffs.kdv_dispersion * grid.kr**2 + 2.0 * coeffs.c0_squared
    else:
        sym = make_profile(5.0).g_scaled(eps, grid.kr) + 2.0 * coeffs.c0_squared
        quad = quad * CutoffSpec(0.5).chi0(eps * grid.kr)

    def residual(v):
        u = basis.to_values(v)
        return sym * v + quad * basis.to_coords(grid.product_values([u, u]))

    def jv(v, W):
        u, w = basis.to_values(v), basis.to_values(W)
        return sym * W + 2.0 * quad * basis.to_coords(grid.product_values([u, w]))

    return residual, jv


@pytest.mark.parametrize("name", ["kdv", "fd_kdv", "fd_nls"])
def test_envelope_coordinate_path_matches_nodal_products(name, linear_law):
    problem, v = make_problem(name, linear_law)
    residual, jv = _nodal_envelope_maps(name, linear_law, problem.basis.grid)
    ref = residual(v)
    got = problem.residual_at(v)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    W = np.random.default_rng(5).standard_normal((3, problem.dim))
    ref = jv(v, W)
    got = problem.linearize(v)(W)
    assert got.shape == W.shape
    scale = np.max(np.abs(ref), axis=-1)
    assert np.all(np.max(np.abs(got - ref), axis=-1) <= 1e-13 * scale)
    single = problem.linearize(v)(W[1:2])[0]
    assert np.max(np.abs(single - ref[1])) <= 1e-13 * scale[1]


@pytest.mark.parametrize("name", ["kdv", "fd_kdv", "fd_nls"])
def test_envelope_fft_calls_per_residual_and_direction(name, linear_law,
                                                        monkeypatch):
    # the state is refined once per iterate; a residual is then one
    # projection, and a batch of directions one refine and one projection
    calls = []
    for fname in ("fft", "ifft", "rfft", "irfft"):
        real = getattr(np.fft, fname)

        def counted(*args, _real=real, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, fname, counted)
    problem, v = make_problem(name, linear_law)
    calls.clear()
    problem.residual_at(v)
    assert len(calls) == 2
    calls.clear()
    jac = problem.linearize(v)  # the residual's context, kept
    assert len(calls) == 0
    for rows in (1, 3):  # one batch of directions, any number of rows
        calls.clear()
        jac(np.ones((rows, problem.dim)))
        assert len(calls) == 2


@pytest.mark.parametrize("name", ["kdv", "fd_kdv", "fd_nls"])
def test_each_iterate_prepares_its_state_once(name, linear_law):
    # the envelope problems' share of the memo; the travelling-wave problem's
    # is test_each_newton_iterate_evaluates_the_surface_operator_once
    problem, v = make_problem(name, linear_law)
    prepared, evaluated = [], []
    prepare, residual = problem.prepare, problem.residual

    def counted_prepare(u):
        prepared.append(np.array(u))
        return prepare(u)

    def counted_residual(ctx):
        evaluated.append(1)
        return residual(ctx)

    problem.prepare, problem.residual = counted_prepare, counted_residual
    rep = solver._newton(problem, v, 1e-10, 20, epsilon=0.1, branch=name)
    assert rep.converged and rep.iterations >= 2
    # the flat state (the preconditioner), then one per residual evaluation:
    # the Newton step at an accepted point reuses its residual's context
    assert len(prepared) == 1 + len(evaluated)
    assert not np.any(prepared[0])


def test_jacobian_check_prepares_its_state_once(linear_law):
    # the context of v serves every direction; v +- h w take one each
    problem, v = make_problem("fd_kdv", linear_law)
    prepare, prepared = problem.prepare, []

    def counted_prepare(u):
        prepared.append(1)
        return prepare(u)

    problem.prepare = counted_prepare
    assert solver.check_jacobian(problem, v, n_dirs=5) < 1e-6
    assert len(prepared) == 1 + 2 * 5


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


def test_gmres_block_basis_matches_the_preallocated_one():
    # against GMRES with its restart + 1 rows allocated up front: a cycle
    # within one block of GMRES_BLOCK rows is bit-identical to it, and one
    # across blocks (its Gram-Schmidt sums run block by block) agrees to
    # rounding
    n = 32768
    rng = np.random.default_rng(11)
    d = np.linspace(1.0, 400.0, n)
    b = rng.standard_normal(n)

    def matvec(u):
        return d * u + 0.3 * np.roll(u, 1)

    assert 2 * solver.GMRES_BLOCK < 40  # the first case spans three blocks
    cases = [((40, 40), {}, False),  # one 40-iteration cycle
             ((4, 24), {}, True),  # six cycles of 4
             ((10, 10), {"x0": b / d}, True)]
    for (restart, max_iter), kwargs, exact in cases:
        x, its, rel = solver.gmres(matvec, b, 1e-15, restart, max_iter, **kwargs)
        want, want_its, want_rel = reference.gmres(matvec, b, 1e-15, restart,
                                                   max_iter, **kwargs)
        assert its == want_its == max_iter
        if exact:
            assert np.array_equal(x, want) and rel == want_rel
        else:
            assert np.max(np.abs(x - want)) <= 1e-14 * np.max(np.abs(want))
            assert abs(rel - want_rel) <= 1e-14 * want_rel


def test_gmres_zero_rhs_and_iteration_cap():
    x, its, rel = solver.gmres(lambda u: 2.0 * u, np.zeros(5), 1e-12, 5, 10)
    assert its == 0 and rel == 0.0 and not x.any()
    rng = np.random.default_rng(1)
    A = rng.standard_normal((50, 50))
    x, its, rel = solver.gmres(lambda u: A @ u, rng.standard_normal(50),
                               1e-12, 4, 6)
    assert its == 6 and rel > 1e-12


def test_gmres_starts_from_a_guess():
    rng = np.random.default_rng(7)
    n = 300
    d = np.logspace(0, 3, n)
    A = np.diag(d) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)
    matvecs = []

    def matvec(u):
        matvecs.append(1)
        return A @ (u / d)

    # the solution itself: one matvec for its residual, and no iteration
    exact = d * np.linalg.solve(A, b)
    x, its, rel = solver.gmres(matvec, b, 1e-12, 60, 500, x0=exact)
    assert its == 0 and len(matvecs) == 1 and rel <= 1e-12
    assert np.array_equal(x, exact)
    # a guess off by 1e-6 meets the same rtol |b| in fewer iterations
    _, cold_its, cold_rel = solver.gmres(matvec, b, 1e-12, 60, 500)
    guess = exact * (1.0 + 1e-6 * rng.standard_normal(n))
    x, its, rel = solver.gmres(matvec, b, 1e-12, 60, 500, x0=guess)
    assert cold_rel <= 1e-12 and rel <= 1e-12
    assert 0 < its < cold_its
    assert rel == np.linalg.norm(b - matvec(x)) / np.linalg.norm(b)


def test_gmres_stops_at_the_rounding_floor_of_its_matvec():
    # the preconditioned system of the test above, its products rounded to
    # single precision: GMRES cannot reach 1e-12 and stops at the first
    # restart that does not lower the true residual, short of the cap, with
    # the best iterate it found
    rng = np.random.default_rng(7)
    n = 300
    d = np.logspace(0, 3, n)
    A = np.diag(d) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    b = rng.standard_normal(n)

    def matvec(u):
        return (A @ (u / d)).astype(np.float32).astype(float)

    x, its, rel = solver.gmres(matvec, b, 1e-12, 60, 240)
    assert its < 240 and 1e-12 < rel < 1e-6
    assert rel == np.linalg.norm(b - matvec(x)) / np.linalg.norm(b)


def test_gmres_stall_raises_with_its_record(linear_law):
    # J.v rounded to single precision: the Newton step stops at the stall
    # instead of spending GMRES_MAX_ITER directions
    problem, v = make_problem("kdv", linear_law)
    jv_batch = problem.jv_batch
    problem.jv_batch = lambda ctx, W: jv_batch(ctx, W).astype(np.float32).astype(float)
    with pytest.raises(ConvergenceError, match="GMRES stalled at") as info:
        solver._newton(problem, v, 1e-11, 5, epsilon=0.0, branch="kdv")
    (entry,) = info.value.linear_solves
    assert entry["iterations"] < solver.GMRES_MAX_ITER
    assert entry["relative_residual"] > solver.GMRES_RTOL


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
    r = problem.residual_at(v)
    dense = np.linalg.solve(problem.assemble_jacobian(v), r)
    step, trace = solver._newton_step(problem, v, r, solver._flat_diagonal(problem))
    assert 0 < trace["iterations"] <= solver.GMRES_MAX_ITER
    assert trace["relative_residual"] <= solver.GMRES_RTOL
    assert np.linalg.norm(step - dense) <= 1e-12 * np.linalg.norm(dense)


def test_gmres_miss_raises_with_its_record(linear_law, monkeypatch):
    coeffs = kdv_coeffs(5.0, linear_law)
    grid = SpectralGrid.make(40.0, 256)
    ref = solver.solve_stationary_kdv(coeffs, grid)
    assert all(e["relative_residual"] <= solver.GMRES_RTOL
               for e in ref.diagnostics["linear_solves"])
    monkeypatch.setattr(solver, "GMRES_MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match="GMRES missed") as info:
        solver.solve_stationary_kdv(coeffs, grid)
    err = info.value
    # the failed first step is recorded; no iterate was accepted
    assert err.residual_history == ref.residual_history[:1]
    (entry,) = err.linear_solves
    assert entry["iterations"] == 2
    assert entry["relative_residual"] > solver.GMRES_RTOL


def test_stagnation_raises_with_its_record(linear_law):
    # no step can lower a constant residual, so damping refuses every one
    problem, v = make_problem("kdv", linear_law)
    problem.residual = lambda ctx: np.ones(problem.dim)
    problem.jv_batch = lambda ctx, W: W
    with pytest.raises(ConvergenceError, match="Newton stagnation") as info:
        solver._newton(problem, v, 1e-11, 5, epsilon=0.0, branch="kdv")
    assert len(info.value.residual_history) == 1
    (entry,) = info.value.linear_solves
    assert entry["relative_residual"] <= solver.GMRES_RTOL


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_singular_jacobian_raises_convergence_error(linear_law):
    # J = 0 everywhere: the zero flat-state diagonal is guarded to ones and
    # GMRES finds the map singular
    problem, v = make_problem("kdv", linear_law)
    problem.jv_batch = lambda ctx, W: 0.0 * W
    with pytest.raises(ConvergenceError, match="singular"):
        solver._newton(problem, v, 1e-11, 5, epsilon=0.0, branch="kdv")


def test_weak_regime_solve_at_n8192(linear_law):
    t0 = time.perf_counter()
    rep = solver.solve_travelling_wave(15.0, linear_law, 0.025)
    elapsed = time.perf_counter() - t0
    assert rep.solution.grid.N == 8192
    assert rep.converged and rep.final_residual <= 1e-10
    assert rep.diagnostics["amplitude_ratio"] > 0.5
    assert all(e["relative_residual"] <= solver.GMRES_RTOL
               for e in rep.diagnostics["linear_solves"])
    assert elapsed < 30.0
