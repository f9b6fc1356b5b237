"""Surface operators: expansions, Taylor consistency, coefficient extraction."""

import numpy as np
import pytest

from ferrojet import operators as op
from ferrojet import solver
from ferrojet.errors import GeometryError, ParameterError
from ferrojet.spectral import SpectralGrid
from ferrojet.specfun import f_ratio
from ferrojet.wnl import kdv_coeffs, nls_coeffs

import reference


@pytest.fixture(scope="module")
def grid():
    return SpectralGrid.make(8 * np.pi, 256)


@pytest.fixture(scope="module")
def smooth_eta(grid):
    env = np.exp(-((grid.z / 5.0) ** 2))
    eta = env * np.cos(1.25 * grid.z) + 0.5 * env
    return eta / np.max(np.abs(eta))


def test_dn0_is_multiplier(grid):
    k0 = 2.0
    xi = np.cos(k0 * grid.z)
    out = op.dn0_apply(grid, xi)
    assert np.max(np.abs(out - f_ratio(k0) * xi)) <= 1e-12


def test_dn1_constant_eta_reduction(grid):
    # K1 with constant eta = h acts as h (k^2 - f(k)^2) on cos(k z)
    h, k0 = 0.01, 2.0
    out = op.dn1_apply(grid, np.full(grid.N, h), np.cos(k0 * grid.z))
    exact = h * (k0**2 - f_ratio(k0) ** 2) * np.cos(k0 * grid.z)
    assert np.max(np.abs(out - exact)) <= 1e-13


def test_dn_expansion_order_zero_eta_independent(grid, smooth_eta):
    xi = np.sin(grid.z)
    a = op.dn_expansion(grid, smooth_eta, xi, 0)
    b = op.dn_expansion(grid, np.zeros(grid.N), xi, 0)
    assert np.max(np.abs(a - b)) == 0.0
    # order 2 with eta = 0 equals order 0 exactly
    c = op.dn_expansion(grid, np.zeros(grid.N), xi, 2)
    assert np.max(np.abs(c - b)) == 0.0
    with pytest.raises(ParameterError):
        op.dn_expansion(grid, smooth_eta, xi, 3)


def test_pressure_zero_on_quiescent_jet(grid, linear_law):
    out = op.pressure_exact(grid, np.zeros(grid.N), 5.0, linear_law)
    assert np.max(np.abs(out)) <= 1e-14


def test_pressure_geometry_error(grid, linear_law):
    eta = -1.05 * np.exp(-(grid.z**2))
    with pytest.raises(GeometryError):
        op.pressure_exact(grid, eta, 5.0, linear_law)


def test_pressure_linearisation_at_zero(grid, linear_law, smooth_eta):
    eps = 1e-6
    fd = (op.pressure_exact(grid, eps * smooth_eta, 5.0, linear_law)
          - op.pressure_exact(grid, -eps * smooth_eta, 5.0, linear_law)) / (2 * eps)
    lin = op.pressure_term(grid, smooth_eta, 1, 5.0, linear_law)
    assert np.max(np.abs(fd - lin)) <= 1e-6


def test_pressure_quadratic_taylor_by_richardson(grid, linear_law, smooth_eta):
    # (P(a rho) - a P1(rho))/a^2 -> P2(rho) as a -> 0
    p1 = op.pressure_term(grid, smooth_eta, 1, 5.0, linear_law)
    p2 = op.pressure_term(grid, smooth_eta, 2, 5.0, linear_law)

    def q(a):
        return (op.pressure_exact(grid, a * smooth_eta, 5.0, linear_law)
                - a * p1) / a**2

    a = 1e-3
    rich = 2.0 * q(a / 2) - q(a)  # removes the O(a) cubic bias
    assert np.max(np.abs(rich - p2)) <= 1e-5


def test_pressure_taylor_remainder_quartic(grid, linear_law, smooth_eta):
    errs = []
    amps = (1e-3, 3e-3, 1e-2)
    for a in amps:
        e = a * smooth_eta
        total = sum(op.pressure_term(grid, e, j, 5.0, linear_law) for j in (1, 2, 3))
        errs.append(np.max(np.abs(op.pressure_exact(grid, e, 5.0, linear_law) - total)))
    slope = np.polyfit(np.log(amps), np.log(errs), 1)[0]
    assert slope >= 3.7


def test_kinetic_term_forms_agree(grid, smooth_eta):
    # the expanded forms and the K1/K2-built forms are the same operators
    e = 0.02 * smooth_eta
    d2 = op.kinetic_term(grid, e, 2) - reference.kinetic_term2_alt(grid, e)
    d3 = op.kinetic_term(grid, e, 3) - reference.kinetic_term3_alt(grid, e)
    assert np.max(np.abs(d2)) <= 1e-14
    assert np.max(np.abs(d3)) <= 1e-14


def test_kinetic_l1_is_dn0(grid):
    k0 = 1.5
    eta = np.cos(k0 * grid.z)
    out = op.kinetic_term(grid, eta, 1)
    assert np.max(np.abs(out - f_ratio(k0) * eta)) <= 1e-12


def test_kinetic_l2_long_wave_limit(linear_law):
    # on slowly varying even eta the quadratic kinetic term tends to -5 eta^2
    g = SpectralGrid.make(1000.0 * np.pi, 64)
    eta = np.cos(2e-3 * g.z)
    l2 = op.kinetic_term(g, eta, 2)
    assert np.max(np.abs(l2 - (-5.0) * g.product_values([eta, eta]))) <= 1e-4


def test_kinetic_exact_leading_order(grid, smooth_eta):
    for a in (1e-4, 1e-3):
        e = a * smooth_eta
        q = op.kinetic_exact(grid, e, lambda v: op.dn_expansion(grid, e, v, 2))
        l1 = op.kinetic_term(grid, e, 1)
        assert np.max(np.abs(q - l1)) / a**2 <= 10.0


def test_travelling_wave_residual_zero_solution(grid, linear_law):
    eta = np.zeros(grid.N)
    res = op.wave_residual(grid, eta, 1.9, 5.0, linear_law,
                           lambda v: op.dn_expansion(grid, eta, v, 2))
    assert np.max(np.abs(res)) <= 1e-14


def test_travelling_wave_residual_linear_order(grid, linear_law):
    # on a cos(k z) the linearised residual is ((gamma-1) + k^2 - c^2 f(k)) cos(k z)
    gamma, c2, k0, a = 5.0, 1.9, 1.25, 1e-6
    eta = a * np.cos(k0 * grid.z)
    res = op.wave_residual(grid, eta, c2, gamma, linear_law,
                           lambda v: op.dn_expansion(grid, eta, v, 2))
    lin = a * (gamma - 1.0 + k0**2 - c2 * f_ratio(k0)) * np.cos(k0 * grid.z)
    assert np.max(np.abs(res - lin)) <= 1e-5 * a


@pytest.mark.parametrize("gamma", [3.0, 5.0, 7.0])
def test_extraction_strong(gamma, linear_law):
    rec = op.extract_wnl_coefficients(gamma, linear_law)
    coeffs = kdv_coeffs(gamma, linear_law)
    assert rec.rel(rec.quad_strong_extracted, rec.quad_strong_formula) <= 1e-8
    assert rec.quad_strong_formula == pytest.approx(
        2.0 * coeffs.c0_squared * coeffs.d0, rel=1e-13
    )


@pytest.mark.parametrize("gamma", [10.0, 15.0, 30.0])
def test_extraction_weak(gamma, linear_law):
    rec = op.extract_wnl_coefficients(gamma, linear_law)
    assert rec.rel(rec.mode0_extracted, rec.mode0_formula) <= 1e-6
    assert rec.rel(rec.mode2_extracted, rec.mode2_formula) <= 1e-6
    assert rec.rel(rec.a3_extracted, rec.a3_formula) <= 1e-6
    # the ambiguity in the D constant resolves decisively
    assert rec.d_resolution == "f(omega)^2"
    assert rec.rel(rec.a3_extracted, rec.a3_formula_alt) > 1e-2
    n = nls_coeffs(gamma, linear_law)
    assert rec.a3_formula == n.a3  # one formula, wnl.nls_a3


def test_extraction_matches_wnl_zeta_coeffs(linear_law):
    # the second-harmonic ansatz inside the oracle reuses the stored
    # zeta0/zeta2 elimination constants; spot-check their defining relation
    n = nls_coeffs(15.0, linear_law)
    from ferrojet.dispersion import make_profile

    p = make_profile(15.0)
    w = n.omega
    lhs0 = p.g(0.0) * n.zeta0_coeff
    assert lhs0 == pytest.approx(w**2 - 2 * n.A0 + n.c0_squared * n.capB,
                                 rel=1e-12)
    lhs2 = p.g(2 * w) * n.zeta2_coeff
    assert lhs2 == pytest.approx(n.c0_squared * n.capA - n.A0 - 0.5 * w**2,
                                 rel=1e-12)


def _refine_each(grid, f):
    """f, f_z and f_zz refined one field at a time through nodal values."""
    return tuple(grid.refine_values(v) for v in
                 (f, grid.deriv_values(f), grid.deriv_values(f, 2)))


def test_pressure_jvp_matches_finite_difference(grid, linear_law, smooth_eta, rng):
    eta = 0.05 * smooth_eta
    _, fields = op.pressure_jacobian_fields(_refine_each(grid, eta), 5.0, linear_law)
    rho = rng.standard_normal(grid.N)
    rho /= np.max(np.abs(rho))
    h = 1e-6
    fd = (op.pressure_exact(grid, eta + h * rho, 5.0, linear_law)
          - op.pressure_exact(grid, eta - h * rho, 5.0, linear_law)) / (2 * h)
    jv = grid.project_values(op.pressure_jvp(fields, _refine_each(grid, rho)))
    assert np.max(np.abs(fd - jv)) <= 1e-5


def _expansion(grid, eta, order):
    return lambda xi: op.dn_expansion(grid, eta, xi, order)


def _kinetic_jv(kin, rows):
    """The kinetic derivative alone: no pressure part, minus -1 times the kinetic."""
    return kin.apply(rows, (0.0, 0.0, 0.0), -1.0)


def test_kinetic_jvp_matches_finite_difference(grid, linear_law, smooth_eta, rng):
    eta = 0.05 * smooth_eta
    kin = op.KineticLinearization(grid, grid.to_rcoeffs(eta))
    rho = rng.standard_normal(grid.N)
    rho /= np.max(np.abs(rho))
    h = 1e-6

    def q(e):
        return op.kinetic_exact(grid, e, _expansion(grid, e, 2))

    fd = (q(eta + h * rho) - q(eta - h * rho)) / (2 * h)
    jv = grid.to_rvalues(_kinetic_jv(kin, grid.to_rcoeffs(rho)))
    assert np.max(np.abs(fd - jv)) <= 1e-5
    # batched application agrees with one-at-a-time
    R = grid.to_rcoeffs(rng.standard_normal((3, grid.N)))
    batch = _kinetic_jv(kin, R)
    for i in range(3):
        assert np.max(np.abs(batch[i] - _kinetic_jv(kin, R[i]))) <= 1e-13


class _NodalKineticLinearization:
    """KineticLinearization as a nodal-value pipeline: every K_j, product and
    symbol goes through values on the grid, as ``kinetic_exact`` does.  It
    serves the same calls -- half spectra in and out, ``surface``,
    ``value_f``, ``project`` -- so a solve can run on it.

    With ``slope_from_expansion`` dG/dP is taken at the expansion's P while
    ``value_f`` keeps dn_apply's (half spectrum to half spectrum, as the
    oracle's): the quasi-Newton of a solve whose Jacobian never saw the
    oracle."""

    def __init__(self, grid, eta_hat, dn_apply=None, slope_from_expansion=False):
        self.grid = grid
        self.eta = grid.to_rvalues(eta_hat)
        eta2 = grid.product_values([self.eta, self.eta])
        self.xi_comb = self.eta + 0.5 * eta2
        self.surface = _refine_each(grid, self.eta)
        ezf = self.surface[1]
        if dn_apply is None:
            P = op.dn_expansion(grid, self.eta, self.xi_comb, 2)
        else:
            P = grid.to_rvalues(dn_apply(grid.to_rcoeffs(self.xi_comb)))
        Pf = grid.refine_values(P)
        s2 = 1.0 + ezf**2
        W = ezf**2 / (2.0 * s2)
        self.value_f = -0.5 * Pf**2 + W * (1.0 - Pf) ** 2 + Pf
        if slope_from_expansion:
            Pf = grid.refine_values(
                op.dn_expansion(grid, self.eta, self.xi_comb, 2))
        self.dG_dP = 1.0 - Pf - 2.0 * W * (1.0 - Pf)
        self.dG_dez = ezf / s2**2 * (1.0 - Pf) ** 2

    def project(self, fine_values):
        return self.grid.to_rcoeffs(self.grid.project_values(fine_values))

    def apply(self, rows, pressure_fields, c2):
        grid, eta, xi = self.grid, self.eta, self.xi_comb
        rho = grid.to_rvalues(rows)
        dP = op.dn1_apply(grid, rho, xi) + 2.0 * op.dn2_apply(grid, eta, rho, xi)
        dP = dP + op.dn_expansion(grid, eta, rho + grid.product_values([eta, rho]), 2)
        dPf = grid.refine_values(dP)
        rzf = grid.refine_values(grid.deriv_values(rho))
        out = grid.project_values(self.dG_dP * dPf + self.dG_dez * rzf)
        press = op.pressure_jvp(pressure_fields, _refine_each(grid, rho))
        return grid.to_rcoeffs(grid.project_values(press) - c2 * out)


def _regime_eta(grid, regime):
    if regime == "strong":  # KdV-like hump
        return 0.2 / np.cosh(0.15 * grid.z) ** 2
    return 0.3 / np.cosh(0.1 * grid.z) * np.cos(1.3 * grid.z)  # NLS-like packet


@pytest.mark.parametrize("order", [2])  # the one order a solve uses
@pytest.mark.parametrize("regime", ["strong", "weak"])
@pytest.mark.parametrize("N", [512, 1024, 2048])
def test_kinetic_linearization_matches_nodal_pipeline(N, regime, order):
    grid = SpectralGrid.make(200.0, N)
    eta = _regime_eta(grid, regime)
    R = np.random.default_rng(N + order).standard_normal((3, N))
    R[1] += (-1.0) ** np.arange(N)
    R[2] = (-1.0) ** np.arange(N)  # a unit Nyquist coefficient alone
    assert abs(grid.to_rcoeffs(R[2])[-1]) == 1.0
    eta_hat = grid.to_rcoeffs(eta)
    kin = op.KineticLinearization(grid, eta_hat)
    ref = _kinetic_jv(_NodalKineticLinearization(grid, eta_hat),
                      grid.to_rcoeffs(R))
    ref = grid.to_rvalues(ref)
    got = grid.to_rvalues(_kinetic_jv(kin, grid.to_rcoeffs(R)))
    scale = np.max(np.abs(ref), axis=-1)
    assert np.all(np.max(np.abs(got - ref), axis=-1) <= 1e-12 * scale)
    value = op.kinetic_exact(grid, eta, _expansion(grid, eta, order))
    got_value = grid.to_rvalues(kin.project(kin.value_f))
    assert np.max(np.abs(got_value - value)) <= 1e-12 * np.max(np.abs(value))
    single = grid.to_rvalues(_kinetic_jv(kin, grid.to_rcoeffs(R[0])))
    assert single.shape == (N,)
    assert np.max(np.abs(single - ref[0])) <= 1e-12 * scale[0]


@pytest.mark.parametrize("order", [2])  # the one order a solve uses
@pytest.mark.parametrize("regime", ["strong", "weak"])
@pytest.mark.parametrize("N", [512, 1024, 2048])
def test_half_spectrum_surface_operator_matches_dn_expansion(N, regime, order):
    grid = SpectralGrid.make(200.0, N)
    eta = _regime_eta(grid, regime)
    xi = eta + 0.5 * grid.product_values([eta, eta])
    ref = op.dn_expansion(grid, eta, xi, order)
    got = grid.to_rvalues(op.KineticLinearization(grid, grid.to_rcoeffs(eta)).P)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    # dn_apply, when given, evaluates P from xi's half spectrum
    seen = []

    def dn_apply(xi_hat):
        seen.append(xi_hat)
        return 0.5 * xi_hat

    kin = op.KineticLinearization(grid, grid.to_rcoeffs(eta), dn_apply)
    assert len(seen) == 1
    assert np.max(np.abs(grid.to_rvalues(seen[0]) - xi)) <= 1e-15 * np.max(np.abs(xi))
    assert np.array_equal(kin.P, 0.5 * seen[0])


def _wave_problem(regime, linear_law, N=512):
    """A travelling-wave problem of each regime (c^2 = 1.9), its gamma and an
    even state on its grid."""
    gamma = 5.0 if regime == "strong" else 15.0
    grid = SpectralGrid.make(200.0, N)
    problem = solver.travelling_wave_problem(gamma, linear_law, 1.9, grid)
    return problem, gamma, problem.basis.to_coords(_regime_eta(grid, regime))


@pytest.mark.parametrize("regime", ["strong", "weak"])
def test_coordinate_jv_matches_nodal_composition(regime, linear_law):
    problem, gamma, v = _wave_problem(regime, linear_law)
    basis, c2 = problem.basis, 1.9
    grid = basis.grid
    W = np.random.default_rng(7).standard_normal((3, problem.dim))
    W[2] = 0.0
    W[2, -1] = 1.0  # the Nyquist cosine alone
    jac = problem.linearize(v)
    got = jac(W)
    # the nodal composition to_coords(pressure - c^2 kinetic)
    eta, w = basis.to_values(v), basis.to_values(W)
    _, fields = op.pressure_jacobian_fields(_refine_each(grid, eta), gamma, linear_law)
    press = grid.project_values(op.pressure_jvp(fields, _refine_each(grid, w)))
    kinetic = grid.to_rvalues(
        _kinetic_jv(_NodalKineticLinearization(grid, v), grid.to_rcoeffs(w)))
    ref = basis.to_coords(press - c2 * kinetic)
    scale = np.max(np.abs(ref), axis=-1)
    assert np.all(np.max(np.abs(got - ref), axis=-1) <= 1e-12 * scale)
    for i in range(3):
        assert np.max(np.abs(jac(W[i:i + 1])[0] - got[i])) <= 1e-14 * scale[i]
    # and the residual is the nodal wave_residual's
    res = basis.to_coords(op.wave_residual(grid, eta, c2, gamma, linear_law,
                                           _expansion(grid, eta, 2)))
    assert np.max(np.abs(problem.residual_at(v) - res)) <= 1e-12 * np.max(np.abs(res))


def test_travelling_wave_fft_calls_per_direction_and_iterate(linear_law, monkeypatch):
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        real = getattr(np.fft, name)

        def counted(*args, _real=real, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    problem, _, v = _wave_problem("weak", linear_law, N=1024)
    calls.clear()
    ctx = problem.prepare(v)  # the residual and the J.v context, order 2
    assert len(calls) == 8
    for rows in (1, 3):  # one batch of directions, any number of rows
        calls.clear()
        problem.jv_batch(ctx, np.ones((rows, problem.dim)))
        assert len(calls) == 8


def test_travelling_wave_solve_unchanged_by_half_spectrum(linear_law):
    # the oracle reference takes dG/dP at the expansion's P, as a solve
    # whose Jacobian is the expansion's alone does
    for eps, oracle in ((0.2, False), (0.1, True)):
        def run():
            rep = solver.solve_travelling_wave(5.0, linear_law, eps, dn_oracle=oracle)
            gmres = [s["iterations"] for s in rep.diagnostics["linear_solves"]]
            return rep.iterations, gmres, rep.solution.values

        def reference(*args):
            return _NodalKineticLinearization(*args, slope_from_expansion=oracle)

        iters, gmres, sol = run()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(op, "KineticLinearization", reference)
            ref_iters, ref_gmres, ref_sol = run()
        assert (iters, gmres) == (ref_iters, ref_gmres)
        assert np.max(np.abs(sol - ref_sol)) <= 1e-12


def test_each_newton_iterate_evaluates_the_surface_operator_once(linear_law,
                                                                 monkeypatch):
    # K(eta) xi is evaluated when a KineticLinearization is built
    dn_calls, residual_calls = [], []
    build, problem_factory = op.KineticLinearization.__init__, solver.travelling_wave_problem

    def counted_build(self, grid, eta, *args, **kwargs):
        dn_calls.append(np.array(eta))
        build(self, grid, eta, *args, **kwargs)

    def counted_problem(*args, **kwargs):
        problem = problem_factory(*args, **kwargs)
        evaluate = problem.residual

        def residual(v):
            residual_calls.append(v)
            return evaluate(v)

        problem.residual = residual
        return problem

    monkeypatch.setattr(op.KineticLinearization, "__init__", counted_build)
    monkeypatch.setattr(solver, "travelling_wave_problem", counted_problem)
    rep = solver.solve_travelling_wave(5.0, linear_law, 0.2)
    assert rep.converged and rep.iterations >= 3
    # the flat state (the preconditioner), then one per residual evaluation
    assert len(dn_calls) == 1 + len(residual_calls)
    assert not np.any(dn_calls[0])
    assert all(not np.array_equal(a, b) for a, b in zip(dn_calls, dn_calls[1:]))


def test_pressure_routines_match_refine_per_field(linear_law, rng):
    grid = SpectralGrid.make(200.0, 512)
    eta = _regime_eta(grid, "weak")
    gamma = 15.0
    ef, ezf, ezzf = _refine_each(grid, eta)
    w = 1.0 + ef
    s2 = 1.0 + ezf**2
    s = np.sqrt(s2)
    ref_p = grid.project_values(
        -gamma * (linear_law.nu(1.0 / w) - linear_law.nu(1.0))
        + 1.0 / (w * s) - ezzf / s**3 - 1.0)
    got_p = op.pressure_exact(grid, eta, gamma, linear_law)
    assert np.max(np.abs(got_p - ref_p)) <= 1e-12 * np.max(np.abs(ref_p))

    ref_fields = (
        gamma * linear_law.nu_prime(1.0 / w) / w**2 - 1.0 / (w**2 * s),
        -ezf / (w * s2 * s) + 3.0 * ezzf * ezf / (s2**2 * s),
        -1.0 / (s2 * s),
    )
    surface = op.KineticLinearization(grid, grid.to_rcoeffs(eta)).surface
    for got, ref in zip(surface, (ef, ezf, ezzf)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    value, fields = op.pressure_jacobian_fields(surface, gamma, linear_law)
    assert np.array_equal(grid.project_values(value), got_p)
    for got, ref in zip(fields, ref_fields):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    R = rng.standard_normal((3, grid.N))
    R[2] = (-1.0) ** np.arange(grid.N)  # a unit Nyquist coefficient alone
    A, B, C = fields
    ref_rows = []
    for rho in R:
        rf, rzf, rzzf = _refine_each(grid, rho)
        ref_rows.append(grid.project_values(A * rf + B * rzf + C * rzzf))
    got = grid.project_values(op.pressure_jvp(fields, _refine_each(grid, R)))
    assert got.shape == R.shape
    for g, ref in zip(got, ref_rows):
        assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))
    single = grid.project_values(op.pressure_jvp(fields, _refine_each(grid, R[0])))
    assert np.max(np.abs(single - ref_rows[0])) <= 1e-12 * np.max(np.abs(ref_rows[0]))
