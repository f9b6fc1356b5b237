"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np

from ferrojet import checks, solver
from ferrojet import operators as op
from ferrojet.dispersion import make_profile
from ferrojet.spectral import SpectralField, SpectralGrid
from ferrojet.wnl import (
    MagnetizationLaw,
    kdv_coeffs,
    nls_coeffs,
    zeta_kdv,
    zeta_nls,
)

LAW = MagnetizationLaw.linear()


def _criterion(number, description, passed, detail, elapsed, limit):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] acceptance {number}: {description} "
          f"({detail}; {elapsed:.1f}s of {limit:.0f}s budget)")
    assert passed, f"acceptance {number} failed: {detail}"
    assert elapsed < limit, f"acceptance {number} exceeded runtime budget"


def _suite_detail(rows):
    worst = max(rows, key=lambda r: (not r.passed, r.error / max(r.tol, 1e-300)))
    return f"worst: {worst.name} error={worst.error:.2e} tol={worst.tol:g}"


def test_criterion_1_special_functions():
    t0 = time.time()
    rows = checks.specfun_suite()
    _criterion(1, "special functions: Wronskian + quadrature oracles",
               all(r.passed for r in rows), _suite_detail(rows),
               time.time() - t0, 5.0)


def test_criterion_2_dispersion():
    t0 = time.time()
    rows = checks.dispersion_suite()
    _criterion(2, "dispersion: h limit/monotonicity, minimum conditions",
               all(r.passed for r in rows), _suite_detail(rows),
               time.time() - t0, 5.0)


def test_criterion_3_greens_kernel_identities():
    t0 = time.time()
    rows = checks.greens_suite()
    _criterion(3, "Green's kernel integral identities",
               all(r.passed for r in rows), _suite_detail(rows),
               time.time() - t0, 10.0)


def test_criterion_4_dno_consistency():
    # checks.dno_suite: the flat multiplier to 1e-10, and the order-1 and
    # order-2 truncation slopes in [1.8, 2.2] and [2.7, 3.3]
    t0 = time.time()
    rows = checks.dno_suite()
    assert [(r.tol, r.target) for r in rows] == [(1e-10, 0.0), (0.2, 2.0), (0.3, 3.0)]
    _criterion(4, "DNO consistency: flat multiplier + truncation slopes",
               all(r.passed for r in rows), _suite_detail(rows),
               time.time() - t0, 180.0)


def test_criterion_5_operator_taylor_consistency():
    t0 = time.time()
    grid = SpectralGrid.make(8 * np.pi, 256)
    env = np.exp(-((grid.z / 5.0) ** 2))
    eta = env * np.cos(1.25 * grid.z) + 0.5 * env
    eta /= np.max(np.abs(eta))
    gamma = 5.0

    amps = (1e-3, 3e-3, 1e-2)
    errs = []
    for a in amps:
        e = a * eta
        total = sum(op.pressure_term(grid, e, j, gamma, LAW) for j in (1, 2, 3))
        errs.append(np.max(np.abs(op.pressure_exact(grid, e, gamma, LAW) - total)))
    slope = float(np.polyfit(np.log(amps), np.log(errs), 1)[0])

    rho = env * np.cos(2.5 * grid.z)
    h = 1e-6
    fd = (op.pressure_exact(grid, h * rho, gamma, LAW)
          - op.pressure_exact(grid, -h * rho, gamma, LAW)) / (2 * h)
    lin_err = float(np.max(np.abs(fd - op.pressure_term(grid, rho, 1, gamma, LAW))))
    ok = slope >= 3.7 and lin_err <= 1e-6
    _criterion(5, "pressure functional Taylor + linearisation", ok,
               f"remainder slope={slope:.3f}, linearisation err={lin_err:.1e}",
               time.time() - t0, 60.0)


def test_criterion_6_coefficient_cross_validation():
    t0 = time.time()
    ok = True
    details = []
    for gamma in (3.0, 5.0, 7.0):
        c = kdv_coeffs(gamma, LAW)
        lhs, rhs = 2 * c.c0_squared * c.d0, c.A0 + 5 * c.c0_squared
        err = abs(lhs - rhs) / max(1.0, abs(rhs))
        ok &= err <= 1e-12
        rec = op.extract_wnl_coefficients(gamma, LAW)
        ok &= rec.rel(rec.quad_strong_extracted, rec.quad_strong_formula) <= 1e-8
    worst = 0.0
    for gamma in (10.0, 15.0, 30.0):
        rec = op.extract_wnl_coefficients(gamma, LAW)
        errs = [rec.rel(rec.mode0_extracted, rec.mode0_formula),
                rec.rel(rec.mode2_extracted, rec.mode2_formula),
                rec.rel(rec.a3_extracted, rec.a3_formula)]
        worst = max(worst, *errs)
        ok &= max(errs) <= 1e-6
        # decisive resolution of the D(omega) reading
        ok &= rec.d_resolution == "f(omega)^2"
        ok &= rec.rel(rec.a3_extracted, rec.a3_formula_alt) > 100.0 * max(errs)
    _criterion(6, "coefficient cross-validation + D(omega) resolution", ok,
               f"worst weak extraction rel err={worst:.2e}",
               time.time() - t0, 120.0)


def test_criterion_7_amplitude_equation_exactness():
    # The closed forms solve their equations identically; the KdV envelope is
    # wide enough for spectral differentiation on the pinned grid, while the
    # gamma = 15 NLS envelope (decay rate ~5.7) is evaluated there with the
    # analytic sech derivative (its spectrum needs k_max ~ 160 for 1e-10).
    t0 = time.time()
    grid = SpectralGrid.make(40.0, 1024)

    c = kdv_coeffs(5.0, LAW)
    zk = zeta_kdv(grid.z, c)
    res_kdv = (c.kdv_dispersion * grid.deriv_values(zk, 2)
               + 2 * c.c0_squared * zk + 2 * c.c0_squared * c.d0 * zk**2)
    kdv_err = float(np.max(np.abs(res_kdv)))

    n = nls_coeffs(15.0, LAW)
    amp = np.sqrt(2 * n.a2 / n.a3)
    rate = np.sqrt(n.a2 / n.a1)
    sech = 1.0 / np.cosh(rate * grid.z)
    zn = amp * sech
    zn_pp = amp * rate**2 * (sech - 2.0 * sech**3)
    res_nls = -n.a1 * zn_pp + n.a2 * zn - n.a3 * zn**3
    nls_err = float(np.max(np.abs(res_nls)))

    ok = kdv_err <= 1e-9 and nls_err <= 1e-10
    _criterion(7, "amplitude-equation exactness on L=40, N=1024", ok,
               f"KdV residual={kdv_err:.1e}, NLS residual={nls_err:.1e}",
               time.time() - t0, 5.0)


def test_criterion_8_full_dispersion_solves():
    t0 = time.time()
    eps_kdv = (0.3, 0.2, 0.1, 0.05)
    devs = []
    ok = True
    for eps in eps_kdv:
        rep = solver.solve_full_dispersion_kdv(5.0, LAW, eps, delta=2.0)
        ok &= rep.converged and rep.iterations <= 10
        ok &= rep.diagnostics["even_defect"] <= 1e-12
        devs.append(rep.diagnostics["deviation_from_kdv"])
    ok &= all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
    slope = float(np.polyfit(np.log(eps_kdv), np.log(devs), 1)[0])
    ok &= 1.5 <= slope <= 2.5

    nls_devs = []
    for eps in (0.2, 0.1, 0.05):
        rp = solver.solve_full_dispersion_nls(15.0, LAW, eps, +1)
        rm = solver.solve_full_dispersion_nls(15.0, LAW, eps, -1)
        ok &= rp.converged and rm.converged
        nls_devs.append(rp.diagnostics["deviation_from_nls"])
    ok &= all(nls_devs[i] > nls_devs[i + 1] for i in range(len(nls_devs) - 1))
    _criterion(8, "full-dispersion KdV/NLS solves", ok,
               f"KdV slope={slope:.3f}, NLS devs={['%.3f' % d for d in nls_devs]}",
               time.time() - t0, 120.0)


def test_criterion_9_truncated_full_equation():
    t0 = time.time()
    ok = True
    details = []
    for gamma, power in ((5.0, 2), (15.0, 1)):
        devs = []
        for eps in (0.2, 0.1, 0.05):
            rep = solver.solve_travelling_wave(gamma, LAW, eps)
            ok &= rep.converged
            devs.append(rep.diagnostics["normalized_deviation"])
        ok &= all(devs[i] > devs[i + 1] for i in range(len(devs) - 1))
        details.append(f"gamma={gamma}: {['%.3f' % d for d in devs]}")

    rep_k2 = solver.solve_travelling_wave(5.0, LAW, 0.1)
    rep_or = solver.solve_travelling_wave(5.0, LAW, 0.1, dn_oracle=True,
                                          tol=1e-10)
    gap = float(np.max(np.abs(rep_or.solution.values - rep_k2.solution.values)))
    ok &= rep_or.converged and gap <= 1e-4
    details.append(f"oracle gap={gap:.2e}")
    _criterion(9, "truncated full-equation solves + oracle validation", ok,
               "; ".join(details), time.time() - t0, 120.0)


def test_criterion_10_jacobian_checks():
    t0 = time.time()
    grid = SpectralGrid.make(40.0, 256)
    worst = 0.0

    coeffs = kdv_coeffs(5.0, LAW)
    problem = solver.kdv_problem(coeffs, grid)
    v = problem.basis.to_coords(zeta_kdv(grid.z, coeffs))
    worst = max(worst, solver.check_jacobian(problem, v, seed=1))

    problem = solver.fd_kdv_problem(5.0, LAW, 0.1, grid)
    worst = max(worst, solver.check_jacobian(problem, v, seed=2))

    prof15 = make_profile(15.0)
    n = nls_coeffs(15.0, LAW, prof15)
    problem = solver.fd_nls_problem(prof15, n, 0.1, grid)
    vn = problem.basis.to_coords(zeta_nls(grid.z, n).astype(complex))
    worst = max(worst, solver.check_jacobian(problem, vn, seed=3))

    wave = SpectralGrid.make(200.0, 512)
    problem = solver.travelling_wave_problem(5.0, LAW, 1.98, wave)
    vw = problem.basis.to_coords(0.01 * zeta_kdv(0.1 * wave.z, coeffs))
    worst = max(worst, solver.check_jacobian(problem, vw, seed=4))

    wave15 = SpectralGrid.commensurate(prof15.omega, 100.0, 512)
    problem = solver.travelling_wave_problem(15.0, LAW,
                                             prof15.c0_squared * 0.99, wave15)
    seed_field = solver.reconstruct_eta(
        SpectralField.from_values(SpectralGrid.make(10.0, 256),
                                  zeta_nls(SpectralGrid.make(10.0, 256).z, n)
                                  .astype(complex)),
        0.1, prof15.regime, prof15.omega, wave15)
    vw15 = problem.basis.to_coords(seed_field.values)
    worst = max(worst, solver.check_jacobian(problem, vw15, seed=5))

    _criterion(10, "gradient-vs-finite-difference for every residual map",
               worst <= 1e-5, f"worst relative error={worst:.2e}",
               time.time() - t0, 60.0)


def test_figures_profile_signs():
    # elevation/depression follow the coefficient signs: the KdV wave has the
    # sign of -d0, and both NLS branches appear
    t0 = time.time()
    rep = solver.solve_travelling_wave(5.0, LAW, 0.1)
    mid = rep.solution.grid.N // 2
    c = kdv_coeffs(5.0, LAW)
    ok = np.sign(rep.solution.values[mid]) == -np.sign(c.d0)

    elevation_law = MagnetizationLaw.from_derivatives(4.0, 0.0)
    c_up = kdv_coeffs(5.0, elevation_law)
    ok &= c_up.d0 < 0  # elevation branch exists for strongly convex laws
    rep_up = solver.solve_travelling_wave(5.0, elevation_law, 0.1)
    ok &= np.sign(rep_up.solution.values[mid]) == -np.sign(c_up.d0)

    rp = solver.solve_full_dispersion_nls(15.0, LAW, 0.1, +1)
    rm = solver.solve_full_dispersion_nls(15.0, LAW, 0.1, -1)
    ok &= rp.solution.values[512].real > 0 > rm.solution.values[512].real
    _criterion("figures", "elevation/depression branches by coefficient sign",
               bool(ok), f"d0={c.d0:.3f} vs {c_up.d0:.3f}, NLS both signs",
               time.time() - t0, 120.0)
