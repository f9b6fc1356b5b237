"""Green's kernels, the solution operator, and the fixed-point surface solve."""

import gc
import weakref

import numpy as np
import pytest

from ferrojet import dno
from ferrojet import operators as op
from ferrojet.errors import ConvergenceError, DomainError, GeometryError
from ferrojet.spectral import SpectralField, SpectralGrid
from ferrojet.specfun import besseli, besselk, f_ratio


@pytest.fixture(scope="module")
def zgrid():
    return SpectralGrid.make(8 * np.pi, 128)


@pytest.fixture(scope="module")
def rgrid():
    return dno.RadialGrid.make(64)


def test_radial_grid_weights(rgrid):
    # plain Gauss-Legendre weights: int_0^1 r dr = 1/2 via sum w_i r_i
    assert abs(np.sum(rgrid.w * rgrid.r) - 0.5) <= 1e-13
    assert abs(np.sum(rgrid.w) - 1.0) <= 1e-13


def test_kernel_symmetry_and_signs():
    ker = dno.greens_kernel(2.0, 0.3, 0.7)
    ker_swapped = dno.greens_kernel(2.0, 0.7, 0.3)
    assert ker["G"] == ker_swapped["G"]
    rng = np.random.default_rng(5)
    k = rng.uniform(0.2, 25.0, 100)
    r = rng.uniform(0.01, 0.99, 100)
    t = rng.uniform(0.01, 0.99, 100)
    ker = dno.greens_kernel(k, r, t)
    assert np.all(ker["G"] < 0)
    assert np.all(ker["H3"] >= 0)
    with pytest.raises(DomainError):
        dno.greens_kernel(0.0, 0.3, 0.7)


def _reference_kernel(k, r, rt) -> dict:
    """greens_kernel's formula, every Bessel value from the public functions
    on the broadcast grid (the evaluation before the joint evaluator)."""
    x, r, rt = np.broadcast_arrays(np.abs(np.asarray(k, dtype=float)),
                                   np.asarray(r, dtype=float),
                                   np.asarray(rt, dtype=float))
    lo = np.minimum(r, rt)
    hi = np.maximum(r, rt)
    i0_lo, i1_lo = (besseli(n, x * lo, scaled=True) for n in (0, 1))
    i0_hi, i1_hi = (besseli(n, x * hi, scaled=True) for n in (0, 1))
    k0_hi, k1_hi = (besselk(n, x * hi, scaled=True) for n in (0, 1))
    ratio = besselk(1, x, scaled=True) / besseli(1, x, scaled=True)
    e_between = np.exp(x * (lo - hi))
    e_wall = np.exp(x * (lo + hi - 2.0))
    G = -(i0_lo * k0_hi * e_between + ratio * i0_lo * i0_hi * e_wall)
    d_small = -x * i1_lo * (k0_hi * e_between + ratio * i0_hi * e_wall)
    d_large = x * i0_lo * (k1_hi * e_between - ratio * i1_hi * e_wall)
    H3 = x**2 * i1_lo * (k1_hi * e_between - ratio * i1_hi * e_wall)
    r_is_small = r < rt
    return {"G": G, "H1": np.where(r_is_small, d_small, d_large),
            "H2": np.where(r_is_small, d_large, d_small), "H3": H3}


def test_kernel_matches_reference_formula():
    # k on both sides of the K seam (2); rt crosses every r, and meets it
    k = np.logspace(-2, np.log10(30.0), 23)[:, None, None]
    r = np.linspace(0.05, 1.0, 11)[None, :, None]
    rt = np.concatenate([np.linspace(0.0, 1.0, 21), [0.05, 0.335, 0.715]])
    ker = dno.greens_kernel(k, r, rt[None, None, :])
    ref = _reference_kernel(k, r, rt[None, None, :])
    for name in ("G", "H1", "H2", "H3"):
        assert ker[name].shape == ref[name].shape
        scale = np.max(np.abs(ref[name]))
        assert np.max(np.abs(ker[name] - ref[name])) <= 1e-12 * scale, name


def _operator_blocks(operator, nr) -> dict:
    """The four kernel matrices in the block operator [[G, H2], [H1, H3]]."""
    A = operator.A
    return {"G": A[:, :nr, :nr], "H2": A[:, :nr, nr:],
            "H1": A[:, nr:, :nr], "H3": A[:, nr:, nr:]}


def test_operator_matrices_match_reference_kernel():
    zgrid = SpectralGrid.make(8 * np.pi, 64)  # k = m/8, m = 1..32
    rgrid = dno.RadialGrid.make(16)
    operator = dno.SolutionOperator(zgrid, rgrid)
    x = operator.kpos[1:]
    assert operator.A.shape == (x.size, 2 * rgrid.nr, 2 * rgrid.nr)
    blocks = _operator_blocks(operator, rgrid.nr)
    for i, ri in enumerate(rgrid.r):
        q, wq = dno._panels(float(ri))
        B = rgrid.interp_to(q)
        ref = _reference_kernel(x[:, None], ri, q[None, :])
        for name, M in blocks.items():
            want = (ref[name] * (wq * q)[None, :]) @ B
            assert np.max(np.abs(M[:, i, :] - want)) <= 1e-12 * np.max(np.abs(M)), name


def _four_einsum_sweep(operator, F1_hat, F2_hat, xi_hat):
    """(u, D0 u, trace u) by the former sweep: one complex einsum per kernel
    matrix and separate boundary and trace terms, modes 1.. only."""
    nr = operator.rgrid.nr
    blocks = _operator_blocks(operator, nr)
    bG, bH1 = operator.b_xi[:, :nr], operator.b_xi[:, nr:]
    wr = operator.rgrid.w * operator.rgrid.r
    ik = 1j * operator.kpos[1:]
    f1, f2, xi = F1_hat[:, 1:], F2_hat[:, 1:], xi_hat[1:]
    u = np.einsum("mij,jm->im", blocks["G"], f2) * ik[None, :]
    u -= np.einsum("mij,jm->im", blocks["H2"], f1)
    u -= ik[None, :] * bG.T * xi[None, :]
    d0u = np.einsum("mij,jm->im", blocks["H1"], f2) * ik[None, :]
    d0u -= np.einsum("mij,jm->im", blocks["H3"], f1)
    d0u += f1
    d0u -= ik[None, :] * bH1.T * xi[None, :]
    tr_u = (np.einsum("mj,jm->m", bG * wr[None, :], f2) * ik
            - np.einsum("mj,jm->m", bH1 * wr[None, :], f1)
            - ik * operator.G11 * xi)
    return u, d0u, tr_u


def test_block_sweep_matches_four_einsum_sweep(zgrid, rgrid, forcing):
    F1, F2, xi = forcing
    operator = dno._operator_for(zgrid, rgrid)
    F1_hat, F2_hat = zgrid.to_rcoeffs(F1), zgrid.to_rcoeffs(F2)
    xi_hat = zgrid.to_rcoeffs(xi.values)
    assert np.max(np.abs(xi_hat[1:])) > 0.1
    sol = operator.apply(F1_hat, F2_hat, xi_hat)
    want = _four_einsum_sweep(operator, F1_hat, F2_hat, xi_hat)
    got = (sol.u_hat[:, 1:], sol.d0u_hat[:, 1:], sol.trace_u[1:])
    for name, a, b in zip(("u", "D0 u", "trace u"), got, want):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b)), name


@pytest.mark.parametrize("k", [0.5, 1.0, 5.0, 20.0])
@pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
def test_kernel_integral_identities(k, r):
    assert abs(dno.integral_abs_G(k, r) - 1.0 / k**2) <= 1e-8 / k**2
    lhs = abs(k) * dno.integral_abs_H1(k, r)
    rhs = dno.closed_form_H1_integral(k, r)
    assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1e-3)
    lhs3 = dno.integral_H3(k, r)
    rhs3 = dno.closed_form_H3_integral(k, r)
    assert abs(lhs3 - rhs3) <= 1e-8 * max(abs(rhs3), 1e-3)


def test_h1_bounds_regression(rgrid):
    # |k| int rt |H1| and its r-integral partner stay bounded (measured C)
    for k in (0.5, 1.0, 5.0, 20.0):
        for r in (0.1, 0.5, 0.9):
            assert abs(k) * dno.integral_abs_H1(k, r) <= 1.1
            assert dno.integral_H3(k, r) <= 1.6


def test_flat_solve_reproduces_multiplier(zgrid, rgrid):
    k0 = 2.0
    xi = SpectralField.from_function(zgrid, lambda z: np.cos(k0 * z))
    sol = dno.solve_flat(xi, rgrid)
    out = sol.surface_velocity_field()
    assert np.max(np.abs(out.values - f_ratio(k0) * np.cos(k0 * zgrid.z))) <= 1e-10
    # Neumann trace D0 u = xi_z at the surface
    d0u = zgrid.to_rvalues(sol.trace_d0u[None, :])[0]
    assert np.max(np.abs(d0u - (-k0) * np.sin(k0 * zgrid.z))) <= 1e-10


def _unmirrored_field(zgrid, rc):
    """The former route: full FFT-order coefficients from the rfft half."""
    n = zgrid.N
    full = np.zeros(rc.shape[:-1] + (n,), dtype=complex)
    full[..., : n // 2 + 1] = rc
    full[..., n // 2] = full[..., n // 2].real
    full[..., n // 2 + 1 :] = np.conj(rc[..., 1 : n // 2][..., ::-1])
    return SpectralField.from_coeffs(zgrid, full)


def test_surface_velocity_matches_unmirrored_coefficients(zgrid, rgrid, forcing):
    F1, F2, xi = forcing
    for sol in (dno.solve_flat(xi, rgrid),
                dno.apply_solution_operator(zgrid, rgrid, F1, F2, xi)):
        out = sol.surface_velocity_field()
        ref = _unmirrored_field(zgrid, -sol.trace_uz)
        assert np.isrealobj(out.values) and np.isrealobj(ref.values)
        scale = np.max(np.abs(ref.values))
        assert np.max(np.abs(out.values - ref.values)) <= 1e-12 * scale
        assert np.max(np.abs(out.coeffs - ref.coeffs)) <= 1e-12 * scale


def test_flat_solve_interior_harmonicity(zgrid, rgrid):
    k0 = 2.0
    xi = SpectralField.from_function(zgrid, lambda z: np.cos(k0 * z))
    sol = dno.solve_flat(xi, rgrid)
    D = rgrid.diff_matrix()
    mi = int(round(k0 * zgrid.L / np.pi))
    u = sol.u_hat[:, mi]
    d0u = sol.d0u_hat[:, mi]
    res = D @ d0u + d0u / rgrid.r - k0**2 * u
    assert np.max(np.abs(res)) <= 1e-6 * np.max(np.abs(u))


@pytest.fixture(scope="module")
def forcing(zgrid, rgrid):
    env = np.exp(-((zgrid.z / 6.0) ** 2))
    F1 = (np.sin(np.pi * rgrid.r) * rgrid.r)[:, None] * (env * np.cos(0.75 * zgrid.z))[None, :]
    F2 = (rgrid.r**2)[:, None] * (env * np.sin(0.5 * zgrid.z))[None, :]
    xi = SpectralField.from_function(zgrid, lambda z: np.sin(z))
    return F1, F2, xi


def test_solution_operator_reduces_to_flat(zgrid, rgrid, forcing):
    _, _, xi = forcing
    zero = np.zeros((rgrid.nr, zgrid.N))
    sol_s = dno.apply_solution_operator(zgrid, rgrid, zero, zero, xi)
    sol_f = dno.solve_flat(xi, rgrid)
    assert np.max(np.abs(sol_s.u_hat - sol_f.u_hat)) <= 1e-10
    assert np.max(np.abs(sol_s.trace_uz - sol_f.trace_uz)) <= 1e-10


def test_solution_operator_linearity(zgrid, rgrid, forcing):
    F1, F2, xi = forcing
    sol = dno.apply_solution_operator(zgrid, rgrid, F1, F2, xi)
    xi2 = SpectralField.from_values(zgrid, 2.0 * xi.values)
    sol2 = dno.apply_solution_operator(zgrid, rgrid, 2 * F1, 2 * F2, xi2)
    assert np.max(np.abs(sol2.u_hat - 2.0 * sol.u_hat)) <= 1e-12 * max(
        1.0, np.max(np.abs(sol.u_hat))
    )


def test_solution_operator_defining_identity(zgrid, rgrid, forcing):
    # D1 D0 u + u_zz = D1 F1 + dz F2 in the discrete residual
    F1, F2, xi = forcing
    sol = dno.apply_solution_operator(zgrid, rgrid, F1, F2, xi)
    D = rgrid.diff_matrix()
    F1h = zgrid.to_rcoeffs(F1)
    F2h = zgrid.to_rcoeffs(F2)
    k = sol.k
    res = (D @ sol.d0u_hat) + sol.d0u_hat / rgrid.r[:, None] \
        - (k**2)[None, :] * sol.u_hat \
        - (D @ F1h) - F1h / rgrid.r[:, None] - (1j * k)[None, :] * F2h
    assert np.max(np.abs(res)) <= 1e-6 * max(1.0, np.max(np.abs(sol.u_hat)))


def test_solution_operator_boundary_condition(zgrid, rgrid, forcing):
    F1, F2, xi = forcing
    sol = dno.apply_solution_operator(zgrid, rgrid, F1, F2, xi)
    F1h = zgrid.to_rcoeffs(F1)
    bc = sol.trace_d0u - rgrid.boundary_row @ F1h - 1j * sol.k * zgrid.to_rcoeffs(
        xi.values
    )
    assert np.max(np.abs(bc)) <= 1e-8


def test_bvp_at_zero_eta(zgrid, rgrid):
    xi = SpectralField.from_function(zgrid, np.sin)
    eta = SpectralField.from_values(zgrid, np.zeros(zgrid.N))
    sol, K = dno.solve_flattened_bvp(eta, xi, rgrid)
    assert np.max(np.abs(K.values - f_ratio(1.0) * np.sin(zgrid.z))) <= 1e-10


def test_bvp_geometry_error(zgrid, rgrid):
    eta = SpectralField.from_values(zgrid, -1.2 * np.exp(-zgrid.z**2))
    xi = SpectralField.from_function(zgrid, np.sin)
    with pytest.raises(GeometryError):
        dno.solve_flattened_bvp(eta, xi, rgrid)


def _bc_residual(zgrid, rgrid, eta, xi, sol):
    eta_z = zgrid.deriv_values(eta.values)
    uz = zgrid.to_rvalues(sol.uz_hat)
    d0u = zgrid.to_rvalues(sol.d0u_hat)
    F1, _ = dno._forcing_terms(rgrid, eta.values, eta_z, uz, d0u)
    bc_lhs = zgrid.to_rvalues(sol.trace_d0u[None, :])[0]
    bc_rhs = rgrid.boundary_row @ F1 + zgrid.deriv_values(xi.values)
    return np.max(np.abs(bc_lhs - bc_rhs))


def test_bvp_converges_where_picard_diverged(zgrid, rgrid):
    # far outside the contraction regime (Picard updates grow by ~2.4x per
    # sweep here) the Krylov solve still converges
    eta = SpectralField.from_values(zgrid, 0.9 * np.cos(zgrid.z), parity="even")
    xi = SpectralField.from_function(zgrid, np.sin)
    sol, _ = dno.solve_flattened_bvp(eta, xi, rgrid, tol=1e-12)
    assert _bc_residual(zgrid, rgrid, eta, xi, sol) <= 1e-10


def test_bvp_iteration_cap_error(zgrid, rgrid):
    eta = SpectralField.from_values(zgrid, 0.2 * np.cos(zgrid.z), parity="even")
    xi = SpectralField.from_function(zgrid, np.sin)
    with pytest.raises(ConvergenceError, match=r"residual .* after \d+ sweeps"):
        dno.solve_flattened_bvp(eta, xi, rgrid, tol=1e-12, max_iter=3)


def test_bvp_boundary_condition_post(zgrid, rgrid):
    a = 1e-2
    eta = SpectralField.from_values(zgrid, a * np.cos(zgrid.z), parity="even")
    xi = SpectralField.from_function(zgrid, np.sin)
    tol = 1e-12
    sol, K = dno.solve_flattened_bvp(eta, xi, rgrid, tol=tol)
    assert _bc_residual(zgrid, rgrid, eta, xi, sol) <= 10.0 * tol + 1e-10


def test_bvp_contraction_factor(zgrid, rgrid):
    # the Picard iteration u <- S(F(eta, u), xi) from the flat state is the
    # reference path: it contracts at ||eta|| = 0.05, and its limit is the
    # Krylov solution
    eta = SpectralField.from_values(zgrid, 0.05 * np.cos(zgrid.z), parity="even")
    xi = SpectralField.from_function(zgrid, np.sin)
    eta_z = zgrid.deriv_values(eta.values)
    sol_f = dno.solve_flat(xi, rgrid)
    uz = zgrid.to_rvalues(sol_f.uz_hat)
    d0u = zgrid.to_rvalues(sol_f.d0u_hat)
    operator = dno._operator_for(zgrid, rgrid)
    ratios, last = [], None
    for _ in range(60):
        F1, F2 = dno._forcing_terms(rgrid, eta.values, eta_z, uz, d0u)
        s = operator.apply(zgrid.to_rcoeffs(F1), zgrid.to_rcoeffs(F2),
                           zgrid.to_rcoeffs(xi.values))
        uz_new = zgrid.to_rvalues(s.uz_hat)
        d0u_new = zgrid.to_rvalues(s.d0u_hat)
        diff = max(np.max(np.abs(uz_new - uz)), np.max(np.abs(d0u_new - d0u)))
        if last is not None:
            ratios.append(diff / last)
        last = diff
        uz, d0u = uz_new, d0u_new
        if diff < 1e-15:
            break
    assert max(ratios[1:6]) < 1.0  # contraction for ||eta|| <= 0.05
    assert diff < 1e-14

    sol, K = dno.solve_flattened_bvp(eta, xi, rgrid, tol=1e-13)
    assert np.max(np.abs(zgrid.to_rvalues(sol.uz_hat) - uz)) <= 1e-12
    assert np.max(np.abs(zgrid.to_rvalues(sol.d0u_hat) - d0u)) <= 1e-12
    assert np.max(np.abs(K.values - s.surface_velocity_field().values)) <= 1e-12


def test_operator_is_freed_with_its_grid(rgrid):
    # the grid caches its operator; the operator must not keep the grid
    # alive, or both outlive the solve until the cyclic collector runs
    gc.disable()
    try:
        z = SpectralGrid.make(2 * np.pi, 16)
        ref = weakref.ref(dno._operator_for(z, rgrid))
        del z
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("order,window", [(1, (1.8, 2.2)), (2, (2.7, 3.3))])
def test_expansion_truncation_slopes(zgrid, rgrid, order, window):
    amps = (1e-3, 3e-3, 1e-2)
    xi = SpectralField.from_function(zgrid, np.sin)
    errs = []
    for a in amps:
        eta = SpectralField.from_values(zgrid, a * np.cos(zgrid.z), parity="even")
        _, K = dno.solve_flattened_bvp(eta, xi, rgrid, tol=1e-14)
        trunc = op.dn_expansion(zgrid, eta.values, xi.values, order)
        errs.append(np.max(np.abs(K.values - trunc)))
    slope = np.polyfit(np.log(amps), np.log(errs), 1)[0]
    assert window[0] <= slope <= window[1]


def test_mode_map_self_adjointness(zgrid, rgrid):
    # the per-mode map xi_hat -> -u_z(1) is the real even multiplier f(k)
    for k0 in (1.0, 2.5):
        xi = SpectralField.from_function(zgrid, lambda z: np.cos(k0 * z))
        out = dno.solve_flat(xi, rgrid).surface_velocity_field()
        ratio = out.coeffs[zgrid.mode_index(k0)] / (0.5)
        assert abs(ratio.imag) <= 1e-13
        assert abs(ratio.real - f_ratio(k0)) <= 1e-12


def test_kinetic_expansion_vs_oracle_slope(rgrid):
    # realising K(eta) through the boundary-value problem instead of the
    # order-2 expansion changes the kinetic functional at cubic order
    grid = SpectralGrid.make(16 * np.pi, 256)
    amps = (2.5e-3, 5e-3, 1e-2)
    diffs = []
    for a in amps:
        etav = a * np.cos(grid.z) / np.cosh(grid.z / 5.0)
        eta = SpectralField.from_values(grid, etav)
        q_or = op.kinetic_exact(grid, etav, dno.dn_oracle_apply(eta, rgrid,
                                                                tol=1e-14))
        q_ex = op.kinetic_exact(
            grid, etav, lambda v: op.dn_expansion(grid, etav, v, 2)
        )
        diffs.append(np.max(np.abs(q_or - q_ex)))
    slope = np.polyfit(np.log(amps), np.log(diffs), 1)[0]
    assert slope >= 2.7


def test_kinetic_oracle_vanishes_on_quiescent_jet(zgrid, rgrid):
    eta = SpectralField.from_values(zgrid, np.zeros(zgrid.N))
    out = op.kinetic_exact(zgrid, eta.values,
                           dno.dn_oracle_apply(eta, rgrid, tol=1e-14))
    assert np.max(np.abs(out)) <= 1e-13


def test_trace_consistent_with_end_node_interpolation(zgrid, rgrid, forcing):
    F1, F2, xi = forcing
    sol = dno.apply_solution_operator(zgrid, rgrid, F1, F2, xi)
    interp = rgrid.boundary_row @ sol.u_hat
    assert np.max(np.abs(interp - sol.trace_u)) <= 1e-8 * max(
        1.0, np.max(np.abs(sol.trace_u))
    )


def test_oracle_matches_expansion_through_second_order(zgrid, rgrid):
    a = 5e-3
    etav = a * np.cos(zgrid.z)
    eta = SpectralField.from_values(zgrid, etav, parity="even")
    apply_k = dno.dn_oracle_apply(eta, rgrid, tol=1e-14)
    xi = np.sin(zgrid.z) + 0.3 * np.cos(2 * zgrid.z)
    diff = apply_k(xi) - op.dn_expansion(zgrid, etav, xi, 2)
    assert np.max(np.abs(diff)) <= 50.0 * a**3
