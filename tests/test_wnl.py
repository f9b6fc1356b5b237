"""Weakly nonlinear constants and the explicit envelope profiles."""

import numpy as np
import pytest

from ferrojet.dispersion import make_profile
from ferrojet.errors import ExistenceError, ParameterError, RegimeError
from ferrojet.solver import default_scaled_grid
from ferrojet.spectral import SpectralGrid
from ferrojet.wnl import (
    MagnetizationLaw,
    kdv_coeffs,
    nls_coeffs,
    wnl_coeffs,
    zeta_kdv,
    zeta_nls,
)


def test_law_validation(linear_law):
    linear_law.validate()
    MagnetizationLaw.from_derivatives(2.0, -1.0).validate()
    bad = MagnetizationLaw(nu=lambda s: np.asarray(s) ** 2,
                           nu_prime=lambda s: 2.0 * np.asarray(s), nu2=2.0, nu3=0.0)
    with pytest.raises(ParameterError):
        bad.validate()  # nu'(1) = 2 breaks the normalisation


@pytest.mark.parametrize("nu2, nu3", [(np.nan, 0.0), (np.inf, 0.0),
                                      (1.0, np.nan), (1.0, -np.inf)])
def test_law_validation_rejects_non_finite_derivatives(nu2, nu3):
    # the message names the bad derivative, not the nu'(1) stencil it poisons
    name, value = ("nu2", nu2) if not np.isfinite(nu2) else ("nu3", nu3)
    with pytest.raises(ParameterError, match=f"^law's {name} must be finite: got {value}$"):
        MagnetizationLaw.from_derivatives(nu2, nu3).validate()


def test_kdv_coeffs_gamma5(linear_law):
    c = kdv_coeffs(5.0, linear_law)
    assert c.d0 == pytest.approx(0.875, abs=1e-15)
    assert c.kdv_dispersion == pytest.approx(-0.5, abs=1e-15)
    assert c.c0_squared == 2.0
    with pytest.raises(RegimeError):
        kdv_coeffs(15.0, linear_law)


@pytest.mark.parametrize("gamma", [3.0, 5.0, 7.0])
def test_strong_identity(gamma, linear_law):
    c = kdv_coeffs(gamma, linear_law)
    lhs = 2.0 * c.c0_squared * c.d0
    rhs = c.A0 + 5.0 * c.c0_squared
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_nls_coeffs_positive(linear_law):
    for gamma in (10.0, 15.0, 30.0):
        n = nls_coeffs(gamma, linear_law)
        assert n.a1 > 0 and n.a2 > 0 and n.a3 > 0
        # a2 = c0^2 f(omega)
        p = make_profile(gamma)
        assert n.a2 == pytest.approx(p.c0_squared * p.f(p.omega), rel=1e-14)
    with pytest.raises(RegimeError):
        nls_coeffs(5.0, linear_law)
    with pytest.raises(RegimeError):
        wnl_coeffs(9.0, linear_law)


def test_zeta0_coefficient_formula(linear_law):
    # independent re-evaluation of the zeroth-harmonic elimination constant
    n = nls_coeffs(15.0, linear_law)
    p = make_profile(15.0)
    omega, c0sq = n.omega, n.c0_squared
    fw = p.f(omega)
    capB = omega**2 - fw**2 - 4.0 * fw + 2.0
    expect = (omega**2 - 2.0 * n.A0 + c0sq * capB) / p.g(0.0)
    assert abs(n.zeta0_coeff - expect) <= 1e-12 * abs(expect)


def test_a1_two_stencils_agree(linear_law):
    # 1/2 g''(omega) by the direct stencil and through g = f (c^2 - c0^2);
    # the alternative stencil uses a step balancing its eps/h^2 roundoff
    p = make_profile(15.0)
    n = nls_coeffs(15.0, linear_law, p)
    step = 1e-3
    w = p.omega

    def g_alt(k):
        return p.f(k) * (p.c2(k) - p.c0_squared)

    second = (g_alt(w + step) - 2.0 * g_alt(w) + g_alt(w - step)) / step**2
    assert abs(n.a1 - 0.5 * second) <= 1e-5 * max(1.0, abs(n.a1))


def test_zeta_kdv_profile(linear_law):
    c = kdv_coeffs(5.0, linear_law)
    assert zeta_kdv(0.0, c) == pytest.approx(-1.5 / c.d0, rel=1e-15)
    Z = np.linspace(-10, 10, 41)
    assert np.allclose(zeta_kdv(Z, c), zeta_kdv(-Z, c))
    assert abs(zeta_kdv(50.0, c)) < 1e-30
    # sign of the profile is -sign(d0)
    assert np.sign(zeta_kdv(0.0, c)) == -np.sign(c.d0)


def test_zeta_kdv_residual_spectral(linear_law):
    grid = default_scaled_grid()
    c = kdv_coeffs(5.0, linear_law)
    z = zeta_kdv(grid.z, c)
    zpp = grid.deriv_values(z, 2)
    res = c.kdv_dispersion * zpp + 2 * c.c0_squared * z + 2 * c.c0_squared * c.d0 * z**2
    assert np.max(np.abs(res)) <= 1e-9


def test_envelopes_do_not_overflow_near_the_critical_gamma(linear_law):
    # at gamma = 8.95 the KdV rate is 17.8 and |Z| reaches 40 on the default
    # grid, where cosh(rate Z)^2 overflows; pytest turns the RuntimeWarning
    # numpy would raise into an error
    Z = default_scaled_grid().z
    c = kdv_coeffs(8.95, linear_law)
    x = 2.0 * np.sqrt(c.c0_squared / (9.0 - c.gamma)) * Z
    assert np.max(np.abs(x)) > 710.0
    vals = zeta_kdv(Z, c)
    inner = np.abs(x) < 300.0
    ref = -(1.5 / c.d0) / np.cosh(x[inner]) ** 2
    assert np.max(np.abs(vals[inner] - ref) / np.abs(ref)) <= 1e-12
    assert np.all((vals[~inner] <= 0.0) & (vals[~inner] > -1e-200))  # sech^2 < 1e-260
    n = nls_coeffs(15.0, linear_law)
    x = np.sqrt(n.a2 / n.a1) * Z  # up to 228
    ref = np.sqrt(2.0 * n.a2 / n.a3) / np.cosh(x)
    assert np.max(np.abs(zeta_nls(Z, n) - ref) / ref) <= 1e-12
    assert zeta_nls(1e3, n) == 0.0  # cosh would overflow here


def test_zeta_nls_profile(linear_law):
    n = nls_coeffs(15.0, linear_law)
    assert zeta_nls(0.0, n) == pytest.approx(np.sqrt(2 * n.a2 / n.a3), rel=1e-15)
    Z = np.linspace(-5, 5, 21)
    vals = zeta_nls(Z, n)
    assert np.all(vals > 0)
    assert np.allclose(vals, zeta_nls(-Z, n))
    far = 10.0 * np.sqrt(n.a1 / n.a2)
    assert zeta_nls(far, n) < 1e-3 * zeta_nls(0.0, n)


def test_zeta_nls_residual_spectral(linear_law):
    # the gamma = 15 envelope decays at rate sqrt(a2/a1) ~ 5.7, so resolving
    # its spectrum to 1e-10 needs k_max ~ 160; N = 4096 on L = 40 suffices
    grid = SpectralGrid.make(40.0, 4096)
    n = nls_coeffs(15.0, linear_law)
    z = zeta_nls(grid.z, n)
    zpp = grid.deriv_values(z, 2)
    res = -n.a1 * zpp + n.a2 * z - n.a3 * z**3
    assert np.max(np.abs(res)) <= 1e-10


def test_degenerate_coefficient_errors(linear_law):
    c = kdv_coeffs(5.0, linear_law)
    broken = type(c)(**{**c.__dict__, "d0": 0.0})
    with pytest.raises(ExistenceError):
        zeta_kdv(0.0, broken)
    n = nls_coeffs(15.0, linear_law)
    broken_n = type(n)(**{**n.__dict__, "a3": -1.0})
    with pytest.raises(ExistenceError):
        zeta_nls(0.0, broken_n)


def test_custom_law_changes_d0():
    # nu''(1) = 1: d0 = (1/4)(7.5 - 2.5 - 1.5); nu''(1) = 0 drops the middle term
    law0 = MagnetizationLaw.from_derivatives(0.0, 0.0)
    c = kdv_coeffs(5.0, law0)
    assert c.d0 == pytest.approx((7.5 - 1.5) / 4.0, rel=1e-14)
