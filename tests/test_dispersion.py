"""Dispersion relation: c^2, f', h, regime classification, root finding."""

import numpy as np
import pytest

from ferrojet import dispersion as dsp
from ferrojet.errors import ParameterError, RegimeError
from ferrojet.specfun import F_SERIES_CUT, f_ratio
from ferrojet.wnl import nls_coeffs

# frozen 30-digit values of the auxiliary monotone function
H_AT_1 = 9.6994978198656940139
FPRIME_AT_2 = 0.75854641099719339972


def test_c_squared_basics():
    assert dsp.c_squared(0.0, 5.0) == pytest.approx(2.0, abs=1e-14)
    # even in k
    k = np.linspace(0.1, 8.0, 17)
    assert np.allclose(dsp.c_squared(k, 5.0), dsp.c_squared(-k, 5.0))
    assert np.all(dsp.c_squared(k, 5.0) > 0)
    # flat at the origin
    h = 1e-4
    slope = (dsp.c_squared(h, 5.0) - dsp.c_squared(-h, 5.0)) / (2 * h)
    assert abs(slope) <= 1e-6
    # increases towards infinity
    assert dsp.c_squared(100.0, 5.0) > dsp.c_squared(10.0, 5.0)
    with pytest.raises(ParameterError):
        dsp.c_squared(1.0, 0.5)


def test_f_prime_against_central_difference():
    for k in np.concatenate([np.linspace(0.1, 5, 15), [10.0, 20.0, 30.0]]):
        d = 1e-6 * max(1.0, k)
        fd = (f_ratio(k + d) - f_ratio(k - d)) / (2 * d)
        assert abs(dsp.f_prime(k) - fd) <= 1e-7
    assert dsp.f_prime(0.0) == 0.0
    assert abs(dsp.f_prime(2.0) - FPRIME_AT_2) <= 1e-13
    # positive away from the origin, odd in k
    for k in (1.0, 5.0, 10.0):
        assert dsp.f_prime(k) > 0
        assert dsp.f_prime(-k) == -dsp.f_prime(k)


def _mp_f_derivative(k, n):
    """d^n f / dk^n at the float k, by mpmath at 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return mpmath.diff(lambda x: x * mpmath.besseli(0, x) / mpmath.besseli(1, x),
                           mpmath.mpf(k), n)


def test_f_second_matches_mpmath_on_both_branches():
    ks = np.concatenate([np.linspace(0.05, F_SERIES_CUT, 6),
                         np.linspace(F_SERIES_CUT + 1e-4, 12.0, 24)])
    for k in ks:
        assert abs(dsp.f_second(k) - float(_mp_f_derivative(k, 2))) <= 1e-13
    assert dsp.f_second(0.0) == 0.5  # f = 2 + k^2/4 + O(k^4)
    assert np.array_equal(dsp.f_second(-ks), dsp.f_second(ks))


@pytest.mark.parametrize("gamma", [10.0, 15.0, 30.0])
def test_closed_form_derivatives_match_mpmath(gamma, linear_law):
    p = dsp.make_profile(gamma)
    omega, c0sq = p.omega, p.c0_squared
    g1 = 2.0 * omega - c0sq * float(_mp_f_derivative(omega, 1))
    g2 = 2.0 - c0sq * float(_mp_f_derivative(omega, 2))
    assert abs(p.g_prime(omega) - g1) <= 1e-12
    assert abs(p.g_second(omega) - g2) <= 1e-12 * g2
    a1 = nls_coeffs(gamma, linear_law, p).a1
    assert abs(a1 - 0.5 * g2) <= 1e-12 * 0.5 * g2


def test_h_limit_and_monotonicity():
    assert abs(dsp.h_function(1e-4) - 9.0) <= 1e-6
    assert dsp.h_function(2.0) > dsp.h_function(1.0)
    assert abs(dsp.h_function(1.0) - H_AT_1) <= 1e-12
    ks = np.linspace(0.02, 10.0, 500)
    assert np.all(np.diff(dsp.h_function(ks)) > 0)
    with pytest.raises(ParameterError):
        dsp.h_function(0.0)


def test_omega_round_trips():
    gamma = dsp.h_function(1.0)
    assert abs(dsp.omega_of_gamma(gamma) - 1.0) <= 1e-10
    omega = dsp.omega_of_gamma(15.0)
    assert abs(dsp.h_function(omega) - 15.0) <= 1e-10
    assert dsp.omega_of_gamma(9.01) < dsp.omega_of_gamma(10.0) < dsp.omega_of_gamma(20.0)
    with pytest.raises(RegimeError):
        dsp.omega_of_gamma(5.0)


def test_omega_returns_where_float_spacing_exceeds_the_bracket_tolerance():
    # omega ~ sqrt(gamma - 1) = 1e4: one float step is 1.8e-12 > OMEGA_TOL, so
    # the bisection stops at adjacent floats; below 8192 nothing changes
    omega = dsp.omega_of_gamma(1e8)
    assert abs(dsp.h_function(omega) / 1e8 - 1.0) <= 1e-10
    assert dsp.omega_of_gamma(15.0) == 2.675240200697746


@pytest.mark.parametrize("gamma", [np.nan, np.inf])
def test_profile_rejects_non_finite_gamma(gamma):
    with pytest.raises(ParameterError):
        dsp.make_profile(gamma)


@pytest.mark.parametrize("gamma", [10.0, 15.0, 30.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8])
def test_weak_profile_minimum_conditions(gamma):
    # g's terms are of size gamma, so its rounding at the minimum grows with
    # gamma (an absolute 1e-9 gate refused every gamma from 1e5 up)
    p = dsp.make_profile(gamma)
    assert p.regime is dsp.Regime.WEAK
    assert abs(p.g(p.omega)) <= 1e-11 * gamma
    assert abs(p.g_prime(p.omega)) <= 1e-14 * p.omega
    assert p.g_second(p.omega) > 0
    # both published expressions for the minimum speed agree
    assert abs(2.0 * p.omega / dsp.f_prime(p.omega) - p.c2(p.omega)) <= 1e-10 * p.c0_squared


def test_profile_regimes():
    p5 = dsp.make_profile(5.0)
    assert p5.regime is dsp.Regime.STRONG
    assert p5.c0_squared == 2.0 and p5.omega == 0.0 and p5.solvable
    p9 = dsp.make_profile(9.0)
    assert p9.regime is dsp.Regime.CRITICAL and not p9.solvable
    p15 = dsp.make_profile(15.0)
    assert p15.c0_squared == pytest.approx(
        2.0 * p15.omega / dsp.f_prime(p15.omega), rel=1e-14
    )
    with pytest.raises(ParameterError):
        dsp.make_profile(0.7)


@pytest.mark.parametrize("gamma", [5.0, 9.5, 15.0, 30.0])
def test_symbol_nonnegative_with_minima_at_carrier(gamma):
    p = dsp.make_profile(gamma)
    span = 3.0 * p.omega + 5.0
    k = np.linspace(-span, span, 2000)
    g = p.g(k)
    assert np.min(g) >= -1e-12
    km = abs(k[np.argmin(g)])
    assert abs(km - p.omega) <= span / 1000.0 + 1e-12


def test_strong_symbol_quadratic_lower_bound():
    p = dsp.make_profile(5.0)
    delta = 0.5
    k = np.linspace(delta, 40.0, 500)
    ratio = p.g(k) / k**2
    assert np.min(ratio) > 0.01  # measured constant, order 0.1


def test_scaled_symbol_limit():
    p = dsp.make_profile(5.0)
    val = p.g_scaled(1e-3, 1.0)
    assert abs(val - (9.0 - 5.0) / 8.0) <= 1e-4 * (9.0 - 5.0) / 8.0
