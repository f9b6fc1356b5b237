"""Special-function tests: series values, oracles, seams, scaling."""

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from ferrojet import checks
from ferrojet import specfun as sf
from ferrojet.checks import (
    bessel_i_quadrature,
    bessel_k_quadrature,
    struve_l_quadrature,
)
from ferrojet.errors import DomainError

import reference

# frozen oracle values (trapezoidal quadrature of the integral
# representations, cross-checked against 30-digit arithmetic)
I0_AT_10 = 2815.7166284662544715
L0_AT_3 = 4.6486857317537102826


def test_series_values_at_origin():
    assert sf.besseli(0, 0.0) == 1.0
    assert sf.besseli(1, 0.0) == 0.0
    assert sf.besseli(2, 0.0) == 0.0
    assert checks.struvel(0, 0.0) == 0.0
    assert checks.struvel(1, 0.0) == 0.0


def test_i0_at_10_matches_quadrature_oracle():
    oracle = bessel_i_quadrature(0, 10.0) * np.exp(10.0)
    assert abs(oracle - I0_AT_10) <= 1e-12 * I0_AT_10
    val = sf.besseli(0, 10.0)
    assert abs(val - oracle) <= 1e-12 * oracle


def test_wronskian_identity_on_log_grid():
    x = np.logspace(-3, np.log10(30.0), 200)
    w = sf.besseli(0, x) * sf.besselk(1, x) + sf.besseli(1, x) * sf.besselk(0, x)
    assert np.max(np.abs(x * w - 1.0)) <= 1e-12


def test_k1_small_argument_asymptotic():
    x = 1e-3
    assert abs(x * sf.besselk(1, x) - 1.0) <= 1e-3


def test_k0_large_argument_asymptotic():
    x = 50.0
    val = sf.besselk(0, x, scaled=True) * np.sqrt(2.0 * x / np.pi)
    assert abs(val - 1.0) <= 1e-2


def test_scaled_unscaled_consistency():
    x = np.array([0.5, 3.0, 17.0, 120.0])
    for order in (0, 1, 2):
        lhs = sf.besseli(order, x)
        rhs = sf.besseli(order, x, scaled=True) * np.exp(x)
        assert np.max(np.abs(lhs - rhs) / rhs) <= 1e-14
    for order in (0, 1):
        lhs = sf.besselk(order, x)
        rhs = sf.besselk(order, x, scaled=True) * np.exp(-x)
        assert np.max(np.abs(lhs - rhs) / np.abs(lhs)) <= 1e-14


def test_scaled_variant_finite_up_to_1e4():
    x = np.logspace(0, 4, 40)
    for order in (0, 1, 2):
        assert np.all(np.isfinite(sf.besseli(order, x, scaled=True)))
    for order in (0, 1):
        assert np.all(np.isfinite(sf.besselk(order, x, scaled=True)))


def test_struve_quadrature_oracle_at_3():
    oracle = struve_l_quadrature(0, 3.0)
    assert abs(oracle - L0_AT_3) <= 1e-12 * L0_AT_3
    assert abs(checks.struvel(0, 3.0) - oracle) <= 1e-10 * oracle


def test_struve_bessel_cross_derivative_identity():
    # d/ds [pi s (I1 L0 - I0 L1)] = 2 s I1(s)
    s, d = 2.0, 1e-5
    fd = (checks.struve_bessel_cross(s + d) - checks.struve_bessel_cross(s - d)) / (2 * d)
    assert abs(fd - 2.0 * s * sf.besseli(1, s)) <= 1e-6


def test_struve_bessel_cross_nondecreasing():
    s = np.linspace(0.0, 20.0, 200)
    assert np.all(np.diff(checks.struve_bessel_cross(s)) >= -1e-14)


def test_k_quadrature_oracle():
    x = np.logspace(-1, np.log10(40.0), 25)
    for order in (0, 1):
        vals = sf.besselk(order, x, scaled=True)
        oracle = np.array([bessel_k_quadrature(order, xi) for xi in x])
        assert np.max(np.abs(vals - oracle) / oracle) <= 1e-12


def test_joint_evaluator_matches_scipy_and_public_functions():
    special = pytest.importorskip("scipy.special")
    seams = np.array([sf.SEAM_K, sf.SEAM_I])
    x = np.concatenate([np.logspace(-3, 4, 400), seams,
                        np.nextafter(seams, 0.0), np.nextafter(seams, np.inf)])
    joint = sf._bessel01_scaled(x)
    oracles = (special.i0e, special.i1e, special.k0e, special.k1e)
    for vals, oracle in zip(joint, oracles):
        ref = oracle(x)
        assert np.max(np.abs(vals - ref) / ref) <= 1e-14
    for order in (0, 1):
        pairs = ((joint[order], sf.besseli(order, x, scaled=True)),
                 (joint[2 + order], sf.besselk(order, x, scaled=True)))
        for vals, public in pairs:
            assert np.max(np.abs(vals - public) / public) <= 1e-15


def test_k_alone_is_the_joint_evaluators_k():
    # besselk computes I only below SEAM_K; its K stays bit for bit the same
    seam = np.array([sf.SEAM_K])
    x = np.concatenate([np.logspace(-3, 4, 701), seam, np.nextafter(seam, 0.0),
                        np.nextafter(seam, np.inf)])
    joint = sf._bessel01_scaled(x)
    for order in (0, 1):
        assert np.array_equal(sf.besselk(order, x, scaled=True), joint[2 + order])


def _every_element_stop(term, total, probe):
    """The former stopping test: every element after every term."""
    return bool(np.all(np.abs(term) <= sf._SERIES_RTOL * np.abs(total)))


def _build_arguments():
    """|k| rt at every point of the BVP build's radial rule on the benchmark
    grid (L = 400, N = 1024, nr = 64), one array per chunk of modes as the
    build passes them."""
    from ferrojet import dno
    from ferrojet.spectral import SpectralGrid

    r = dno.RadialGrid.make(64).r
    t = np.concatenate([[0.0], r, [1.0]])
    s = 0.5 * (dno._gauss_rule(dno._RULE_POINTS)[0] + 1.0)
    q = t[:-1, None] + np.diff(t)[:, None] * s
    x = SpectralGrid.make(400.0, 1024).kr[1:]
    chunks = [x[c:c + dno._BUILD_MODES, None] * q[:, None, :]
              for c in range(0, x.size, dno._BUILD_MODES)]
    return chunks + [x[:, None] * r]


def test_series_stop_matches_the_every_element_test(monkeypatch):
    # the probe only skips full tests that would fail, so every series stops
    # at the same term and every value is bit for bit the former one
    rng = np.random.default_rng(7)
    sets = _build_arguments() + [
        np.logspace(-6, np.log10(checks.SEAM_L), 4001),
        rng.permutation(np.linspace(0.0, sf.SEAM_I, 777)),
        rng.uniform(0.0, sf.SEAM_K, (13, 17)),
        np.array([sf.SEAM_K]), np.array([0.0]), np.array(3.5),
    ]

    def evaluate(x):
        x = np.asarray(x, dtype=float)
        i_vals = sf._iv_series_scaled(x, (0, 1, 2))
        return i_vals + [checks._lv_series(n, np.atleast_1d(x)) for n in (0, 1)]

    fast = [evaluate(x) for x in sets]
    # Struve L stops through specfun's one series loop too
    monkeypatch.setattr(sf, "_converged", _every_element_stop)
    for x, got in zip(sets, fast):
        for a, b in zip(got, evaluate(x)):
            assert np.array_equal(a, b)


def test_series_terms_match_the_scalar_recurrences():
    # the lattice sums' term count, read from the one series loop at the
    # largest argument, is the count the former scalar recurrences gave
    seams = np.array([sf.SEAM_K, sf.SEAM_I])
    z = np.concatenate([np.linspace(0.0, sf.SEAM_I, 30001), seams,
                        np.nextafter(seams, 0.0), [np.nextafter(sf.SEAM_K, np.inf)]])
    got = [sf._series_terms(float(v)) for v in z]
    assert got == [reference.series_terms(float(v)) for v in z]
    # and the lattice's rows are the former table's, bit for bit
    assert np.array_equal(sf._LATTICE_COEFFS, reference.lattice_coeffs())


def test_series_values_match_the_term_recurrences():
    # rows[:, m] t^m summed by the one loop against the former term
    # recurrences: I to 2e-15, K (the log sums to the lattice's term count,
    # by polyval) to 1e-14 and Struve L to 3e-15, relative.  Near SEAM_K,
    # K0 = s0 - (log(x/2) + gamma) I0 cancels about tenfold, so both sums'
    # roundings reach K0 amplified: both read up to 1e-14 from mpmath there
    # (the bound of test_joint_evaluator_matches_scipy_and_public_functions)
    x = np.concatenate([np.logspace(-6, np.log10(sf.SEAM_I), 4001),
                        np.linspace(1e-6, sf.SEAM_I, 4001)])
    for nu in (0, 1, 2):
        want = reference.iv_series_scaled(x, nu)
        got = sf._iv_series_scaled(x, (nu,))[0]
        assert np.max(np.abs(got - want) / want) <= 2e-15, nu
    xk = np.concatenate([np.logspace(-6, np.log10(sf.SEAM_K), 2001),
                         np.linspace(1.0, sf.SEAM_K, 2001)])
    i0, i1 = (reference.iv_series_scaled(xk, nu) for nu in (0, 1))
    rows = reference.lattice_coeffs()[2:, :reference.series_terms(sf.SEAM_K)]
    s0, s1 = polyval(0.25 * xk * xk, rows.T)
    e = np.exp(xk)
    want = sf._k01_from_log_sums(xk, i0 * e, i1 * e, s0, s1)
    for got, ref in zip(sf._kv_series_scaled(xk, i0, i1), want):
        assert np.max(np.abs(got - ref * e) / (ref * e)) <= 1e-14
    xl = np.concatenate([np.logspace(-6, np.log10(checks.SEAM_L), 4001),
                         np.linspace(1e-6, checks.SEAM_L, 4001)])
    for nu in (0, 1):
        want = reference.lv_series(nu, xl)
        assert np.max(np.abs(checks._lv_series(nu, xl) - want) / want) <= 3e-15, nu


def _rule_points(nr):
    """The points of a ``SolutionOperator`` build's lattice on nr state nodes:
    every point of its radial rule, then the nodes, then 1."""
    from ferrojet import dno

    r = dno.RadialGrid.make(nr).r
    t = np.concatenate([[0.0], r, [1.0]])
    s = 0.5 * (dno._gauss_rule(dno._RULE_POINTS)[0] + 1.0)
    q = t[:-1, None] + np.diff(t)[:, None] * s
    return np.concatenate([q.ravel(), r, [1.0]])


@pytest.mark.parametrize("modes", [
    np.pi * np.arange(1, 513) / 400.0,  # the benchmark grid's |k|, up to 4.02
    np.linspace(0.5, 4.0, 33),
    np.linspace(26.0, sf.SEAM_I, 9),
], ids=["benchmark", "across-seam-k", "up-to-seam-i"])
def test_lattice_matches_the_joint_evaluator(modes):
    # every lattice has |k| s on both sides of SEAM_K.  Per mode, each
    # function scaled as the joint evaluator scales it, to 2e-15 of its
    # largest: the lattice's argument t = (|k|/2)^2 s^2 rounds apart from
    # the joint evaluator's (|k| s / 2)^2, and I0, I1 feel a relative change
    # of t about |k| s / 2 times (up to 1.3e-15 at |k| = 27)
    s = _rule_points(12)
    z = modes[:, None] * s
    got = sf._bessel01_lattice(modes, s)
    for n, (vals, want) in enumerate(zip(got, sf._bessel01_scaled(z))):
        err = np.max(np.abs(vals * np.exp(-z if n < 2 else z) - want), axis=1)
        assert np.all(err <= 2e-15 * np.max(np.abs(want), axis=1)), n


@pytest.mark.parametrize("order", [0, 1, 2])
def test_i_family_two_branch_seam(order):
    seam = np.array([sf.SEAM_I])
    a = sf._iv_series_scaled(seam, (order,))[0][0]
    b = sf._iv_asym_scaled(order, seam)[0]
    assert abs(a - b) <= 1e-12 * a


@pytest.mark.parametrize("order", [0, 1])
def test_k_family_two_branch_seam(order):
    seam = np.array([sf.SEAM_K])
    a = sf._kv_series_scaled(seam, *sf._iv_series_scaled(seam, (0, 1)))[order][0]
    b = sf._kv_cheb_scaled(seam)[order][0]
    assert abs(a - b) <= 1e-12 * a


def test_k_chebyshev_table_regenerates():
    # the recipe in the comment above specfun._K01_CHEB, at 50 digits
    mpmath = pytest.importorskip("mpmath")
    n_nodes, n_terms = 80, sf._K01_CHEB.shape[0]
    with mpmath.workdps(50):
        theta = [mpmath.pi * (k + mpmath.mpf(1) / 2) / n_nodes
                 for k in range(n_nodes)]
        x = [4 / (mpmath.cos(th) + 1) for th in theta]
        cos = [[mpmath.cos(j * th) for th in theta] for j in range(n_terms + 1)]
        for order in (0, 1):
            f = [mpmath.sqrt(v) * mpmath.exp(v) * mpmath.besselk(order, v)
                 for v in x]
            c = [(1 if j == 0 else 2) * mpmath.fdot(f, cos[j]) / n_nodes
                 for j in range(n_terms + 1)]
            for j in range(n_terms):
                assert sf._K01_CHEB[j, order] == float(c[j]), (order, j)
            # the first dropped term is below 1e-18 of c_0
            assert abs(c[n_terms]) <= 1e-18 * sf._K01_CHEB[0, order]


def test_k_above_seam_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    x = np.concatenate([np.logspace(np.log10(sf.SEAM_K), 4, 121)[1:],
                        [np.nextafter(sf.SEAM_K, 0.0), sf.SEAM_K,
                         np.nextafter(sf.SEAM_K, np.inf)]])
    joint = sf._bessel01_scaled(x)
    with mpmath.workdps(30):
        for order in (0, 1):
            ref = np.array([float(mpmath.exp(v) * mpmath.besselk(order, v))
                            for v in map(mpmath.mpf, x)])
            assert np.max(np.abs(joint[2 + order] - ref) / ref) <= 1e-14, order


def test_f_ratio_values():
    assert sf.f_ratio(0.0) == 2.0
    # second central difference -> f''(0) = 1/2
    h = 1e-3
    second = (sf.f_ratio(h) - 2.0 * sf.f_ratio(0.0) + sf.f_ratio(-h)) / h**2
    assert abs(second - 0.5) <= 1e-6
    assert abs(sf.f_ratio(100.0) / np.sqrt(1.0 + 100.0**2) - 1.0) <= 1e-2
    # even and total
    k = np.linspace(-40.0, 40.0, 81)
    assert np.allclose(sf.f_ratio(k), sf.f_ratio(-k), rtol=0, atol=0)
    assert np.all(sf.f_ratio(k) > 0)


def test_f_ratio_series_matches_bessel_branch_at_cut():
    k = sf.F_SERIES_CUT
    series = np.polynomial.polynomial.polyval(0.25 * k * k, sf.F_COEFFS)
    direct = k * sf.besseli(0, k, scaled=True) / sf.besseli(1, k, scaled=True)
    assert abs(series - direct) <= 1e-13 * direct


def test_f_ratio_minus2_cancellation_free():
    # leading term k^2/4 at tiny arguments, no catastrophic subtraction
    k = np.array([1e-9, 1e-6, 1e-4])
    fm2 = sf.f_ratio_minus2(k)
    assert np.max(np.abs(fm2 - k**2 / 4.0) / (k**2 / 4.0)) <= 1e-8
    assert np.all(fm2 > 0)
    # consistent with f itself across the series/ratio seam
    for kk in (1e-3, 0.3, sf.F_SERIES_CUT, 0.8, 5.0):
        assert abs(sf.f_ratio_minus2(kk) - (sf.f_ratio(kk) - 2.0)) <= 1e-13


def test_domain_errors():
    with pytest.raises(DomainError):
        sf.besseli(0, -1.0)
    with pytest.raises(DomainError):
        sf.besseli(3, 1.0)
    with pytest.raises(DomainError):
        sf.besselk(0, 0.0)
    with pytest.raises(DomainError):
        sf.besselk(2, 1.0)
    with pytest.raises(DomainError):
        checks.struvel(0, -0.5)


def test_scaled_i_finite_where_unscaled_overflows():
    assert np.isinf(sf.besseli(0, 1e4))
    assert np.isfinite(sf.besseli(0, 1e4, scaled=True))


def test_vectorised_matches_scalar():
    x = np.array([0.1, 1.0, 10.0, 40.0])
    vec = sf.besseli(0, x)
    for xi, vi in zip(x, vec):
        assert sf.besseli(0, float(xi)) == vi
