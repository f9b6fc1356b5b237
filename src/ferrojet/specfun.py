"""Modified Bessel functions on the nonnegative real axis: what the solves evaluate.

Provides I0, I1, I2, K0, K1 together with exponentially scaled variants
(e^-x I_n, e^x K_n) and the dispersion ratio

    f(k) = |k| I0(|k|) / I1(|k|),

which is the Fourier symbol of the order-zero surface-to-velocity operator.

Evaluation is two-regime: ascending power series below a seam, and an
asymptotic series (I family) or a fixed Chebyshev series for sqrt(x) e^x K_n
in 4/x - 1 (K family; the design of Cephes k0e/k1e, Moshier, Methods and
Programs for Mathematical Functions, 1989) above it.  The I series has
positive terms only, so it is run up to a generous seam; the K seam sits
where the log-series cancellation is still harmless.  All ratios that enter
Green's-kernel code are formed from scaled values, so nothing overflows for
arguments up to 1e4 and beyond.

I0, I1, K0 and K1 are evaluated jointly (``_bessel01_scaled``): one pass of
the I0/I1 series, then below SEAM_K one pass of the K0/K1 log series that
reuses those I values, or above it one 26-term Chebyshev sum for K0 and K1
together.  Every power series stops at the first term below 1e-17 of its
partial sum in every element; the term counts are only caps.  I2 keeps its
own series (no recurrence from I0, I1, whose cancellation f' would feel).

Everything is vectorised over numpy arrays; scalars in give scalars out.
The modified Struve functions L0, L1, which only the kernel identities need,
are in ``checks``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError

__all__ = [
    "besseli",
    "besselk",
    "f_ratio",
    "f_ratio_minus2",
    "SEAM_I",
    "SEAM_K",
]

# Branch seams.  The I series keeps all-positive terms, so accuracy is pure
# roundoff up to SEAM_I; beyond it the alternating asymptotic series is
# already below 1e-15 at optimal truncation.  The K log-series loses ~1
# digit to cancellation at x=2; the Chebyshev series takes over there.
SEAM_I = 30.0
SEAM_K = 2.0

_EULER_GAMMA = 0.57721566490153286060651209008240243

# Term caps; every series stops earlier, at its first term below
# _SERIES_RTOL of its partial sum in every element.
_I_SERIES_TERMS = 80
_K_SERIES_TERMS = 20
_SERIES_RTOL = 1e-17
_ASYM_TERMS = 24


def _asym_coeffs(nu: int, n: int) -> np.ndarray:
    # a_k(nu) = prod_{j<=k} (4 nu^2 - (2j-1)^2) / (k! 8^k)
    mu = 4 * nu * nu
    a = np.empty(n)
    a[0] = 1.0
    for j in range(1, n):
        a[j] = a[j - 1] * (mu - (2 * j - 1) ** 2) / (8.0 * j)
    return a


_ASYM_A = {nu: _asym_coeffs(nu, _ASYM_TERMS) for nu in (0, 1, 2)}


def _probe(x: np.ndarray) -> tuple:
    """Index of the largest argument, the element whose series stops last."""
    return np.unravel_index(np.argmax(x), x.shape)


def _converged(term: np.ndarray, total: np.ndarray, probe: tuple) -> bool:
    """Every element's newest term is below _SERIES_RTOL of its partial sum.

    Both are nonnegative: pass |total| for a sum that can change sign.  The
    test over every element runs only once the probe element (``_probe``)
    has passed, so each term costs a scalar comparison until the series is
    nearly done, and the answer is the full test's.
    """
    return bool(term[probe] <= _SERIES_RTOL * total[probe]
                and np.all(term <= _SERIES_RTOL * total))


def _iv_series_scaled(x: np.ndarray, orders: tuple) -> list:
    """e^-x I_nu(x) for each nu in orders by one pass of the ascending series.

    Valid for 0 <= x <= SEAM_I.  The terms are positive, so stopping at the
    first negligible term per element loses nothing.
    """
    t = 0.25 * x * x
    probe = _probe(x)
    terms = [(0.5 * x) ** nu / math.factorial(nu) for nu in orders]
    totals = [term.copy() for term in terms]
    for m in range(1, _I_SERIES_TERMS):
        for term, total, nu in zip(terms, totals, orders):
            term *= t
            term *= 1.0 / (m * (m + nu))
            total += term
        if all(_converged(term, total, probe) for term, total in zip(terms, totals)):
            break
    e = np.exp(-x)
    return [total * e for total in totals]


def _iv_asym_scaled(nu: int, x: np.ndarray) -> np.ndarray:
    """e^-x I_nu(x) by the large-argument expansion; valid for x > SEAM_I."""
    a = _ASYM_A[nu]
    inv = 1.0 / x
    s = np.zeros_like(x)
    for j in range(_ASYM_TERMS - 1, 0, -1):
        s = (s + (-1) ** j * a[j]) * inv
    s += a[0]
    return s / np.sqrt(2.0 * np.pi * x)


def _iv_scaled(x: np.ndarray, orders: tuple) -> list:
    """e^-x I_nu(x) for each nu in orders: one series pass or the asymptotics."""
    out = [np.empty_like(x) for _ in orders]
    lo = x <= SEAM_I
    if np.any(lo):
        for o, v in zip(out, _iv_series_scaled(x[lo], orders)):
            o[lo] = v
    if not np.all(lo):
        for o, nu in zip(out, orders):
            o[~lo] = _iv_asym_scaled(nu, x[~lo])
    return out


# K0 and K1 log-series coefficients of t^m / (m!)^2: H_m and
# (H_m + H_{m+1} - 2 gamma) / (m + 1), with harmonic numbers H_m (H_0 = 0)
_HARMONIC = np.cumsum(np.r_[0.0, 1.0 / np.arange(1, _K_SERIES_TERMS + 1)])
_K0_COEFFS = _HARMONIC[:-1]
_K1_COEFFS = ((_HARMONIC[:-1] + _HARMONIC[1:] - 2.0 * _EULER_GAMMA)
              / np.arange(1, _K_SERIES_TERMS + 1))


def _kv_series_scaled(x: np.ndarray, i0: np.ndarray, i1: np.ndarray):
    """(e^x K0, e^x K1) from the log series; valid for 0 < x <= SEAM_K.

    i0, i1 are e^-x I0(x) and e^-x I1(x) at the same points, so both log
    series share one pass and reuse the I sums.
    """
    # K0 = -(log(x/2) + gamma) I0 + sum_{m>=1} H_m t^m / (m!)^2
    # K1 = 1/x + log(x/2) I1 - (x/4) sum_m (H_m + H_{m+1} - 2 gamma) t^m / (m! (m+1)!)
    t = 0.25 * x * x
    probe = _probe(x)
    term = np.ones_like(x)  # t^m / (m!)^2
    s0 = np.zeros_like(x)
    s1 = np.full_like(x, _K1_COEFFS[0])
    for m in range(1, _K_SERIES_TERMS):
        term *= t
        term *= 1.0 / (m * m)
        d0 = term * _K0_COEFFS[m]
        d1 = term * _K1_COEFFS[m]
        s0 += d0
        s1 += d1
        if _converged(d0, s0, probe) and _converged(d1, np.abs(s1), probe):
            break
    e = np.exp(x)
    lg = np.log(0.5 * x)
    k0 = (s0 - (lg + _EULER_GAMMA) * i0 * e) * e
    k1 = (1.0 / x + lg * i1 * e - 0.25 * x * s1) * e
    return k0, k1


# Chebyshev coefficients of sqrt(x) e^x K_n(x) in t = 4/x - 1 on x >= SEAM_K,
# one column per order n = 0, 1 (the design of Cephes k0e/k1e: Moshier,
# Methods and Programs for Mathematical Functions, 1989).  Made with mpmath
# at 50 digits: f sampled at the 80 Chebyshev nodes t_k = cos(pi (k + 1/2)/80),
# c_j = (2 - [j = 0])/80 sum_k f(t_k) cos(pi j (k + 1/2)/80), j < 26, each
# rounded to double.  The dropped tail is below 1e-18 of c_0;
# tests/test_specfun.py regenerates the table.
_K01_CHEB = np.array([
    [1.2201515410329777, 1.3603130952422213],
    [-0.0314481013119645, 0.10392373657681724],
    [0.0015698838857300533, -0.002857816859622779],
    [-0.00012849549581627802, 0.00019521551847135162],
    [1.39498137188765e-05, -1.936197974166083e-05],
    [-1.8317555227191195e-06, 2.406484947837217e-06],
    [2.766813639445015e-07, -3.5019606030878126e-07],
    [-4.660489897687948e-08, 5.7410841254500495e-08],
    [8.574034017414225e-09, -1.0345762465678097e-08],
    [-1.6975345093890614e-09, 2.0150497551970347e-09],
    [3.5773972814003283e-10, -4.1903547593419254e-10],
    [-7.957489244477396e-11, 9.218315187605315e-11],
    [1.8559491149549264e-11, -2.129967838427791e-11],
    [-4.514597883374519e-12, 5.139639673482343e-12],
    [1.1403405882073441e-12, -1.2891739609498229e-12],
    [-2.9800969231481784e-13, 3.348419666052243e-13],
    [8.032890775068375e-14, -8.976705182010146e-14],
    [-2.2275133267462965e-14, 2.4771544242195988e-14],
    [6.340076476276646e-15, -7.0198370892147685e-15],
    [-1.848593377920907e-15, 2.038703166239861e-15],
    [5.5120559994043335e-16, -6.057047270643018e-16],
    [-1.6782311257549006e-16, 1.8380935752430455e-16],
    [5.2103917776435543e-17, -5.689462849193648e-17],
    [-1.6475805939842632e-17, 1.7940510478863572e-17],
    [5.3004337711773354e-18, -5.7567444820733025e-18],
    [-1.7331712005821001e-18, 1.8778651901623268e-18],
])


def _kv_cheb_scaled(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(e^x K0, e^x K1) by the Chebyshev series; valid for x >= SEAM_K."""
    k0, k1 = np.polynomial.chebyshev.chebval(4.0 / x - 1.0, _K01_CHEB) / np.sqrt(x)
    return k0, k1


def _vectorise(x, fn):
    arr = np.asarray(x, dtype=float)
    out = fn(np.atleast_1d(arr))
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def _k01_scaled(x: np.ndarray, i01=None):
    """(e^x K0, e^x K1) at x > 0; i01 = (e^-x I0, e^-x I1) at x, if known.

    Below SEAM_K one K0/K1 log-series pass that uses the I values (without
    i01 they are computed there only), above it one Chebyshev sum that
    yields K0 and K1 together.
    """
    k0 = np.empty_like(x)
    k1 = np.empty_like(x)
    lo = x <= SEAM_K
    if np.any(lo):
        if i01 is None:
            i0, i1 = _iv_scaled(x[lo], (0, 1))
        else:
            i0, i1 = i01[0][lo], i01[1][lo]
        k0[lo], k1[lo] = _kv_series_scaled(x[lo], i0, i1)
    if not np.all(lo):
        k0[~lo], k1[~lo] = _kv_cheb_scaled(x[~lo])
    return k0, k1


def _bessel01_scaled(x: np.ndarray):
    """(e^-x I0, e^-x I1, e^x K0, e^x K1) at x > 0, one pass per branch.

    One I0/I1 series pass (asymptotics above SEAM_I), then ``_k01_scaled``
    with those I values.
    """
    i0, i1 = _iv_scaled(x, (0, 1))
    return (i0, i1) + _k01_scaled(x, (i0, i1))


def _besseli_scaled(order: int, x: np.ndarray) -> np.ndarray:
    return _iv_scaled(x, (order,))[0]


def _besselk_scaled(order: int, x: np.ndarray) -> np.ndarray:
    return _k01_scaled(x)[order]


def besseli(order: int, x, scaled: bool = False):
    """I_order(x) for order in {0, 1, 2}, x >= 0.  scaled=True gives e^-x I."""
    if order not in (0, 1, 2):
        raise DomainError(f"unsupported order {order}; need 0, 1 or 2")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise DomainError("modified Bessel I requires x >= 0")

    def fn(a):
        v = _besseli_scaled(order, a)
        if scaled:
            return v
        with np.errstate(over="ignore"):
            return v * np.exp(a)

    return _vectorise(x, fn)


def besselk(order: int, x, scaled: bool = False):
    """K_order(x) for order in {0, 1}, x > 0.  scaled=True gives e^x K."""
    if order not in (0, 1):
        raise DomainError(f"unsupported order {order}; need 0 or 1")
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise DomainError("modified Bessel K diverges at 0; requires x > 0")

    def fn(a):
        v = _besselk_scaled(order, a)
        if scaled:
            return v
        return v * np.exp(-a)

    return _vectorise(x, fn)


def _f_series_fractions(nterms: int = 14) -> list[Fraction]:
    # f(k) = 2 * Q(t) with t = k^2/4 and Q = A/B,
    # A_m = 1/(m!)^2, B_m = 1/(m!(m+1)!), exact long division.
    fac = [math.factorial(m) for m in range(nterms + 2)]
    A = [Fraction(1, fac[m] ** 2) for m in range(nterms + 1)]
    B = [Fraction(1, fac[m] * fac[m + 1]) for m in range(nterms + 1)]
    Q = [Fraction(0)] * (nterms + 1)
    Q[0] = Fraction(1)
    for n in range(1, nterms + 1):
        Q[n] = A[n] - sum(B[j] * Q[n - j] for j in range(1, n + 1))
    return Q


_F_Q = _f_series_fractions()
#: Taylor coefficients of f in t = k^2/4:  f = sum_j F_COEFFS[j] t^j
F_COEFFS = np.array([2.0 * float(q) for q in _F_Q])

#: |k| below which the Taylor series is used for f (and its small-k variants).
F_SERIES_CUT = 0.5


def f_ratio(k):
    """f(k) = |k| I0(|k|) / I1(|k|), even, f(0) = 2; total on the real line."""

    def fn(a):
        ak = np.abs(a)
        out = np.empty_like(ak)
        small = ak <= F_SERIES_CUT
        if np.any(small):
            t = 0.25 * ak[small] ** 2
            out[small] = np.polynomial.polynomial.polyval(t, F_COEFFS)
        if np.any(~small):
            x = ak[~small]
            out[~small] = x * _besseli_scaled(0, x) / _besseli_scaled(1, x)
        return out

    return _vectorise(k, fn)


def f_ratio_minus2(k):
    """f(k) - 2, computed without cancellation near k = 0."""

    def fn(a):
        ak = np.abs(a)
        out = np.empty_like(ak)
        small = ak <= F_SERIES_CUT
        if np.any(small):
            t = 0.25 * ak[small] ** 2
            out[small] = t * np.polynomial.polynomial.polyval(t, F_COEFFS[1:])
        if np.any(~small):
            x = ak[~small]
            out[~small] = x * _besseli_scaled(0, x) / _besseli_scaled(1, x) - 2.0
        return out

    return _vectorise(k, fn)
