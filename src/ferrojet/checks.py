"""Oracle suites: independent cross-checks with measured errors.

Each suite returns rows of (name, value, target, error, tol, passed) so the
command-line front end can render a pass/fail table and the test suite can
assert on the same numbers.  The oracles are independent of the code paths
they check: quadrature of integral representations for the special
functions, closed-form kernel identities for the Green's function, the flat
multiplier and amplitude-sweep slopes for the boundary-value solver, and
operator-level mode extraction for the weakly nonlinear constants.

Code that only these oracles need lives here, not in the modules the solves
call: modified Struve L0, L1 (``struvel``) and the kernel identities
(``integral_*`` by quadrature, ``closed_form_*``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dno
from . import operators as op
from .dispersion import h_function, make_profile
from .dno import _gauss_rule, greens_kernel
from .errors import DomainError, ParameterError
from .spectral import SpectralGrid
from .specfun import (
    SEAM_I,
    SEAM_K,
    _besseli_scaled,
    _besselk_scaled,
    _iv_asym_scaled,
    _iv_series_scaled,
    _kv_cheb_scaled,
    _kv_series_scaled,
    _series,
    _vectorise,
    besseli,
    besselk,
)
from .wnl import MagnetizationLaw

__all__ = [
    "CheckRow",
    "struvel",
    "struve_bessel_cross",
    "integral_abs_G",
    "integral_abs_H1",
    "integral_H3",
    "closed_form_H1_integral",
    "closed_form_H3_integral",
    "specfun_suite",
    "dispersion_suite",
    "greens_suite",
    "dno_suite",
    "extraction_suite",
    "SUITES",
    "run_suite",
]


@dataclass(frozen=True)
class CheckRow:
    suite: str
    name: str
    value: float
    target: float
    error: float
    tol: float
    passed: bool


def _row(suite, name, value, target, tol, relative=True) -> CheckRow:
    denom = max(abs(target), 1e-300) if relative else 1.0
    err = abs(value - target) / denom
    return CheckRow(suite=suite, name=name, value=float(value),
                    target=float(target), error=float(err), tol=tol,
                    passed=bool(err <= tol))


def _sign_row(suite, name, value, passed, tol=0.0, sign=1.0) -> CheckRow:
    """A sign condition on ``value``: the error is how far sign * value lies
    below 0, and ``passed`` says whether the condition holds."""
    return CheckRow(suite=suite, name=name, value=value, target=0.0,
                    error=max(0.0, -sign * value), tol=tol, passed=bool(passed))


# -- modified Struve L ----------------------------------------------------------

# series below SEAM_L (_L_SERIES_TERMS is a cap), L - I asymptotics above
SEAM_L = 60.0
_L_SERIES_TERMS = 130
# L_nu(x) / (x/2)^(nu + 1) = sum_m t^m / (Gamma(m + 3/2) Gamma(m + nu + 3/2)),
# t = (x/2)^2, one row per order nu = 0, 1 (DLMF 11.2.2; the terms past the
# product's overflow, which no series reaches, are zero)
_L_ROWS = np.array([[1.0 / (math.gamma(m + 1.5) * math.gamma(m + nu + 1.5))
                     for m in range(_L_SERIES_TERMS)] for nu in (0, 1)])


def _lv_series(order: int, x: np.ndarray) -> np.ndarray:
    """L_order(x) by the ascending series; positive terms, x <= SEAM_L."""
    sums, _ = _series(0.25 * x * x, _L_ROWS[order:order + 1])
    return (0.5 * x) ** (order + 1) * sums[0]


def _lv_minus_iv_asym(order: int, x: np.ndarray) -> np.ndarray:
    """L_nu(x) - I_nu(x) for large x (DLMF 11.6.2 with z = x on the real axis)."""
    # L_nu - I_nu ~ -(1/pi) sum_k (-1)^k Gamma(k+1/2) (x/2)^(nu-2k-1) / Gamma(nu+1/2-k)
    total = np.zeros_like(x)
    half = 0.5 * x
    for k in range(12):
        num = math.gamma(k + 0.5)
        den = math.gamma(order + 0.5 - k)
        total += (-1.0) ** k * num / den * half ** (order - 2 * k - 1)
    return -total / np.pi


def struvel(order: int, x):
    """Modified Struve L_order(x) for order in {0, 1}, x >= 0."""
    if order not in (0, 1):
        raise DomainError(f"unsupported order {order}; need 0 or 1")
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise DomainError("modified Struve L requires x >= 0")

    def fn(a):
        out = np.empty_like(a)
        lo = a <= SEAM_L
        if np.any(lo):
            out[lo] = _lv_series(order, a[lo])
        if np.any(~lo):
            hi = a[~lo]
            out[~lo] = besseli(order, hi) + _lv_minus_iv_asym(order, hi)
        return out

    return _vectorise(x, fn)


def struve_bessel_cross(s):
    """pi * s * (I1(s) L0(s) - I0(s) L1(s)); nondecreasing, derivative 2 s I1(s)."""
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0):
        raise DomainError("requires s >= 0")

    def fn(a):
        return np.pi * a * (
            besseli(1, a) * struvel(0, a) - besseli(0, a) * struvel(1, a)
        )

    return _vectorise(s, fn)


# -- Green's-kernel identities --------------------------------------------------


_PANEL_NODES_INNER = 24  # Gauss nodes on [0, r0]
_PANEL_NODES_OUTER = 16  # Gauss nodes on each dyadic panel of [r0, 1]


def _panels(r0: float):
    """Quadrature panels for int_0^1 with a kink at r0 and a log point at 0.

    [0, r0] is one panel (integrand analytic there); [r0, 1] is graded
    dyadically away from r0 so each panel keeps the rt = 0 singularity at a
    distance comparable to its length.  Only the kernel-identity integrals
    below use it, on the whole kernel at one r; the solution operator has
    its own shared rule.
    """
    xg_in, wg_in = _gauss_rule(_PANEL_NODES_INNER)
    xg_out, wg_out = _gauss_rule(_PANEL_NODES_OUTER)
    nodes = [0.5 * r0 * (xg_in + 1.0)]
    weights = [0.5 * r0 * wg_in]
    a = r0
    while a < 1.0:
        b = min(2.0 * a, 1.0)
        nodes.append(0.5 * (b - a) * (xg_out + 1.0) + a)
        weights.append(0.5 * (b - a) * wg_out)
        a = b
    return np.concatenate(nodes), np.concatenate(weights)


def integral_abs_G(k: float, r: float) -> float:
    """Quadrature of int_0^1 rt |G(r, rt)| drt (G is negative definite)."""
    q, w = _panels(r)
    G = greens_kernel(k, r, q)["G"]
    return float(np.sum(w * q * np.abs(G)))


def integral_abs_H1(k: float, r: float) -> float:
    """Quadrature of int_0^1 rt |H1(r, rt)| drt (sign flips across rt = r)."""
    q, w = _panels(r)
    H1 = greens_kernel(k, r, q)["H1"]
    return float(np.sum(w * q * np.abs(H1)))


def integral_H3(k: float, r: float) -> float:
    """Quadrature of int_0^1 rt H3(r, rt) drt (H3 is nonnegative)."""
    q, w = _panels(r)
    H3 = greens_kernel(k, r, q)["H3"]
    return float(np.sum(w * q * H3))


def closed_form_H1_integral(k: float, r: float) -> float:
    """|k| int rt |H1| drt = 2|k| r I1(|k|r) (K1(|k|r) - K1(|k|)/I1(|k|) I1(|k|r))."""
    x = abs(k)
    i1r = _besseli_scaled(1, np.array([x * r]))[0]
    k1r = _besselk_scaled(1, np.array([x * r]))[0]
    ratio = (_besselk_scaled(1, np.array([x])) / _besseli_scaled(1, np.array([x])))[0]
    return float(
        2.0 * x * r * i1r * (k1r - ratio * i1r * np.exp(2.0 * x * (r - 1.0)))
    )


def closed_form_H3_integral(k: float, r: float) -> float:
    """int rt H3 drt = (pi/2) (I1(|k|r) L1(|k|)/I1(|k|) - L1(|k|r))."""
    x = abs(k)
    return float(
        0.5 * np.pi * (
            besseli(1, x * r) * struvel(1, x) / besseli(1, x) - struvel(1, x * r)
        )
    )


# -- quadrature oracles ---------------------------------------------------------


_I_QUADRATURE_PANELS = 512


def bessel_i_quadrature(order: int, x: float) -> float:
    """Scaled oracle e^-x I_n(x) = (1/pi) int_0^pi e^{x(cos t - 1)} cos(nt) dt.

    The integrand extends to a smooth even 2 pi-periodic function, so the
    uniform trapezoidal rule converges spectrally with exactly representable
    nodes (a Gauss rule would be limited by its computed node accuracy).
    """
    m = _I_QUADRATURE_PANELS
    j = np.arange(m + 1)
    t = np.pi * j / m
    f = np.exp(x * (np.cos(t) - 1.0)) * np.cos(order * t)
    return float((np.sum(f) - 0.5 * f[0] - 0.5 * f[-1]) / m)


def bessel_k_quadrature(order: int, x: float) -> float:
    """Scaled oracle e^x K_n(x) = int_0^inf e^{-x(cosh t - 1)} cosh(nt) dt."""
    T = float(np.arccosh(1.0 + 45.0 / x))
    nodes, weights = _gauss_rule(400)
    t = 0.5 * T * (nodes + 1.0)
    w = 0.5 * T * weights
    return float(np.sum(w * np.exp(-x * (np.cosh(t) - 1.0)) * np.cosh(order * t)))


def struve_l_quadrature(order: int, x: float) -> float:
    """Oracle L_0(x) = (2/pi) int_0^{pi/2} sinh(x cos t) dt and its order-1
    analogue (2x/pi) int_0^{pi/2} sinh(x cos t) sin^2 t dt."""
    nodes, weights = _gauss_rule(400)
    t = 0.25 * np.pi * (nodes + 1.0)
    w = 0.25 * np.pi * weights
    if order == 0:
        integrand = np.sinh(x * np.cos(t))
        return float(2.0 / np.pi * np.sum(w * integrand))
    integrand = np.sinh(x * np.cos(t)) * np.sin(t) ** 2
    return float(2.0 * x / np.pi * np.sum(w * integrand))


# -- suites ----------------------------------------------------------------------


def specfun_suite() -> list:
    rows = []
    xs = np.logspace(-3, np.log10(30.0), 200)
    wr = besseli(0, xs) * besselk(1, xs) + besseli(1, xs) * besselk(0, xs)
    rows.append(_row("specfun", "wronskian x*(I0K1+I1K0)=1 (200 pts)",
                     float(np.max(np.abs(xs * wr - 1.0))), 0.0, 1e-12,
                     relative=False))

    # below x ~ 0.3 the order-2 oracle integral cancels to ~1e-5 of its
    # integrand and the comparison floor exceeds 1e-12; small arguments are
    # covered by the Wronskian row and the series tests
    xq = np.logspace(np.log10(0.3), np.log10(60.0), 50)
    for order in (0, 1, 2):
        vals = besseli(order, xq, scaled=True)
        oracle = np.array([bessel_i_quadrature(order, x) for x in xq])
        rows.append(_row("specfun", f"I{order} vs quadrature oracle (50 pts)",
                         float(np.max(np.abs(vals - oracle) / np.abs(oracle))),
                         0.0, 1e-12, relative=False))
    for order in (0, 1):
        vals = besselk(order, xq, scaled=True)
        oracle = np.array([bessel_k_quadrature(order, x) for x in xq])
        rows.append(_row("specfun", f"K{order} vs quadrature oracle (50 pts)",
                         float(np.max(np.abs(vals - oracle) / np.abs(oracle))),
                         0.0, 1e-12, relative=False))
    xl = np.linspace(0.05, 60.0, 50)
    for order in (0, 1):
        vals = struvel(order, xl)
        oracle = np.array([struve_l_quadrature(order, x) for x in xl])
        rows.append(_row("specfun", f"L{order} vs quadrature oracle (50 pts)",
                         float(np.max(np.abs(vals - oracle) / np.abs(oracle))),
                         0.0, 1e-10, relative=False))

    seam_i = np.array([SEAM_I])
    series_i = _iv_series_scaled(seam_i, (0, 1, 2))
    for order in (0, 1, 2):
        a = float(series_i[order][0])
        b = float(_iv_asym_scaled(order, seam_i)[0])
        rows.append(_row("specfun", f"I{order} branch seam agreement", a, b,
                         1e-12))
    seam_k = np.array([SEAM_K])
    cheb = _kv_cheb_scaled(seam_k)
    series_k = _kv_series_scaled(seam_k, *_iv_series_scaled(seam_k, (0, 1)))
    for order in (0, 1):
        a = float(series_k[order][0])
        rows.append(_row("specfun", f"K{order} branch seam agreement", a,
                         float(cheb[order][0]), 1e-12))

    step = float(np.min(np.diff(struve_bessel_cross(np.linspace(0.0, 20.0, 200)))))
    rows.append(_sign_row("specfun", "pi s (I1 L0 - I0 L1) nondecreasing (200 pts)",
                          step, step >= -1e-14, tol=1e-14))
    return rows


# the parameters each suite checks at
DISPERSION_GAMMAS = (10.0, 15.0, 30.0)
GREENS_KS = (0.5, 1.0, 5.0, 20.0)
GREENS_RS = (0.1, 0.5, 0.9)
EXTRACTION_GAMMAS = (5.0, 10.0, 15.0, 30.0)


def dispersion_suite() -> list:
    rows = [_row("dispersion", "h(1e-4) = 9", float(h_function(1e-4)), 9.0,
                 1e-6, relative=False)]
    ks = np.linspace(0.02, 10.0, 500)
    step = float(np.min(np.diff(h_function(ks))))
    rows.append(_sign_row("dispersion", "h strictly increasing (500 pts)",
                          step, step > 0.0))
    for gamma in DISPERSION_GAMMAS:
        p = make_profile(gamma)
        rows.append(_row("dispersion", f"|g(omega)| gamma={gamma}",
                         float(abs(p.g(p.omega))), 0.0, 1e-9, relative=False))
        rows.append(_row("dispersion", f"|g'(omega)| gamma={gamma}",
                         float(abs(p.g_prime(p.omega))), 0.0, 1e-14 * p.omega,
                         relative=False))
        g2 = float(p.g_second(p.omega))
        rows.append(_sign_row("dispersion", f"g''(omega) > 0 gamma={gamma}",
                              g2, g2 > 0.0))
    return rows


def greens_suite() -> list:
    rows = []
    for k in GREENS_KS:
        for r in GREENS_RS:
            g_int = integral_abs_G(k, r)
            rows.append(_row("greens", f"int rt|G| = 1/k^2 (k={k}, r={r})",
                             g_int, 1.0 / k**2, 1e-8))
            h1 = abs(k) * integral_abs_H1(k, r)
            rows.append(_row("greens", f"|k| int rt|H1| closed form (k={k}, r={r})",
                             h1, closed_form_H1_integral(k, r), 1e-8))
            h3 = integral_H3(k, r)
            rows.append(_row("greens", f"int rt H3 closed form (k={k}, r={r})",
                             h3, closed_form_H3_integral(k, r), 1e-8))
    rng = np.random.default_rng(7)
    kk = rng.uniform(0.2, 25.0, 200)
    rr = rng.uniform(0.01, 0.99, 200)
    tt = rng.uniform(0.01, 0.99, 200)
    ker = greens_kernel(kk, rr, tt)
    g_max, h3_min = float(np.max(ker["G"])), float(np.min(ker["H3"]))
    rows.append(_sign_row("greens", "G sign-definite (negative, 200 samples)",
                          g_max, g_max < 0.0, sign=-1.0))
    rows.append(_sign_row("greens", "H3 sign-definite (nonnegative, 200 samples)",
                          h3_min, h3_min >= 0.0))
    return rows


def dno_suite() -> list:
    """The BVP oracle (half spectra in and out) against the f(k) multiplier
    at eta = 0 and against the expansion's truncation orders."""
    rows = []
    grid = SpectralGrid.make(8.0 * np.pi, 128)
    rgrid = dno.RadialGrid.make(64)
    from .specfun import f_ratio

    def oracle(eta, xi, **kwargs):
        _, K = dno.solve_flattened_bvp(grid, grid.to_rcoeffs(eta),
                                       grid.to_rcoeffs(xi), rgrid, **kwargs)
        return grid.to_rvalues(K)

    k0 = 2.0
    xi0 = np.cos(k0 * grid.z)
    flat = oracle(np.zeros(grid.N), xi0)
    rows.append(_row("dno", "flat solve reproduces f(k) multiplier",
                     float(np.max(np.abs(flat - f_ratio(k0) * xi0))),
                     0.0, 1e-10, relative=False))

    amps = (1e-3, 3e-3, 1e-2)
    xi = np.sin(grid.z)
    errs1, errs2 = [], []
    for a in amps:
        eta = a * np.cos(grid.z)
        K = oracle(eta, xi, tol=1e-14)
        errs1.append(np.max(np.abs(K - op.dn_expansion(grid, eta, xi, 1))))
        errs2.append(np.max(np.abs(K - op.dn_expansion(grid, eta, xi, 2))))
    la = np.log(amps)
    s1 = float(np.polyfit(la, np.log(errs1), 1)[0])
    s2 = float(np.polyfit(la, np.log(errs2), 1)[0])
    rows.append(CheckRow("dno", "order-1 truncation amplitude slope in [1.8,2.2]",
                         s1, 2.0, abs(s1 - 2.0), 0.2, bool(1.8 <= s1 <= 2.2)))
    rows.append(CheckRow("dno", "order-2 truncation amplitude slope in [2.7,3.3]",
                         s2, 3.0, abs(s2 - 3.0), 0.3, bool(2.7 <= s2 <= 3.3)))
    return rows


def extraction_suite() -> list:
    rows = []
    for gamma in EXTRACTION_GAMMAS:
        rec = op.extract_wnl_coefficients(gamma, MagnetizationLaw.linear())
        if rec.regime == "strong":
            rows.append(_row("extraction",
                             f"strong mode-0 coefficient = 2 c0^2 d0 (gamma={gamma})",
                             rec.quad_strong_extracted, rec.quad_strong_formula,
                             1e-8))
        else:
            rows.append(_row("extraction",
                             f"mode-0 quadratic coefficient (gamma={gamma})",
                             rec.mode0_extracted, rec.mode0_formula, 1e-6))
            rows.append(_row("extraction",
                             f"mode-2w quadratic coefficient (gamma={gamma})",
                             rec.mode2_extracted, rec.mode2_formula, 1e-6))
            rows.append(_row("extraction",
                             f"carrier cubic coefficient a3 (gamma={gamma})",
                             rec.a3_extracted, rec.a3_formula, 1e-6))
            rows.append(CheckRow(
                suite="extraction",
                name=f"D(omega) reading resolves to f(omega)^2 (gamma={gamma})",
                value=rec.rel(rec.a3_extracted, rec.a3_formula),
                target=rec.rel(rec.a3_extracted, rec.a3_formula_alt),
                error=rec.rel(rec.a3_extracted, rec.a3_formula),
                tol=1e-6,
                passed=bool(rec.d_resolution == "f(omega)^2"),
            ))
    return rows


SUITES = {
    "specfun": specfun_suite,
    "dispersion": dispersion_suite,
    "greens": greens_suite,
    "dno": dno_suite,
    "extraction": extraction_suite,
}


def run_suite(name: str) -> list:
    if name not in SUITES:
        raise ParameterError(f"unknown check suite {name!r}; "
                             f"choose from {sorted(SUITES)}")
    return SUITES[name]()
