"""Linear dispersion relation of the axisymmetric jet.

The phase speed of sinusoidal wave trains satisfies

    c^2(k) = (gamma - 1 + k^2) / f(k),        f(k) = |k| I0(|k|)/I1(|k|),

with gamma > 1 the magnetic Bond-type number.  For 1 < gamma <= 9 the global
minimum of c^2 sits at k = 0; for gamma > 9 it moves to a positive wavenumber
omega, the unique root of h(omega) = gamma where

    h(k) = 1 - k^2 + 2 k f(k) / f'(k)

is strictly increasing with h(0+) = 9.  The symbol of the linearised
travelling-wave problem at the bifurcation speed is

    g(k) = gamma - 1 + k^2 - c0^2 f(k) >= 0,

vanishing exactly at k = +-omega (k = 0 in the strong regime).  Its
derivatives are the closed forms g'(k) = 2k - c0^2 f'(k) and
g''(k) = 2 - c0^2 f''(k).

f, f - 2, f' and f'' are evaluated in ``specfun``, their one owner;
``f_prime`` and ``f_second`` are re-exported here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ParameterError, RegimeError
from .specfun import _vectorise, f_prime, f_ratio, f_ratio_minus2, f_second

__all__ = [
    "Regime",
    "DispersionProfile",
    "c_squared",
    "f_prime",
    "f_second",
    "h_function",
    "omega_of_gamma",
    "make_profile",
]

GAMMA_CRITICAL = 9.0
OMEGA_TOL = 1e-12  # the bisection's final bracket width for omega


class Regime(enum.Enum):
    STRONG = "strong"
    CRITICAL = "critical"
    WEAK = "weak"


def c_squared(k, gamma: float):
    """Squared wave speed c^2(k) = (gamma - 1 + k^2)/f(k); even and positive."""
    if gamma <= 1.0:
        raise ParameterError(f"gamma must exceed 1, got {gamma}")

    def fn(a):
        return (gamma - 1.0 + a * a) / f_ratio(a)

    return _vectorise(k, fn)


def h_function(k):
    """h(k) = 1 - k^2 + 2 k f(k)/f'(k); strictly increasing, h(0+) = 9."""
    arr = np.asarray(k, dtype=float)
    if np.any(arr <= 0):
        raise ParameterError("h is evaluated on k > 0 (limit 9 at k = 0+)")

    def fn(a):
        return 1.0 - a * a + 2.0 * a * f_ratio(a) / f_prime(a)

    return _vectorise(k, fn)


def omega_of_gamma(gamma: float) -> float:
    """Root of h(omega) = gamma for gamma > 9, by bracketed bisection.

    h is strictly increasing and unbounded, so growing the bracket always
    terminates; bisection then needs ~60 halvings to ``OMEGA_TOL``, or stops
    at adjacent floats where their spacing exceeds it (omega >= 8192).
    """
    if gamma <= GAMMA_CRITICAL:
        raise RegimeError(
            f"omega is defined for gamma > 9 (weak regime); got {gamma}"
        )
    lo, hi = 1e-8, 1.0
    doublings = 0
    while h_function(hi) < gamma:
        hi *= 2.0
        doublings += 1
        if doublings > 200:
            raise ConvergenceError(
                f"failed to bracket h(omega) = {gamma}; h({hi/2}) = "
                f"{h_function(hi/2)}"
            )
    while hi - lo > OMEGA_TOL:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if h_function(mid) < gamma:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class DispersionProfile:
    """Regime classification plus evaluators for c^2, g, g' and g''.

    In the weak regime c0^2 = 2 omega / f'(omega), which makes g'(omega)
    vanish identically; the strong/critical value is c^2(0) = (gamma-1)/2.
    """

    gamma: float
    regime: Regime
    omega: float
    c0_squared: float
    _g0: float = field(repr=False, default=0.0)

    def c2(self, k):
        return c_squared(k, self.gamma)

    def g(self, k):
        """g(k) = gamma - 1 + k^2 - c0^2 f(k), assembled cancellation-free."""

        def fn(a):
            return self._g0 + a * a - self.c0_squared * f_ratio_minus2(a)

        return _vectorise(k, fn)

    def g_scaled(self, epsilon: float, k):
        """eps^-2 g(eps k); tends to ((9-gamma)/8) k^2 as eps -> 0 (strong)."""
        e2 = epsilon * epsilon

        def fn(a):
            return (
                self._g0 / e2
                + a * a
                - self.c0_squared * f_ratio_minus2(epsilon * a) / e2
            )

        return _vectorise(k, fn)

    def g_prime(self, k):
        """g'(k) = 2k - c0^2 f'(k)."""
        return 2.0 * np.asarray(k) - self.c0_squared * f_prime(k)

    def g_second(self, k):
        """g''(k) = 2 - c0^2 f''(k)."""
        return 2.0 - self.c0_squared * f_second(k)

    @property
    def solvable(self) -> bool:
        return self.regime is not Regime.CRITICAL


def make_profile(gamma: float) -> DispersionProfile:
    """Classify gamma and build the dispersion profile with verified invariants."""
    if not 1.0 < gamma < np.inf:  # NaN fails too
        raise ParameterError(f"theory requires finite gamma > 1, got {gamma}")
    if gamma < GAMMA_CRITICAL:
        regime, omega = Regime.STRONG, 0.0
        c0sq = 0.5 * (gamma - 1.0)
    elif gamma == GAMMA_CRITICAL:
        regime, omega = Regime.CRITICAL, 0.0
        c0sq = 0.5 * (gamma - 1.0)
    else:
        regime = Regime.WEAK
        omega = omega_of_gamma(gamma)
        c0sq = 2.0 * omega / f_prime(omega)

    g0 = gamma - 1.0 - 2.0 * c0sq
    profile = DispersionProfile(
        gamma=gamma, regime=regime, omega=omega, c0_squared=c0sq, _g0=g0
    )

    if regime is Regime.WEAK:
        if abs(profile.g(omega)) > 1e-11 * gamma:
            raise ConvergenceError(
                f"dispersion minimum not resolved: g(omega) = {profile.g(omega)}"
            )
        # 2 omega - c0^2 f'(omega) cancels to a few ulps of 2 omega
        if abs(profile.g_prime(omega)) > 1e-14 * omega:
            raise ConvergenceError(
                f"g'(omega) = {profile.g_prime(omega)} exceeds tolerance"
            )
        if profile.g_second(omega) <= 0.0:
            raise ConvergenceError("g''(omega) must be positive at the minimum")
        alt = c_squared(omega, gamma)
        if abs(alt - c0sq) > 1e-10 * abs(c0sq):
            raise ConvergenceError(
                f"c0^2 mismatch: 2 omega/f'(omega) = {c0sq} vs c^2(omega) = {alt}"
            )
    return profile
