"""Weakly nonlinear coefficients and the explicit sech envelope profiles.

Strong surface tension (1 < gamma < 9): the envelope satisfies the
stationary KdV equation

    (gamma/8 - 9/8) zeta'' + 2 c0^2 zeta + 2 c0^2 d0 zeta^2 = 0,

with the solitary-wave solution zeta_kdv(Z) = -(3/(2 d0)) sech^2(...).

Weak surface tension (gamma > 9): the carrier-wave envelope satisfies the
stationary NLS equation

    -a1 zeta'' + a2 zeta - a3 |zeta|^2 zeta = 0,

with zeta_nls(Z) = sqrt(2 a2/a3) sech(sqrt(a2/a1) Z).  The cubic constant
a3 is assembled from the quadratic self-interaction constants A..E of the
carrier and its zeroth/second harmonics; the harmonic amplitudes are

    zeta0 = zeta0_coeff |zeta1|^2,   zeta2 = zeta2_coeff zeta1^2.

D(omega) is implemented with the f(omega)^2 reading (the alternative
f(omega^2) variant is exposed for the extraction cross-check, which settles
the choice numerically).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .dispersion import DispersionProfile, Regime, make_profile
from .errors import ExistenceError, ParameterError, RegimeError
from .specfun import f_ratio

__all__ = [
    "MagnetizationLaw",
    "WnlCoeffs",
    "kdv_coeffs",
    "nls_coeffs",
    "nls_a3",
    "wnl_coeffs",
    "zeta_kdv",
    "zeta_nls",
    "cap_a",
    "cap_b",
    "cap_c",
    "cap_d",
    "cap_d_alt",
    "cap_e",
]


@dataclass(frozen=True)
class MagnetizationLaw:
    """Nondimensional magnetisation potential nu with nu'(1) = 1.

    Only nu''(1) and nu'''(1) enter the coefficient formulas; the callables
    nu and nu' are used by the fully nonlinear pressure functional and its
    linearisation.
    """

    nu: Callable[[np.ndarray], np.ndarray]
    nu_prime: Callable[[np.ndarray], np.ndarray]
    nu2: float
    nu3: float
    label: str = "custom"

    @staticmethod
    def linear() -> "MagnetizationLaw":
        """Linear magnetisation m(s) = s, i.e. nu(s) = s^2/2."""
        return MagnetizationLaw(nu=lambda s: 0.5 * np.asarray(s) ** 2,
                                nu2=1.0, nu3=0.0, label="linear",
                                nu_prime=lambda s: np.asarray(s, dtype=float))

    @staticmethod
    def from_derivatives(nu2: float, nu3: float) -> "MagnetizationLaw":
        """Cubic model law matching the prescribed derivatives at s = 1."""

        def nu(s):
            d = np.asarray(s) - 1.0
            return d + 0.5 * nu2 * d**2 + nu3 * d**3 / 6.0

        def nu_prime(s):
            d = np.asarray(s) - 1.0
            return 1.0 + nu2 * d + 0.5 * nu3 * d**2

        return MagnetizationLaw(nu=nu, nu2=nu2, nu3=nu3, label="cubic",
                                nu_prime=nu_prime)

    def validate(self) -> None:
        """Finite-difference check of nu'(1) = 1 to 1e-8 and of the stored
        nu'', nu''' to 1e-6 relative (absolute below 1)."""
        # a non-finite nu2 or nu3 would poison every stencil value, nu(1) too
        for name, value in (("nu2", self.nu2), ("nu3", self.nu3)):
            if not np.isfinite(value):
                raise ParameterError(f"law's {name} must be finite: got {value}")
        # h balances roundoff (eps/h^3 in d3) against stencil truncation
        h = 5e-3
        s = 1.0 + h * np.array([-2, -1, 0, 1, 2], dtype=float)
        with np.errstate(all="ignore"):  # a non-finite law fails below
            v = np.asarray(self.nu(s), dtype=float)
            # 4th-order first derivative: the nu'''(1) truncation of the plain
            # central difference would already exceed the 1e-8 normalisation check
            d1 = (-v[4] + 8 * v[3] - 8 * v[1] + v[0]) / (12 * h)
            d2 = (v[3] - 2 * v[2] + v[1]) / h**2
            d3 = (v[4] - 2 * v[3] + 2 * v[1] - v[0]) / (2 * h**3)
        # written as "not <=" so that NaN fails too
        if not abs(d1 - 1.0) <= 1e-8:
            raise ParameterError(f"law violates nu'(1) = 1: got {d1}")
        if not abs(d2 - self.nu2) <= 1e-6 * max(1.0, abs(self.nu2)):
            raise ParameterError(f"nu''(1) mismatch: {d2} vs stored {self.nu2}")
        if not abs(d3 - self.nu3) <= 1e-6 * max(1.0, abs(self.nu3)):
            raise ParameterError(f"nu'''(1) mismatch: {d3} vs stored {self.nu3}")


def quad_coeff_a0(gamma: float, law: MagnetizationLaw) -> float:
    """Quadratic pressure constant A0 = -gamma - gamma nu''(1)/2 + 1."""
    return -gamma - 0.5 * gamma * law.nu2 + 1.0


def cubic_coeff_b0(gamma: float, law: MagnetizationLaw) -> float:
    """Cubic pressure constant B0 = gamma + gamma nu''(1) + gamma nu'''(1)/6 - 1."""
    return gamma + gamma * law.nu2 + gamma * law.nu3 / 6.0 - 1.0


def cap_a(omega: float) -> float:
    fw, f2w = f_ratio(omega), f_ratio(2.0 * omega)
    return 1.5 * omega**2 - 0.5 * fw**2 - fw * f2w + 0.5 * f2w


def cap_b(omega: float) -> float:
    fw = f_ratio(omega)
    return omega**2 - fw**2 - 4.0 * fw + 2.0


def cap_c(omega: float) -> float:
    fw, f2w = f_ratio(omega), f_ratio(2.0 * omega)
    return 1.5 * omega**2 - fw * f2w + 0.5 * fw - 0.5 * fw**2


def cap_d(omega: float) -> float:
    fw = f_ratio(omega)
    return 0.5 * omega**2 - 1.5 * fw - 0.5 * fw**2


def cap_d_alt(omega: float) -> float:
    """Variant reading with f(omega^2) in place of f(omega)^2 (rejected)."""
    fw = f_ratio(omega)
    return 0.5 * omega**2 - 1.5 * fw - 0.5 * f_ratio(omega**2)


def cap_e(omega: float) -> float:
    fw, f2w = f_ratio(omega), f_ratio(2.0 * omega)
    return (2.0 * fw**2 * f2w - 6.0 * fw * omega**2 + 6.5 * fw**2
            - fw * f2w - 4.0 * fw + 0.5 * omega**2)


@dataclass(frozen=True)
class WnlCoeffs:
    """All weakly nonlinear constants for one (gamma, law) pair."""

    gamma: float
    regime: Regime
    omega: float
    c0_squared: float
    A0: float
    B0: float
    #: strong regime: quadratic KdV constant and dispersion coefficient
    d0: Optional[float] = None
    kdv_dispersion: Optional[float] = None
    #: weak regime: NLS constants and harmonic data
    a1: Optional[float] = None
    a2: Optional[float] = None
    a3: Optional[float] = None
    capA: Optional[float] = None
    capB: Optional[float] = None
    capC: Optional[float] = None
    capD: Optional[float] = None
    capE: Optional[float] = None
    zeta0_coeff: Optional[float] = None
    zeta2_coeff: Optional[float] = None


def kdv_coeffs(gamma: float, law: MagnetizationLaw) -> WnlCoeffs:
    """Strong-regime constants: c0^2 = (gamma-1)/2, d0, and gamma/8 - 9/8."""
    if not (1.0 < gamma < 9.0):
        raise RegimeError(f"KdV coefficients need 1 < gamma < 9, got {gamma}")
    c0sq = 0.5 * (gamma - 1.0)
    d0 = (1.5 * gamma - 0.5 * gamma * law.nu2 - 1.5) / (2.0 * c0sq)
    A0 = quad_coeff_a0(gamma, law)
    coeffs = WnlCoeffs(
        gamma=gamma,
        regime=Regime.STRONG,
        omega=0.0,
        c0_squared=c0sq,
        A0=A0,
        B0=cubic_coeff_b0(gamma, law),
        d0=d0,
        kdv_dispersion=gamma / 8.0 - 9.0 / 8.0,
    )
    # algebraic identity tying d0 to the quadratic pressure constants
    if abs(2.0 * c0sq * d0 - (A0 + 5.0 * c0sq)) > 1e-12 * max(
        1.0, abs(A0 + 5.0 * c0sq)
    ):
        raise ParameterError("2 c0^2 d0 = A0 + 5 c0^2 identity violated")
    return coeffs


def nls_a3(c: WnlCoeffs, profile: DispersionProfile, capd: float) -> float:
    """The cubic NLS constant a3 from the A0, B0 and A..E of ``c``, with
    D(omega) = capd: ``c.capD`` (the f(omega)^2 reading) or ``cap_d_alt``."""
    omega, c0sq, A0 = c.omega, c.c0_squared, c.A0
    four_a3 = (
        2.0 / profile.g(2.0 * omega) * (c0sq * c.capC - A0 + omega**2)
        * (c0sq * c.capA - A0 - 0.5 * omega**2)
        + 2.0 / profile.g(0.0) * (c0sq * capd - A0)
        * (c0sq * c.capB - 2.0 * A0 + omega**2)
        - 3.0 * c.B0 - 0.5 * omega**2 + 1.5 * omega**4 + c0sq * c.capE
    )
    return 0.25 * four_a3


def nls_coeffs(gamma: float, law: MagnetizationLaw,
               profile: Optional[DispersionProfile] = None) -> WnlCoeffs:
    """Weak-regime constants a1, a2, a3 and the A..E building blocks."""
    if gamma <= 9.0:
        raise RegimeError(f"NLS coefficients need gamma > 9, got {gamma}")
    if profile is None:
        profile = make_profile(gamma)
    omega = profile.omega
    c0sq = profile.c0_squared
    A0 = quad_coeff_a0(gamma, law)
    A, B = cap_a(omega), cap_b(omega)
    coeffs = WnlCoeffs(
        gamma=gamma,
        regime=Regime.WEAK,
        omega=omega,
        c0_squared=c0sq,
        A0=A0,
        B0=cubic_coeff_b0(gamma, law),
        a1=0.5 * profile.g_second(omega),
        a2=c0sq * f_ratio(omega),
        capA=A,
        capB=B,
        capC=cap_c(omega),
        capD=cap_d(omega),
        capE=cap_e(omega),
        zeta0_coeff=(omega**2 - 2.0 * A0 + c0sq * B) / profile.g(0.0),
        zeta2_coeff=(c0sq * A - A0 - 0.5 * omega**2) / profile.g(2.0 * omega),
    )
    a3 = nls_a3(coeffs, profile, coeffs.capD)
    if a3 <= 0.0:
        raise ExistenceError(
            f"NLS soliton requires a3 > 0; got a3 = {a3} at gamma = {gamma}"
        )
    return replace(coeffs, a3=a3)


def wnl_coeffs(gamma: float, law: MagnetizationLaw) -> WnlCoeffs:
    """Dispatch on regime; gamma = 9 has no weakly nonlinear theory."""
    if gamma == 9.0:
        raise RegimeError("gamma = 9 is the critical case; no envelope theory")
    if gamma < 9.0:
        return kdv_coeffs(gamma, law)
    return nls_coeffs(gamma, law)


def zeta_kdv(Z, coeffs: WnlCoeffs):
    """Explicit KdV solitary envelope -(3/(2 d0)) sech^2(2 sqrt(c0^2/(9-gamma)) Z)."""
    if coeffs.regime is not Regime.STRONG or coeffs.d0 is None:
        raise RegimeError("zeta_kdv needs strong-regime coefficients")
    if coeffs.d0 == 0.0:
        raise ExistenceError("degenerate quadratic coefficient d0 = 0")
    rate = 2.0 * np.sqrt(coeffs.c0_squared / (9.0 - coeffs.gamma))
    e = np.exp(-2.0 * np.abs(rate * np.asarray(Z, dtype=float)))  # no cosh to overflow
    return -(1.5 / coeffs.d0) * 4.0 * e / (1.0 + e) ** 2  # sech^2 x = 4e / (1 + e)^2


def zeta_nls(Z, coeffs: WnlCoeffs):
    """Explicit NLS envelope sqrt(2 a2/a3) sech(sqrt(a2/a1) Z)."""
    if coeffs.regime is not Regime.WEAK:
        raise RegimeError("zeta_nls needs weak-regime coefficients")
    if coeffs.a1 is None or coeffs.a1 <= 0 or coeffs.a2 <= 0 or coeffs.a3 <= 0:
        raise ExistenceError("NLS envelope requires a1, a2, a3 > 0")
    amp = np.sqrt(2.0 * coeffs.a2 / coeffs.a3)
    rate = np.sqrt(coeffs.a2 / coeffs.a1)
    e = np.exp(-np.abs(rate * np.asarray(Z, dtype=float)))  # sech x = 2e / (1 + e^2)
    return amp * 2.0 * e / (1.0 + e * e)
