"""Surface operators of the travelling-wave equation.

The steady free-surface equation is

    P(eta) - c^2 Q(eta) = 0,

where P collects the magnetic and capillary pressure terms (local in eta,
eta_z, eta_zz) and Q the kinetic part built from the surface operator
K(eta).  K(eta) xi maps periodic surface data to -u_z at the surface of the
flattened jet; its expansion in powers of eta is

    K0 xi        = f(D) xi
    K1(eta) xi   = -(eta xi_z)_z - K0(eta K0 xi)
    K2(eta) xi   = 1/2 (eta^2 K0 xi)_zz + 1/2 K0(eta^2 xi_zz) + 1/2 (eta^2 xi_z)_z
                   - 1/2 K0(eta^2 K0 xi) + K0(eta K0(eta K0 xi)).

P and Q have homogeneous expansions P = sum P_j, Q = sum Q_j whose first
three terms are implemented verbatim; a quadratic-plus-cubic mode
extraction on carrier-wave data cross-validates every weakly nonlinear
constant against these operators.

The reference functions take nodal-value arrays shaped (..., N) and
broadcast: ``dn_expansion`` (each K_j, product and symbol one transform
pair), ``pressure_exact``, ``kinetic_exact`` and ``wave_residual``.

The Newton path works in real half spectra on one padded grid of 2N points
(power-of-two N), where every product of the expansion (two or three
factors) and the pointwise nonlinearities live; every symbol is a multiply
on coefficients by the grid's own table (``SpectralGrid.half_symbols``:
K0, d/dz and d^2/dz^2), and every refine or projection is one batched transform
(``SpectralGrid.refine_to_values``/``project_to_coeffs``).  Like every
Newton problem, the travelling-wave problem prepares its state once per
iterate and works from coordinates to coordinates: one
``KineticLinearization`` refines the surface jet [eta, eta_z, eta_zz] once,
and the fields its derivative needs also give K(eta) xi (or the solve's own
realisation of K evaluates it).  ``pressure_jacobian_fields`` reads the same
jet, so the residual P(eta) - c^2 Q(eta) is assembled on the padded grid and
projected once: eight FFT calls per iterate, where the nodal pipeline
made 105 at N = 1024.  A Jacobian action refines the directions'
jet once for both parts (``pressure_jvp`` and the kinetic derivative) and
projects pressure - c^2 kinetic once: eight calls per batch, where the
nodal-value composition made sixteen.  All of it agrees with the nodal
reference pipeline to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dispersion import make_profile
from .errors import GeometryError, ParameterError, RegimeError
from .spectral import SpectralGrid
from .wnl import (
    MagnetizationLaw,
    cap_a,
    cap_b,
    cap_d,
    cap_d_alt,
    cubic_coeff_b0,
    nls_a3,
    nls_coeffs,
    quad_coeff_a0,
)
from .wnl import kdv_coeffs

__all__ = [
    "dn0_apply",
    "dn1_apply",
    "dn2_apply",
    "dn_expansion",
    "pressure_exact",
    "pressure_term",
    "kinetic_term",
    "kinetic_exact",
    "wave_residual",
    "ExtractionRecord",
    "extract_wnl_coefficients",
    "pressure_jacobian_fields",
    "pressure_jvp",
    "KineticLinearization",
]

def dn0_apply(grid: SpectralGrid, xi: np.ndarray) -> np.ndarray:
    """K0 xi = f(D) xi."""
    return grid.apply_symbol(xi, grid.k0)


def dn1_apply(grid: SpectralGrid, eta, xi) -> np.ndarray:
    """K1(eta) xi; bilinear in (eta, xi)."""
    xiz = grid.deriv_values(xi)
    k0xi = dn0_apply(grid, xi)
    return -grid.deriv_values(grid.product_values([eta, xiz])) - dn0_apply(
        grid, grid.product_values([eta, k0xi])
    )


def dn2_apply(grid: SpectralGrid, eta, xi) -> np.ndarray:
    """K2(eta) xi."""
    k0xi = dn0_apply(grid, xi)
    xiz = grid.deriv_values(xi)
    xizz = grid.deriv_values(xi, 2)
    t1 = 0.5 * grid.deriv_values(grid.product_values([eta, eta, k0xi]), 2)
    t2 = 0.5 * dn0_apply(grid, grid.product_values([eta, eta, xizz]))
    t3 = 0.5 * grid.deriv_values(grid.product_values([eta, eta, xiz]))
    t4 = -0.5 * dn0_apply(grid, grid.product_values([eta, eta, k0xi]))
    t5 = dn0_apply(
        grid, grid.product_values([eta, dn0_apply(grid, grid.product_values([eta, k0xi]))])
    )
    return t1 + t2 + t3 + t4 + t5


def dn_expansion(grid: SpectralGrid, eta, xi, order: int) -> np.ndarray:
    """sum_{j <= order} K_j(eta) xi for order in {0, 1, 2}."""
    if order not in (0, 1, 2):
        raise ParameterError(f"expansion order must be 0, 1 or 2, got {order}")
    out = dn0_apply(grid, xi)
    if order >= 1:
        out = out + dn1_apply(grid, eta, xi)
    if order >= 2:
        out = out + dn2_apply(grid, eta, xi)
    return out


# -- pressure functional (local) ---------------------------------------------


def _refine_rows(grid: SpectralGrid, rows):
    """Padded-grid values of each half spectrum in rows, by one transform."""
    fine = grid.refine_to_values(np.stack(rows, axis=-2))
    return tuple(np.moveaxis(fine, -2, 0))


def _refined_jet(grid: SpectralGrid, rcoeffs):
    """Padded-grid values of f, f_z and f_zz from real f's half spectrum
    (batched, last axis): the derivatives are multiplies, then one refine."""
    _, D, D2 = grid.half_symbols
    return _refine_rows(grid, [rcoeffs, D * rcoeffs, D2 * rcoeffs])


def _refined_surface(grid: SpectralGrid, eta_hat):
    """eta, eta_z and eta_zz on the padded grid, guarded against 1 + eta <= 0."""
    surface = _refined_jet(grid, eta_hat)
    w_min = np.min(1.0 + surface[0])
    if w_min <= 0.0:
        raise GeometryError(f"free surface touches the rod: min(1 + eta) = {w_min}")
    return surface


def _pressure_padded(w, ezf, ezzf, s, gamma: float,
                     law: MagnetizationLaw) -> np.ndarray:
    """The pressure functional on the padded grid; s = sqrt(1 + eta_z^2)."""
    return (
        -gamma * (law.nu(1.0 / w) - law.nu(1.0))
        + 1.0 / (w * s)
        - ezzf / s**3
        - 1.0
    )


def pressure_exact(grid: SpectralGrid, eta, gamma: float,
                   law: MagnetizationLaw) -> np.ndarray:
    """Fully nonlinear pressure functional; vanishes on the quiescent jet."""
    ef, ezf, ezzf = _refined_surface(grid, grid.to_rcoeffs(eta))
    out = _pressure_padded(1.0 + ef, ezf, ezzf, np.sqrt(1.0 + ezf**2), gamma, law)
    return grid.project_values(out)


def pressure_term(grid: SpectralGrid, eta, j: int, gamma: float,
                  law: MagnetizationLaw) -> np.ndarray:
    """Homogeneous pressure term of degree j in eta (j = 1, 2, 3)."""
    if j == 1:
        return (gamma - 1.0) * np.asarray(eta) - grid.deriv_values(eta, 2)
    ez = grid.deriv_values(eta)
    if j == 2:
        a0 = quad_coeff_a0(gamma, law)
        return a0 * grid.product_values([eta, eta]) - 0.5 * grid.product_values(
            [ez, ez]
        )
    if j == 3:
        b0 = cubic_coeff_b0(gamma, law)
        ezz = grid.deriv_values(eta, 2)
        return (
            b0 * grid.product_values([eta, eta, eta])
            + 0.5 * grid.product_values([eta, ez, ez])
            + 1.5 * grid.product_values([ez, ez, ezz])
        )
    raise ParameterError(f"homogeneous pressure degree must be 1..3, got {j}")


# -- kinetic functional -------------------------------------------------------


def kinetic_term(grid: SpectralGrid, eta, j: int) -> np.ndarray:
    """Homogeneous kinetic term of degree j in eta (j = 1, 2, 3)."""
    k0e = dn0_apply(grid, eta)
    if j == 1:
        return k0e
    ez = grid.deriv_values(eta)
    eta2 = grid.product_values([eta, eta])
    if j == 2:
        return 0.5 * (
            grid.product_values([ez, ez])
            - grid.product_values([k0e, k0e])
            - grid.deriv_values(eta2, 2)
            - 2.0 * dn0_apply(grid, grid.product_values([eta, k0e]))
            + dn0_apply(grid, eta2)
        )
    if j == 3:
        k0_eta_k0e = dn0_apply(grid, grid.product_values([eta, k0e]))
        k0_eta2 = dn0_apply(grid, eta2)
        return (
            0.5 * grid.product_values([k0e, grid.deriv_values(eta2, 2)])
            + grid.product_values([k0e, k0_eta_k0e])
            - 0.5 * grid.product_values([k0e, k0_eta2])
            - grid.product_values([ez, ez, k0e])
            + 0.5 * grid.deriv_values(grid.product_values([eta, eta, k0e]), 2)
            + 0.5 * dn0_apply(
                grid, grid.product_values([eta, eta, grid.deriv_values(eta, 2)]))
            - 0.5 * grid.deriv_values(grid.product_values([eta, eta, ez]))
            - 0.5 * dn0_apply(grid, grid.product_values([eta, eta, k0e]))
            + dn0_apply(grid, grid.product_values([eta, k0_eta_k0e]))
            - 0.5 * dn0_apply(grid, grid.product_values([eta, k0_eta2]))
        )
    raise ParameterError(f"homogeneous kinetic degree must be 1..3, got {j}")


# not on the Newton path; both stay while the benchmark tracer patches wave_residual
def kinetic_exact(grid: SpectralGrid, eta,
                  dn_apply: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Kinetic functional with K(eta) realised by ``dn_apply``.

    dn_apply must be linear in its argument; it receives eta + eta^2/2 so a
    single surface solve covers both K(eta) eta and K(eta) eta^2 / 2.
    """
    eta2 = grid.product_values([eta, eta])
    P = dn_apply(np.asarray(eta) + 0.5 * eta2)
    ez = grid.deriv_values(eta)
    Pf = grid.refine_values(P)
    ezf = grid.refine_values(ez)
    W = ezf**2 / (2.0 * (1.0 + ezf**2))
    out = -0.5 * Pf**2 + W * (1.0 - Pf) ** 2 + Pf
    return grid.project_values(out)


def wave_residual(grid: SpectralGrid, eta, c2: float, gamma: float,
                  law: MagnetizationLaw,
                  dn_apply: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """P(eta) - c^2 Q(eta) with K(eta) realised by dn_apply."""
    return pressure_exact(grid, eta, gamma, law) - c2 * kinetic_exact(
        grid, eta, dn_apply
    )


# -- Jacobian actions ---------------------------------------------------------


def pressure_jacobian_fields(surface, gamma: float, law: MagnetizationLaw):
    """The pressure functional and the fields (A, B, C) of its linearisation,
    all on the padded grid, from the refined surface (eta, eta_z, eta_zz).

    Projected, the value is ``pressure_exact``'s bit for bit for the same
    surface, and d P[eta] rho = project( A rho + B rho_z + C rho_zz ).
    """
    ef, ezf, ezzf = surface
    w = 1.0 + ef
    s2 = 1.0 + ezf**2
    s = np.sqrt(s2)
    value = _pressure_padded(w, ezf, ezzf, s, gamma, law)
    A = gamma * law.nu_prime(1.0 / w) / w**2 - 1.0 / (w**2 * s)
    B = -ezf / (w * s2 * s) + 3.0 * ezzf * ezf / (s2**2 * s)
    C = -1.0 / (s2 * s)
    return value, (A, B, C)


def pressure_jvp(coeff_fields, jet) -> np.ndarray:
    """A rho + B rho_z + C rho_zz on the padded grid from the directions'
    refined jet (rho, rho_z, rho_zz), batched; project it for d P[eta] rho."""
    A, B, C = coeff_fields
    rf, rzf, rzzf = jet
    return A * rf + B * rzf + C * rzzf


class KineticLinearization:
    """Kinetic functional at eta and the context of its derivative, in half spectra.

    ``kinetic_exact`` is project(G(P_f, eta_z,f)) on the padded grid, with
    P = K(eta) xi and xi = eta + eta^2/2, so its derivative in the direction
    rho is

        project(dG/dP dP_f + dG/deta_z rho_z,f),
        dP = K(eta) sigma + (dK/deta)[rho] xi,   sigma = rho + [eta rho],

    where [.] is a dealiased product and K, dK/deta are the order-2 expansion
    K0 + K1 + K2, the only order a solve uses.  For a power-of-two N every
    product of the expansion (two or three factors) and G itself live on one
    padded grid of 2N points.  Every field is a half spectrum or padded-grid
    values: a symbol is a multiply on coefficients, and each refine or
    projection of one dependency level is one batched transform
    (``SpectralGrid.refine_to_values``/``project_to_coeffs``).

    ``__init__`` takes eta's half spectrum and refines [eta, eta_z, eta_zz]
    once (``surface``, which the pressure part reads too).  xi comes from the
    refined eta.  The fields that (dK/deta)[rho] xi needs -- D xi, K0 xi and
    D^2 xi refined, [eta K0 xi] and its K0 refined -- also give P: one batched
    projection of the K1 and K2 level rows and one of the nested
    [eta K0[eta K0 xi]].  With the surface and P's refine that is seven
    transforms; ``dn_apply`` (half spectrum to half spectrum), when given,
    evaluates P instead, as the BVP oracle does.  ``P`` is its half
    spectrum and ``value_f`` is G on the padded grid.

    ``apply`` maps the half spectra of directions (rows) to half spectra: one
    refine of the jet [rho, rho_z, rho_zz], three levels of a batched
    projection and refine, and one projection of the result -- eight
    transforms for any number of rows.  It returns the travelling-wave
    derivative: the pressure part from the same jet minus c2 times the
    kinetic part.  P, G and the map agree with
    ``dn_expansion``, ``kinetic_exact`` and the derivative of their
    nodal-value pipeline to rounding, not bit for bit.
    """

    def __init__(self, grid: SpectralGrid, eta,
                 dn_apply: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        self.grid = grid
        S, D, D2 = self.symbols = grid.half_symbols

        eta_hat = np.asarray(eta)
        self.surface = eta_f, ez_f, _ = _refined_surface(grid, eta_hat)
        self.eta2_f = eta_f * eta_f
        xi_hat = eta_hat + 0.5 * self.project(self.eta2_f)

        # the rows rho_f multiplies at the first level: eta (for sigma), then
        # g_D, g_S, g_D2 and K0 xi (S = K0, D = ik, D2 = (ik)^2):
        #   (dK/deta)[rho] xi = D[rho g_D] + S[rho g_S]
        #                       + D2[rho g_D2] + S[eta S[rho K0 xi]]
        xz_f, k0x_f, xzz_f = _refine_rows(
            grid, [D * xi_hat, S * xi_hat, D2 * xi_hat])
        q = self.project(self._levels(xz_f, k0x_f, xzz_f))
        (k0_eta_k0x_f,) = _refine_rows(grid, [S * q[3]])
        self.rho_rows = np.stack([
            eta_f, -xz_f + eta_f * xz_f,
            -k0x_f + eta_f * xzz_f + k0_eta_k0x_f - eta_f * k0x_f,
            eta_f * k0x_f, k0x_f])

        if dn_apply is not None:
            P = dn_apply(xi_hat)
        else:
            P = (S * xi_hat + D * q[0] + S * q[1] + D2 * q[2]
                 + S * self.project(eta_f * k0_eta_k0x_f))
        self.P = P
        (P_f,) = _refine_rows(grid, [P])
        s2 = 1.0 + ez_f**2
        W = ez_f**2 / (2.0 * s2)
        self.value_f = -0.5 * P_f**2 + W * (1.0 - P_f) ** 2 + P_f
        self.dG_dP = 1.0 - P_f - 2.0 * W * (1.0 - P_f)
        self.dG_dez = ez_f / s2**2 * (1.0 - P_f) ** 2

    def project(self, fine_values: np.ndarray) -> np.ndarray:
        """Half spectra on the grid of padded-grid values (last axis), one transform."""
        return self.grid.project_to_coeffs(fine_values)

    def _levels(self, s_z, k0s, s_zz, nested=None):
        """Padded-grid rows (stacked on axis -2) whose projections q give the
        levels of K(eta) s from s_z, K0 s and s_zz:
        (K1 + K2)(eta) s = D q0 + S (q1 + [eta S q3]) + D2 q2.  ``nested``,
        when given, adds eta ``nested`` to row 1."""
        eta_f, ee_f = self.surface[0], self.eta2_f
        row1 = 0.5 * ee_f * (s_zz - k0s) - eta_f * k0s
        if nested is not None:
            row1 += eta_f * nested
        return np.stack([(0.5 * ee_f - eta_f) * s_z, row1,
                         0.5 * ee_f * k0s, eta_f * k0s], axis=-2)

    def apply(self, rows, pressure_fields, c2: float) -> np.ndarray:
        """Half spectra of the pressure derivative (``pressure_fields`` from
        ``pressure_jacobian_fields``) minus c2 times the kinetic derivative,
        in the directions whose half spectra are ``rows``."""
        grid = self.grid
        S, D, D2 = self.symbols
        eta_f = self.surface[0]
        r = np.asarray(rows)
        jet = _refined_jet(grid, r)
        c = self.project(jet[0][..., None, :] * self.rho_rows)
        # the jet's share of the result; only out_f is kept past this point
        out_f = -c2 * self.dG_dez * jet[1] + pressure_jvp(pressure_fields, jet)
        del jet
        sigma = r + c[..., 0, :]
        # K0 sigma + (dK/deta)[rho] xi + (K1 + K2)(eta) sigma; the last field's
        # refine gives [eta S[rho K0 xi]]
        dP = S * sigma
        q = self.project(self._levels(*_refine_rows(
            grid, [D * sigma, S * sigma, D2 * sigma, S * c[..., 4, :]])))
        dP += D * (c[..., 1, :] + q[..., 0, :]) + S * (c[..., 2, :] + q[..., 1, :])
        (m_f,) = _refine_rows(grid, [S * q[..., 3, :]])
        dP += D2 * (c[..., 3, :] + q[..., 2, :])
        dP += S * self.project(eta_f * m_f)  # [eta K0[eta K0 sigma]]
        (dP_f,) = _refine_rows(grid, [dP])
        out_f -= c2 * self.dG_dP * dP_f
        return self.project(out_f)


# -- coefficient extraction oracle --------------------------------------------


@dataclass(frozen=True)
class ExtractionRecord:
    """Operator-level values of the weakly nonlinear constants."""

    gamma: float
    regime: str
    omega: float
    #: strong regime: kappa->0 limit of the mode-0 quadratic coefficient
    quad_strong_extracted: Optional[float] = None
    quad_strong_formula: Optional[float] = None
    #: weak regime: quadratic mode-0 and mode-2w coefficients
    mode0_extracted: Optional[float] = None
    mode0_formula: Optional[float] = None
    mode2_extracted: Optional[float] = None
    mode2_formula: Optional[float] = None
    #: weak regime: cubic carrier coefficient
    a3_extracted: Optional[float] = None
    a3_formula: Optional[float] = None
    a3_formula_alt: Optional[float] = None
    d_resolution: Optional[str] = None

    def rel(self, extracted, formula) -> float:
        return abs(extracted - formula) / max(abs(formula), 1e-300)

    @property
    def max_rel_err(self) -> float:
        pairs = []
        if self.quad_strong_extracted is not None:
            pairs.append((self.quad_strong_extracted, self.quad_strong_formula))
        if self.mode0_extracted is not None:
            pairs.extend([
                (self.mode0_extracted, self.mode0_formula),
                (self.mode2_extracted, self.mode2_formula),
                (self.a3_extracted, self.a3_formula),
            ])
        return max(self.rel(e, f) for e, f in pairs)


def _quadratic_combo(grid, eta, gamma, law, c0sq):
    return pressure_term(grid, eta, 2, gamma, law) - c0sq * kinetic_term(
        grid, eta, 2
    )


def _mode_cos_coeff(grid, values, k_target):
    c = grid.to_coeffs(values)
    idx = grid.mode_index(k_target)
    if k_target == 0.0:
        return float(c[idx].real)
    return float(2.0 * c[idx].real)


def extract_wnl_coefficients(gamma: float, law: MagnetizationLaw) -> ExtractionRecord:
    """Read quadratic/cubic interaction constants off the operators themselves.

    Strong regime: the mode-0 coefficient of the quadratic combination on
    cos(kappa z) tends to A0 + 5 c0^2 as kappa -> 0; a three-level Richardson
    ladder in kappa^2 removes the O(kappa^2) bias.

    Weak regime: on cos(omega z) the quadratic combination is exactly
    q0 + q2 cos(2 omega z); with the second-order harmonics added to the
    input, the cos(omega z) output of the quadratic-plus-cubic combination
    is exactly -a3 eps^3 + b eps^5, so two amplitudes determine a3 to
    roundoff.  The D constant enters through the formula side only, which
    is what settles the f(omega)^2 vs f(omega^2) reading.
    """
    if gamma <= 1.0:
        raise ParameterError("gamma must exceed 1")
    if gamma == 9.0:
        raise RegimeError("no weakly nonlinear theory at gamma = 9")

    if gamma < 9.0:
        coeffs = kdv_coeffs(gamma, law)
        c0sq = coeffs.c0_squared
        grid = SpectralGrid.make(1000.0 * np.pi, 64)
        kappas = [4e-3, 2e-3, 1e-3]
        vals = []
        for kap in kappas:
            eta = np.cos(kap * grid.z)
            q = _quadratic_combo(grid, eta, gamma, law, c0sq)
            vals.append(2.0 * _mode_cos_coeff(grid, q, 0.0))
        f1, f2, f3 = vals
        extracted = (64.0 * f3 - 20.0 * f2 + f1) / 45.0
        return ExtractionRecord(
            gamma=gamma,
            regime="strong",
            omega=0.0,
            quad_strong_extracted=extracted,
            quad_strong_formula=coeffs.A0 + 5.0 * c0sq,
        )

    profile = make_profile(gamma)
    coeffs = nls_coeffs(gamma, law, profile)
    omega, c0sq, A0 = coeffs.omega, coeffs.c0_squared, coeffs.A0
    grid = SpectralGrid.commensurate(omega, 16.0 * np.pi / omega, 256)

    carrier = np.cos(omega * grid.z)
    q = _quadratic_combo(grid, carrier, gamma, law, c0sq)
    # on the unit carrier: q0 = (2A0 - w^2 - c0^2 B)/4, q2 = (A0 + w^2/2 - c0^2 A)/2
    mode0 = 4.0 * _mode_cos_coeff(grid, q, 0.0)
    mode2 = 2.0 * _mode_cos_coeff(grid, q, 2.0 * omega)
    formula0 = 2.0 * A0 - omega**2 - c0sq * cap_b(omega)
    formula2 = A0 + 0.5 * omega**2 - c0sq * cap_a(omega)

    second = 0.25 * coeffs.zeta0_coeff + 0.5 * coeffs.zeta2_coeff * np.cos(
        2.0 * omega * grid.z
    )

    def carrier_cubic(eps: float) -> float:
        eta = eps * carrier + eps**2 * second
        combo = (
            pressure_term(grid, eta, 2, gamma, law)
            + pressure_term(grid, eta, 3, gamma, law)
            - c0sq * (kinetic_term(grid, eta, 2) + kinetic_term(grid, eta, 3))
        )
        return _mode_cos_coeff(grid, combo, omega)

    e1, e2 = 0.1, 0.05
    m1, m2 = carrier_cubic(e1), carrier_cubic(e2)
    # m(eps) = a eps^3 + b eps^5 exactly; solve for a
    a_cubic = (m1 * e2**5 - m2 * e1**5) / (e1**3 * e2**5 - e2**3 * e1**5)
    a3_extr = -a_cubic

    a3_main = nls_a3(coeffs, profile, cap_d(omega))
    a3_alt = nls_a3(coeffs, profile, cap_d_alt(omega))
    resolution = (
        "f(omega)^2"
        if abs(a3_extr - a3_main) <= abs(a3_extr - a3_alt)
        else "f(omega^2)"
    )
    return ExtractionRecord(
        gamma=gamma,
        regime="weak",
        omega=omega,
        mode0_extracted=mode0,
        mode0_formula=formula0,
        mode2_extracted=mode2,
        mode2_formula=formula2,
        a3_extracted=a3_extr,
        a3_formula=a3_main,
        a3_formula_alt=a3_alt,
        d_resolution=resolution,
    )
