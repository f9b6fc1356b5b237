"""Periodic spectral grid and fields.

Transform convention (fixed, used everywhere): on the box [-L, L) with N
equispaced nodes z_j = -L + 2 L j / N and wavenumbers k_m = pi m / L
(m = 0, 1, ..., N/2-1, -N/2, ..., -1 in FFT order), a field is

    u(z) = sum_m  c_m  exp(i k_m z),

so c_m is literally the coefficient of exp(i k_m z); the node offset is
absorbed by the phase (-1)^m relative to numpy's FFT.  Derivatives multiply
by (i k_m), with the Nyquist mode zeroed to keep real fields real.

Real fields use the half spectrum: c_m for m = 0, 1, ..., N/2 at the
nonnegative wavenumbers ``kr`` (numpy's rfft layout, same phase), the rest
being c_-m = conj(c_m).  Every transform routine picks its path from the
input's dtype: real arrays go through rfft/irfft and stay real, complex
arrays (the NLS envelope) through the full FFT.  A symbol applied to a real
field must satisfy s(-k) = conj s(k), so that its output is real too.

Products of band-limited fields are computed exactly by zero-padding onto
one grid of 2N points and truncating back.  A product of p factors aliases
onto the retained N coefficients unless M >= (p+1) N / 2, so the 2N grid is
exact for up to three factors, the most any product here takes (K2 carries
eta^2 K0 xi); the pointwise nonlinearities are evaluated there too.
The Nyquist coefficient is split evenly between +N/2 and -N/2 on the way
up and the two are summed on the way down, in both layouts.
``refine_to_values`` and ``project_to_coeffs`` go from coefficients (either
layout) to padded-grid values and back, one transform each, so the Newton
problems and the surface operators work from coordinates to coordinates.
Every transform raises ``GridError`` when the last axis is not N long
(N/2 + 1 for a half spectrum).

Parity tags:
  'even'           real field with u(z) = u(-z)      <=>  c real and even in m
  'real-transform' complex field, u(-z) = conj(u(z)) <=>  c real
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GridError, ParameterError

__all__ = [
    "SpectralGrid",
    "SpectralField",
    "CutoffSpec",
]


@dataclass(eq=False)
class SpectralGrid:
    """Equispaced periodic grid on [-L, L) with N (power of two) nodes."""

    L: float
    N: int
    z: np.ndarray = dc_field(repr=False, default=None)
    k: np.ndarray = dc_field(repr=False, default=None)
    phase: np.ndarray = dc_field(repr=False, default=None)
    _cache: dict = dc_field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not 0 < self.L < np.inf:  # NaN fails too
            raise ParameterError(f"grid half-length must be finite and "
                                 f"positive, got {self.L}")
        if self.N < 4 or self.N & (self.N - 1):
            raise ParameterError(f"grid size must be a power of two >= 4, got {self.N}")
        n = self.N
        self.z = -self.L + 2.0 * self.L * np.arange(n) / n
        m = np.fft.fftfreq(n, d=1.0 / n)  # integer mode numbers, FFT order
        self.k = np.pi * m / self.L
        self.phase = np.where((m.astype(int) % 2) == 0, 1.0, -1.0)

    # -- constructors -------------------------------------------------------

    @classmethod
    def make(cls, L: float, N: int) -> "SpectralGrid":
        return cls(L=float(L), N=int(N))

    @classmethod
    def commensurate(cls, omega: float, min_half_length: float,
                     N: int) -> "SpectralGrid":
        """Smallest box L = m pi / omega >= min_half_length.

        Puts omega (and its harmonics) exactly on the wavenumber lattice,
        which mode-extraction and even carrier fields both require.
        """
        if omega <= 0:
            raise ParameterError("commensurate grid needs omega > 0")
        m = int(np.ceil(min_half_length * omega / np.pi))
        return cls(L=m * np.pi / omega, N=int(N))

    # -- transforms ---------------------------------------------------------

    @property
    def dz(self) -> float:
        return 2.0 * self.L / self.N

    def _check_length(self, arr: np.ndarray, n: int) -> None:
        shape = np.shape(arr)
        if not shape or shape[-1] != n:
            raise GridError(f"array of shape {shape} does not end in an axis of {n}")

    def to_coeffs(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of exp(i k_m z) from nodal values (last axis)."""
        self._check_length(values, self.N)
        return np.fft.fft(values, n=self.N, axis=-1) * (self.phase / self.N)

    def to_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Nodal values from coefficients (last axis, FFT order)."""
        self._check_length(coeffs, self.N)
        return np.fft.ifft(coeffs * self.phase, n=self.N, axis=-1) * self.N

    def to_rcoeffs(self, values: np.ndarray) -> np.ndarray:
        """Half spectrum c_0 .. c_N/2 of real nodal values (last axis)."""
        self._check_length(values, self.N)
        h = self.N // 2 + 1
        return np.fft.rfft(values, n=self.N, axis=-1) * (self.phase[:h] / self.N)

    def to_rvalues(self, rcoeffs: np.ndarray) -> np.ndarray:
        """Real nodal values from a half spectrum (imaginary c_0, c_N/2 dropped)."""
        h = self.N // 2 + 1
        self._check_length(rcoeffs, h)
        return np.fft.irfft(rcoeffs * self.phase[:h] * self.N, n=self.N, axis=-1)

    @property
    def kr(self) -> np.ndarray:
        """Nonnegative wavenumbers pi m / L, m = 0 .. N/2 (half-spectrum order)."""
        if "kr" not in self._cache:
            self._cache["kr"] = np.pi * np.arange(self.N // 2 + 1) / self.L
        return self._cache["kr"]

    @property
    def ik(self) -> np.ndarray:
        """Derivative multiplier i k_m with the Nyquist mode zeroed."""
        if "ik" not in self._cache:
            v = 1j * self.k
            v[self.N // 2] = 0.0
            self._cache["ik"] = v
        return self._cache["ik"]

    def apply_symbol(self, values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
        """Multiplier symbol(k) (FFT order) applied to nodal values (last axis)."""
        if np.isrealobj(values):
            return self.to_rvalues(self.to_rcoeffs(values) * symbol[: self.N // 2 + 1])
        return self.to_values(self.to_coeffs(values) * symbol)

    def deriv_values(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        return self.apply_symbol(values, self.ik**order)

    def mode_index(self, k_target: float) -> int:
        """FFT index of a lattice wavenumber (|k L / pi - m| <= 1e-9)."""
        m = k_target * self.L / np.pi
        mi = int(np.rint(m))
        if abs(m - mi) > 1e-9:
            raise GridError(
                f"wavenumber {k_target} is not on the lattice (m = {m})"
            )
        return mi % self.N

    # -- zero-padded products ------------------------------------------------

    def _padded(self) -> "SpectralGrid":
        """The dealiasing grid: the same box with 2N points."""
        if "pad" not in self._cache:
            self._cache["pad"] = SpectralGrid.make(self.L, 2 * self.N)
        return self._cache["pad"]

    def pad_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        n, M = self.N, self._padded().N
        out = np.zeros(coeffs.shape[:-1] + (M,), dtype=complex)
        out[..., : n // 2] = coeffs[..., : n // 2]
        # split the Nyquist pair so parity survives the refinement
        out[..., n // 2] = 0.5 * coeffs[..., n // 2]
        out[..., M - n // 2] = 0.5 * coeffs[..., n // 2]
        out[..., M - n // 2 + 1 :] = coeffs[..., n // 2 + 1 :]
        return out

    def truncate_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        n, M = self.N, self._padded().N
        out = np.empty(coeffs.shape[:-1] + (n,), dtype=complex)
        out[..., : n // 2] = coeffs[..., : n // 2]
        out[..., n // 2] = coeffs[..., n // 2] + coeffs[..., M - n // 2]
        out[..., n // 2 + 1 :] = coeffs[..., M - n // 2 + 1 :]
        return out

    def refine_rcoeffs(self, rcoeffs: np.ndarray) -> np.ndarray:
        """Half spectrum of a real field, zero-padded onto the padded grid.

        c_0 and c_N/2 of a real field are real, so their imaginary parts are
        dropped; c_N/2 is split evenly, its conjugate half sitting at -N/2.
        """
        padded = self._padded()
        n = self.N
        out = np.zeros(rcoeffs.shape[:-1] + (padded.N // 2 + 1,), dtype=complex)
        out[..., : n // 2] = rcoeffs[..., : n // 2]
        out[..., 0] = rcoeffs[..., 0].real
        out[..., n // 2] = 0.5 * rcoeffs[..., n // 2].real
        return out

    def project_rcoeffs(self, fine_rcoeffs: np.ndarray) -> np.ndarray:
        """Half spectrum back from the padded grid, dropping the unresolved tail.

        c_N/2 + c_-N/2 = 2 Re c_N/2 on the padded grid; c_0 keeps its real part.
        """
        n = self.N
        out = fine_rcoeffs[..., : n // 2 + 1].copy()
        out[..., 0] = out[..., 0].real
        out[..., n // 2] = 2.0 * out[..., n // 2].real
        return out

    def refine_to_values(self, coeffs: np.ndarray) -> np.ndarray:
        """Padded-grid values from coefficients (last axis), one transform: a
        half spectrum (N/2 + 1 long; N >= 4 tells it from N) gives real
        values, a full spectrum (N) complex ones."""
        padded = self._padded()
        if np.shape(coeffs)[-1] == self.N // 2 + 1:
            return padded.to_rvalues(self.refine_rcoeffs(coeffs))
        self._check_length(coeffs, self.N)
        return padded.to_values(self.pad_coeffs(coeffs))

    def project_to_coeffs(self, fine_values: np.ndarray) -> np.ndarray:
        """Coefficients back from padded-grid values (last axis), one transform,
        dropping the unresolved tail: the half spectrum of real values, the
        full spectrum of complex ones."""
        padded = self._padded()
        if np.isrealobj(fine_values):
            return self.project_rcoeffs(padded.to_rcoeffs(fine_values))
        return self.truncate_coeffs(padded.to_coeffs(fine_values))

    def refine_values(self, values: np.ndarray) -> np.ndarray:
        """Values resampled on the padded grid for pointwise nonlinearities."""
        to_coeffs = self.to_rcoeffs if np.isrealobj(values) else self.to_coeffs
        return self.refine_to_values(to_coeffs(values))

    def project_values(self, fine_values: np.ndarray) -> np.ndarray:
        """Back from the padded grid, dropping the unresolved tail."""
        to_values = self.to_rvalues if np.isrealobj(fine_values) else self.to_values
        return to_values(self.project_to_coeffs(fine_values))

    def product_values(self, factors: Sequence[np.ndarray]) -> np.ndarray:
        """Exact (dealiased) pointwise product of up to three band-limited
        fields; more would alias on the 2N grid."""
        p = len(factors)
        if p > 3:
            raise ParameterError(f"a dealiased product takes at most three "
                                 f"factors, got {p}")
        if p == 1:
            return factors[0]
        prod = None
        for f in factors:
            fv = self.refine_values(f)
            prod = fv if prod is None else prod * fv
        return self.project_values(prod)


def _parity_defect(grid: SpectralGrid, values: np.ndarray, parity: str) -> float:
    if parity == "even":
        rev = values[..., ::-1]
        mirrored = np.roll(rev, 1, axis=-1)  # z -> -z is j -> (N - j) mod N
        return float(
            np.max(np.abs(values - mirrored)) + np.max(np.abs(values.imag))
            if np.iscomplexobj(values)
            else np.max(np.abs(values - mirrored))
        )
    if parity == "real-transform":
        return float(np.max(np.abs(grid.to_coeffs(values).imag)))
    raise ParameterError(f"unknown parity tag {parity!r}")


class SpectralField:
    """Grid function with cached coefficients and an optional parity tag."""

    __slots__ = ("grid", "_values", "_coeffs", "parity")

    def __init__(self, grid: SpectralGrid, values=None, coeffs=None,
                 parity: Optional[str] = None, check_parity: bool = False):
        if (values is None) == (coeffs is None):
            raise ParameterError("provide exactly one of values, coeffs")
        self.grid = grid
        self._values = None if values is None else np.asarray(values)
        self._coeffs = None if coeffs is None else np.asarray(coeffs, dtype=complex)
        n = grid.N
        arr = self._values if self._values is not None else self._coeffs
        if arr.shape[-1] != n:
            raise GridError(f"field length {arr.shape[-1]} != grid size {n}")
        self.parity = parity
        if parity is not None and check_parity:
            defect = _parity_defect(grid, self.values, parity)
            if defect > 1e-12 * max(1.0, float(np.max(np.abs(self.values)))):
                raise ParameterError(f"parity {parity!r} violated by {defect:.2e}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_values(cls, grid, values, parity=None, check_parity=False):
        return cls(grid, values=values, parity=parity, check_parity=check_parity)

    @classmethod
    def from_coeffs(cls, grid, coeffs, parity=None):
        return cls(grid, coeffs=coeffs, parity=parity)

    @classmethod
    def from_function(cls, grid, fn: Callable, parity=None, check_parity=False):
        return cls(grid, values=fn(grid.z), parity=parity,
                   check_parity=check_parity)

    # -- cached views --------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            v = self.grid.to_values(self._coeffs)
            hermitian = np.max(np.abs(v.imag)) <= 1e-12 * max(
                1.0, float(np.max(np.abs(v.real)))
            )
            self._values = v.real if hermitian else v
        return self._values

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = self.grid.to_coeffs(self._values)
        return self._coeffs

    # -- operations ----------------------------------------------------------

    def shift_reflect_defect(self) -> float:
        return _parity_defect(self.grid, self.values, self.parity or "even")

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def evaluate_at(self, points) -> np.ndarray:
        """Exact trigonometric evaluation at arbitrary physical points."""
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        c = self.coeffs
        out = np.zeros(pts.shape, dtype=complex)
        k = self.grid.k
        chunk = 1 << 16
        for lo in range(0, pts.size, max(1, chunk // self.grid.N)):
            sl = slice(lo, min(pts.size, lo + max(1, chunk // self.grid.N)))
            out[sl] = np.exp(1j * np.outer(pts[sl], k)) @ c
        if np.isrealobj(self.values):
            return out.real
        return out


@dataclass(frozen=True)
class CutoffSpec:
    """Sharp spectral cutoff chi0 = 1{|k| < delta}, hence idempotent; with a
    carrier omega > 0 the width must satisfy delta < omega/3."""

    delta: float
    omega: float = 0.0

    def __post_init__(self):
        if not self.delta > 0:  # NaN fails too
            raise ParameterError("cutoff width delta must be positive")
        if self.omega > 0 and not (self.delta < self.omega / 3.0):
            raise ParameterError(
                f"weak-regime cutoff needs delta < omega/3 = {self.omega / 3.0}"
            )

    def chi0(self, k) -> np.ndarray:
        return (np.abs(np.asarray(k)) < self.delta).astype(float)
