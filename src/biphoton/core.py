"""Bi-photon spectral amplitudes, spectral filters and frequency grids.

All spectral quantities are handled internally in angular frequency
(rad/s); wavelengths appear only at construction helpers, converted with
omega = 2*pi*c/lambda.  Sampled amplitudes are normalized so the discrete
joint spectral intensity integrates to one under the grid measure.
`phasors` builds the exp(-i w t) tables of the scans and of their
inverse at the exact delays start + k step of a lattice axis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

C = 299792458.0  # vacuum speed of light, m/s
FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))
_FILTER_PAD = 0.2  # grid_for_filters' padding of a rectangular passband, relative


class EmptySupportError(ValueError):
    """Filtering removed all spectral support (passband misses the model)."""


class GridMismatchError(ValueError):
    """Two sampled amplitudes do not share the same frequency grid."""


def omega_from_wavelength(lam: float) -> float:
    """Angular frequency (rad/s) for a vacuum wavelength (m)."""
    return 2.0 * np.pi * C / lam


def energy_matched_idler(pump_lam: float, signal_lam: float) -> float:
    """Idler wavelength satisfying 1/ls + 1/li = 1/lp exactly."""
    return 1.0 / (1.0 / pump_lam - 1.0 / signal_lam)


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform midpoint-rule grid over a rectangle in (omega1, omega2).

    Sample points sit at cell centers, so rectangular filter edges that
    coincide with cell boundaries are represented without endpoint
    artifacts.
    """

    n1: int
    n2: int
    omega1_min: float
    omega1_max: float
    omega2_min: float
    omega2_max: float

    def __post_init__(self):
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError("grid sizes must be >= 2")
        if not (self.omega1_max > self.omega1_min and self.omega2_max > self.omega2_min):
            raise ValueError("grid bounds must satisfy max > min on each axis")

    @property
    def d1(self) -> float:
        return (self.omega1_max - self.omega1_min) / self.n1

    @property
    def d2(self) -> float:
        return (self.omega2_max - self.omega2_min) / self.n2

    @property
    def axis1(self) -> np.ndarray:
        return self.omega1_min + (np.arange(self.n1) + 0.5) * self.d1

    @property
    def axis2(self) -> np.ndarray:
        return self.omega2_min + (np.arange(self.n2) + 0.5) * self.d2

    @property
    def measure(self) -> float:
        return self.d1 * self.d2


def phasors(omega: np.ndarray, axis, k) -> np.ndarray:
    """exp(-i outer(t, omega)), shape (len(k), n), for a uniform omega axis
    and the delays t = start + k step of a delay axis (start, step[, count])
    at the integers k.  Each delay is formed once, exactly, as a two-float
    t + t_lo (`two_product`, `add_two`), and the table is the broadcast
    product of a coarse table exp(-i outer(t, omega[::b])) and a fine one
    exp(-i outer(t, j dw)), j < b = ceil(sqrt(n)), i.e. n/b + b
    exponentials per delay.  The large phases p = fl(t omega) of the coarse
    table carry their rounding error e and t_lo omega as
    exp(-i p) (1 - i (e + t_lo omega))."""
    omega = np.asarray(omega, float)
    t, t_lo = add_two(two_product(np.atleast_1d(k).astype(float), axis[1]), (axis[0], 0.0))
    t, t_lo = t[:, None], t_lo[:, None]
    n = len(omega)
    b = int(np.ceil(np.sqrt(n)))
    p, e = two_product(t, omega[::b])
    coarse = np.exp(-1j * p) * (1.0 - 1j * (e + t_lo * omega[::b]))
    fine = np.exp(-1j * t * (np.arange(b) * ((omega[-1] - omega[0]) / max(n - 1, 1))))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(len(t), -1)[:, :n]


def add_two(x, y):
    """x + y of two-floats x = (hi, lo) and y, as a two-float: Knuth's
    exact sum of the high parts, plus the low parts."""
    s = x[0] + y[0]
    v = s - x[0]
    return s, ((x[0] - (s - v)) + (y[0] - v)) + (x[1] + y[1])


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = hi + lo exactly, each with at most 26 significant bits."""
    hi = 134217729.0 * a - (134217729.0 * a - a)  # 2**27 + 1
    return hi, a - hi


def two_product(a, b) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p = fl(a b) and a b = p + e exactly: Dekker's product."""
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


@dataclass(frozen=True)
class SpectralFilter:
    """Per-arm passband applied before detection.

    bandwidth is the full width for 'rectangular' and the FWHM for
    'gaussian', both in rad/s.
    """

    shape: str  # 'rectangular' | 'gaussian'
    center: float
    bandwidth: float

    def __post_init__(self):
        if self.shape not in ("rectangular", "gaussian"):
            raise ValueError(f"unknown filter shape {self.shape!r}")
        if self.bandwidth <= 0:
            raise ValueError("filter bandwidth must be positive")

    @classmethod
    def from_wavelength(cls, shape: str, center_lam: float, bw_lam: float) -> "SpectralFilter":
        """The filter of the wavelength bandwidth bw_lam (m) around center_lam (m)."""
        return cls(shape, omega_from_wavelength(center_lam),
                   2.0 * np.pi * C * bw_lam / center_lam**2)

    def transmission(self, omega: np.ndarray) -> np.ndarray:
        omega = np.asarray(omega, dtype=float)
        if self.shape == "rectangular":
            half = 0.5 * self.bandwidth
            return ((omega >= self.center - half) & (omega <= self.center + half)).astype(float)
        sig = self.bandwidth * FWHM_TO_SIGMA
        return np.exp(-0.5 * ((omega - self.center) / sig) ** 2)


def grid_for_filters(filter1: SpectralFilter, filter2: SpectralFilter,
                     n: int = 256) -> FrequencyGrid:
    """Default grid spanning both passbands.

    Rectangular passbands are padded by _FILTER_PAD (relative) and laid
    out so the band edges fall exactly on cell boundaries: n is rounded up
    to even, so the band's m_band = n - 2 margin cells are even in number
    and centred. Gaussian passbands get +-5 sigma of span.
    """
    if n % 2:
        n += 1

    def bounds(f: SpectralFilter) -> tuple[float, float]:
        if f.shape == "rectangular":
            m_band = n - 2 * int(round(n * _FILTER_PAD / (2.0 * (1.0 + _FILTER_PAD))))
            half = 0.5 * n * (f.bandwidth / m_band)
        else:
            half = 5.0 * f.bandwidth * FWHM_TO_SIGMA
        return f.center - half, f.center + half

    lo1, hi1 = bounds(filter1)
    lo2, hi2 = bounds(filter2)
    return FrequencyGrid(n, n, lo1, hi1, lo2, hi2)


def grid_for_gaussian(model: "BiphotonAmplitude", n: int = 256,
                      span_sigmas: float = 5.0) -> FrequencyGrid:
    """Grid covering +-span_sigmas of an unfiltered gaussian model."""
    h1 = span_sigmas * model.sigma1
    h2 = span_sigmas * model.sigma2
    return FrequencyGrid(n, n, model.omega_c1 - h1, model.omega_c1 + h1,
                         model.omega_c2 - h2, model.omega_c2 + h2)


class BiphotonAmplitude:
    """Joint spectral amplitude Phi(omega1, omega2) of a photon pair.

    One model: a real correlated 2D gaussian (centers, widths, correlation
    coefficient rho).
    """

    def __init__(self, omega_c1, omega_c2, sigma1, sigma2, rho=0.0):
        if sigma1 <= 0 or sigma2 <= 0:
            raise ValueError("sigma1, sigma2 must be positive")
        if not -1.0 < rho < 1.0:
            raise ValueError("rho must lie strictly inside (-1, 1)")
        self.omega_c1 = float(omega_c1)
        self.omega_c2 = float(omega_c2)
        self.sigma1 = float(sigma1)
        self.sigma2 = float(sigma2)
        self.rho = float(rho)

    @classmethod
    def gaussian(cls, omega_c1, omega_c2, sigma1, sigma2, rho=0.0):
        return cls(omega_c1, omega_c2, sigma1, sigma2, rho)

    def __call__(self, omega1, omega2) -> np.ndarray:
        """Evaluate Phi(omega1, omega2) (broadcasting)."""
        u1 = (np.asarray(omega1, float) - self.omega_c1) / self.sigma1
        u2 = (np.asarray(omega2, float) - self.omega_c2) / self.sigma2
        # (u1^2 - 2 rho u1 u2 + u2^2) / (2 (1 - rho^2)), operation by operation
        # as written but in one array; [()] makes a 0-d result a scalar
        q = np.multiply(2.0 * self.rho * u1, u2, out=np.empty(np.broadcast(u1, u2).shape))
        np.subtract(u1 * u1, q, out=q)
        q += u2 * u2
        q /= 2.0 * (1.0 - self.rho**2)
        return np.exp(np.negative(q, out=q), out=q)[()]


@dataclass(frozen=True)
class SampledAmplitude:
    """Filtered amplitude sampled on a grid, JSI-normalized to one."""

    values: np.ndarray
    grid: FrequencyGrid

    def __post_init__(self):
        norm = np.vdot(self.values, self.values).real * self.grid.measure
        if not abs(norm - 1.0) <= 1e-9:
            raise ValueError(f"sampled amplitude not normalized (norm={norm})")


def sample_on_grid(model: BiphotonAmplitude, grid: FrequencyGrid,
                   filter1: SpectralFilter | None = None,
                   filter2: SpectralFilter | None = None) -> SampledAmplitude:
    """Sample Phi*F1*F2 on the grid and renormalize the discrete JSI to 1."""
    vals = model(grid.axis1[:, None], grid.axis2[None, :])
    if filter1 is not None:
        vals *= filter1.transmission(grid.axis1)[:, None]
    if filter2 is not None:
        vals *= filter2.transmission(grid.axis2)[None, :]
    norm = np.sum(np.square(vals)) * grid.measure
    if norm <= 0.0 or not np.isfinite(norm):
        raise EmptySupportError("filtered amplitude has no spectral support on the grid")
    # complex only from here: numpy divides by a complex with a zero imaginary
    # part as a product with the real reciprocal, so these are the same bits
    vals *= 1.0 / np.sqrt(norm)
    return SampledAmplitude(vals.astype(complex), grid)


def jsi(sampled: SampledAmplitude) -> np.ndarray:
    """Joint spectral intensity |Phi|^2 on the sampling grid."""
    return np.abs(sampled.values) ** 2


def jsi_correlation(jsi_values: np.ndarray, grid: FrequencyGrid) -> float:
    """Weighted Pearson correlation of (omega1, omega2) under the JSI."""
    w = jsi_values / jsi_values.sum()
    a1, a2 = grid.axis1, grid.axis2
    m1 = np.sum(w.sum(axis=1) * a1)
    m2 = np.sum(w.sum(axis=0) * a2)
    v1 = np.sum(w.sum(axis=1) * (a1 - m1) ** 2)
    v2 = np.sum(w.sum(axis=0) * (a2 - m2) ** 2)
    cov = np.sum(w * np.outer(a1 - m1, a2 - m2))
    return float(cov / np.sqrt(v1 * v2))


@dataclass(frozen=True)
class SourceParams:
    """Center wavelengths of the pair source."""

    pump_center_wavelength: float  # m
    signal_center_wavelength: float
    idler_center_wavelength: float

    def __post_init__(self):
        lhs = 1.0 / self.signal_center_wavelength + 1.0 / self.idler_center_wavelength
        rhs = 1.0 / self.pump_center_wavelength
        if abs(lhs - rhs) / rhs > 1e-4:
            raise ValueError("center wavelengths violate energy conservation "
                             f"(relative error {abs(lhs - rhs) / rhs:.2e})")


def gaussian_from_setup(omega_c1: float, omega_c2: float,
                        sigma1: float, sigma2: float,
                        coherence_fwhm: float) -> BiphotonAmplitude:
    """Correlated-gaussian model whose fringe-visibility envelope along the
    first delay axis has the requested FWHM (seconds).

    The envelope of |Gamma| along delta_tau_S at the fringe ridge is
    exp(-Var(omega1|omega2) * a^2 / 2); rho is chosen so its FWHM equals
    coherence_fwhm.
    """
    sigma_cond = 2.0 * np.sqrt(2.0 * np.log(2.0)) / coherence_fwhm
    s1 = sigma1 / np.sqrt(2.0)  # intensity marginal std
    ratio = sigma_cond / s1
    if ratio >= 1.0:
        raise ValueError("requested coherence time too short for the given sigma1")
    rho = -np.sqrt(1.0 - ratio**2)
    return BiphotonAmplitude.gaussian(omega_c1, omega_c2, sigma1, sigma2, rho=rho)
