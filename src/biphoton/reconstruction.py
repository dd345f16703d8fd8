"""Joint-spectral-intensity estimation from a full 2D interferogram.

For identical sources 1 - G equals the cosine transform of the (real,
nonnegative) JSI, so the JSI is recovered by the inverse cosine-kernel sum

    J(w1, w2) ~ sum_over_lattice (1 - G)(a, b) * cos(w1*a + w2*b) * da*db

evaluated on a requested frequency band as Re(E1 @ (1 - G) @ E2^T), with
band-center-referenced kernels that carry the window, half-plane fold and
cell area, so the lattice-sized product is real.  `demodulate` only
relaxes the lattice-step bound from pi / w_max to pi over the band half-width.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (BiphotonAmplitude, FrequencyGrid, SampledAmplitude,
                   SpectralFilter, sample_on_grid)
from .interferometer import Interferogram, scan_2d


class AliasingError(ValueError):
    """Lattice step too coarse for the requested band."""

    def __init__(self, axis_name: str, step: float, required: float):
        super().__init__(f"lattice step {step:.3e} s on axis {axis_name} exceeds "
                         f"the sampling bound {required:.3e} s")
        self.axis_name = axis_name
        self.required_step = required


@dataclass(frozen=True)
class DelayLattice:
    """Uniform delay lattice for cosine-transform reconstruction.

    Each axis must either be symmetric about zero or start at zero; in the
    latter case the missing half-plane is filled by the joint-negation
    symmetry of Re(Gamma), which requires the other axis to be symmetric.
    """

    start1: float
    step1: float
    count1: int
    start2: float
    step2: float
    count2: int

    def __post_init__(self):
        if self.step1 <= 0 or self.step2 <= 0:
            raise ValueError("lattice steps must be positive")
        for name, mode in (("1", self.axis_mode(1)), ("2", self.axis_mode(2))):
            if mode == "invalid":
                raise ValueError(f"lattice axis {name} must be symmetric about 0 "
                                 "or start at 0")
        if self.axis_mode(1) == "half" and self.axis_mode(2) == "half":
            raise ValueError("at most one lattice axis may start at 0")

    @classmethod
    def symmetric(cls, step1: float, half_count1: int,
                  step2: float, half_count2: int) -> "DelayLattice":
        return cls(-step1 * half_count1, step1, 2 * half_count1 + 1,
                   -step2 * half_count2, step2, 2 * half_count2 + 1)

    def axis(self, i: int) -> np.ndarray:
        start, step, count = ((self.start1, self.step1, self.count1) if i == 1
                              else (self.start2, self.step2, self.count2))
        return start + step * np.arange(count)

    def axis_mode(self, i: int) -> str:
        v = self.axis(i)
        step = self.step1 if i == 1 else self.step2
        if abs(v[0]) < 1e-9 * step:
            return "half"
        if abs(v[0] + v[-1]) < 1e-6 * step and np.any(np.abs(v) < 1e-9 * step):
            return "symmetric"
        return "invalid"

    @classmethod
    def from_interferogram(cls, ig: Interferogram) -> "DelayLattice":
        if ig.ndim != 2:
            raise ValueError("reconstruction needs a 2D interferogram")
        a1, a2 = ig.axes
        return cls(a1.start, a1.step, a1.count, a2.start, a2.step, a2.count)


@dataclass(frozen=True)
class JsiEstimate:
    values: np.ndarray            # nonnegative, unit integral over the band
    band: FrequencyGrid
    negativity_fraction: float    # pre-clip negative mass / total mass
    window: str
    degenerate: bool = False


def nyquist_step(band: FrequencyGrid) -> float:
    """Maximal lattice step pi/omega_max for alias-free reconstruction."""
    w_max = max(abs(band.omega1_min), abs(band.omega1_max),
                abs(band.omega2_min), abs(band.omega2_max))
    return np.pi / w_max


def _axis_bound(band: FrequencyGrid, i: int, demodulate: bool) -> float:
    lo, hi = ((band.omega1_min, band.omega1_max) if i == 1
              else (band.omega2_min, band.omega2_max))
    if demodulate:
        half = 0.5 * (hi - lo)
        return np.pi / half
    return np.pi / max(abs(lo), abs(hi))


def _window(n: int, kind: str) -> np.ndarray:
    if kind == "none":
        return np.ones(n)
    if kind == "hann":
        return np.hanning(n) if n > 1 else np.ones(1)
    raise ValueError(f"unknown window {kind!r}")


def _kernel(omega: np.ndarray, t: np.ndarray, step: float, half: bool,
            window: str) -> np.ndarray:
    """exp(i omega t) referenced to the band center, times the window, the
    half-plane fold (for a start-at-zero axis) and the step of delay axis t."""
    wr = 0.5 * (omega[0] + omega[-1])
    weight = _window(len(t), window) * step * np.exp(1j * wr * t)
    if half:
        weight *= np.where(np.abs(t) < 1e-9 * step, 1.0, 2.0)
    return np.exp(1j * np.outer(omega - wr, t)) * weight


def reconstruct_jsi(interferogram: Interferogram, band: FrequencyGrid,
                    window: str = "none", demodulate: bool = False) -> JsiEstimate:
    """Inverse cosine-kernel transform of 1 - G onto the band grid.

    Returns a nonnegative, unit-integral estimate; the fraction of
    pre-clip negative mass is reported as a truncation diagnostic.
    """
    lattice = DelayLattice.from_interferogram(interferogram)
    kernels = []
    for i, (ax, omega) in enumerate(zip(interferogram.axes, (band.axis1, band.axis2)), start=1):
        bound = _axis_bound(band, i, demodulate)
        if ax.step > bound * (1.0 + 1e-9):
            raise AliasingError(ax.name, ax.step, bound)
        kernels.append(_kernel(omega, ax.values, ax.step, lattice.axis_mode(i) == "half",
                               window))
    (a, b), (c, d) = ((k.real, k.imag) for k in kernels)
    # Re((A + iB) h (C + iD)^T) = A h C^T - B h D^T, with the large product real
    p = np.vstack([a, b]) @ (1.0 - interferogram.values)
    est = p[:band.n1] @ c.T - p[band.n1:] @ d.T

    total_abs = np.sum(np.abs(est))
    degenerate = False
    if total_abs <= 0 or np.sum(est) <= 1e-12 * total_abs:
        warnings.warn("degenerate interferogram: no interference signal to invert")
        degenerate = True
        neg_frac = 0.0
        est = np.zeros_like(est)
    else:
        neg_frac = float(-np.sum(est[est < 0]) / total_abs)
        est = np.clip(est, 0.0, None)
        est /= np.sum(est) * band.measure
    return JsiEstimate(values=est, band=band, negativity_fraction=neg_frac,
                       window=window, degenerate=degenerate)


def roundtrip_error(model: BiphotonAmplitude,
                    filter1: SpectralFilter | None, filter2: SpectralFilter | None,
                    grid: FrequencyGrid, lattice: DelayLattice,
                    window: str = "none", demodulate: bool = False) -> float:
    """Forward-simulate, reconstruct on the sampling grid, and return the
    relative L2 error against the true JSI."""
    sampled = sample_on_grid(model, grid, filter1, filter2)
    ig = scan_2d(sampled, sampled,
                 (lattice.start1, lattice.step1, lattice.count1),
                 (lattice.start2, lattice.step2, lattice.count2))
    return l2_error(reconstruct_jsi(ig, grid, window=window, demodulate=demodulate), sampled)


def l2_error(est: JsiEstimate, sampled: SampledAmplitude) -> float:
    """Relative L2 error of a JSI estimate against the JSI of the amplitude
    it was reconstructed from, which must be sampled on the estimate's band."""
    if sampled.grid != est.band:
        raise ValueError("the amplitude is not sampled on the estimate's band grid")
    true = sampled.jsi()
    true = true / (np.sum(true) * est.band.measure)
    return float(np.linalg.norm(est.values - true) / np.linalg.norm(true))
