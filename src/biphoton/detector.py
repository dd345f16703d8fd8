"""Gated-detector counting statistics: accidentals, pair budget, Poisson
noise synthesis, multi-pair visibility cap and timing-jitter broadening.

The detector enters as its trigger rate (Hz) and the timing jitter as one
combined FWHM (s), both plain numbers.  FWHM <-> rms conversions use the
Gaussian factor 2*sqrt(2*ln 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FWHM_TO_SIGMA
from .interferometer import Interferogram


@dataclass(frozen=True)
class SourceBudget:
    singles_rate_1: float  # Hz
    singles_rate_2: float  # Hz
    pair_probability_per_pulse: float
    coincidence_to_singles: float
    car: float  # coincidence-to-accidental ratio

    def __post_init__(self):
        if min(self.singles_rate_1, self.singles_rate_2, self.coincidence_to_singles) < 0:
            raise ValueError("budget rates must be nonnegative")
        if self.car <= 0:
            raise ValueError("car must be positive")
        if not 0.0 <= self.pair_probability_per_pulse <= 1.0:
            raise ValueError("pair_probability_per_pulse must be in [0, 1]")


def accidentals(n1: float, n3: float, f_trig: float) -> float:
    """Accidental coincidence rate N1*N3/f_trig for pulsed gated detection."""
    if f_trig == 0:
        raise ZeroDivisionError("trigger rate must be nonzero")
    return n1 * n3 / f_trig


def pair_probability_from_car(car: float) -> float:
    """Pairs per pulse estimated as the reciprocal of the CAR."""
    if car == 0:
        raise ZeroDivisionError("car must be nonzero")
    return 1.0 / car


def subtract_accidentals(raw, accidental_counts: float) -> np.ndarray:
    """Net counts raw - accidental_counts (never clipped)."""
    return np.asarray(raw, dtype=float) - accidental_counts


def independent_hom_dip(delta_t: np.ndarray, visibility: np.ndarray,
                        jitter_fwhm: float, v_cap: float = 1.0 / 3.0) -> np.ndarray:
    """Jitter-broadened visibility profile for HOM between independent photons.

    Convolves the ideal visibility profile V(dt) with a zero-mean Gaussian
    of FWHM `jitter_fwhm` (s), then scales the result by the
    multi-pair cap v_cap.  delta_t must be uniformly spaced and the
    profile should have decayed at the edges (zero padding is used).
    """
    dt = np.asarray(delta_t, float)
    vis = np.asarray(visibility, float)
    if vis.min() < 0 or vis.max() > 1.0 + 1e-12:
        raise ValueError("ideal visibility profile must lie in [0, 1]")
    if not 0.0 <= v_cap <= 1.0:
        raise ValueError(f"v_cap must lie in [0, 1], got {v_cap!r}")
    if not jitter_fwhm >= 0.0:
        raise ValueError(f"jitter_fwhm must be nonnegative, got {jitter_fwhm!r}")
    step = np.diff(dt)
    if not np.allclose(step, step[0], rtol=1e-9, atol=0.0):
        raise ValueError("delta_t must be uniformly spaced")
    h = float(step[0])
    sig = jitter_fwhm * FWHM_TO_SIGMA
    if sig < 0.1 * h:
        return v_cap * vis
    half = int(np.ceil(5.0 * sig / h))
    t_k = h * np.arange(-half, half + 1)
    kernel = np.exp(-0.5 * (t_k / sig) ** 2)
    kernel /= kernel.sum()
    padded = np.pad(vis, half)
    return v_cap * np.convolve(padded, kernel, mode="valid")


def _poisson(mu: np.ndarray, seed: int) -> np.ndarray:
    """Poisson draws for every entry of `mu` from one seeded generator."""
    return np.random.default_rng(np.random.SeedSequence(seed)).poisson(mu).astype(float)


def rate_to_counts(normalized: Interferogram, budget: SourceBudget,
                   trigger_rate: float, bin_duration: float, seed: int) -> Interferogram:
    """Synthesize noisy counts for a normalized interferogram.

    Expected counts per lattice point are baseline*G + accidentals, with
    baseline = singles_rate_1 * coincidence_to_singles * bin_duration and
    accidentals at the gated trigger rate (Hz), drawn for the whole lattice
    from one generator seeded with `seed`.
    """
    if not trigger_rate > 0:
        raise ValueError(f"trigger_rate must be positive, got {trigger_rate!r}")
    baseline = budget.singles_rate_1 * budget.coincidence_to_singles * bin_duration
    acc = accidentals(budget.singles_rate_1, budget.singles_rate_2, trigger_rate) * bin_duration
    mu = baseline * normalized.values + acc
    meta = dict(normalized.metadata, seed=seed, baseline_counts=baseline,
                accidental_counts=acc, bin_duration_s=bin_duration)
    return Interferogram(normalized.axes, normalized.values, counts=_poisson(mu, seed),
                         metadata=meta)
