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


def fit_data(ig: Interferogram) -> np.ndarray:
    """What a fit of `ig` sees: G, or its counts net of accidentals when it
    carries counts (metadata read from CSV are strings)."""
    if ig.counts is None:
        return ig.values
    return subtract_accidentals(ig.counts, float(ig.metadata.get("accidental_counts", 0.0)))


def estimated_g(ig: Interferogram) -> np.ndarray:
    """What an inversion of `ig` sees: G, or when it carries counts their estimate
    G^ = fit_data(ig) / baseline_counts, not clipped to [0, 2] (its noise is zero-mean)."""
    if ig.counts is None:
        return ig.values
    baseline = float(ig.metadata["baseline_counts"])
    if not baseline > 0:
        raise ValueError(f"baseline_counts must be positive to estimate G, got {baseline!r}")
    return fit_data(ig) / baseline


def independent_hom_dip(delta_t: np.ndarray, sigma: float, jitter_fwhm: float,
                        v_cap: float = 1.0 / 3.0) -> np.ndarray:
    """HOM visibility profile of independent photons: v_cap times the
    zero-jitter profile exp(-dt^2/2 sigma^2) (sigma in s) blurred by a
    zero-mean Gaussian jitter of FWHM `jitter_fwhm` (s), in closed form: the
    Gaussian of width s' = hypot(sigma, jitter rms) and the same area."""
    if not 0.0 <= v_cap <= 1.0:
        raise ValueError(f"v_cap must lie in [0, 1], got {v_cap!r}")
    if not 0.0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma!r}")
    if not 0.0 <= jitter_fwhm < np.inf:
        raise ValueError(f"jitter_fwhm must be nonnegative and finite, got {jitter_fwhm!r}")
    sp = np.hypot(sigma, jitter_fwhm * FWHM_TO_SIGMA)
    return v_cap * (sigma / sp) * np.exp(-0.5 * (np.asarray(delta_t, float) / sp) ** 2)


def _poisson(mu: np.ndarray, seed: int) -> np.ndarray:
    """Poisson draws for every entry of `mu` from one seeded generator."""
    return np.random.default_rng(np.random.SeedSequence(seed)).poisson(mu).astype(float)


def rate_to_counts(normalized: Interferogram, budget: SourceBudget,
                   trigger_rate: float, bin_duration: float, seed: int) -> Interferogram:
    """Synthesize noisy counts for a normalized interferogram.

    Expected counts per lattice point are baseline*G + accidentals, with
    baseline = singles_rate_1 * coincidence_to_singles * bin_duration and
    accidentals at the gated trigger rate (Hz), drawn for the whole lattice
    from one generator seeded with `seed`.  Like a measurement, the result
    holds counts and not G.
    """
    if not trigger_rate > 0:
        raise ValueError(f"trigger_rate must be positive, got {trigger_rate!r}")
    baseline = budget.singles_rate_1 * budget.coincidence_to_singles * bin_duration
    acc = accidentals(budget.singles_rate_1, budget.singles_rate_2, trigger_rate) * bin_duration
    mu = baseline * normalized.values + acc
    meta = dict(normalized.metadata, seed=seed, baseline_counts=baseline,
                accidental_counts=acc, bin_duration_s=bin_duration)
    return Interferogram(normalized.axes, None, counts=_poisson(mu, seed), metadata=meta)
