"""Joint-spectral-intensity estimation from a full 2D interferogram.

For identical sources h = 1 - G equals the cosine transform of the (real,
nonnegative) JSI, so the JSI is recovered by the inverse cosine-kernel sum

    J(w1, w2) ~ sum_over_lattice h(a, b) * w(a) w(b) * cos(w1*a + w2*b) * da*db

evaluated on a requested frequency band as Re(E1 @ h @ E2^T), with
kernels built by core.phasors from sqrt(n)-sized tables that carry the
window w, half-axis weight and cell area.  h @ E2^T comes first, a real
product with the (re, im) pairs of E2^T.

cos is even and the window symmetric, so the terms at (a, b) and (-a, -b)
share one kernel value.  One rule per axis then covers every lattice: an
axis symmetric about 0 is weighted by window * step; an axis that starts
at 0 stands for its mirrored axis (the other half-plane is taken to be the
point reflection of the measured one), so it takes the right half of the
window over that axis and weight 2 off 0.  An Interferogram's h enters
only through its `contract`, sum_b E2^T - G @ E2^T with a fixed number of
rows of G per product.  An interferometer.LatticeScan (the noiseless
`reconstruct`) is inverted on its sampling grid, where its forward phasor
tables are the kernels: each block of delays is built once and only two
Gram sums are kept, so no (delays x band) array exists.  On the default
1432 x 2863 half lattice the round trip does 0.44 GFLOP (forming h and its
product took 3.2) and its traced peak is ~2 MB at any span.

`check_sampling` refuses a lattice step that aliases the band: pi / w_max
per axis, or with `demodulate` pi over the band half-width per axis plus
bandpass sampling on at least one axis, which keeps the mirror band at
-w_c off the band.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (BiphotonAmplitude, FrequencyGrid, SampledAmplitude, jsi, phasors,
                   sample_on_grid)
from .interferometer import Interferogram, LatticeScan, scan_2d


class AliasingError(ValueError):
    """Lattice step too coarse for the requested band."""

    def __init__(self, axis_name: str, step: float, required: float):
        super().__init__(f"lattice step {step:.3e} s on axis {axis_name} exceeds "
                         f"the sampling bound {required:.3e} s")
        self.axis_name = axis_name
        self.required_step = required


@dataclass(frozen=True)
class DelayLattice:
    """Uniform delay lattice for cosine-transform reconstruction: the
    (start, step, count) of its two axes (see `_half_axis` for the lattices
    reconstruct_jsi accepts)."""

    start1: float
    step1: float
    count1: int
    start2: float
    step2: float
    count2: int

    @classmethod
    def symmetric(cls, step1: float, half_count1: int,
                  step2: float, half_count2: int) -> "DelayLattice":
        return cls(-step1 * half_count1, step1, 2 * half_count1 + 1,
                   -step2 * half_count2, step2, 2 * half_count2 + 1)

    @classmethod
    def half(cls, step: float, half_count: int) -> "DelayLattice":
        """The a >= 0 half of symmetric(step, half_count, step, half_count)."""
        return cls(0.0, step, half_count + 1, -step * half_count, step, 2 * half_count + 1)

    @property
    def axes(self) -> tuple[tuple[float, float, int], tuple[float, float, int]]:
        """(start, step, count) of axis 1 and of axis 2, as scan_2d takes them."""
        return (self.start1, self.step1, self.count1), (self.start2, self.step2, self.count2)


@dataclass(frozen=True)
class JsiEstimate:
    values: np.ndarray            # nonnegative, unit integral over the band
    band: FrequencyGrid
    negativity_fraction: float    # pre-clip negative mass / total mass
    degenerate: bool = False


def nyquist_step(band: FrequencyGrid) -> float:
    """Maximal lattice step pi/omega_max for alias-free reconstruction."""
    w_max = max(abs(band.omega1_min), abs(band.omega1_max),
                abs(band.omega2_min), abs(band.omega2_max))
    return np.pi / w_max


def _bandpass_step(lo: float, hi: float, step: float) -> float:
    """Largest step <= `step` whose sampling rate w_s = 2 pi / step puts no
    multiple k w_s inside the open range (2 lo, 2 hi) of the sum frequency
    w + w' (not positive when no step does, i.e. when lo < 0).

    The passing steps are the windows k pi / lo <= step <= (k + 1) pi / hi,
    k = 0 .. lo / (hi - lo); each also meets w_s >= hi - lo."""
    k = min(np.floor(step * lo / np.pi), np.floor(lo / (hi - lo)))
    return float(min(step, (k + 1) * np.pi / hi))


def check_sampling(band: FrequencyGrid, axes, demodulate: bool) -> None:
    """Raise AliasingError unless the delay axes (axis 1, axis 2) of a lattice
    sample `band` without aliasing.

    Without demodulation every axis needs step <= pi / w_max of its band.
    With it, every axis needs w_s = 2 pi / step >= 2 h (h the band
    half-width), which keeps the difference frequency w - w' of the cosine
    kernel from aliasing, and at least one axis needs
    min_k |2 w_c - k w_s| >= 2 h, which keeps the sum frequency w + w' (the
    mirror band at -w_c) off the band: bandpass sampling.  The condition is
    sufficient, not necessary.  The error's `required_step` passes when it
    replaces the step of the axis it names.
    """
    edges = ((band.omega1_min, band.omega1_max), (band.omega2_min, band.omega2_max))
    for ax, (lo, hi) in zip(axes, edges):
        if demodulate:
            bound = 2.0 * np.pi / (hi - lo)
            required = _bandpass_step(lo, hi, bound)
        else:
            bound = required = np.pi / max(abs(lo), abs(hi))
        if ax.step > bound * (1.0 + 1e-9):
            raise AliasingError(ax.name, ax.step, required)
    if demodulate:
        passing = [_bandpass_step(lo, hi, ax.step) for ax, (lo, hi) in zip(axes, edges)]
        if all(ax.step > p * (1.0 + 1e-9) for ax, p in zip(axes, passing)):
            i = int(np.argmax(passing))
            raise AliasingError(axes[i].name, axes[i].step, passing[i])


def _window(n: int, kind: str) -> np.ndarray:
    if kind == "none":
        return np.ones(n)
    if kind == "hann":
        return np.hanning(n) if n > 1 else np.ones(1)
    raise ValueError(f"unknown window {kind!r}")


def _kernel(omega: np.ndarray, t: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """exp(i omega t) times the per-delay weight (`_weights`), shape
    (len(omega), len(t)); its transpose has contiguous rows."""
    k = phasors(omega, t)
    np.conj(k, out=k)
    k *= weight[:, None]
    return k.T


def _half_axis(axes) -> int | None:
    """Index of the axis that starts at 0, or None when both are symmetric
    about 0 with a point at 0; ValueError for any other lattice and for other
    than two axes (a half lattice's missing half-plane is the point
    reflection of the measured one, so its other axis must be symmetric)."""
    if len(axes) != 2:
        raise ValueError("reconstruction needs a 2D interferogram")
    half = []
    for i, ax in enumerate(axes):
        v, tol = ax.values, 1e-9 * ax.step
        if abs(v[0]) < tol:
            half.append(i)
        elif not (abs(v[0] + v[-1]) < 1e-6 * ax.step and np.any(np.abs(v) < tol)):
            raise ValueError(f"lattice axis {i + 1} must be symmetric about 0 or start at 0")
    if len(half) == 2:
        raise ValueError("at most one lattice axis may start at 0")
    return half[0] if half else None


def _weights(ax, window: str, half: bool) -> np.ndarray:
    """Per-delay weight of an axis: window times step.  A half axis stands
    for its mirrored axis, so it takes the right half of the window over
    that axis and weight 2 off 0."""
    n = ax.count
    if not half:
        return _window(n, window) * ax.step
    w = _window(2 * n - 1, window)[n - 1:] * (2.0 * ax.step)
    w[0] /= 2.0
    return w


def reconstruct_jsi(interferogram: Interferogram | LatticeScan, band: FrequencyGrid,
                    window: str = "none", demodulate: bool = False) -> JsiEstimate:
    """Inverse cosine-kernel transform of 1 - G onto the band grid.

    The lattice is symmetric about 0 on both axes or a half lattice, one
    axis starting at 0 (`_half_axis`; ValueError otherwise).  A LatticeScan
    is never formed; its `transform` inverts it on its own grid, which must
    be `band`, and refuses G outside [0, 2].

    Returns a nonnegative, unit-integral estimate; the fraction of
    pre-clip negative mass is reported as a truncation diagnostic.
    """
    half = _half_axis(interferogram.axes)
    check_sampling(band, interferogram.axes, demodulate)
    ax_a, ax_b = interferogram.axes
    wa, wb = _weights(ax_a, window, half == 0), _weights(ax_b, window, half == 1)
    if isinstance(interferogram, LatticeScan):
        est = interferogram.transform(band, wa, wb)
    else:
        # (C + iD)^T as (re, im) column pairs, so the product with 1 - G is
        # real and q = (1 - G) (C + iD)^T as pairs: est = Re((A + iB) q)
        q = interferogram.contract(_kernel(band.axis2, ax_b.values, wb).T.view(float))
        est = (_kernel(band.axis1, ax_a.values, wa) @ q.view(complex)).real

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
                       degenerate=degenerate)


def roundtrip_error(model: BiphotonAmplitude, grid: FrequencyGrid,
                    lattice: DelayLattice, demodulate: bool = False) -> float:
    """Forward-simulate the unfiltered `model`, reconstruct on the sampling
    grid, and return the relative L2 error against the true JSI."""
    sampled = sample_on_grid(model, grid)
    ig = scan_2d(sampled, sampled, *lattice.axes)
    return l2_error(reconstruct_jsi(ig, grid, demodulate=demodulate), sampled)


def l2_error(est: JsiEstimate, sampled: SampledAmplitude) -> float:
    """Relative L2 error of a JSI estimate against the JSI of the amplitude
    it was reconstructed from, which must be sampled on the estimate's band."""
    if sampled.grid != est.band:
        raise ValueError("the amplitude is not sampled on the estimate's band grid")
    true = jsi(sampled)
    true = true / (np.sum(true) * est.band.measure)
    return float(np.linalg.norm(est.values - true) / np.linalg.norm(true))
