"""Joint-spectral-intensity estimation from a full 2D interferogram.

For identical sources h = 1 - G equals the cosine transform of the (real,
nonnegative) JSI, so the JSI is recovered by the inverse cosine-kernel sum

    J(w1, w2) ~ sum_over_lattice h(a, b) * w(a) w(b) * cos(w1*a + w2*b) * da*db

evaluated on a requested frequency band as Re(conj(E1)^T (wa h wb) conj(E2)),
where w carries the window, half-axis weight and cell area: the adjoint of
the forward scan M -> Re(E1 M E2^T) at the same exact delays start + k step.

cos is even and the window symmetric, so the terms at (a, b) and (-a, -b)
share one kernel value.  One rule per axis then covers every lattice
(`_weights`): an axis symmetric about 0 is weighted by numpy's window (ones
or hanning) times the step; an axis that starts at 0 stands for its
mirrored axis (the other half-plane is the point reflection of the measured
one), so it takes the right half of the window over that axis, weight 2 off 0.

An Interferogram goes through interferometer.gamma_lattice_adjoint, on the
forward scan's tables and with no lattice-sized temporary; for a scan with
counts, G is their estimate (detector.estimated_g).
An interferometer.LatticeScan (`roundtrip_error`, the noiseless
`reconstruct`) needs no kernel table: with 1 - G = Re(E1 M E2^T) on its
sampling grid, every sum over the lattice is a value of one axis's
D(nu) = sum_t w(t) exp(i nu t) at the difference (Toeplitz) or the sum
(Hankel) of two band frequencies, 2n - 1 values of each per axis, and
est = Re(T1 M T2^T + H1 conj(M) H2^T) / 2 (`_invert_scan`).  The delays
are uniform and each window a constant plus at most one cosine, so each D
is one or three geometric sums, in closed form from one reduction of the
half phase by pi (`_lattice_sums`): the round trip's cost does not depend
on the number of delays, and no (delays x band) array exists.

`check_sampling` refuses a lattice step that aliases the band (bandpass
sampling): on a positive band it accepts every step <= pi / w_max, and on a
band that reaches below w = 0 no step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (BiphotonAmplitude, FrequencyGrid, SampledAmplitude, add_two, jsi,
                   sample_on_grid, two_product)
from .detector import estimated_g
from .interferometer import Interferogram, LatticeScan, gamma_lattice_adjoint

_PI = (np.pi, 1.2246467991473532e-16)  # pi as two doubles, to ~1e-32


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
    """pi / w_max: the unit of reconstruct.step_fraction and the fringe step's
    bound.  check_sampling accepts every step <= it on a positive band, and some above."""
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


def check_sampling(band: FrequencyGrid, axes) -> None:
    """Raise AliasingError unless the delay axes (axis 1, axis 2) of a lattice
    sample `band` without aliasing: every axis needs w_s = 2 pi / step >= 2 h
    (h the band half-width), which keeps the difference frequency w - w' of
    the cosine kernel from aliasing, and at least one axis needs
    min_k |2 w_c - k w_s| >= 2 h, which keeps the sum frequency w + w' (the
    mirror band at -w_c) off the band: bandpass sampling.  Sufficient, not
    necessary: on a positive band every step <= pi / w_max passes, and no step
    on a band that reaches below w = 0.  The error's `required_step` passes
    when it replaces the step of the axis it names."""
    edges = ((band.omega1_min, band.omega1_max), (band.omega2_min, band.omega2_max))
    for ax, (lo, hi) in zip(axes, edges):
        bound = 2.0 * np.pi / (hi - lo)
        if ax.step > bound * (1.0 + 1e-9):
            raise AliasingError(ax.name, ax.step, _bandpass_step(lo, hi, bound))
    passing = [_bandpass_step(lo, hi, ax.step) for ax, (lo, hi) in zip(axes, edges)]
    if all(ax.step > p * (1.0 + 1e-9) for ax, p in zip(axes, passing)):
        i = int(np.argmax(passing))
        raise AliasingError(axes[i].name, axes[i].step, passing[i])


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
    """Per-delay weight of an axis: numpy's window (ones or hanning) times the
    step; a half axis takes the right half of the window over its mirrored
    axis, times 2 step, with the weight at 0 halved."""
    window_of = np.ones if window == "none" else np.hanning
    if not half:
        return window_of(ax.count) * ax.step
    w = window_of(2 * ax.count - 1)[ax.count - 1:] * (2.0 * ax.step)
    w[0] /= 2.0
    return w


def _geometric(y, n: int, jc: int) -> np.ndarray:
    """sum_j exp(2 i y (j - jc)), j < n, of a two-float y.  With
    y = k pi + delta, |delta| <= pi / 2, from pi as two doubles, each term's
    exp(2 i k pi (j - jc)) is 1, so the sum is
    exp(i (n - 1 - 2 jc) delta) sin(n delta) / sin(delta), and n at delta = 0."""
    k = np.rint(y[0] / _PI[0])
    p, e = two_product(k, _PI[0])
    delta = ((y[0] - p) - e) + (y[1] - k * _PI[1])
    ratio = np.divide(np.sin(n * delta), np.sin(delta), out=np.full_like(delta, n),
                      where=delta != 0.0)
    return np.exp(1j * (n - 1 - 2 * jc) * delta) * ratio


def _lattice_sums(ax, window: str, half: bool, lo: float, d: float, n: int):
    """(T, H), T[p, k] = D(w_p - w_k) and H[p, k] = D(w_p + w_k), of
    D(nu) = sum_j u_j exp(i nu t_j) over the delays t_j = t0 + j s, j < N,
    of axis `ax` with the weights u of `window` (`_weights`; `half` for a
    half axis), on a band w_k = lo + (k + 1/2) d, k < n: a Toeplitz and a
    Hankel matrix, from D at the n differences m d, m < n
    (D(-nu) = conj D(nu) gives the rest), and the 2n - 1 sums 2 lo + m d,
    0 < m < 2n.

    D is a geometric sum, taken in closed form in O(n), whatever N.  Every
    axis `_half_axis` accepts has one delay at ~0, number jc: the first of
    a half axis, the middle of a symmetric one.  With its offset
    r = t0 + jc s (|r| <= 1e-9 s, from core.two_product), c = s (2 s on a
    half axis) and G = `_geometric` of the half phase y = nu s / 2, `none`
    gives D = c exp(i nu r) G(y), and `hann`, numpy's hanning(m) with m = N
    (2N - 1 on a half axis), u_j = c (1 + cos(2 q (j - jc))) / 2, gives

        D = c exp(i nu r) [G(y) / 2 + (G(y + q) + G(y - q)) / 4],  q = pi / (m - 1),

    each less c exp(i nu r) / 2 on a half axis, whose u_0 is half the
    window's 1.  nu and y are two-floats, from exact products and sums, and
    G reduces y by pi once, so no phase nu t_j of ~1e4 rad is rounded."""
    m = np.concatenate([np.arange(n), np.arange(1, 2 * n)]).astype(float)
    nu = add_two((np.repeat([0.0, 2.0 * lo], [n, 2 * n - 1]), 0.0), two_product(m, d))
    jc = 0 if half else (ax.count - 1) // 2
    p, e = two_product(float(jc), ax.step)
    r = (ax.start + p) + e
    p, e = two_product(nu[0], ax.step)
    y = (0.5 * p, 0.5 * (e + nu[1] * ax.step))
    inner = _geometric(y, ax.count, jc)
    if window == "hann":
        q = np.pi / ((2 * ax.count - 1 if half else ax.count) - 1.0)
        inner = 0.5 * inner + 0.25 * (_geometric(add_two(y, (q, 0.0)), ax.count, jc)
                                      + _geometric(add_two(y, (-q, 0.0)), ax.count, jc))
    if half:
        inner = inner - 0.5
    sums = (2.0 * ax.step if half else ax.step) * np.exp(1j * nu[0] * r) * inner
    diff = np.concatenate([np.conj(sums[n - 1:0:-1]), sums[:n]])
    k = np.arange(n)
    return diff[n - 1 + k[:, None] - k], sums[n:][k[:, None] + k]


def _invert_scan(scan: LatticeScan, band: FrequencyGrid, window: str,
                 half: int | None) -> np.ndarray:
    """Re sum_ab wa(a) wb(b) (1 - G(a, b)) exp(i (w1 a + w2 b)) of a scan on
    `band`, which must be its sampling grid (ValueError otherwise), with
    the weights of `window` and axis `half` (`_half_axis`) a half axis.  As
    1 - G = Re(E1 M E2^T), it is Re(T1 M T2^T + H1 conj(M) H2^T) / 2 with
    each axis's Toeplitz and Hankel lattice sums (`_lattice_sums`)."""
    if band != scan.grid:
        raise ValueError("a LatticeScan is inverted on the grid it was sampled on")
    ax_a, ax_b = scan.axes
    t1, h1 = _lattice_sums(ax_a, window, half == 0, band.omega1_min, band.d1, band.n1)
    t2, h2 = _lattice_sums(ax_b, window, half == 1, band.omega2_min, band.d2, band.n2)
    return 0.5 * (t1 @ scan.m @ t2.T + h1 @ np.conj(scan.m) @ h2.T).real


def reconstruct_jsi(interferogram: Interferogram | LatticeScan, band: FrequencyGrid,
                    window: str = "none", demodulate: bool = True) -> JsiEstimate:
    """Inverse cosine-kernel transform of 1 - G onto the band grid; G of an
    Interferogram with counts is their estimate (detector.estimated_g).

    The lattice is symmetric about 0 on both axes or a half lattice, one
    axis starting at 0 (`_half_axis`; ValueError otherwise).  A LatticeScan
    is never formed; `_invert_scan` inverts it on its own grid, which must
    be `band`.

    Returns a nonnegative, unit-integral estimate; the fraction of
    pre-clip negative mass is reported as a truncation diagnostic.
    `demodulate` is ignored: perfbench/tracer.py reads it by name, and True keeps its GFLOP count.
    """
    if window not in ("none", "hann"):
        raise ValueError(f"unknown window {window!r}")
    half = _half_axis(interferogram.axes)
    check_sampling(band, interferogram.axes)
    if isinstance(interferogram, LatticeScan):
        est = _invert_scan(interferogram, band, window, half)
    else:
        axes = interferogram.axes
        w = [_weights(ax, window, half == i) for i, ax in enumerate(axes)]
        est = gamma_lattice_adjoint(band, *((ax.start, ax.step, ax.count) for ax in axes),
                                    estimated_g(interferogram), *w).real

    total_abs = np.sum(np.abs(est))
    if total_abs <= 0 or np.sum(est) <= 1e-12 * total_abs:
        warnings.warn("degenerate interferogram: no interference signal to invert")
        return JsiEstimate(np.zeros_like(est), band, negativity_fraction=0.0, degenerate=True)
    neg_frac = float(-np.sum(est[est < 0]) / total_abs)
    est = np.clip(est, 0.0, None)
    est /= np.sum(est) * band.measure
    return JsiEstimate(values=est, band=band, negativity_fraction=neg_frac)


def roundtrip_error(model: BiphotonAmplitude, grid: FrequencyGrid, lattice: DelayLattice,
                    window: str = "none") -> tuple[JsiEstimate, float]:
    """The noiseless `reconstruct`: invert the LatticeScan of the unfiltered
    `model` on `lattice` on the sampling grid, and return the estimate and
    its relative L2 error against the true JSI."""
    sampled = sample_on_grid(model, grid)
    est = reconstruct_jsi(LatticeScan(sampled, sampled, *lattice.axes), grid, window=window)
    return est, l2_error(est, sampled)


def l2_error(est: JsiEstimate, sampled: SampledAmplitude) -> float:
    """Relative L2 error of a JSI estimate against the JSI of the amplitude
    it was reconstructed from, which must be sampled on the estimate's band."""
    if sampled.grid != est.band:
        raise ValueError("the amplitude is not sampled on the estimate's band grid")
    true = jsi(sampled)
    true = true / (np.sum(true) * est.band.measure)
    return float(np.linalg.norm(est.values - true) / np.linalg.norm(true))
