"""Least-squares extraction of fringe parameters from interferograms.

Three fixed models:
  fringe:  y = A*(1 - V*sinc((x-x0)/sx)*cos(2*pi*(x-x0)/lam + phi))
  dip:     y = A*(1 - V*exp(-(x-x0)^2 / (2 s^2)))
  envelope: V(xi) = Vp*exp(-(xi-xi0)^2 / (2 s^2))

Every fit is a Levenberg-Marquardt solve (`_solve`, numpy only) with an
analytic Jacobian and Marquardt's column-norm scaling, so its steps do
not depend on the units of the parameters. Each model returns (f, J),
its values and Jacobian from one set of shared terms, so a trial point
costs one evaluation. The `stderr` of each fit is the 1-sigma
uncertainty of each parameter: the square root of the diagonal of the
covariance (J^T J)^-1 at the optimum, multiplied by the reduced
chi-square (residual sum of squares over n_data - n_params). The
covariance comes from the same eigendecomposition of the Gram matrix
J^T J, scaled by sqrt(diag(J^T J)), that the solver steps with, so J^T J
is formed and factored once per iterate. A parameter that the data do
not constrain (one that loads on a direction the step drops), and every
parameter of a fit with no more data than parameters, gets an infinite stderr.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import C, FWHM_TO_SIGMA
from .detector import fit_data
from .interferometer import Interferogram

_FWHM = 1.0 / FWHM_TO_SIGMA  # 2*sqrt(2 ln 2)

# Levenberg-Marquardt stopping rules (see _solve)
_XTOL, _FTOL, _GTOL = 1e-8, 1e-14, 1e-14

_RIDGE_WEIGHT_FLOOR = 0.2  # ridge_slope drops slices below this fraction of the top visibility


class FitConvergenceError(RuntimeError):
    """Least-squares did not converge; carries the last iterate."""

    def __init__(self, message, last_params=None):
        super().__init__(message)
        self.last_params = last_params


class InsufficientDataError(ValueError):
    """Input does not span enough of the model to be fit."""


class NoPeriodError(ValueError):
    """No dominant spectral peak above the noise floor."""


@dataclass(frozen=True)
class FringeFit:
    visibility: float
    sigma_x: float
    period: float
    phase: float
    center: float
    amplitude: float
    residual_rms: float
    stderr: dict[str, float]


@dataclass(frozen=True)
class DipFit:
    visibility: float
    fwhm: float
    center: float
    amplitude: float
    residual_rms: float
    stderr: dict[str, float]


@dataclass(frozen=True)
class EnvelopeFit:
    peak_visibility: float
    center: float
    fwhm: float
    stderr: dict[str, float]


@dataclass(frozen=True)
class EnvelopeResult:
    slice_coords: np.ndarray      # fixed-axis coordinate per slice (m)
    visibilities: np.ndarray
    centers: np.ndarray           # fitted fringe centers per slice (m)
    failed: tuple[int, ...]
    fit: EnvelopeFit


def _solve(model, p0, x, y):
    """Levenberg-Marquardt fit of model(p, x) to y; model returns (f, J), the
    values and their analytic Jacobian, from one evaluation.

    Returns (params, 1-sigma stderr, residual rms), the rms 0 when within the
    data's rounding, 4 eps max |y|. Each step d solves
    (J^T J + lam diag(J^T J)) d = -J^T r, with r = f - y. With Marquardt's
    diag(J^T J) the step does not depend on the parameter units (counts
    ~1e4, lengths ~1e-6 m): in the scaled z = scale d, scale = sqrt(diag(G)),
    it is (Gs + lam I) z = -J^T r / scale. G = J^T J is formed once per
    iterate and Gs = G / outer(scale, scale); the step goes through the
    eigendecomposition of the small Gs, so trying another lam costs no new
    factorization. Directions with eigenvalues below eps max(m, n) of the
    largest get no step.

    The first step is Gauss-Newton (lam = 0). Each trial point is one model
    evaluation, and the J of a trial that is taken is the next iterate's. A
    step that lowers the cost |r|^2 is taken, and lam is multiplied by
    max(1/3, 1 - (2 rho - 1)^3), rho being the ratio of the actual to the
    predicted cost reduction; a step that does not is retried with lam
    raised nu-fold, nu doubling on each retry (Nielsen's rule; lam starts
    from 1e-3 of the largest eigenvalue). The fit converges when the scaled
    step |z| is at most _XTOL |p| in the same scale, when a step lowers the
    cost by a fraction _FTOL or less, or when the scaled gradient
    max |J^T r / scale| / |r| is at most _GTOL. It raises FitConvergenceError
    after 200 (len(p0) + 1) model evaluations, or on a non-finite residual
    or Jacobian at the iterate.

    The stderr comes from the eigendecomposition w, v of Gs at the returned
    point, the one a further step would use: the variance of parameter k is
    sum v_k^2 / w / scale_k^2 over the kept directions, times the reduced
    chi-square. It is infinite when parameter k loads on a dropped direction
    (a zero column of J among them), and for every k when len(y) <= len(p).
    """
    p = np.asarray(p0, float)
    max_nfev = 200 * (len(p) + 1)
    values, j = model(p, x)
    r = values - y
    nfev, lam, done = 1, 0.0, False
    while True:
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(j))):
            raise FitConvergenceError("fit did not converge: non-finite residual "
                                      "or Jacobian", last_params=p)
        cost = r @ r
        gram = j.T @ j
        norms = np.sqrt(np.diag(gram))
        scale = np.where(norms > 0, norms, 1.0)
        w, v = np.linalg.eigh(gram / np.outer(scale, scale))
        keep = w > np.finfo(float).eps * max(j.shape) * w[-1]
        grad = (j.T @ r) / scale
        if done or np.max(np.abs(grad)) <= _GTOL * np.sqrt(cost):
            break
        gv = v.T @ grad
        xtol = _XTOL * np.linalg.norm(scale * p)
        nu = 2.0
        while True:  # raise lam until a step lowers the cost
            if nfev >= max_nfev:
                raise FitConvergenceError(
                    f"fit did not converge in {max_nfev} evaluations", last_params=p)
            f = np.divide(1.0, w + lam, out=np.zeros_like(w), where=keep)
            z = -v @ (f * gv)
            trial = p + z / scale
            values, j_trial = model(trial, x)
            r_trial = values - y
            nfev += 1
            cost_trial = r_trial @ r_trial  # nan if not finite: never lower
            small = np.linalg.norm(z) <= xtol
            if cost_trial < cost or small:
                break
            lam, nu = max(nu * lam, 1e-3 * w[-1]), 2.0 * nu
        if not cost_trial < cost:  # the step shrank to xtol without a descent
            break
        done = small or cost - cost_trial <= _FTOL * cost
        rho = (cost - cost_trial) / np.sum(gv * gv * f * (2.0 - w * f))
        lam *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        p, r, j = trial, r_trial, j_trial
    dof = len(y) - len(p)
    var = np.sum(v[:, keep] ** 2 / w[keep], axis=1) / scale ** 2
    dropped = (dof < 1) | np.any(np.abs(v[:, ~keep]) > np.sqrt(np.finfo(float).eps), axis=1)
    stderr = np.where(dropped, np.inf, np.sqrt(var * cost / max(dof, 1)))
    rms = np.sqrt(cost / len(y))
    return p, stderr, 0.0 if rms <= 4.0 * np.finfo(float).eps * np.max(np.abs(y)) else rms


def _fringe(p, x):
    """The fringe model and its Jacobian (f, J), from one sin and cos of u and
    of the carrier. sinc u = sin u / u is exactly 1 at u = 0; its derivative
    (cos u - sinc u) / u takes a two-term series for |u| < 1e-2, where the
    quotient cancels."""
    a, v, sx, lam, xc, phi = p
    d = x - xc
    u = d / sx
    s = np.divide(np.sin(u), u, out=np.ones_like(u), where=u != 0)
    ds = np.divide(np.cos(u) - s, u, out=-u / 3.0 * (1.0 - u * u / 10.0),
                   where=np.abs(u) >= 1e-2)
    k = 2.0 * np.pi / lam
    carrier = k * d + phi
    c, sn = np.cos(carrier), np.sin(carrier)
    av = a * v
    jac = np.empty((6, len(x)))
    jac[0] = 1.0 - v * s * c
    jac[1] = -a * s * c
    jac[2] = av * c * ds * u / sx
    jac[3] = -av * s * sn * k * d / lam
    jac[4] = av * (c * ds / sx - s * sn * k)
    jac[5] = av * s * sn
    return a * jac[0], jac.T


def _dip(p, x):
    """The dip model and its Jacobian (f, J)."""
    a, v, xc, s = p
    w = (x - xc) / s
    e = np.exp(-0.5 * w ** 2)
    jac = np.empty((4, len(x)))
    jac[0] = 1.0 - v * e
    jac[1] = -a * e
    jac[2] = -a * v * e * w / s
    jac[3] = jac[2] * w
    return a * jac[0], jac.T


def _peak(p, x):
    """The envelope peak model and its Jacobian (f, J)."""
    vp, xc, s = p
    w = (x - xc) / s
    e = np.exp(-0.5 * w ** 2)
    jac = np.empty((3, len(x)))
    jac[0] = e
    jac[1] = vp * e * w / s
    jac[2] = jac[1] * w
    return vp * e, jac.T


@functools.cache
def _fft_length(n: int) -> int:
    """The smallest 5-smooth 2^a 3^b 5^c >= n: no FFT at a slow prime length."""
    k = range(n.bit_length() + 1)  # 2^k >= n bounds each exponent
    return min(m for m in (2**a * 3**b * 5**c for a in k for b in k for c in k) if m >= n)


def fringe_period(x: np.ndarray, y: np.ndarray) -> float:
    """Dominant period via windowed FFT peak with parabolic interpolation, the n
    points zero-padded to `_fft_length(n)`; n < 6 (4 bins) raises NoPeriodError."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    dx = np.diff(x)
    if not np.allclose(dx, dx[:1], rtol=1e-6, atol=0.0):  # no spacing below 2 points
        raise ValueError("fringe_period requires uniform spacing")
    if (n := len(y)) // 2 + 1 < 4:
        raise NoPeriodError("too few points for a period estimate")
    z = (y - y.mean()) * np.hanning(n)
    mag = np.abs(np.fft.rfft(z, nfft := _fft_length(n)))
    k = int(np.argmax(mag[1:]) + 1)
    floor = np.median(mag[1:])
    # data flat to within their rounding leave a peak of rounding residue only
    flat = np.ptp(y) <= 4.0 * np.finfo(float).eps * np.max(np.abs(y))
    if flat or floor <= 0 or mag[k] < 5.0 * floor:
        raise NoPeriodError("no dominant spectral peak above the noise floor")
    if 1 <= k < len(mag) - 1:
        la, lb, lc = np.log(mag[k - 1] + 1e-300), np.log(mag[k]), np.log(mag[k + 1] + 1e-300)
        denom = la - 2.0 * lb + lc
        delta = 0.5 * (la - lc) / denom if denom != 0 else 0.0
        delta = float(np.clip(delta, -0.5, 0.5))
    else:
        delta = 0.0
    freq = (k + delta) / (nfft * dx[0])
    return float(1.0 / freq)


def _analytic_signal(x: np.ndarray) -> np.ndarray:
    """x + i H[x] from the one-sided spectrum of x (as scipy.signal.hilbert)."""
    n = len(x)
    one_sided = np.zeros(n)
    one_sided[0] = 1.0
    one_sided[1:(n + 1) // 2] = 2.0
    if n % 2 == 0:
        one_sided[n // 2] = 1.0
    return np.fft.ifft(np.fft.fft(x) * one_sided)


def _fringe_init(x, y, lam0):
    """Fit seeds from the analytic signal of y - a0 zero-padded to `_fft_length`."""
    a0 = float(np.median(y))
    if a0 <= 0:
        a0 = float(np.mean(y)) or 1.0
    n = len(y)
    analytic = _analytic_signal(np.append(y - a0, np.zeros(_fft_length(n) - n)))[:n]
    env = np.abs(analytic)
    # smooth the analytic envelope over ~one period
    w = max(3, min(len(x), int(round(lam0 / (x[1] - x[0])))))
    env_s = np.convolve(env, np.ones(w) / w, mode="same")
    i0 = int(np.argmax(env_s))
    x0 = float(x[i0])
    peak = float(env_s[i0])
    v0 = min(max(peak / a0, 1e-3), 1.0)
    # contrast-halving distance -> sinc width (sinc(1.895) = 1/2)
    above = env_s >= 0.5 * peak
    right = np.where(~above & (x > x0))[0]
    left = np.where(~above & (x < x0))[0]
    if len(right) and len(left):
        half_dist = 0.5 * (x[right[0]] - x[left[-1]])
    elif len(right):
        half_dist = x[right[0]] - x0
    elif len(left):
        half_dist = x0 - x[left[-1]]
    else:
        half_dist = 0.25 * (x[-1] - x[0])
    sx0 = max(half_dist / 1.895, lam0)
    phi0 = float(np.angle(-analytic[i0]))
    return a0, v0, sx0, x0, phi0


def fit_fringe(x, y, period_guess: float | None = None) -> FringeFit:
    """Fit the sinc-envelope phase-sensitive fringe model to (x, y)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if len(x) < 8:
        raise InsufficientDataError("fit_fringe needs at least 8 points")
    lam0 = fringe_period(x, y) if period_guess is None else period_guess
    if (x[-1] - x[0]) < 2.0 * lam0:
        raise InsufficientDataError("data span less than 2 fringe periods")
    a0, v0, sx0, x0, phi0 = _fringe_init(x, y, lam0)

    p0 = np.array([a0, v0, sx0, lam0, x0, phi0])
    popt, perr, rms = _solve(_fringe, p0, x, y)
    a, v, sx, lam, xc, phi = popt
    if a < 0:
        a, v = -a, -v
    if v < 0:
        v, phi = -v, phi + np.pi
    phi = float(np.angle(np.exp(1j * phi)))
    names = ("amplitude", "visibility", "sigma_x", "period", "center", "phase")
    return FringeFit(visibility=float(v), sigma_x=float(abs(sx)), period=float(abs(lam)),
                     phase=phi, center=float(xc), amplitude=float(a),
                     residual_rms=float(rms), stderr=dict(zip(names, map(float, perr))))


def fit_dip(x, y) -> DipFit:
    """Fit a Gaussian dip y = A*(1 - V*exp(-(x-x0)^2/2s^2)).

    center and fwhm get an infinite stderr when V cannot be told from 0:
    |V| within its stderr, or a dip depth |A*V| below the data's rounding.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if len(x) < 8:
        raise InsufficientDataError("fit_dip needs at least 8 points")
    a0 = float(np.median(y))
    if a0 <= 0:
        a0 = float(np.max(y)) or 1.0
    i0 = int(np.argmin(y))
    x0 = float(x[i0])
    v0 = max((a0 - float(y[i0])) / a0, 1e-4)
    half_level = a0 - 0.5 * (a0 - y[i0])
    below = y < half_level
    idx = np.where(below)[0]
    if len(idx) >= 2:
        s0 = max((x[idx[-1]] - x[idx[0]]) / _FWHM, (x[1] - x[0]))
    else:
        s0 = 0.25 * (x[-1] - x[0])

    p0 = np.array([a0, v0, x0, s0])
    popt, perr, rms = _solve(_dip, p0, x, y)
    a, v, xc, s = popt
    names = ("amplitude", "visibility", "center", "fwhm")
    perr = perr.copy()
    perr[3] *= _FWHM
    if abs(v) <= perr[1] or abs(a * v) <= np.finfo(float).eps * np.max(np.abs(y)):
        perr[2] = perr[3] = np.inf
    return DipFit(visibility=float(v), fwhm=float(abs(s) * _FWHM), center=float(xc),
                  amplitude=float(a), residual_rms=float(rms),
                  stderr=dict(zip(names, map(float, perr))))


def _fit_gaussian_peak(xi, v):
    """Gaussian peak fit used for the visibility envelope."""
    i0 = int(np.argmax(v))
    p0 = np.array([float(v[i0]), float(xi[i0]), 0.25 * (xi[-1] - xi[0])])
    popt, perr, _ = _solve(_peak, p0, xi, v)
    vp, xc, s = popt
    names = ("peak_visibility", "center", "fwhm")
    perr = perr.copy()
    perr[2] *= _FWHM
    return EnvelopeFit(peak_visibility=float(vp), center=float(xc),
                       fwhm=float(abs(s) * _FWHM),
                       stderr=dict(zip(names, map(float, perr))))


def delay_to_position(tau, axis_name: str) -> np.ndarray:
    """Map delay coordinates to delay-line positions: delta_tau_S = dx1/c,
    delta_tau_L = -dx2/c."""
    tau = np.asarray(tau, float)
    return C * tau if axis_name.endswith("S") else -C * tau


def visibility_envelope(scan2d: Interferogram,
                        period_guess: float | None = None) -> EnvelopeResult:
    """Per-slice fringe visibilities of a 2D scan plus a Gaussian envelope fit.

    The fringes run along the second axis: each row of `fit_data(scan2d)`
    is one slice, at its first-axis coordinate. Slice fit failures are
    excluded unless more than half of them fail.
    """
    if len(scan2d.axes) != 2:
        raise ValueError("visibility_envelope needs a 2D interferogram")
    xi, x = (delay_to_position(ax.values, ax.name) for ax in scan2d.axes)
    order = np.argsort(x)
    coords, vis, centers, failed = [], [], [], []
    for j, ys in enumerate(fit_data(scan2d)):
        try:
            fit = fit_fringe(x[order], ys[order], period_guess=period_guess)
            coords.append(xi[j])
            vis.append(fit.visibility)
            centers.append(fit.center)
        except (FitConvergenceError, InsufficientDataError, NoPeriodError):
            failed.append(j)
    if len(failed) > 0.5 * len(xi):
        raise FitConvergenceError(f"{len(failed)}/{len(xi)} slice fits failed")
    coords = np.asarray(coords)
    vis = np.asarray(vis)
    env = _fit_gaussian_peak(coords, vis)
    return EnvelopeResult(slice_coords=coords, visibilities=vis,
                          centers=np.asarray(centers), failed=tuple(failed), fit=env)


def ridge_slope(result: EnvelopeResult) -> float:
    """Slope of fitted fringe center vs slice position, visibility-weighted.

    Near -1 for a frequency-entangled source (fringe position tracks the
    other delay line), near 0 for a separable one.
    """
    w = result.visibilities.copy()
    keep = w >= _RIDGE_WEIGHT_FLOOR * w.max()
    xi, xc, w = result.slice_coords[keep], result.centers[keep], w[keep]
    xim = np.average(xi, weights=w)
    xcm = np.average(xc, weights=w)
    denom = np.sum(w * (xi - xim) ** 2)
    if denom == 0:
        return 0.0
    return float(np.sum(w * (xi - xim) * (xc - xcm)) / denom)
