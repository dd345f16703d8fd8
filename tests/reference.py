"""Reference implementations the tests compare the program against.

Each is the direct, unfactored form of something the package computes a
faster way: the sampled amplitude with one array per operation, Gamma as
the plain double sum at one delay point, the
closed-form fringe that the quadrature must reproduce (with numpy's
unnormalized sinc), the full (omega1,
omega2) mesh of a grid, a grid with more cells over the same rectangle
for convergence checks, the fit covariance from an SVD of the Jacobian,
the inverse transform of a noiseless lattice scan, or of a lattice of G
values, as a long-double sum over every delay, Re(Gamma) on a delay lattice in long double, and the
jittered HOM dip as a numerical convolution; and one delay axis's lattice
sum in long double, over blocks of delays.
"""

import numpy as np

from biphoton import core


def sinc(u):
    """Unnormalized sinc: sin(u)/u with sinc(0) = 1."""
    return np.sinc(np.asarray(u, float) / np.pi)


def gamma(phi_a: core.SampledAmplitude, phi_b: core.SampledAmplitude,
          delta_tau_S: float, delta_tau_L: float) -> complex:
    """Two-source overlap Gamma at a single delay point (direct double sum)."""
    if phi_a.grid != phi_b.grid:
        raise core.GridMismatchError("amplitudes sampled on different frequency grids")
    g = phi_a.grid
    w1, w2 = mesh(g)
    integrand = (phi_a.values * np.conj(phi_b.values)
                 * np.exp(-1j * (w1 * delta_tau_S + w2 * delta_tau_L)))
    return complex(integrand.sum() * g.measure)


def hom_fringe_analytic(V: float, sigma_x: float, lam: float, delta_x2) -> np.ndarray:
    """Closed-form phase-sensitive fringe
    P = (1 - V*sinc(dx/sigma_x)*cos(2*pi*dx/lam)) / 2, range [0, 1]."""
    if not 0.0 <= V <= 1.0:
        raise ValueError("V must be in [0, 1]")
    if sigma_x <= 0 or lam <= 0:
        raise ValueError("sigma_x and lam must be positive")
    dx = np.asarray(delta_x2, float)
    return 0.5 * (1.0 - V * sinc(dx / sigma_x) * np.cos(2.0 * np.pi * dx / lam))


def amplitude(model: core.BiphotonAmplitude, omega1, omega2) -> np.ndarray:
    """The correlated Gaussian Phi(omega1, omega2) of `model`, one array per
    operation; BiphotonAmplitude.__call__ does the same operations in place."""
    u1 = (np.asarray(omega1, float) - model.omega_c1) / model.sigma1
    u2 = (np.asarray(omega2, float) - model.omega_c2) / model.sigma2
    q = (u1 * u1 - 2.0 * model.rho * u1 * u2 + u2 * u2) / (2.0 * (1.0 - model.rho**2))
    return np.exp(-q)


def sampled_values(model: core.BiphotonAmplitude, grid: core.FrequencyGrid,
                   filter1=None, filter2=None) -> np.ndarray:
    """Phi F1 F2 on the grid with unit discrete JSI, one array per
    operation; core.sample_on_grid does the same operations in place."""
    vals = amplitude(model, grid.axis1[:, None], grid.axis2[None, :]).astype(complex)
    if filter1 is not None:
        vals = vals * filter1.transmission(grid.axis1)[:, None]
    if filter2 is not None:
        vals = vals * filter2.transmission(grid.axis2)[None, :]
    return vals / np.sqrt(np.sum(np.abs(vals) ** 2) * grid.measure)


def mesh(grid: core.FrequencyGrid) -> tuple[np.ndarray, np.ndarray]:
    """(omega1, omega2) at every cell center of `grid`, each of shape (n1, n2)."""
    return np.meshgrid(grid.axis1, grid.axis2, indexing="ij")


def refine(grid: core.FrequencyGrid, factor: int = 2) -> core.FrequencyGrid:
    """`grid` with `factor` times as many cells per axis over the same bounds."""
    return core.FrequencyGrid(grid.n1 * factor, grid.n2 * factor,
                              grid.omega1_min, grid.omega1_max,
                              grid.omega2_min, grid.omega2_max)


def covariance_diag(jac: np.ndarray) -> np.ndarray:
    """Diagonal of (J^T J)^-1, inf for parameters the data do not fix.

    The parameters span many orders of magnitude (counts ~1e4, lengths
    ~1e-6 m), so J^T J is inverted through the SVD of J with unit-norm
    columns; the singular-value cut-off is that of scipy's `curve_fit`.
    """
    norms = np.linalg.norm(jac, axis=0)
    free = norms > 0
    var = np.full(jac.shape[1], np.inf)
    if not free.any():
        return var
    _, s, vt = np.linalg.svd(jac[:, free] / norms[free], full_matrices=False)
    keep = s > np.finfo(float).eps * max(jac.shape) * s[0]
    var[free] = np.sum((vt[keep] / s[keep, None]) ** 2, axis=0) / norms[free] ** 2
    dropped = np.any(np.abs(vt[~keep]) > np.sqrt(np.finfo(float).eps), axis=0)
    var[np.flatnonzero(free)[dropped]] = np.inf
    return var


def lattice_sum_longdouble(axis, w, nu0: float, d: float, m) -> np.ndarray:
    """D(nu) = sum_k w_k exp(i nu t_k) at nu = nu0 + m d for the integers
    `m` (any shape), in long double on the ideal delays t_k = start + k step
    of `axis`, a (start, step, count) tuple.  With k = b q + j, j < b =
    ceil(sqrt(count)), exp(i nu t_k) = exp(i nu t_bq) exp(i nu j step), so
    the sum over j, then over q, takes ~2 sqrt(count) exponentials per
    frequency instead of count."""
    ld = np.longdouble
    start, step, count = axis
    b = int(np.ceil(np.sqrt(count)))
    m = np.asarray(m)
    nu = ld(nu0) + ld(d) * m.ravel().astype(ld)
    outer = np.outer(nu, ld(start) + ld(step) * (b * np.arange(-(-count // b), dtype=ld)))
    inner = np.outer(nu, ld(step) * np.arange(b, dtype=ld))
    wq = np.zeros(outer.shape[1] * b, ld)
    wq[:count] = w
    wq = wq.reshape(-1, b).T
    re, im = np.cos(inner) @ wq, np.sin(inner) @ wq  # sum over j, per (nu, q)
    c, s = np.cos(outer), np.sin(outer)
    return (np.sum(c * re - s * im, axis=1).astype(float)
            + 1j * np.sum(s * re + c * im, axis=1).astype(float)).reshape(m.shape)


def _phases_longdouble(band: core.FrequencyGrid, axes):
    """(cos, sin) of outer(t, omega) per axis, in long double on the ideal
    axes: delays start + k step of each (start, step, count) tuple in
    `axes` and band frequencies omega_min + (k + 1/2) d, exact in their
    double parameters."""
    ld = np.longdouble

    def phase(ax, lo, d, n):
        start, step, count = ax
        t = ld(start) + ld(step) * np.arange(count, dtype=ld)
        omega = ld(lo) + ld(d) * (np.arange(n, dtype=ld) + ld(0.5))
        theta = np.outer(t, omega)
        return np.cos(theta), np.sin(theta)  # exp(-i theta) = cos - i sin

    return [phase(ax, lo, d, n) for ax, lo, d, n in
            zip(axes, (band.omega1_min, band.omega2_min), (band.d1, band.d2),
                (band.n1, band.n2))]


def _re_gamma(m: np.ndarray, phases) -> np.ndarray:
    (c1, s1), (c2, s2) = phases
    mr, mi = m.real.astype(np.longdouble), m.imag.astype(np.longdouble)
    # E1 M = x + i y with E = c - i s, and Re((x + i y) E2^T) = x c2^T + y s2^T
    return (c1 @ mr + s1 @ mi) @ c2.T + (c1 @ mi - s1 @ mr) @ s2.T


def re_gamma_longdouble(phi_a: core.SampledAmplitude, phi_b: core.SampledAmplitude,
                        axes) -> np.ndarray:
    """Re(Gamma) on the lattice of the (start, step, count) `axes` (S, L),
    Re(E1 M E2^T) with M = phi_a conj(phi_b) measure, as a direct sum in
    long double on the ideal delays and midpoint frequencies."""
    m = phi_a.values * np.conj(phi_b.values) * phi_a.grid.measure
    return _re_gamma(m, _phases_longdouble(phi_a.grid, axes)).astype(float)


def inverse_longdouble(m: np.ndarray, band: core.FrequencyGrid, axes, wa, wb) -> np.ndarray:
    """Re sum_ab wa(a) wb(b) (1 - G(a, b)) exp(i (w1 a + w2 b)), with
    1 - G = Re sum_jk m_jk exp(-i (w1_j a + w2_k b)), as a direct sum in
    long double on the ideal axes (`_phases_longdouble`)."""
    phases = _phases_longdouble(band, axes)
    return _inverse(_re_gamma(m, phases), phases, wa, wb)


def inverse_g_longdouble(g: np.ndarray, band: core.FrequencyGrid, axes, wa, wb) -> np.ndarray:
    """inverse_longdouble of a given lattice of G values (a scan's), on the
    (start, step, count) `axes`."""
    phases = _phases_longdouble(band, axes)
    return _inverse(1.0 - np.asarray(g, np.longdouble), phases, wa, wb)


def _inverse(h: np.ndarray, phases, wa, wb) -> np.ndarray:
    ld = np.longdouble
    hw = h * np.asarray(wa, ld)[:, None] * np.asarray(wb, ld)[None, :]
    (c1, s1), (c2, s2) = phases
    # Re(K1^T h K2) with K = w exp(i theta) = w (c + i s)
    return c1.T @ (hw @ c2) - s1.T @ (hw @ s2)


def jittered_dip(delta_t, visibility, jitter_fwhm: float, v_cap: float = 1.0 / 3.0) -> np.ndarray:
    """v_cap times the visibility profile on the uniform axis `delta_t`
    convolved with a zero-mean Gaussian of FWHM `jitter_fwhm` (s), sampled
    to +-10 sigma and normalised to unit sum, over the zero-padded profile."""
    dt = np.asarray(delta_t, float)
    h = dt[1] - dt[0]
    sig = jitter_fwhm * core.FWHM_TO_SIGMA
    half = int(np.ceil(10.0 * sig / h))
    kernel = np.exp(-0.5 * (h * np.arange(-half, half + 1) / sig) ** 2)
    padded = np.pad(np.asarray(visibility, float), half)
    return v_cap * np.convolve(padded, kernel / kernel.sum(), mode="valid")
