"""Reference implementations the tests compare the program against.

Each is the direct, unfactored form of something the package computes a
faster way: Gamma as the plain double sum at one delay point, the
closed-form fringe that the quadrature must reproduce, the full (omega1,
omega2) mesh of a grid, a grid with more cells over the same rectangle
for convergence checks, and the fit covariance from an SVD of the
Jacobian.
"""

import numpy as np

from biphoton import core
from biphoton.interferometer import sinc


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
