"""Reference implementations the tests compare the program against.

Each is the direct, unfactored form of something the package computes a
faster way: Gamma as the plain double sum at one delay point, the
closed-form fringe that the quadrature must reproduce, the full (omega1,
omega2) mesh of a grid, and a grid with more cells over the same
rectangle for convergence checks.
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
