import numpy as np
import pytest

from biphoton import core


@pytest.fixture(scope="session")
def reference_setup():
    """Reference source: 775 nm / 3.5 ps pump, 1530 nm signal arm,
    energy-matched idler, 18 nm rectangular filters."""
    pump = 775e-9
    signal = 1530e-9
    idler = core.energy_matched_idler(pump, signal)
    src = core.SourceParams(pump_center_wavelength=pump,
                            signal_center_wavelength=signal,
                            idler_center_wavelength=idler)
    f1 = core.SpectralFilter.from_wavelength("rectangular", signal, 18e-9)
    f2 = core.SpectralFilter.from_wavelength("rectangular", idler, 18e-9)
    model = core.gaussian_from_setup(core.omega_from_wavelength(signal),
                                     core.omega_from_wavelength(idler),
                                     2.5e14, 2.5e14, coherence_fwhm=3.5e-12)
    return src, f1, f2, model


@pytest.fixture(scope="session")
def reference_sampled(reference_setup):
    src, f1, f2, model = reference_setup
    grid = core.grid_for_filters(f1, f2, n=256)
    return core.sample_on_grid(model, grid, f1, f2)


@pytest.fixture(scope="session")
def small_gaussian():
    """Unit-scale separable gaussian on a wide grid (fast tests)."""
    model = core.BiphotonAmplitude.gaussian(1.23e15, 1.20e15, 5e12, 5e12, rho=0.0)
    grid = core.grid_for_gaussian(model, n=128, span_sigmas=6.0)
    return model, grid, core.sample_on_grid(model, grid)
