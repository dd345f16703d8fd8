"""Simulation and analysis toolkit for generalized two-photon quantum
interference: bi-photon spectral amplitudes, nonlocal coincidence
interferograms, photon-counting statistics, fringe fitting and joint
spectral intensity reconstruction."""

from .core import (
    C,
    BiphotonAmplitude,
    EmptySupportError,
    FrequencyGrid,
    GridMismatchError,
    SampledAmplitude,
    SourceParams,
    SpectralFilter,
    energy_matched_idler,
    gaussian_from_setup,
    grid_for_filters,
    grid_for_gaussian,
    jsi,
    jsi_correlation,
    omega_from_wavelength,
    sample_on_grid,
)
from .detector import (
    DetectorConfig,
    JitterModel,
    SourceBudget,
    accidentals,
    independent_hom_dip,
    pair_probability_from_car,
    rate_to_counts,
    subtract_accidentals,
)
from .fitting import (
    DipFit,
    EnvelopeFit,
    EnvelopeResult,
    FitConvergenceError,
    FringeFit,
    InsufficientDataError,
    NoPeriodError,
    fit_dip,
    fit_fringe,
    fringe_period,
    ridge_slope,
    visibility_envelope,
)
from .interferometer import (
    Axis,
    Interferogram,
    gamma,
    gamma_lattice,
    hom_fringe_analytic,
    read_interferogram_csv,
    scan_1d,
    scan_2d,
    sinc,
    write_interferogram_csv,
)
from .reconstruction import (
    AliasingError,
    DelayLattice,
    JsiEstimate,
    l2_error,
    nyquist_step,
    reconstruct_jsi,
    roundtrip_error,
)

__version__ = "0.1.0"
