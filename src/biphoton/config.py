"""Sectioned key-value run configuration with explicit unit suffixes.

Defaults encode the reference experimental setup (775 nm / 3.5 ps pump, 1530 nm
+ energy-matched idler arms, 18 nm rectangular filters, 4 MHz trigger), so every
command runs without a config file.  Detector efficiency and fibre coupling
enter only through the measured singles rates and coincidence-to-singles ratio
of [budget], and gated accidentals (N1*N3/f_trig) need no coincidence window,
so build_detector returns the trigger rate (Hz) alone; build_jitter returns the
combined jitter FWHM (s).  The idler wavelength defaults to 'auto' because the
rounded nominal pair 1530/1570 nm violates energy conservation at the 1e-4
level enforced by SourceParams.  Each key's kind in DEFAULTS names the values
load_config allows; the grid sizes are bounded to keep their arrays in memory.
build_sampled and build_reconstruct give the scanned [source] amplitude and the
[reconstruct] model, band and half lattice, and build_fringe_axis, build_scan2d_axes
and build_dip_profile the [scan] delay axes (and the dip's width, by the shape of
build_filters' idler filter), to the CLI and the demos alike.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import math

import numpy as np

from . import core, detector, reconstruction as rec

DEFAULTS: dict[str, dict[str, tuple[str, str | tuple[str, ...]]]] = {
    "source": {
        "pump_center_nm": ("775", "in [100, 10000]"),
        "pump_fwhm_ps": ("3.5", "in (0, 1000]"),
        "signal_center_nm": ("1530", "in [100, 10000]"),
        "idler_center_nm": ("auto", "auto|in [100, 10000]"),
        "sigma1_rad_per_ps": ("250", "positive"),
        "sigma2_rad_per_ps": ("250", "positive"),
        "rho": ("auto", "auto|in (-1, 1)"),
        "coherence_fwhm_ps": ("3.5", "positive"),
    },
    "filters": {
        "shape": ("rectangular", ("rectangular", "gaussian")),
        "signal_center_nm": ("1530", "in [100, 10000]"),
        "idler_center_nm": ("auto", "auto|in [100, 10000]"),
        "bandwidth_nm": ("18", "positive"),
    },
    "grid": {
        "n": ("256", "integer in [1, 2048]"),
    },
    "detector": {
        "trigger_rate_mhz": ("4", "positive"),
    },
    "budget": {
        "singles_rate_1_khz": ("95", "nonnegative"),
        "singles_rate_2_khz": ("91", "nonnegative"),
        "coincidence_to_singles": ("0.047", "nonnegative"),
        "car": ("2.68", "positive"),
        "pair_probability_per_pulse": ("auto", "auto|in [0, 1]"),
    },
    "jitter": {
        # relative-timing contributions between the two sources; the pump
        # pulse is common to both crystals, hence excluded by default
        "gvd_fwhm_ps": ("2.34", "in [0, 1000]"),
        "gvd_terms": ("2", "integer in [0, 100]"),
        "include_pump": ("false", "boolean"),
        "v_cap": ("0.3333333333333333", "in [0, 1]"),
    },
    "scan": {
        "fringe_halfspan_mm": ("0.13", "nonnegative"),
        "fringe_step_um": ("0.15", "positive"),
        "dip_halfspan_mm": ("3.0", "nonnegative"),
        "dip_step_um": ("10", "positive"),
        "x1_halfspan_mm": ("1.2", "nonnegative"),
        "x1_step_mm": ("0.1", "positive"),
        "bin_duration_s": ("10", "positive"),
    },
    "reconstruct": {
        "sigma_rad_per_ps": ("7", "positive"),
        "rho": ("-0.9", "in (-1, 1)"),
        "band_n": ("96", "integer in [2, 1024]"),
        "span_coherence_times": ("5", "positive"),
        "step_fraction": ("0.9", "positive"),
        "window": ("none", ("none", "hann")),
    },
    "run": {
        "seed": ("12345", "integer >= 0"),
    },
}


# a range kind -> (the RunConfig reader, the test a value passes, what it must be)
_RANGES = {
    "positive": ("getfloat", lambda v: v > 0, "must be positive"),
    "nonnegative": ("getfloat", lambda v: v >= 0, "must be nonnegative"),
    "in [0, 1]": ("getfloat", lambda v: 0 <= v <= 1, "must lie in [0, 1]"),
    "in (-1, 1)": ("getfloat", lambda v: -1 < v < 1, "must lie in (-1, 1)"),
    "in [0, 1000]": ("getfloat", lambda v: 0 <= v <= 1000, "must lie in [0, 1000]"),
    "in (0, 1000]": ("getfloat", lambda v: 0 < v <= 1000, "must lie in (0, 1000]"),
    "in [100, 10000]": ("getfloat", lambda v: 100 <= v <= 10000, "must lie in [100, 10000]"),
    "integer >= 0": ("getint", lambda v: v >= 0, "must be nonnegative"),
    "integer in [1, 2048]": ("getint", lambda v: 1 <= v <= 2048, "must lie in [1, 2048]"),
    "integer in [2, 1024]": ("getint", lambda v: 2 <= v <= 1024, "must lie in [2, 1024]"),
    "integer in [0, 100]": ("getint", lambda v: 0 <= v <= 100, "must lie in [0, 100]"),
    "boolean": ("getbool", lambda v: True, ""),
}


# steps per half axis of a scan or the reconstruct lattice, whose values are formed
_MAX_HALF_COUNT = 1 << 20


class ConfigError(Exception):
    """Invalid or unknown configuration input."""


class RunConfig:
    """Resolved configuration: defaults overlaid with file and overrides."""

    def __init__(self, sections: dict[str, dict[str, str]]):
        self.sections = sections

    def get(self, section: str, key: str) -> str:
        return self.sections[section][key]

    def getfloat(self, section: str, key: str) -> float:
        raw = self.get(section, key)
        try:
            val = float(raw)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from None
        if not math.isfinite(val):
            raise ConfigError(f"[{section}] {key}: not a finite number: {raw!r}")
        return val

    def getint(self, section: str, key: str) -> int:
        val = self.getfloat(section, key)
        if not val.is_integer():
            raise ConfigError(f"[{section}] {key}: not an integer: {self.get(section, key)!r}")
        return int(val)

    def getbool(self, section: str, key: str) -> bool:
        raw = self.get(section, key).strip().lower()
        if raw in ("true", "1", "yes", "on"):
            return True
        if raw in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"[{section}] {key}: not a boolean: {raw!r}")

    @functools.cached_property
    def _resolved(self) -> tuple[str, str]:
        """(resolved_text, sha256), formed once: `sections` is not changed
        after load_config."""
        text = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in sorted(keys.items()))
                       + "\n" for name, keys in sorted(self.sections.items()))
        return text, hashlib.sha256(text.encode()).hexdigest()

    def resolved_text(self) -> str:
        return self._resolved[0]

    def sha256(self) -> str:
        return self._resolved[1]


def load_config(path=None, overrides: dict[tuple[str, str], str] | None = None) -> RunConfig:
    """Load a config file over the defaults; unknown keys and out-of-kind values are rejected."""
    sections = {s: {k: v for k, (v, _) in kv.items()} for s, kv in DEFAULTS.items()}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path) as fh:
                parser.read_file(fh, source=str(path))
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from None
        except configparser.Error as exc:
            raise ConfigError(str(exc)) from None
        for section in parser.sections():
            if section not in sections:
                raise ConfigError(f"{path}: unknown section [{section}]")
            for key, val in parser.items(section):
                if key not in sections[section]:
                    raise ConfigError(f"{path}: unknown key [{section}] {key}")
                sections[section][key] = val
    for (section, key), val in (overrides or {}).items():
        if section not in sections or key not in sections[section]:
            raise ConfigError(f"override targets unknown key [{section}] {key}")
        sections[section][key] = str(val)
    cfg = RunConfig(sections)
    for section, keys in DEFAULTS.items():
        for key, (_, kind) in keys.items():
            raw = sections[section][key]
            if isinstance(kind, tuple):
                if raw not in kind:
                    raise ConfigError(f"[{section}] {key}: must be one of {kind}, got {raw!r}")
            elif not (raw == "auto" and kind.startswith("auto|")):
                read, ok, must = _RANGES[kind.removeprefix("auto|")]
                if not ok(getattr(cfg, read)(section, key)):
                    raise ConfigError(f"[{section}] {key}: {must}, got {raw!r}")
    # the rules across keys: each photon of a pair is longer than the pump
    # photon it comes from (or the auto idler is negative), and an auto pair
    # probability 1/car must lie in [0, 1]
    pump = cfg.getfloat("source", "pump_center_nm")
    for key in ("signal_center_nm", "idler_center_nm"):
        raw = cfg.get("source", key)
        if raw != "auto" and not cfg.getfloat("source", key) > pump:
            raise ConfigError(f"[source] {key}: must be longer than pump_center_nm "
                              f"({pump:g}), got {raw!r}")
    try:
        build_budget(cfg)
    except ValueError as exc:
        raise ConfigError(f"[budget] {exc} (an auto value is 1/car)") from None
    return cfg


def build_source_params(cfg: RunConfig) -> core.SourceParams:
    pump = cfg.getfloat("source", "pump_center_nm") * 1e-9
    signal = cfg.getfloat("source", "signal_center_nm") * 1e-9
    idler = (core.energy_matched_idler(pump, signal)
             if cfg.get("source", "idler_center_nm") == "auto"
             else cfg.getfloat("source", "idler_center_nm") * 1e-9)
    return core.SourceParams(pump_center_wavelength=pump,
                             signal_center_wavelength=signal,
                             idler_center_wavelength=idler)


def build_filters(cfg: RunConfig, src: core.SourceParams):
    shape = cfg.get("filters", "shape")
    bw = cfg.getfloat("filters", "bandwidth_nm") * 1e-9
    f1_center = cfg.getfloat("filters", "signal_center_nm") * 1e-9
    f2_center = (src.idler_center_wavelength
                 if cfg.get("filters", "idler_center_nm") == "auto"
                 else cfg.getfloat("filters", "idler_center_nm") * 1e-9)
    return (core.SpectralFilter.from_wavelength(shape, f1_center, bw),
            core.SpectralFilter.from_wavelength(shape, f2_center, bw))


def build_model(cfg: RunConfig, src: core.SourceParams) -> core.BiphotonAmplitude:
    wc1 = core.omega_from_wavelength(src.signal_center_wavelength)
    wc2 = core.omega_from_wavelength(src.idler_center_wavelength)
    s1 = cfg.getfloat("source", "sigma1_rad_per_ps") * 1e12
    s2 = cfg.getfloat("source", "sigma2_rad_per_ps") * 1e12
    if cfg.get("source", "rho") == "auto":
        coherence = cfg.getfloat("source", "coherence_fwhm_ps") * 1e-12
        return core.gaussian_from_setup(wc1, wc2, s1, s2, coherence)
    return core.BiphotonAmplitude.gaussian(wc1, wc2, s1, s2, rho=cfg.getfloat("source", "rho"))


def build_sampled(cfg: RunConfig) -> tuple[core.SourceParams, core.SampledAmplitude]:
    """The [source] model through both filters, sampled on the filters'
    grid of [grid] n points per axis: the amplitude fringe and scan2d scan."""
    src = build_source_params(cfg)
    f1, f2 = build_filters(cfg, src)
    model = build_model(cfg, src)
    grid = core.grid_for_filters(f1, f2, n=cfg.getint("grid", "n"))
    return src, core.sample_on_grid(model, grid, f1, f2)


def _half_count(half: float, step: float, key: str) -> int:
    """The largest k <= half / step to a relative 1e-9, so that an exact multiple
    (1.2 / 0.1 mm) keeps its end points; 1 to _MAX_HALF_COUNT."""
    n = half / step * (1.0 + 1e-9)
    if n < 1:
        raise ConfigError(f"[scan] {key}: half-span is shorter than one scan step")
    if not n < _MAX_HALF_COUNT + 1:
        raise ConfigError(f"[scan] {key}: a half-span of {n:.3g} steps exceeds {_MAX_HALF_COUNT}")
    return int(n)


def _scan_axis(half: float, step: float, key: str) -> tuple[float, float, int]:
    """The ascending (start, step, count) axis of the delays +-step * k / C, |k| <=
    _half_count, its first two delays formed as in the sorted array of them, bit for bit."""
    n = _half_count(half, step, key)
    start = step * -n / core.C
    return start, step * (1 - n) / core.C - start, 2 * n + 1


def _fringe_axis(cfg: RunConfig, grid: core.FrequencyGrid, widen: float, key: str):
    """The delta_tau_L = -delta_x2/c axis over fringe_halfspan_mm + `widen` (m),
    whose keys `key` names; a step that undersamples `grid` raises AliasingError."""
    step = cfg.getfloat("scan", "fringe_step_um") * 1e-6
    axis = _scan_axis(cfg.getfloat("scan", "fringe_halfspan_mm") * 1e-3 + widen, step, key)
    bound = rec.nyquist_step(grid)
    if step / core.C > bound:
        raise rec.AliasingError("delta_tau_L", step / core.C, bound)
    return axis


def build_fringe_axis(cfg: RunConfig, grid: core.FrequencyGrid) -> tuple[float, float, int]:
    """The (start, step, count) delay axis `fringe` scans on `grid`."""
    return _fringe_axis(cfg, grid, 0.0, "fringe_halfspan_mm")


def build_scan2d_axes(cfg: RunConfig, grid: core.FrequencyGrid):
    """The delta_tau_S = delta_x1/c and delta_tau_L axes `scan2d` scans: the
    fringe axis is widened by x1_halfspan_mm, as the fringe ridge tracks
    delta_x2 = -delta_x1, and a lattice longer than the longest 1-D scan is refused."""
    x1_half = cfg.getfloat("scan", "x1_halfspan_mm") * 1e-3
    s_axis = _scan_axis(x1_half, cfg.getfloat("scan", "x1_step_mm") * 1e-3, "x1_halfspan_mm")
    l_axis = _fringe_axis(cfg, grid, x1_half, "fringe_halfspan_mm + x1_halfspan_mm")
    if s_axis[2] * l_axis[2] > 2 * _MAX_HALF_COUNT + 1:
        raise ConfigError(f"[scan] x1_halfspan_mm: a lattice of {s_axis[2]} x {l_axis[2]} "
                          f"points exceeds {2 * _MAX_HALF_COUNT + 1}")
    return s_axis, l_axis


def build_dip_profile(cfg: RunConfig) -> tuple[np.ndarray, float]:
    """Delays dt (s) of the independent-photon dip scan and the width s (s) of its
    zero-jitter profile exp(-dt^2/2s^2): |FT(T^2)|^2 of the idler filter T of
    build_filters, exact when gaussian, and when rectangular (sinc^2) the Gaussian
    of its area, so the jitter-broadened dip is closed-form and the fit exact."""
    idler = build_filters(cfg, build_source_params(cfg))[1]
    s = (2.0 / idler.bandwidth * np.sqrt(np.pi / 2.0)  # the sinc^2 area, 2/bw its delay scale
         if idler.shape == "rectangular" else 1.0 / (idler.bandwidth * core.FWHM_TO_SIGMA))
    half = cfg.getfloat("scan", "dip_halfspan_mm") * 1e-3 / core.C
    step = cfg.getfloat("scan", "dip_step_um") * 1e-6 / core.C
    n = _half_count(half, step, "dip_halfspan_mm")
    return step * np.arange(-n, n + 1), s


def build_reconstruct_band(cfg: RunConfig) -> tuple[core.BiphotonAmplitude, core.FrequencyGrid]:
    """The [reconstruct] Gaussian at the [source] centres, and its band, which
    must lie above zero frequency (ConfigError otherwise)."""
    src = build_source_params(cfg)
    wc1 = core.omega_from_wavelength(src.signal_center_wavelength)
    wc2 = core.omega_from_wavelength(src.idler_center_wavelength)
    sigma = cfg.getfloat("reconstruct", "sigma_rad_per_ps") * 1e12
    model = core.BiphotonAmplitude(wc1, wc2, sigma, sigma, cfg.getfloat("reconstruct", "rho"))
    grid = core.grid_for_gaussian(model, n=cfg.getint("reconstruct", "band_n"))
    if (lowest := min(grid.omega1_min, grid.omega2_min)) <= 0.0:
        raise ConfigError(f"[reconstruct] sigma_rad_per_ps: the band reaches {lowest:.3e} rad/s, "
                          "at or below zero frequency, which no lattice step samples")
    return model, grid


def build_reconstruct(cfg: RunConfig) -> tuple[core.BiphotonAmplitude, core.FrequencyGrid,
                                               rec.DelayLattice]:
    """build_reconstruct_band and the a >= 0 half lattice reconstruct scans
    (M = |Phi|^2 is real, so G(-a, -b) = G(a, b))."""
    model, grid = build_reconstruct_band(cfg)
    # Gamma decays slowest along the correlation ridge: span the lattice over that axis
    coh = math.sqrt(2.0) / (model.sigma1 * math.sqrt(1.0 - abs(model.rho)))
    step = cfg.getfloat("reconstruct", "step_fraction") * rec.nyquist_step(grid)
    half_count = cfg.getfloat("reconstruct", "span_coherence_times") * coh / step
    if not half_count <= _MAX_HALF_COUNT:
        raise ConfigError(f"[reconstruct] span_coherence_times / step_fraction: a half lattice "
                          f"of {half_count:.3g} steps per half axis exceeds {_MAX_HALF_COUNT}")
    return model, grid, rec.DelayLattice.half(step, math.ceil(half_count))


def build_detector(cfg: RunConfig) -> float:
    return cfg.getfloat("detector", "trigger_rate_mhz") * 1e6


def build_budget(cfg: RunConfig) -> detector.SourceBudget:
    car = cfg.getfloat("budget", "car")
    pair_p = (detector.pair_probability_from_car(car)
              if cfg.get("budget", "pair_probability_per_pulse") == "auto"
              else cfg.getfloat("budget", "pair_probability_per_pulse"))
    return detector.SourceBudget(
        singles_rate_1=cfg.getfloat("budget", "singles_rate_1_khz") * 1e3,
        singles_rate_2=cfg.getfloat("budget", "singles_rate_2_khz") * 1e3,
        pair_probability_per_pulse=pair_p,
        coincidence_to_singles=cfg.getfloat("budget", "coincidence_to_singles"),
        car=car)


def build_jitter(cfg: RunConfig) -> float:
    """The relative-timing jitter FWHM (s): the pump's when include_pump,
    then gvd_terms copies of gvd_fwhm_ps, summed in quadrature."""
    spreads = ([cfg.getfloat("source", "pump_fwhm_ps") * 1e-12]
               if cfg.getbool("jitter", "include_pump") else [])
    spreads += [cfg.getfloat("jitter", "gvd_fwhm_ps") * 1e-12] * cfg.getint("jitter", "gvd_terms")
    return math.sqrt(sum(s * s for s in spreads))
