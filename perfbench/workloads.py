"""The four benchmark workloads: the CLI calls that make one operation, the
input file one of them reads, and the checks each operation's reports must
pass.

Every workload runs the subcommands at their config defaults, so the
physics the checks assert is the paper's reference setup: a 775 nm pump,
a 1530 nm signal arm and an energy-matched idler arm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

C = 299792458.0
PUMP_NM = 775.0                 # [source] pump_center_nm default
SIGNAL_NM = 1530.0              # [source] signal_center_nm default
IDLER_NM = 1.0 / (1.0 / PUMP_NM - 1.0 / SIGNAL_NM)
COHERENCE_FWHM_PS = 3.5         # [source] coherence_fwhm_ps default
ENVELOPE_FWHM_MM = C * COHERENCE_FWHM_PS * 1e-12 * 1e3
V_CAP_PERCENT = 100.0 / 3.0     # multi-pair cap on independent-photon HOM


def derive_seed(seed: int, op: int) -> int:
    """Seed of operation `op` in a run started with workload seed `seed`."""
    return random.Random(f"{seed}/{op}").randrange(2**31)


def parse_report(path: Path) -> dict[str, str]:
    """`key: value` lines of a report; the `# config_sha256` line is skipped."""
    out = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or ": " not in line:
            continue
        key, val = line.split(": ", 1)
        out[key] = val
    return out


def number(report: dict[str, str], key: str) -> float:
    """Leading number of a report value; a trailing `+- stderr` is ignored."""
    return float(report[key].split()[0])


def _report(out: Path, name: str) -> dict[str, str]:
    report = parse_report(out / name)
    if "error" in report:
        raise ValueError(f"{name}: error: {report['error']}")
    return report


def check_scan2d(out: Path) -> list[str]:
    r = _report(out, "envelope_report.txt")
    errors = []
    slope = number(r, "ridge_slope")
    if not slope < -0.9:
        errors.append(f"ridge_slope {slope} is not < -0.9")
    fwhm = number(r, "envelope_fwhm_mm")
    if abs(fwhm - ENVELOPE_FWHM_MM) > 0.1 * ENVELOPE_FWHM_MM:
        errors.append(f"envelope_fwhm_mm {fwhm} is not within 10% of {ENVELOPE_FWHM_MM:.4f}")
    return errors


def check_reconstruct(out: Path) -> list[str]:
    r = _report(out, "recon_report.txt")
    errors = []
    err = number(r, "roundtrip_l2_error")
    if not err <= 1e-6:
        errors.append(f"roundtrip_l2_error {err} exceeds 1e-6")
    corr = number(r, "correlation")
    if not abs(corr + 0.9) <= 0.01:
        errors.append(f"correlation {corr} is not within 0.01 of -0.9")
    return errors


def check_invert_csv(out: Path) -> list[str]:
    corr = number(_report(out, "recon_report.txt"), "correlation")
    return [] if abs(corr) <= 0.02 else [f"|correlation| {abs(corr)} exceeds 0.02"]


def check_interactive(out: Path) -> list[str]:
    errors = []
    fringe = _report(out / "fringe", "fit_report.txt")
    period = number(fringe, "period_nm")
    if not abs(period - IDLER_NM) <= 1e-3 * IDLER_NM:
        errors.append(f"fringe period_nm {period} is not within 0.1% of {IDLER_NM:.4f}")
    vis = number(fringe, "visibility")
    if not vis >= 0.95:
        errors.append(f"fringe visibility {vis} is below 0.95")
    dip = number(_report(out / "hom-dip", "fit_report.txt"), "visibility_percent")
    if not 0.0 < dip <= V_CAP_PERCENT:
        errors.append(f"hom-dip visibility_percent {dip} is outside (0, {V_CAP_PERCENT:.4f}]")
    return errors


@dataclass(frozen=True)
class Workload:
    """A workload. Why `reconstruct` and `interactive` were chosen is
    recorded in BENCHMARK.json, which lists the workloads a regression gate
    runs; the comments below say why the other two are not listed."""

    name: str
    # (op seed, output dir, input file) -> argv of each cli.main call in one op
    calls: Callable[[int, Path, Path | None], list[list[str]]]
    check: Callable[[Path], list[str]]
    needs_input: bool = False


WORKLOADS = {w.name: w for w in (
    # The headline 2D coherence-envelope run, where Poisson counts, 23 slice
    # fits and CSV writing dominate. Not gated: an op takes 15-21 s and its
    # cost varies ~12% with the noise seed, so the 2-3 ops a gated run can
    # afford give medians that spread ~17% between seeds on a shared
    # two-core machine, too close to the 25% bound.
    Workload(
        "scan2d",
        lambda seed, out, _: [["--seed", str(seed), "--out", str(out), "scan2d"]],
        check_scan2d),
    Workload(
        "reconstruct",
        lambda seed, out, _: [["--out", str(out), "reconstruct"]],
        check_reconstruct),
    # The only workload that reads a CSV (907 x 907 points), inverted
    # without a forward scan. Not gated: writing its input costs ~20 s per
    # run, which the gate's time budget cannot spare next to long runs.
    Workload(
        "invert-csv",
        lambda seed, out, path: [["--set", "reconstruct.rho=0", "--out", str(out),
                                  "reconstruct", "--input", str(path)]],
        check_invert_csv, needs_input=True),
    Workload(
        "interactive",
        lambda seed, out, _: [["--seed", str(seed), "--out", str(out / cmd), cmd]
                              for cmd in ("fringe", "hom-dip", "budget")],
        check_interactive),
)}


def write_invert_input(path: Path, seed: int) -> None:
    """Write the `invert-csv` input through the public API.

    The lattice is the one `reconstruct` builds at `reconstruct.rho=0`
    (907 x 907 at defaults), in the 4-column `scan2d.csv` schema, with
    counts from a seeded `rate_to_counts`.
    """
    import numpy as np
    from biphoton import core, detector, interferometer, reconstruction
    from biphoton.config import (build_budget, build_detector, build_source_params,
                                 load_config)

    cfg = load_config(overrides={("reconstruct", "rho"): "0"})
    src = build_source_params(cfg)
    rho = cfg.getfloat("reconstruct", "rho")
    sigma = cfg.getfloat("reconstruct", "sigma_rad_per_ps") * 1e12
    wc1 = core.omega_from_wavelength(src.signal_center_wavelength)
    wc2 = core.omega_from_wavelength(src.idler_center_wavelength)
    model = core.BiphotonAmplitude.gaussian(wc1, wc2, sigma, sigma, rho=rho)
    grid = core.grid_for_gaussian(model, n=cfg.getint("reconstruct", "band_n"))
    coh = np.sqrt(2.0) / (sigma * np.sqrt(1.0 - abs(rho)))
    step = cfg.getfloat("reconstruct", "step_fraction") * reconstruction.nyquist_step(grid)
    half = int(np.ceil(cfg.getfloat("reconstruct", "span_coherence_times") * coh / step))
    lattice = reconstruction.DelayLattice.symmetric(step, half, step, half)
    sampled = core.sample_on_grid(model, grid)
    ig = interferometer.scan_2d(sampled, sampled,
                                (lattice.start1, lattice.step1, lattice.count1),
                                (lattice.start2, lattice.step2, lattice.count2))
    noisy = detector.rate_to_counts(ig, build_budget(cfg), build_detector(cfg),
                                    cfg.getfloat("scan", "bin_duration_s"), seed)
    interferometer.write_interferogram_csv(noisy, path)
