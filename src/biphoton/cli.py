"""Batch command-line surface.

Subcommands: fringe | hom-dip | scan2d | reconstruct | budget.
Exit codes: 0 success, 2 config error, 3 fit non-convergence, 4 aliasing.

Each subcommand is a body `(cfg, args) -> report lines` in `COMMANDS`; a
body writes its own data file and raises on failure. `main` maps the
failure to its exit code and writes the report and `resolved_config.cfg`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from pathlib import Path

import numpy as np

from . import core, detector, fitting, interferometer as ifm, reconstruction as rec
from .config import (ConfigError, RunConfig, build_budget, build_detector, build_dip_profile,
                     build_fringe_axis, build_jitter, build_reconstruct, build_sampled,
                     build_scan2d_axes, load_config)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_ALIASING = 4


def _write_scan(cfg: RunConfig, args: argparse.Namespace, ig: ifm.Interferogram,
                name: str) -> ifm.Interferogram:
    """The Poisson counts drawn from `ig` for the configured budget and
    detector (`ig` itself with --noiseless), written to `name` in the output
    directory: a seeded file holds the counts and not G."""
    if not args.noiseless:
        ig = detector.rate_to_counts(ig, build_budget(cfg), build_detector(cfg),
                                     cfg.getfloat("scan", "bin_duration_s"), args.seed)
    ig = dataclasses.replace(ig, metadata={**ig.metadata, "config_sha256": cfg.sha256()})
    ifm.write_interferogram_csv(ig, args.out / name)
    return ig


def _num(value: float, spec: str) -> str:
    """format(value, spec), without the sign of a value that prints as zero:
    a -0.000000 is rounding noise, not a result."""
    text = format(value, spec)
    return text.lstrip("-") if set(text) <= set("-0.") else text


def _fringe(cfg: RunConfig, args: argparse.Namespace) -> list[str]:
    _, sampled = build_sampled(cfg)
    ig = ifm.scan_1d(sampled, sampled, "L", 0.0, *build_fringe_axis(cfg, sampled.grid))
    x = fitting.delay_to_position(ig.axes[0].values, "delta_tau_L")
    order = np.argsort(x)
    ig = _write_scan(cfg, args, ig, "fringe.csv")
    fit = fitting.fit_fringe(x[order], detector.fit_data(ig)[order])
    lines = [
        f"visibility: {fit.visibility:.6f} +- {fit.stderr['visibility']:.6f}",
        f"period_nm: {fit.period * 1e9:.4f} +- {fit.stderr['period'] * 1e9:.4f}",
        f"sigma_x_mm: {fit.sigma_x * 1e3:.6f} +- {fit.stderr['sigma_x'] * 1e3:.6f}",
        f"pi_sigma_x_mm: {np.pi * fit.sigma_x * 1e3:.6f}",
        f"center_um: {_num(fit.center * 1e6, '.4f')}",
        f"phase_rad: {_num(fit.phase, '.6f')}",
        f"residual_rms: {fit.residual_rms:.6g}",
    ]
    if fit.visibility - 1.0 > fit.stderr["visibility"]:
        lines.append("warning: visibility exceeds 1 by more than its stderr")
    return lines


def _hom_dip(cfg: RunConfig, args: argparse.Namespace) -> list[str]:
    dt, s = build_dip_profile(cfg)
    jitter = build_jitter(cfg)  # FWHM, s
    g = 1.0 - detector.independent_hom_dip(dt, s, jitter, v_cap=cfg.getfloat("jitter", "v_cap"))
    ig = ifm.Interferogram((ifm.Axis("delta_tau", dt[0], dt[1] - dt[0], len(dt)),), g)
    ig = _write_scan(cfg, args, ig, "dip.csv")
    fit = fitting.fit_dip(core.C * dt, detector.fit_data(ig))
    return [
        f"visibility_percent: {_num(fit.visibility * 100, '.4f')} +- {fit.stderr['visibility'] * 100:.4f}",
        f"fwhm_mm: {fit.fwhm * 1e3:.4f} +- {fit.stderr['fwhm'] * 1e3:.4f}",
        f"center_um: {_num(fit.center * 1e6, '.4f')}",
        f"jitter_fwhm_ps: {jitter * 1e12:.4f}",
        f"residual_rms: {fit.residual_rms:.6g}",
    ]


def _scan2d(cfg: RunConfig, args: argparse.Namespace) -> list[str]:
    src, sampled = build_sampled(cfg)
    ig = ifm.scan_2d(sampled, sampled, *build_scan2d_axes(cfg, sampled.grid))
    ig = _write_scan(cfg, args, ig, "scan2d.csv")
    env = fitting.visibility_envelope(ig, period_guess=src.idler_center_wavelength)
    slope = fitting.ridge_slope(env)
    return [
        f"peak_visibility: {env.fit.peak_visibility:.6f}",
        f"envelope_center_mm: {_num(env.fit.center * 1e3, '.6f')}",
        f"envelope_fwhm_mm: {env.fit.fwhm * 1e3:.6f} +- {env.fit.stderr['fwhm'] * 1e3:.6f}",
        f"ridge_slope: {_num(slope, '.4f')}",
        f"entangled_signature: {abs(slope) > 0.5}",
        f"slices_failed: {len(env.failed)}",
    ]


def _reconstruct(cfg: RunConfig, args: argparse.Namespace) -> list[str]:
    window = cfg.get("reconstruct", "window")
    demod = cfg.getbool("reconstruct", "demodulate")
    model, grid, lattice = build_reconstruct(cfg)
    if args.input is None:
        est, err = rec.roundtrip_error(model, grid, lattice, demod, window)
        axes = list(lattice.axes)
    else:
        try:
            ig = ifm.read_interferogram_csv(args.input)
        except OSError as exc:
            raise ConfigError(f"--input: {exc}") from None
        est, err = rec.reconstruct_jsi(ig, grid, window=window, demodulate=demod), None
        axes = [(ax.start, ax.step, ax.count) for ax in ig.axes]
    ifm.write_csv(args.out / "jsi.csv",
                  [f"omega1 axis,{grid.omega1_min!r},{grid.d1!r},{grid.n1}",
                   f"omega2 axis,{grid.omega2_min!r},{grid.d2!r},{grid.n2}",
                   f"config_sha256={cfg.sha256()}"],
                  est.values.reshape(-1))
    corr = core.jsi_correlation(est.values, grid) if not est.degenerate else float("nan")
    lines = [
        f"lattice_axes: {axes}",
        f"window: {window}",
        f"demodulated: {demod}",
        f"negativity_fraction: {_num(est.negativity_fraction, '.3g')}",
        f"correlation: {_num(corr, '.4f')}",
    ]
    if err is not None:
        lines.append(f"roundtrip_l2_error: {err:.3g}")
    return lines


def _budget(cfg: RunConfig, args: argparse.Namespace) -> list[str]:
    budget = build_budget(cfg)
    acc = detector.accidentals(budget.singles_rate_1, budget.singles_rate_2, build_detector(cfg))
    lines = [
        f"accidentals_hz: {acc!r}",
        f"pair_probability_per_pulse: {budget.pair_probability_per_pulse:.4g}",
        f"expected_coincidence_rate_hz: {budget.singles_rate_1 * budget.coincidence_to_singles!r}",
        f"singles_rate_1_hz: {budget.singles_rate_1!r}",
        f"singles_rate_2_hz: {budget.singles_rate_2!r}",
        f"car: {budget.car!r}",
    ]
    print("\n".join(lines))
    return lines


# subcommand -> (body, report file name)
COMMANDS = {
    "fringe": (_fringe, "fit_report.txt"),
    "hom-dip": (_hom_dip, "fit_report.txt"),
    "scan2d": (_scan2d, "envelope_report.txt"),
    "reconstruct": (_reconstruct, "recon_report.txt"),
    "budget": (_budget, "budget_report.txt"),
}


def _parse_overrides(pairs: list[str]) -> dict[tuple[str, str], str]:
    overrides = {}
    for pair in pairs:
        try:
            target, val = pair.split("=", 1)
            section, key = target.split(".", 1)
        except ValueError:
            raise ConfigError(f"bad override {pair!r}; expected section.key=value") from None
        overrides[(section.strip(), key.strip())] = val.strip()
    return overrides


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parse_args leaves it
    unchanged, and `--set` collects into a fresh list on every call."""
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Two-photon interference simulation and analysis toolkit")
    parser.add_argument("--config", default=None, help="config file path")
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--noiseless", action="store_true",
                        help="skip counting-noise synthesis")
    parser.add_argument("--set", dest="overrides", action="append", default=None,
                        metavar="SECTION.KEY=VALUE", help="config override")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name)
    sub.choices["reconstruct"].add_argument("--input", default=None,
                                            help="interferogram CSV to invert")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    body, report = COMMANDS[args.command]

    try:
        overrides = _parse_overrides(args.overrides or [])
        if args.seed is not None:
            overrides[("run", "seed")] = str(args.seed)
        cfg = load_config(args.config, overrides)
        args.seed = cfg.getint("run", "seed")
        args.out = Path(args.out)
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out: {exc}") from None
        try:
            lines, code = body(cfg, args), EXIT_OK
        except (fitting.FitConvergenceError, fitting.InsufficientDataError,
                fitting.NoPeriodError) as exc:
            lines, code = [f"error: {exc}"], EXIT_FIT
        except rec.AliasingError as exc:
            lines = [f"error: {exc}", f"required_step_s: {exc.required_step!r}"]
            code = EXIT_ALIASING
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    text = "".join(f"{line}\n" for line in [f"# config_sha256={cfg.sha256()}", *lines])
    (args.out / report).write_text(text)
    (args.out / "resolved_config.cfg").write_text(cfg.resolved_text())
    return code


if __name__ == "__main__":
    sys.exit(main())
