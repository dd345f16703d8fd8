import ast
import hashlib
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import reference
from biphoton import cli, config, core, detector, fitting
from biphoton import interferometer as ifm
from biphoton import reconstruction as rec
from biphoton.config import (DEFAULTS, ConfigError, build_dip_profile, build_filters,
                             build_fringe_axis, build_jitter, build_model, build_reconstruct,
                             build_reconstruct_band, build_sampled, build_scan2d_axes,
                             build_source_params, load_config)

# values outside each range kind of DEFAULTS; a kind missing here fails the contract test
OUTSIDE = {
    "positive": ["0", "-1"],
    "nonnegative": ["-1"],
    "in [0, 1]": ["-0.5", "1.5"],
    "in (-1, 1)": ["-1", "1.5"],
    "in [0, 1000]": ["-1", "1001", "1e300"],
    "in (0, 1000]": ["0", "-1", "1001", "1e300"],
    "in [100, 10000]": ["0", "-1", "99", "10001", "1e-300", "1e300"],
    "integer >= 0": ["-1", "1.5"],
    "integer in [1, 2048]": ["0", "64.5", "2049", "1e300"],
    "integer in [2, 1024]": ["1", "95.5", "1025", "1e300"],
    "integer in [0, 100]": ["-1", "1.5", "101", "1e300"],
    "boolean": ["maybe"],
}


def outside(kind) -> list[str]:
    """Values outside a DEFAULTS kind: a word it does not list, or values
    outside its range, and 'auto' where the kind does not admit it."""
    if isinstance(kind, tuple):
        return ["foo"]
    if kind.startswith("auto|"):
        return OUTSIDE[kind.removeprefix("auto|")]
    return [*OUTSIDE[kind], "auto"]


OUT_OF_KIND = [(section, key, value) for section, keys in DEFAULTS.items()
               for key, (_, kind) in keys.items() for value in outside(kind)]


class TestLoadConfig:
    def test_defaults_resolve(self):
        cfg = load_config()
        src = build_source_params(cfg)
        assert src.pump_center_wavelength == pytest.approx(775e-9)
        # idler defaults to the energy-matched partner of 1530 nm
        assert src.idler_center_wavelength == pytest.approx(1570.5e-9, abs=0.1e-9)
        model = build_model(cfg, src)
        assert model.sigma1 == pytest.approx(2.5e14)
        assert model.rho < -0.999

    def test_file_overlay_and_unknown_keys(self, tmp_path):
        good = tmp_path / "run.cfg"
        good.write_text("[source]\npump_fwhm_ps = 2.0\n")
        cfg = load_config(good)
        assert cfg.getfloat("source", "pump_fwhm_ps") == 2.0
        bad = tmp_path / "bad.cfg"
        bad.write_text("[source]\nnot_a_key = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(bad)
        bad2 = tmp_path / "bad2.cfg"
        bad2.write_text("[nope]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_config(bad2)

    def test_overrides(self):
        cfg = load_config(overrides={("run", "seed"): "99"})
        assert cfg.getint("run", "seed") == 99
        with pytest.raises(ConfigError):
            load_config(overrides={("run", "nope"): "1"})

    def test_type_errors_are_config_errors(self):
        with pytest.raises(ConfigError, match="not a number"):
            load_config(overrides={("source", "pump_fwhm_ps"): "fast"})
        with pytest.raises(ConfigError, match="not a boolean"):
            load_config(overrides={("jitter", "include_pump"): "maybe"})

    def test_every_default_passes(self):
        cfg = load_config()
        assert cfg.sections == {s: {k: v for k, (v, _) in keys.items()}
                                for s, keys in DEFAULTS.items()}

    def test_sha_tracks_content(self):
        a = load_config()
        b = load_config(overrides={("run", "seed"): "7"})
        assert a.sha256() != b.sha256()
        assert a.sha256() == load_config().sha256()
        assert a.sha256() == hashlib.sha256(a.resolved_text().encode()).hexdigest()

    @pytest.mark.parametrize("argv", [["fringe"], ["--set", "reconstruct.band_n=32",
                                                   "--set", "reconstruct.rho=0", "reconstruct"]],
                             ids=["fringe", "reconstruct"])
    def test_a_run_hashes_its_config_once(self, tmp_path, monkeypatch, argv):
        # the CSV, the report and resolved_config.cfg share one hash and text
        texts = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda data: texts.append(data) or sha256(data))
        assert cli.main(["--out", str(tmp_path), *argv]) == cli.EXIT_OK
        assert texts == [(tmp_path / "resolved_config.cfg").read_bytes()]

    def test_jitter_defaults_exclude_common_mode_pump(self):
        gvd = build_jitter(load_config())
        assert gvd == pytest.approx(np.sqrt(2) * 2.34e-12)
        with_pump = build_jitter(load_config(overrides={("jitter", "include_pump"): "true"}))
        assert with_pump**2 == pytest.approx(gvd**2 + 3.5e-12**2)


def read_report(path):
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("#") or ":" not in line:
            continue
        key, val = line.split(":", 1)
        out[key.strip()] = val.strip()
    return out


class TestCliExitCodes:
    def test_success(self, tmp_path):
        assert cli.main(["--out", str(tmp_path / "o"), "budget"]) == cli.EXIT_OK

    def test_config_error(self, tmp_path):
        assert cli.main(["--set", "nope.key=1", "budget"]) == cli.EXIT_CONFIG
        assert cli.main(["--set", "garbage", "budget"]) == cli.EXIT_CONFIG
        missing = str(tmp_path / "absent.cfg")
        assert cli.main(["--config", missing, "budget"]) == cli.EXIT_CONFIG

    def test_fit_error(self, tmp_path):
        # 5-point dip scan cannot be fit
        code = cli.main(["--out", str(tmp_path / "o"), "--noiseless",
                         "--set", "scan.dip_halfspan_mm=0.02", "hom-dip"])
        assert code == cli.EXIT_FIT

    def test_all_zero_counts_find_no_period(self, tmp_path):
        # 1 ns bins record no coincidence: the fit sees the constant
        # -accidentals, whose rounding residue must not pass for a fringe
        out = tmp_path / "o"
        code = cli.main(["--out", str(out), "--set", "scan.bin_duration_s=1e-9", "fringe"])
        assert code == cli.EXIT_FIT
        assert read_report(out / "fit_report.txt")["error"] == (
            "no dominant spectral peak above the noise floor")

    def test_aliasing_error(self, tmp_path):
        code = cli.main(["--out", str(tmp_path / "o"),
                         "--set", "reconstruct.step_fraction=36", "reconstruct"])
        assert code == cli.EXIT_ALIASING
        report = read_report(tmp_path / "o" / "recon_report.txt")
        assert "required_step_s" in report

    def test_mirror_band_aliasing_is_refused(self, tmp_path):
        # 36 x nyquist_step is under pi over the band half-width, but on both
        # axes the mirror band aliases onto the band (inverted anyway, the
        # JSI comes back with L2 error 0.69 and correlation -0.71)
        code = cli.main(["--out", str(tmp_path / "o"),
                         "--set", "reconstruct.step_fraction=36", "reconstruct"])
        assert code == cli.EXIT_ALIASING
        report = read_report(tmp_path / "o" / "recon_report.txt")
        # the top of axis 1's last bandpass window, 18 x nyquist_step, passes
        assert float(report["required_step_s"]) == pytest.approx(4.4662e-14, rel=1e-4)
        assert cli.main(["--out", str(tmp_path / "p"),
                         "--set", "reconstruct.step_fraction=18", "reconstruct"]) == cli.EXIT_OK
        report = read_report(tmp_path / "p" / "recon_report.txt")
        assert float(report["roundtrip_l2_error"]) <= 1e-6

    def test_undersampled_fringe_is_aliasing(self, tmp_path):
        # 2 um of path per step is above half the shortest wavelength on the grid
        out = tmp_path / "o"
        code = cli.main(["--out", str(out), "--noiseless", "--set", "grid.n=64",
                         "--set", "scan.fringe_step_um=2", "fringe"])
        assert code == cli.EXIT_ALIASING
        report = read_report(out / "fit_report.txt")
        assert float(report["required_step_s"]) * core.C == pytest.approx(0.76e-6, rel=0.01)
        assert not (out / "fringe.csv").exists()

    @pytest.mark.parametrize("override,command,message", [
        ("grid.n=0", "fringe", "[grid] n: must lie in [1, 2048]"),
        ("scan.dip_step_um=0", "hom-dip", "must be positive"),
        ("budget.car=0", "budget", "must be positive"),
        ("grid.n=256.7", "fringe", "not an integer"),
        ("scan.dip_halfspan_mm=0", "hom-dip", "shorter than one scan step"),
        ("scan.x1_halfspan_mm=0", "scan2d", "shorter than one scan step"),
        ("scan.fringe_halfspan_mm=inf", "fringe", "not a finite number"),
        ("reconstruct.span_coherence_times=inf", "reconstruct", "not a finite number"),
        ("detector.trigger_rate_mhz=nan", "budget", "not a finite number"),
        ("scan.bin_duration_s=-1", "fringe", "must be positive"),
        ("scan.bin_duration_s=0", "fringe", "must be positive"),
        ("source.idler_center_nm=abc", "fringe", "[source] idler_center_nm: not a number"),
        ("source.rho=nan", "fringe", "[source] rho: not a finite number"),
        ("filters.idler_center_nm=nan", "fringe", "[filters] idler_center_nm: not a finite"),
        ("budget.pair_probability_per_pulse=abc", "budget",
         "[budget] pair_probability_per_pulse: not a number"),
        ("source.pump_fwhm_ps=0", "fringe", "[source] pump_fwhm_ps: must lie in (0, 1000]"),
        ("source.coherence_fwhm_ps=-3.5", "fringe",
         "[source] coherence_fwhm_ps: must be positive"),
        ("jitter.v_cap=-0.5", "hom-dip", "v_cap: must lie in [0, 1]"),
        ("jitter.v_cap=2", "hom-dip", "v_cap: must lie in [0, 1]"),
        ("jitter.gvd_terms=-1", "hom-dip", "[jitter] gvd_terms: must lie in [0, 100]"),
        ("jitter.gvd_terms=-1", "fringe", "[jitter] gvd_terms: must lie in [0, 100]"),
        ("jitter.v_cap=2", "budget", "[jitter] v_cap: must lie in [0, 1]"),
        ("jitter.gvd_fwhm_ps=-1", "budget", "[jitter] gvd_fwhm_ps: must lie in [0, 1000]"),
        ("detector.quantum_efficiency=0.5", "budget", "unknown key"),
        ("reconstruct.demodulate=true", "reconstruct", "unknown key [reconstruct] demodulate"),
        ("detector.trigger_rate_mhz=0", "fringe", "[detector] trigger_rate_mhz: must be positive"),
        ("budget.singles_rate_1_khz=-5", "hom-dip",
         "[budget] singles_rate_1_khz: must be nonnegative"),
        ("budget.pair_probability_per_pulse=2", "fringe",
         "[budget] pair_probability_per_pulse: must lie in [0, 1]"),
        ("source.pump_center_nm=0", "fringe", "[source] pump_center_nm: must lie in [100, 10000]"),
        ("source.pump_center_nm=0", "hom-dip",
         "[source] pump_center_nm: must lie in [100, 10000]"),
        ("source.pump_center_nm=0", "reconstruct",
         "[source] pump_center_nm: must lie in [100, 10000]"),
        ("source.signal_center_nm=0", "fringe",
         "[source] signal_center_nm: must lie in [100, 10000]"),
        ("source.signal_center_nm=0", "hom-dip",
         "[source] signal_center_nm: must lie in [100, 10000]"),
        ("source.signal_center_nm=0", "reconstruct",
         "[source] signal_center_nm: must lie in [100, 10000]"),
        ("filters.signal_center_nm=0", "fringe",
         "[filters] signal_center_nm: must lie in [100, 10000]"),
        ("filters.idler_center_nm=0", "fringe",
         "[filters] idler_center_nm: must lie in [100, 10000]"),
        ("filters.bandwidth_nm=0", "hom-dip", "[filters] bandwidth_nm: must be positive"),
    ])
    def test_bad_values_are_config_errors(self, tmp_path, capsys, override, command, message):
        code = cli.main(["--out", str(tmp_path / "o"), "--noiseless",
                         "--set", override, command])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["budget"], ["--noiseless", "fringe"],
                                         ["--noiseless", "hom-dip"]], ids=" ".join)
    @pytest.mark.parametrize("section,key,value", OUT_OF_KIND,
                             ids=[f"{s}.{k}={v}" for s, k, v in OUT_OF_KIND])
    def test_every_key_refuses_values_outside_its_kind(self, tmp_path, capsys, section, key,
                                                       value, command):
        code = cli.main(["--out", str(tmp_path / "o"), "--set", f"{section}.{key}={value}",
                         *command])
        assert code == cli.EXIT_CONFIG
        assert f"[{section}] {key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("override,command", [("grid.n=100000", "fringe"),
                                                  ("reconstruct.band_n=50000", "reconstruct")])
    def test_grid_size_too_large_to_hold_is_a_config_error(self, tmp_path, capsys, override,
                                                           command):
        # unbounded, these sizes ask numpy for 74.5 GiB and 18.6 GiB
        code = cli.main(["--out", str(tmp_path / "o"), "--noiseless", "--set", override, command])
        assert code == cli.EXIT_CONFIG
        section, key = override.split("=")[0].split(".")
        assert f"[{section}] {key}: must lie in [" in capsys.readouterr().err

    LATTICE_TOO_LARGE = ["reconstruct.span_coherence_times=1e308",
                         "reconstruct.span_coherence_times=1e12",
                         "reconstruct.step_fraction=1e-300"]

    @pytest.mark.parametrize("override", LATTICE_TOO_LARGE)
    def test_half_lattice_too_large_to_build_is_a_config_error(self, tmp_path, capsys,
                                                               override):
        # unbounded, these overflow math.ceil or ask numpy for 2 PiB of delays
        code = cli.main(["--out", str(tmp_path / "o"), "--set", override, "reconstruct"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "config error: [reconstruct] span_coherence_times / step_fraction")
        assert not (tmp_path / "o" / "recon_report.txt").exists()

    @pytest.mark.parametrize("override", LATTICE_TOO_LARGE)
    def test_input_run_does_not_build_the_lattice(self, tmp_path, override):
        # `--input` inverts the file's lattice on the built band: the keys that
        # size reconstruct's own lattice do not reach it
        args = ["--set", "reconstruct.band_n=16", "--set", "reconstruct.rho=0"]
        model, grid = build_reconstruct_band(load_config(
            overrides={("reconstruct", "band_n"): "16", ("reconstruct", "rho"): "0"}))
        sampled = core.sample_on_grid(model, grid)
        ifm.write_interferogram_csv(ifm.scan_2d(sampled, sampled, *rec.DelayLattice.half(
            0.9 * rec.nyquist_step(grid), 40).axes), tmp_path / "scan.csv")
        reports = []
        for name, extra in (("plain", []), ("override", ["--set", override])):
            assert cli.main(["--out", str(tmp_path / name), *args, *extra, "reconstruct",
                             "--input", str(tmp_path / "scan.csv")]) == cli.EXIT_OK
            reports.append((tmp_path / name / "recon_report.txt").read_text().splitlines()[1:])
        assert reports[0] == reports[1]

    def test_band_below_zero_frequency_is_a_config_error(self, tmp_path, capsys):
        # at sigma 1000 rad/ps the +-5 sigma band reaches -3.8e15 rad/s, which
        # no lattice step samples, with or without --input; at 200 it stays above 0
        path = tmp_path / "scan.csv"
        path.write_text("# format=2\n# axis1 delta_tau_S,-1e-15,1e-15,3\n"
                        "# axis2 delta_tau_L,-1e-15,1e-15,3\n" + "1.0\n" * 9)
        sigma = ["--set", "reconstruct.sigma_rad_per_ps=1000", "reconstruct"]
        for name, extra in (("noiseless", []), ("input", ["--input", str(path)])):
            out = tmp_path / name
            assert cli.main(["--out", str(out), *sigma, *extra]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err.splitlines()
            assert err == ["config error: [reconstruct] sigma_rad_per_ps: the band reaches "
                           "-3.801e+15 rad/s, at or below zero frequency, which no lattice "
                           "step samples"]
            assert not (out / "recon_report.txt").exists()
        assert cli.main(["--out", str(tmp_path / "o"), "--set",
                         "reconstruct.sigma_rad_per_ps=200", "reconstruct"]) == cli.EXIT_OK

    @pytest.mark.parametrize("override,command,message", [
        ("scan.fringe_halfspan_mm=1e6", "fringe", "fringe_halfspan_mm: a half-span of"),
        ("scan.dip_halfspan_mm=1e9", "hom-dip", "dip_halfspan_mm: a half-span of"),
        ("scan.x1_halfspan_mm=1e9", "scan2d", "x1_halfspan_mm: a half-span of"),
        ("scan.dip_halfspan_mm=1e308", "hom-dip", "dip_halfspan_mm: a half-span of"),
        ("scan.x1_halfspan_mm=200", "scan2d",
         "fringe_halfspan_mm + x1_halfspan_mm: a half-span of 1.33e+06 steps"),
        ("scan.x1_halfspan_mm=100", "scan2d",
         "x1_halfspan_mm: a lattice of 2001 x 1335067 points exceeds 2097153")],
        ids=["fringe", "hom-dip", "scan2d", "overflow", "widened", "lattice"])
    def test_scan_too_long_to_build_is_a_config_error(self, tmp_path, capsys, override,
                                                      command, message):
        # more than config._MAX_HALF_COUNT steps per half axis (the fringe
        # one alone would take 99 GiB), or a scan2d lattice of more points
        # than the longest 1-D scan (the 2001 x 1335067 one would take 21 GB),
        # is refused before any array is built; the widened scan2d fringe
        # axis names both keys that set its half-span
        code = cli.main(["--out", str(tmp_path / "o"), "--noiseless", "--set", override,
                         command])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"config error: [scan] {message}")
        assert list((tmp_path / "o").iterdir()) == []

    def test_largest_scan2d_lattice_is_built(self, reference_sampled, monkeypatch):
        # the default 25 x 17,733 lattice is 2 * 221,662 + 1 points: it is
        # built at a bound of 221,662 steps and refused at 221,661
        cfg, grid = load_config(), reference_sampled.grid
        monkeypatch.setattr(config, "_MAX_HALF_COUNT", 221_662)
        assert [axis[2] for axis in build_scan2d_axes(cfg, grid)] == [25, 17_733]
        monkeypatch.setattr(config, "_MAX_HALF_COUNT", 221_661)
        with pytest.raises(ConfigError, match="a lattice of 25 x 17733 points exceeds 443323"):
            build_scan2d_axes(cfg, grid)

    def test_largest_half_lattice_is_built(self, tmp_path, monkeypatch):
        # the span-20 lattice (CI's 11,445 delays) takes 5,721.87 steps per
        # half axis, rounded up to 5,722: it is built at a bound of 5,722
        # and refused at 5,721
        monkeypatch.setattr(config, "_MAX_HALF_COUNT", 5722)
        args = ["--out", str(tmp_path / "o"), "--set", "reconstruct.span_coherence_times=20"]
        assert cli.main([*args, "reconstruct"]) == cli.EXIT_OK
        monkeypatch.setattr(config, "_MAX_HALF_COUNT", 5721)
        assert cli.main([*args, "reconstruct"]) == cli.EXIT_CONFIG

    def test_pump_too_wide_for_the_jitter_is_a_config_error(self, tmp_path, capsys):
        # with the pump in the jitter, an unbounded pump_fwhm_ps flattens the dip
        code = cli.main(["--out", str(tmp_path / "o"), "--noiseless",
                         "--set", "source.pump_fwhm_ps=1e300",
                         "--set", "jitter.include_pump=true", "hom-dip"])
        assert code == cli.EXIT_CONFIG
        assert "[source] pump_fwhm_ps: must lie in (0, 1000]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["budget"], ["hom-dip"], ["--noiseless", "hom-dip"],
                                         ["--noiseless", "reconstruct"]], ids=" ".join)
    def test_auto_pair_probability_above_one_is_a_config_error(self, tmp_path, capsys, command):
        # the auto pair probability is 1/car = 2
        code = cli.main(["--out", str(tmp_path / "o"), "--set", "budget.car=0.5", *command])
        assert code == cli.EXIT_CONFIG
        assert "[budget] pair_probability_per_pulse must be in [0, 1]" in capsys.readouterr().err
        assert cli.main(["--out", str(tmp_path / "o"), "--set", "budget.car=0.5",
                         "--set", "budget.pair_probability_per_pulse=0.1", *command]) == cli.EXIT_OK

    @pytest.mark.parametrize("command", [["budget"], ["--noiseless", "fringe"],
                                         ["--noiseless", "hom-dip"], ["--noiseless", "scan2d"],
                                         ["--noiseless", "reconstruct"]], ids=" ".join)
    @pytest.mark.parametrize("override,key", [
        ("source.signal_center_nm=500", "signal_center_nm"),
        ("source.signal_center_nm=775", "signal_center_nm"),
        ("source.idler_center_nm=700", "idler_center_nm"),
    ])
    def test_pair_photon_not_longer_than_the_pump_is_a_config_error(self, tmp_path, capsys,
                                                                    override, key, command):
        # at signal 500 nm the auto idler would be -1409 nm
        code = cli.main(["--out", str(tmp_path / "o"), "--set", override, *command])
        assert code == cli.EXIT_CONFIG
        assert f"[source] {key}: must be longer than pump_center_nm" in capsys.readouterr().err

    def test_reconstruct_rejects_lattice_without_origin(self, tmp_path):
        ax1 = ifm.Axis("delta_tau_S", 0.5e-15, 1e-15, 4)
        ax2 = ifm.Axis("delta_tau_L", -2e-15, 1e-15, 5)
        ig = ifm.Interferogram((ax1, ax2), np.ones((4, 5)))
        path = tmp_path / "ig.csv"
        ifm.write_interferogram_csv(ig, path)
        code = cli.main(["--out", str(tmp_path / "o"), "reconstruct",
                         "--input", str(path)])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("content,message", [
        (None, "No such file"),
        ("# axis1 delta_tau_S,-1e-15,1e-15,3\n# axis2 delta_tau_L,-1e-15,1e-15,3\n",
         "no data rows"),
        ("# format=3\n# axis1 delta_tau_S,-1e-15,1e-15,3\n1.0\n1.0\n1.0\n", "unknown format"),
        ("# format=2\n# axis1 delta_tau_S,-1e-15,nan,3\n# axis2 delta_tau_L,-1e-15,1e-15,3\n"
         + "1.0\n" * 9, "delta_tau_S start and step must be finite"),
    ])
    def test_unreadable_reconstruct_input(self, tmp_path, capsys, content, message):
        path = tmp_path / "ig.csv"
        if content is not None:
            path.write_text(content)
        code = cli.main(["--out", str(tmp_path / "o"), "reconstruct", "--input", str(path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and message in err[0]

    @pytest.mark.parametrize("under", [False, True], ids=["existing-file", "under-a-file"])
    def test_out_that_cannot_be_a_directory_is_a_config_error(self, tmp_path, capsys, under):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "o" if under else blocker
        assert cli.main(["--out", str(out), "budget"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: --out:")
        assert blocker.read_text() == ""

    @pytest.mark.parametrize("counts,message", [(False, "[0, 2]"), (True, "counts")],
                             ids=["G", "counts"])
    def test_nan_input_is_a_config_error(self, tmp_path, capsys, counts, message):
        ax = ifm.Axis("delta_tau", -1e-14, 1e-15, 21)
        ig = ifm.Interferogram((ax, ax), np.ones((21, 21)))
        if counts:
            ig = ifm.Interferogram(ig.axes, None, counts=np.full((21, 21), 5.0),
                                   metadata={"baseline_counts": 5.0})
        path = tmp_path / "scan.csv"
        ifm.write_interferogram_csv(ig, path)
        lines = path.read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        for i in range(first, first + 21):  # one lattice row
            lines[i] = "nan\n"
        path.write_text("".join(lines))
        out = tmp_path / "o"
        code = cli.main(["--out", str(out), "reconstruct", "--input", str(path)])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (out / "recon_report.txt").exists()

    def test_parser_is_built_once_and_keeps_no_state(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["--out", str(a), "--set", "run.seed=5", "--set", "budget.car=9",
                         "budget"]) == cli.EXIT_OK
        parser = cli._parser()
        assert cli.main(["--out", str(b), "budget"]) == cli.EXIT_OK
        assert cli._parser() is parser
        assert (b / "resolved_config.cfg").read_text() == load_config().resolved_text()
        assert parser.parse_args(["budget"]).overrides is None


SMALL_FRINGE = ["--set", "grid.n=64"]
SMALL_SCAN2D = ["--set", "grid.n=64", "--set", "scan.x1_halfspan_mm=0.6",
                "--set", "scan.x1_step_mm=0.2", "--set", "scan.fringe_halfspan_mm=0.05"]
SMALL_RECON = ["--set", "reconstruct.band_n=32", "--set", "reconstruct.rho=0"]


# one short run of every subcommand, and of each failure exit code
RUNS = [
    ([*SMALL_FRINGE, "fringe"], cli.EXIT_OK, "fit_report.txt"),
    (["hom-dip"], cli.EXIT_OK, "fit_report.txt"),
    (["--noiseless", *SMALL_SCAN2D, "scan2d"], cli.EXIT_OK, "envelope_report.txt"),
    ([*SMALL_RECON, "reconstruct"], cli.EXIT_OK, "recon_report.txt"),
    (["budget"], cli.EXIT_OK, "budget_report.txt"),
    (["--set", "scan.dip_halfspan_mm=0.02", "hom-dip"], cli.EXIT_FIT, "fit_report.txt"),
    ([*SMALL_RECON, "--set", "reconstruct.step_fraction=36", "reconstruct"],
     cli.EXIT_ALIASING, "recon_report.txt"),
]
RUN_IDS = ["fringe", "hom-dip", "scan2d", "reconstruct", "budget", "fit-error", "aliasing"]


@pytest.mark.parametrize("argv,code,report", RUNS, ids=RUN_IDS)
def test_every_run_writes_report_and_resolved_config(tmp_path, argv, code, report):
    out = tmp_path / "o"
    assert cli.main(["--out", str(out), "--seed", "3", *argv]) == code
    resolved = (out / "resolved_config.cfg").read_text()
    head = (out / report).read_text().splitlines()[0]
    assert head == f"# config_sha256={hashlib.sha256(resolved.encode()).hexdigest()}"
    assert ("error" in read_report(out / report)) == (code != cli.EXIT_OK)


@pytest.mark.parametrize("value,spec,text", [
    (-1e-9, ".4f", "0.0000"), (-0.0, ".3g", "0"), (-1e-4, ".4f", "-0.0001"),
    (-2.5, ".1f", "-2.5"), (-np.inf, ".4f", "-inf"), (1e-9, ".4f", "0.0000"),
])
def test_num_drops_only_the_sign_of_a_printed_zero(value, spec, text):
    assert cli._num(value, spec) == text


@pytest.mark.parametrize("shape", ["gaussian", "rectangular"])
def test_dip_width_is_the_squared_overlap_of_the_idler_filter(shape):
    # |FT(T^2)|^2 of the idler filter's transmission T, as numerical sums
    # over 400k frequencies: exp(-dt^2/2s^2) itself for a gaussian passband,
    # and for a rectangular one (sinc^2) of the same area, by Parseval
    # 2 pi sum T^4 dw / (sum T^2 dw)^2
    cfg = load_config(overrides={("filters", "shape"): shape})
    idler = build_filters(cfg, build_source_params(cfg))[1]
    _, s = build_dip_profile(cfg)
    w = np.linspace(-3.0, 3.0, 400_001) * idler.bandwidth  # offsets from the centre
    dw = w[1] - w[0]
    t2 = idler.transmission(idler.center + w) ** 2
    area = 2.0 * np.pi * np.sum(t2 ** 2) / (np.sum(t2) ** 2 * dw)
    assert area == pytest.approx(np.sqrt(2.0 * np.pi) * s, rel=1e-4)
    if shape == "gaussian":
        dt = np.linspace(0.0, 5.0, 26) * s
        profile = np.array([t2 @ np.cos(w * t) for t in dt]) / np.sum(t2)
        assert np.max(np.abs(profile ** 2 - np.exp(-0.5 * (dt / s) ** 2))) <= 1e-12


def _dip_axis(cfg, grid):
    dt, _ = build_dip_profile(cfg)
    return dt[0], dt[1] - dt[0], len(dt)


@pytest.mark.parametrize("build,overrides,half,count", [
    (lambda cfg, grid: build_scan2d_axes(cfg, grid)[0], {}, 1.2e-3, 25),
    (lambda cfg, grid: build_scan2d_axes(cfg, grid)[0],
     {("scan", "x1_halfspan_mm"): "0.6", ("scan", "x1_step_mm"): "0.2"}, 0.6e-3, 7),
    (build_fringe_axis, {}, 866 * 0.15e-6, 1733),
    (_dip_axis, {}, 3e-3, 601),
], ids=["x1-default", "x1-reduced", "fringe", "dip"])
def test_scan_axes_keep_an_exact_multiple(reference_sampled, build, overrides, half, count):
    # 1.2e-3 / 1e-4 is 11.999999999999998 in doubles, yet the end points
    # +-1.2 mm are scanned
    start, step, n = build(load_config(overrides=overrides), reference_sampled.grid)
    assert n == count and -start * core.C == pytest.approx(half, rel=1e-9)
    assert start + (n - 1) * step == pytest.approx(-start, rel=1e-12)


def _sorted_axis(half, step, negate):
    # the array formula the scan builders replace: the positions step * k for
    # every |k| <= half / step to a relative 1e-9, as delays x/c or sorted -x/c
    n = int(half / step * (1.0 + 1e-9))
    x = step * np.arange(-n, n + 1)
    taus = np.sort(-x / core.C) if negate else x / core.C
    return taus[0], taus[1] - taus[0], len(taus)


def test_scan_axes_are_the_sorted_arrays_bit_for_bit(reference_sampled):
    # the defaults, then seeded half-spans and steps; every axis matches the
    # array in both orientations, as the set of delays is symmetric
    rng = np.random.default_rng(32)
    cases = [{}]
    for _ in range(300):
        x1_step, fringe_step = rng.uniform(0.01, 0.1), rng.uniform(0.1, 0.7)
        cases.append({("scan", "x1_step_mm"): repr(x1_step),
                      ("scan", "x1_halfspan_mm"): repr(x1_step * rng.uniform(1, 12)),
                      ("scan", "fringe_step_um"): repr(fringe_step),
                      ("scan", "fringe_halfspan_mm"): repr(rng.uniform(1e-3, 0.3))})
    for overrides in cases:
        cfg = load_config(overrides=overrides)
        x1_half, x1_step, fringe_half = (cfg.getfloat("scan", key) * 1e-3 for key in (
            "x1_halfspan_mm", "x1_step_mm", "fringe_halfspan_mm"))
        fringe_step = cfg.getfloat("scan", "fringe_step_um") * 1e-6
        built = [build_fringe_axis(cfg, reference_sampled.grid),
                 *build_scan2d_axes(cfg, reference_sampled.grid)]
        halves = [(fringe_half, fringe_step), (x1_half, x1_step),
                  (fringe_half + x1_half, fringe_step)]
        for axis, (half, step) in zip(built, halves):
            for negate in (False, True):
                assert axis == _sorted_axis(half, step, negate), (overrides, negate)


# the seeded reports at the default seed: CI pins only noiseless report
# lines, so a change to the fits' arithmetic that moves a printed digit of
# a noisy fit fails here
SEEDED_REPORTS = [
    (["fringe"], "fit_report.txt", """\
visibility: 0.999478 +- 0.000346
period_nm: 1570.5315 +- 0.0023
sigma_x_mm: 0.044374 +- 0.000015
pi_sigma_x_mm: 0.139405
center_um: 0.0251
phase_rad: 0.100350
residual_rms: 250.752
"""),
    (["hom-dip"], "fit_report.txt", """\
visibility_percent: 4.2702 +- 0.0808
fwhm_mm: 0.9872 +- 0.0229
center_um: -6.4937
jitter_fwhm_ps: 3.3093
residual_rms: 245.917
"""),
    ([*SMALL_SCAN2D, "scan2d"], "envelope_report.txt", """\
peak_visibility: 0.996994
envelope_center_mm: 0.000010
envelope_fwhm_mm: 1.079177 +- 0.001423
ridge_slope: -0.9976
entangled_signature: True
slices_failed: 0
"""),
]


@pytest.mark.parametrize("argv,report,text", SEEDED_REPORTS, ids=["fringe", "hom-dip", "scan2d"])
def test_seeded_report_text_is_pinned(tmp_path, argv, report, text):
    assert cli.main(["--out", str(tmp_path), *argv]) == cli.EXIT_OK
    assert (tmp_path / report).read_text().split("\n", 1)[1] == text


class TestFringeCommand:
    def test_noiseless_reference(self, tmp_path):
        out = tmp_path / "o"
        assert cli.main(["--out", str(out), "--noiseless", "fringe"]) == cli.EXIT_OK
        report = read_report(out / "fit_report.txt")
        vis = float(report["visibility"].split("+-")[0])
        assert abs(vis - 1.0) < 1e-3
        pi_sigma = float(report["pi_sigma_x_mm"]) * 1e-3
        assert abs(pi_sigma - 0.137e-3) / 0.137e-3 < 0.05
        # config echo: every output embeds the resolved config hash
        cfg = load_config()
        head = (out / "fit_report.txt").read_text().splitlines()[0]
        assert cfg.sha256() in head
        assert cfg.sha256() in (out / "fringe.csv").read_text()

    def test_scans_the_built_amplitude(self, tmp_path, monkeypatch):
        scans, scan_1d = [], ifm.scan_1d
        monkeypatch.setattr(ifm, "scan_1d", lambda phi_a, *args: (
            scans.append(phi_a), scan_1d(phi_a, *args))[1])
        assert cli.main(["--out", str(tmp_path), "--noiseless", "fringe"]) == cli.EXIT_OK
        _, sampled = build_sampled(load_config())
        assert sampled.grid == scans[0].grid
        assert np.array_equal(sampled.values, scans[0].values)

    def test_noiseless_report_prints_no_negative_zero(self, tmp_path):
        # center and phase are zero up to rounding noise on the noiseless scan
        out = tmp_path / "o"
        assert cli.main(["--out", str(out), "--noiseless", "fringe"]) == cli.EXIT_OK
        report = read_report(out / "fit_report.txt")
        assert report["center_um"] == "0.0000"
        assert report["phase_rad"] == "0.000000"

    @pytest.mark.parametrize("argv,flagged", [
        (["--set", "grid.n=3"], True),   # the coarse grid fits V = 1.0027 +- 0.0001
        ([], False),
    ])
    def test_visibility_above_one_is_flagged(self, tmp_path, argv, flagged):
        out = tmp_path / "o"
        assert cli.main(["--out", str(out), "--noiseless", *argv, "fringe"]) == cli.EXIT_OK
        report = read_report(out / "fit_report.txt")
        vis, err = map(float, report["visibility"].split("+-"))
        assert (vis - 1.0 > err) == flagged
        assert report.get("warning") == (
            "visibility exceeds 1 by more than its stderr" if flagged else None)

    def test_seeded_runs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(["--out", str(out), "--seed", "7", "fringe"]) == cli.EXIT_OK
        assert (a / "fringe.csv").read_bytes() == (b / "fringe.csv").read_bytes()
        assert (a / "fit_report.txt").read_bytes() == (b / "fit_report.txt").read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["--out", str(a), "--seed", "7", "fringe"]) == cli.EXIT_OK
        assert cli.main(["--out", str(b), "--seed", "8", "fringe"]) == cli.EXIT_OK
        assert (a / "fringe.csv").read_bytes() != (b / "fringe.csv").read_bytes()

    def test_resolved_config_reproduces_run(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["--out", str(a), "--seed", "5", "fringe"]) == cli.EXIT_OK
        assert cli.main(["--out", str(b), "--config",
                         str(a / "resolved_config.cfg"), "fringe"]) == cli.EXIT_OK
        assert (a / "fringe.csv").read_bytes() == (b / "fringe.csv").read_bytes()


class TestHomDipCommand:
    def test_reference_jitter_budget(self, tmp_path):
        out = tmp_path / "o"
        assert cli.main(["--out", str(out), "--noiseless", "hom-dip"]) == cli.EXIT_OK
        report = read_report(out / "fit_report.txt")
        vis = float(report["visibility_percent"].split("+-")[0])
        fwhm = float(report["fwhm_mm"].split("+-")[0])
        assert abs(vis - 4.48) <= 1.0
        assert abs(fwhm - 0.95) / 0.95 <= 0.15

    def test_noisy_fit_sees_net_counts(self, tmp_path):
        # accidentals fill the dip: fitting raw counts put V ~25 stderr low
        reports = {}
        for flags in (["--noiseless"], ["--seed", "7"]):
            out = tmp_path / flags[-1].strip("-")
            assert cli.main(["--out", str(out), *flags, "hom-dip"]) == cli.EXIT_OK
            reports[flags[0]] = read_report(out / "fit_report.txt")
        ideal = float(reports["--noiseless"]["visibility_percent"].split("+-")[0])
        vis, err = map(float, reports["--seed"]["visibility_percent"].split("+-"))
        assert abs(vis - ideal) < 3 * err

    @pytest.mark.parametrize("overrides", [{}, {("jitter", "include_pump"): "true"},
                                           {("jitter", "gvd_terms"): "0"}],
                             ids=["default", "include_pump", "no-jitter"])
    def test_noiseless_fit_recovers_the_closed_form(self, tmp_path, monkeypatch, overrides):
        # the jittered dip is v_cap (s/s') exp(-dt^2/2s'^2), s'^2 = s^2 + jitter rms^2
        fits = []
        fit_dip = fitting.fit_dip
        monkeypatch.setattr(fitting, "fit_dip", lambda x, y: fits.append(fit_dip(x, y)) or fits[-1])
        sets = [arg for (section, key), value in overrides.items()
                for arg in ("--set", f"{section}.{key}={value}")]
        code = cli.main(["--out", str(tmp_path / "o"), "--noiseless", *sets, "hom-dip"])
        assert code == cli.EXIT_OK
        cfg = load_config(overrides=overrides)
        _, s = build_dip_profile(cfg)
        sp = np.hypot(s, build_jitter(cfg) * core.FWHM_TO_SIGMA)
        (fit,) = fits
        assert fit.visibility == pytest.approx(cfg.getfloat("jitter", "v_cap") * s / sp, rel=1e-9)
        assert fit.fwhm == pytest.approx(2 * np.sqrt(2 * np.log(2)) * core.C * sp, rel=1e-9)
        # the exact fit's residual is rounding residue, reported as 0
        assert read_report(tmp_path / "o" / "fit_report.txt")["residual_rms"] == "0"

    @pytest.mark.parametrize("overrides", [{("filters", "shape"): "gaussian"},
                                           {("filters", "idler_center_nm"): "1575"}],
                             ids=["gaussian", "idler-1575"])
    def test_dip_width_follows_the_idler_filter(self, tmp_path, overrides):
        # s from the idler filter: 1/sigma of a gaussian passband, and the
        # sinc^2 area sqrt(2 pi)/bw of a rectangular one, here off the idler
        cfg = load_config(overrides=overrides)
        idler = build_filters(cfg, build_source_params(cfg))[1]
        s = (1.0 / (idler.bandwidth * core.FWHM_TO_SIGMA) if idler.shape == "gaussian"
             else np.sqrt(2.0 * np.pi) / idler.bandwidth)
        sp = np.hypot(s, build_jitter(cfg) * core.FWHM_TO_SIGMA)
        reports = []
        for sets in ([], [a for (sec, key), v in overrides.items()
                          for a in ("--set", f"{sec}.{key}={v}")]):
            out = tmp_path / str(len(sets))
            assert cli.main(["--out", str(out), "--noiseless", *sets, "hom-dip"]) == cli.EXIT_OK
            reports.append(read_report(out / "fit_report.txt"))
        default, report = reports
        vis = 100 * cfg.getfloat("jitter", "v_cap") * s / sp
        assert report["visibility_percent"] == f"{vis:.4f} +- 0.0000"
        assert report["fwhm_mm"] == f"{2 * np.sqrt(2 * np.log(2)) * core.C * sp * 1e3:.4f} +- 0.0000"
        assert all(report[key] != default[key] for key in ("visibility_percent", "fwhm_mm"))

    def test_zero_jitter_cap(self, tmp_path):
        out = tmp_path / "o"
        code = cli.main(["--out", str(out), "--noiseless",
                         "--set", "jitter.gvd_fwhm_ps=0", "hom-dip"])
        assert code == cli.EXIT_OK
        report = read_report(out / "fit_report.txt")
        vis = float(report["visibility_percent"].split("+-")[0])
        assert abs(vis - 33.0) <= 0.5

    def test_cap_override_restores_ideal(self, tmp_path):
        out = tmp_path / "o"
        code = cli.main(["--out", str(out), "--noiseless",
                         "--set", "jitter.gvd_fwhm_ps=0",
                         "--set", "jitter.v_cap=1", "hom-dip"])
        assert code == cli.EXIT_OK
        report = read_report(out / "fit_report.txt")
        vis = float(report["visibility_percent"].split("+-")[0])
        assert vis == pytest.approx(100.0, abs=0.01)


@pytest.mark.parametrize("command,keys", [
    ("fringe", ["visibility", "period_nm", "sigma_x_mm"]),
    ("hom-dip", ["visibility_percent", "fwhm_mm"]),
], ids=["fringe", "hom-dip"])
def test_every_stderr_matches_the_seeded_scatter(tmp_path, command, keys):
    # the printed +- of seeds 1-30 against the scatter of their values: it
    # carries the reduced chi-square, so dropping that factor puts the ratio
    # far outside [0.6, 1.6].  Each seeded mean is within 3 standard errors
    # of the noiseless value: the count noise biases no fitted parameter
    assert cli.main(["--out", str(tmp_path / "ideal"), "--noiseless", command]) == cli.EXIT_OK
    ideal = read_report(tmp_path / "ideal" / "fit_report.txt")
    fits = {key: [] for key in keys}
    for seed in range(1, 31):
        out = tmp_path / "seeded"
        assert cli.main(["--out", str(out), "--seed", str(seed), command]) == cli.EXIT_OK
        report = read_report(out / "fit_report.txt")
        for key in keys:
            fits[key].append([float(v) for v in report[key].split("+-")])
    for key in keys:
        value, err = np.array(fits[key]).T
        scatter = np.std(value, ddof=1)
        assert 0.6 <= scatter / np.median(err) <= 1.6, key
        expected = float(ideal[key].split("+-")[0])
        assert abs(np.mean(value) - expected) <= 3.0 * scatter / np.sqrt(len(value)), key


class TestBudgetCommand:
    def test_reference_numbers(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert cli.main(["--out", str(out), "budget"]) == cli.EXIT_OK
        report = read_report(out / "budget_report.txt")
        assert float(report["accidentals_hz"]) == 2161.25
        assert float(report["pair_probability_per_pulse"]) == pytest.approx(0.373, abs=5e-4)
        printed = capsys.readouterr().out
        assert "accidentals_hz: 2161.25" in printed

    def test_configured_pair_probability_is_reported(self, tmp_path):
        # the default "auto" is 1/CAR = 0.3731; a configured value replaces it
        out = tmp_path / "o"
        assert cli.main(["--out", str(out), "--set", "budget.pair_probability_per_pulse=0.5",
                         "budget"]) == cli.EXIT_OK
        assert read_report(out / "budget_report.txt")["pair_probability_per_pulse"] == "0.5"

    def test_zero_singles(self, tmp_path):
        out = tmp_path / "o"
        code = cli.main(["--out", str(out),
                         "--set", "budget.singles_rate_1_khz=0", "budget"])
        assert code == cli.EXIT_OK
        report = read_report(out / "budget_report.txt")
        assert float(report["accidentals_hz"]) == 0.0


class TestReconstructCommand:
    def test_round_trip_report(self, tmp_path):
        out = tmp_path / "o"
        code = cli.main(["--out", str(out),
                         "--set", "reconstruct.band_n=64",
                         "--set", "reconstruct.rho=-0.9", "reconstruct"])
        assert code == cli.EXIT_OK
        report = read_report(out / "recon_report.txt")
        assert float(report["roundtrip_l2_error"]) < 0.05
        assert float(report["correlation"]) == pytest.approx(-0.9, abs=0.05)
        assert (out / "jsi.csv").exists()

    def test_default_report_is_pinned(self, tmp_path):
        # the noiseless default run is deterministic: a change to its
        # numbers is a change to the reconstruction, not noise
        out = tmp_path / "o"
        assert cli.main(["--out", str(out), "reconstruct"]) == cli.EXIT_OK
        lines = (out / "recon_report.txt").read_text().splitlines()
        for line in ["lattice_axes: [(0.0, 2.2331042659658576e-15, 1432),"
                     " (-3.1955722045971422e-12, 2.2331042659658576e-15, 2863)]",
                     "negativity_fraction: 1.27e-11",
                     "correlation: -0.9000",
                     "roundtrip_l2_error: 1.95e-11"]:
            assert line in lines

    def test_built_lattice_is_the_default_report_lattice(self):
        _, _, lattice = build_reconstruct(load_config())
        assert lattice.axes == ((0.0, 2.2331042659658576e-15, 1432),
                                (-3.1955722045971422e-12, 2.2331042659658576e-15, 2863))

    @pytest.mark.parametrize("overrides", [{}, {"band_n": "32", "rho": "0"}],
                             ids=["defaults", "band32-rho0"])
    def test_inverts_the_built_problem(self, tmp_path, monkeypatch, overrides):
        _, seen = self.spy(monkeypatch, (rec, "sample_on_grid"), (rec, "reconstruct_jsi"))
        args = [a for k, v in overrides.items() for a in ("--set", f"reconstruct.{k}={v}")]
        assert cli.main(["--out", str(tmp_path), *args, "reconstruct"]) == cli.EXIT_OK
        model, grid, lattice = build_reconstruct(
            load_config(overrides={("reconstruct", k): v for k, v in overrides.items()}))
        (scanned, band), _ = seen["sample_on_grid"]
        assert vars(scanned) == vars(model) and band == grid
        assert self.scanned_axes(seen) == lattice.axes
        assert seen["reconstruct_jsi"][0][1] == grid

    def test_inverts_an_input_on_the_built_band(self, tmp_path, monkeypatch):
        cfg = load_config(overrides={("reconstruct", "band_n"): "16", ("reconstruct", "rho"): "0"})
        model, grid, _ = build_reconstruct(cfg)
        sampled = core.sample_on_grid(model, grid)
        step = 0.9 * rec.nyquist_step(grid)
        ifm.write_interferogram_csv(
            ifm.scan_2d(sampled, sampled, *rec.DelayLattice.half(step, 40).axes),
            tmp_path / "scan.csv")
        _, seen = self.spy(monkeypatch, (rec, "reconstruct_jsi"))
        assert cli.main(["--out", str(tmp_path / "o"), "--set", "reconstruct.band_n=16",
                         "--set", "reconstruct.rho=0", "reconstruct",
                         "--input", str(tmp_path / "scan.csv")]) == cli.EXIT_OK
        assert seen["reconstruct_jsi"][0][1] == grid

    @pytest.mark.parametrize("window", ["none", "hann"])
    def test_jsi_csv_is_the_round_trip_estimate(self, tmp_path, window):
        # the noiseless run writes roundtrip_error's estimate of the built problem
        sets = {("reconstruct", "band_n"): "32", ("reconstruct", "window"): window}
        assert cli.main(["--out", str(tmp_path), *(a for (sec, key), v in sets.items()
                                                   for a in ("--set", f"{sec}.{key}={v}")),
                         "reconstruct"]) == cli.EXIT_OK
        cfg = load_config(overrides=sets)
        est, _ = rec.roundtrip_error(*build_reconstruct(cfg), window)
        rows = [line for line in (tmp_path / "jsi.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert rows == [repr(v) for v in est.values.reshape(-1).tolist()]

    @pytest.mark.parametrize("window", ["none", "hann"])
    def test_no_negative_mass_prints_zero(self, tmp_path, window):
        # a 2 x 3 lattice leaves no negative value to clip: the empty sum is
        # -0.0, which the report prints as 0
        out = tmp_path / "o"
        assert cli.main(["--out", str(out), "--noiseless", "--set",
                         "reconstruct.span_coherence_times=0.001", "--set",
                         f"reconstruct.window={window}", "reconstruct"]) == cli.EXIT_OK
        assert read_report(out / "recon_report.txt")["negativity_fraction"] == "0"

    @staticmethod
    def spy(monkeypatch, *targets):
        """Wrap each (module, name): count its calls, keep its last args and result."""
        calls, seen = Counter(), {}

        def wrap(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                seen[name] = (args, fn(*args, **kwargs))
                return seen[name][1]
            monkeypatch.setattr(module, name, wrapper)

        for module, name in targets:
            wrap(module, name)
        return calls, seen

    @staticmethod
    def scanned_axes(seen):
        """The (start, step, count) axes of the LatticeScan a spied
        reconstruct_jsi last inverted."""
        scan = seen["reconstruct_jsi"][0][0]
        assert isinstance(scan, ifm.LatticeScan)
        return tuple((ax.start, ax.step, ax.count) for ax in scan.axes)

    def test_scans_and_inverts_once(self, tmp_path, monkeypatch):
        # the scan is lazy: one LatticeScan, which reconstruct_jsi evaluates
        calls, seen = self.spy(monkeypatch, (rec, "sample_on_grid"), (ifm, "scan_2d"),
                               (rec, "reconstruct_jsi"), (rec, "l2_error"))

        class CountedScan(ifm.LatticeScan):  # a LatticeScan still, for reconstruct_jsi
            def __init__(self, *args):
                calls["LatticeScan"] += 1
                super().__init__(*args)
        monkeypatch.setattr(rec, "LatticeScan", CountedScan)
        out = tmp_path / "o"
        assert cli.main(["--out", str(out), "reconstruct"]) == cli.EXIT_OK
        assert calls == {"sample_on_grid": 1, "LatticeScan": 1, "reconstruct_jsi": 1,
                         "l2_error": 1}
        (model, grid), sampled = seen["sample_on_grid"]
        err = seen["l2_error"][1]
        s_axis, l_axis = self.scanned_axes(seen)
        _, expected = rec.roundtrip_error(model, grid, rec.DelayLattice(*s_axis, *l_axis))
        assert err == pytest.approx(expected, rel=1e-9)
        assert read_report(out / "recon_report.txt")["roundtrip_l2_error"] == f"{err:.3g}"
        # the scan covers the a >= 0 half: first axis from 0, second symmetric
        cfg = load_config()
        coh = np.sqrt(2.0) / (model.sigma1 * np.sqrt(1.0 - abs(model.rho)))
        step = cfg.getfloat("reconstruct", "step_fraction") * rec.nyquist_step(grid)
        half_count = int(np.ceil(cfg.getfloat("reconstruct", "span_coherence_times") * coh / step))
        assert s_axis == (0.0, step, half_count + 1)
        assert l_axis == (-step * half_count, step, 2 * half_count + 1)
        # the premise: G(-a, -b) = G(a, b) on the symmetric lattice, to the
        # rounding of the phases w * a (~ 4e-13 rad at a ~ 3 ps)
        g = ifm.scan_2d(sampled, sampled, l_axis, l_axis).values
        assert np.max(np.abs(g - g[::-1, ::-1])) <= 1e-12

    def test_external_csv_input(self, tmp_path, reference_sampled):
        # reconstruct from a CSV written by the engine
        sigma = 7e12
        model = core.BiphotonAmplitude.gaussian(1.23e15, 1.20e15, sigma, sigma, rho=0.0)
        grid = core.grid_for_gaussian(model, n=48)
        step = 0.9 * rec.nyquist_step(grid)
        half = int(np.ceil(5.0 * np.sqrt(2.0) / sigma / step))
        lat = rec.DelayLattice.symmetric(step, half, step, half)
        sampled = core.sample_on_grid(model, grid)
        ig = ifm.scan_2d(sampled, sampled,
                         (lat.start1, lat.step1, lat.count1),
                         (lat.start2, lat.step2, lat.count2))
        path = tmp_path / "scan.csv"
        ifm.write_interferogram_csv(ig, path)
        out = tmp_path / "o"
        code = cli.main(["--out", str(out),
                         "--set", "reconstruct.band_n=48",
                         "--set", "reconstruct.rho=0", "reconstruct",
                         "--input", str(path)])
        assert code == cli.EXIT_OK
        report = read_report(out / "recon_report.txt")
        assert abs(float(report["correlation"])) < 0.05

    @staticmethod
    def counts_twins(tmp_path):
        """A G-only scan CSV of reconstruct's rho = 0 source at band_n = 16 and its seeded
        twin (Poisson counts of 500 G + 20 accidentals), each inverted by
        `reconstruct --input`: {name: (scan, run directory)}."""
        model, grid, lattice = build_reconstruct(
            load_config(overrides={("reconstruct", "band_n"): "16", ("reconstruct", "rho"): "0"}))
        sampled = core.sample_on_grid(model, grid)
        ig = ifm.scan_2d(sampled, sampled, *rec.DelayLattice.half(lattice.step1, 40).axes)
        counts = np.random.default_rng(5).poisson(500.0 * ig.values + 20.0).astype(float)
        twins = {"g": ig, "counts": ifm.Interferogram(
            ig.axes, None, counts=counts,
            metadata={"baseline_counts": 500.0, "accidental_counts": 20.0})}
        for name, scan in twins.items():
            ifm.write_interferogram_csv(scan, tmp_path / f"{name}.csv")
            assert cli.main(["--out", str(tmp_path / name), "--set", "reconstruct.band_n=16",
                             "--set", "reconstruct.rho=0", "reconstruct",
                             "--input", str(tmp_path / f"{name}.csv")]) == cli.EXIT_OK
        return grid, {name: (scan, tmp_path / name) for name, scan in twins.items()}

    def test_counts_input_is_inverted_from_its_counts(self, tmp_path):
        # the counts file holds no G, so its estimate is not the G twin's,
        # and its report has the same lines, without a warning
        _, twins = self.counts_twins(tmp_path)
        (g, g_out), (_, counts_out) = twins.values()
        rows = [line for line in (tmp_path / "counts.csv").read_text().splitlines()
                if not line.startswith("#")]
        assert len(rows) == g.values.size and not any("," in row for row in rows)
        reports = [(out / "recon_report.txt").read_text().splitlines()
                   for out in (g_out, counts_out)]
        assert [line.split(":")[0] for line in reports[1]] == [
            line.split(":")[0] for line in reports[0]]
        assert not any(line.startswith("warning") for line in reports[1])
        jsi = [np.loadtxt(out / "jsi.csv", comments="#") for out in (g_out, counts_out)]
        assert not np.array_equal(*jsi)

    def test_fractional_counts_input_is_a_config_error(self, tmp_path, capsys):
        # a detector records whole counts: a file holding 0.5 more is refused
        # and writes no report, where its integer twin inverts
        _, twins = self.counts_twins(tmp_path)
        lines = (tmp_path / "counts.csv").read_text().splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        lines[first] = f"{int(lines[first]) + 0.5}\n"
        (tmp_path / "half.csv").write_text("".join(lines))
        out = tmp_path / "half"
        assert cli.main(["--out", str(out), "--set", "reconstruct.band_n=16", "--set",
                         "reconstruct.rho=0", "reconstruct",
                         "--input", str(tmp_path / "half.csv")]) == cli.EXIT_CONFIG
        assert "counts must be finite, nonnegative integers" in capsys.readouterr().err
        assert not (out / "recon_report.txt").exists()
        assert (twins["counts"][1] / "recon_report.txt").exists()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is plain double here")
    def test_counts_input_estimate_is_the_inverse_of_g_hat(self, tmp_path):
        # G^ = (counts - accidental_counts) / baseline_counts, by hand, through
        # a long-double inverse on the same lattice, clipped and normalised
        grid, twins = self.counts_twins(tmp_path)
        scan, out = twins["counts"]
        g_hat = (scan.counts - 20.0) / 500.0
        axes = [(ax.start, ax.step, ax.count) for ax in scan.axes]
        wa, wb = (rec._weights(ax, "none", i == 0) for i, ax in enumerate(scan.axes))
        expected = reference.inverse_g_longdouble(g_hat, grid, axes, wa, wb).astype(float)
        expected = np.clip(expected, 0.0, None)
        expected /= np.sum(expected) * grid.measure
        jsi = np.loadtxt(out / "jsi.csv", comments="#").reshape(expected.shape)
        assert np.max(np.abs(jsi - expected)) <= 1e-15 * np.max(expected)

    def test_input_without_format_header_is_a_config_error(self, tmp_path, capsys):
        # the rows of a scan CSV from before the '# format=2' header: coordinates first
        path = tmp_path / "headerless.csv"
        path.write_text("# axis1 delta_tau_S,0.0,0.5,2\n"
                        "# axis2 delta_tau_L,1.0,0.25,2\n"
                        "0.0,1.0,0.0\n"
                        "0.0,1.25,0.5\n"
                        "0.5,1.0,1.5\n"
                        "0.5,1.25,2.0\n")
        code = cli.main(["--out", str(tmp_path / "o"), "reconstruct", "--input", str(path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "expected a '# format=2' header" in err[0]

    @pytest.mark.parametrize("window", ["none", "hann"])
    def test_half_lattice_jsi_equals_symmetric(self, tmp_path, monkeypatch, window):
        _, seen = self.spy(monkeypatch, (rec, "sample_on_grid"), (rec, "reconstruct_jsi"))
        out = tmp_path / "o"
        args = ["--set", "reconstruct.band_n=32", "--set", f"reconstruct.window={window}"]
        assert cli.main(["--out", str(out), *args, "reconstruct"]) == cli.EXIT_OK
        sampled, (_, l_axis) = seen["sample_on_grid"][1], self.scanned_axes(seen)
        grid = sampled.grid
        jsi = np.loadtxt(out / "jsi.csv", comments="#")
        full = rec.reconstruct_jsi(ifm.scan_2d(sampled, sampled, l_axis, l_axis), grid,
                                   window=window)
        ref = full.values.reshape(-1)
        assert np.linalg.norm(jsi - ref) / np.linalg.norm(ref) <= 1e-12

    @staticmethod
    def traced_peak(out, *args):
        """tracemalloc peak of one noiseless reconstruct run at band_n=32."""
        tracemalloc.start()
        try:
            code = cli.main(["--out", str(out), "--set", "reconstruct.band_n=32", *args,
                             "reconstruct"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == cli.EXIT_OK
        return peak

    def test_peak_memory_is_a_fraction_of_the_symmetric_lattice(self, tmp_path):
        # the scan is never formed: no lattice-sized array exists
        out = tmp_path / "o"
        peak = self.traced_peak(out)
        axes = ast.literal_eval(read_report(out / "recon_report.txt")["lattice_axes"])
        count = axes[-1][2]  # the symmetric axis
        assert peak <= 0.2 * count * count * 8

    def test_peak_memory_grows_with_the_lattice_side_not_its_area(self, tmp_path):
        # doubling the span quadruples the lattice; the streamed run's
        # buffers do not grow with either
        peaks = [self.traced_peak(tmp_path / str(span),
                                  "--set", f"reconstruct.span_coherence_times={span}")
                 for span in (5, 10)]
        assert peaks[1] <= 2.5 * peaks[0]

    def test_round_trip_memory_does_not_grow_with_the_lattice(self, tmp_path, monkeypatch):
        # the default band; span 20 has a 4x longer lattice side than span 5.
        # No (delays x band) table exists: the peak stays below one of them
        reconstruct_jsi = rec.reconstruct_jsi
        _, seen = self.spy(monkeypatch, (rec, "sample_on_grid"), (rec, "reconstruct_jsi"))
        peaks = []
        for span in (5, 20):
            assert cli.main(["--out", str(tmp_path / str(span)), "--set",
                             f"reconstruct.span_coherence_times={span}",
                             "reconstruct"]) == cli.EXIT_OK
            sampled, axes = seen["sample_on_grid"][1], self.scanned_axes(seen)
            tracemalloc.start()
            try:
                reconstruct_jsi(ifm.LatticeScan(sampled, sampled, *axes), sampled.grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            n_l = axes[1][2]
            assert peaks[-1] <= sampled.grid.n2 * n_l * 16, (span, peaks[-1])
        assert peaks[1] <= 1.25 * peaks[0], peaks


class TestScan2dCommand:
    REDUCED = ["--set", "scan.x1_halfspan_mm=0.6", "--set", "scan.x1_step_mm=0.2",
               "--set", "scan.fringe_halfspan_mm=0.05", "scan2d"]

    def test_reduced_scan_entangled_signature(self, tmp_path):
        out = tmp_path / "o"
        code = cli.main(["--out", str(out), "--noiseless", *self.REDUCED])
        assert code == cli.EXIT_OK
        report = read_report(out / "envelope_report.txt")
        assert report["entangled_signature"] == "True"
        assert (out / "scan2d.csv").exists()

    def test_undersampled_fringe_step_is_aliasing(self, tmp_path):
        # the step `fringe` refuses is refused here too, before any scan is written
        out = tmp_path / "o"
        code = cli.main(["--out", str(out), "--noiseless", "--set", "grid.n=64",
                         "--set", "scan.fringe_step_um=2", *self.REDUCED])
        assert code == cli.EXIT_ALIASING
        report = read_report(out / "envelope_report.txt")
        assert float(report["required_step_s"]) * core.C == pytest.approx(0.76e-6, rel=0.01)
        assert not (out / "scan2d.csv").exists()

    def test_envelope_of_three_slices_has_no_stderr(self, tmp_path):
        # 3 slices fix the 3-parameter envelope exactly: its spread is unknown
        out = tmp_path / "o"
        assert cli.main(["--out", str(out), "--set", "grid.n=64",
                         "--set", "scan.x1_halfspan_mm=0.1", "scan2d"]) == cli.EXIT_OK
        assert read_report(out / "envelope_report.txt")["envelope_fwhm_mm"].endswith("+- inf")

    @pytest.mark.parametrize("argv,flagged", [
        (["--set", "filters.bandwidth_nm=40"], True),  # peak 1.000456 +- 0.000125
        ([], False),
    ])
    def test_peak_visibility_above_one_is_flagged(self, tmp_path, argv, flagged):
        out = tmp_path / "o"
        assert cli.main(["--out", str(out), "--noiseless", *SMALL_SCAN2D, *argv,
                         "scan2d"]) == cli.EXIT_OK
        report = read_report(out / "envelope_report.txt")
        assert (float(report["peak_visibility"]) > 1.0) == flagged
        assert report.get("warning") == (
            "peak_visibility exceeds 1 by more than its stderr" if flagged else None)

    def test_noisy_scan_fits_the_counts(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["--out", str(a), "--noiseless", *self.REDUCED]) == cli.EXIT_OK
        assert cli.main(["--out", str(b), "--seed", "7", *self.REDUCED]) == cli.EXIT_OK
        noiseless = (a / "envelope_report.txt").read_text().splitlines()[1:]
        noisy = (b / "envelope_report.txt").read_text().splitlines()[1:]
        assert noisy != noiseless
        assert read_report(b / "envelope_report.txt")["entangled_signature"] == "True"


@pytest.mark.parametrize("argv,name", [
    (["--set", "scan.fringe_halfspan_mm=0.05", "fringe"], "fringe.csv"),
    (["hom-dip"], "dip.csv"),
    (TestScan2dCommand.REDUCED, "scan2d.csv"),
], ids=["fringe", "hom-dip", "scan2d"])
def test_cli_csv_reads_back(tmp_path, monkeypatch, argv, name):
    # the axis header must hold plain numbers that read_interferogram_csv
    # parses, and a seeded file holds one column, the counts: what the run
    # fitted is what a fit of the file sees, bit for bit
    written = []
    write = ifm.write_interferogram_csv
    monkeypatch.setattr(ifm, "write_interferogram_csv",
                        lambda ig, path: (written.append(ig), write(ig, path)))
    assert cli.main(["--out", str(tmp_path), *argv]) == cli.EXIT_OK
    back = ifm.read_interferogram_csv(tmp_path / name)
    (ig,) = written
    assert back.axes == ig.axes
    assert back.values is None and ig.values is None
    assert np.array_equal(back.counts, ig.counts)
    assert back.metadata == {key: str(value) for key, value in ig.metadata.items()}
    assert np.array_equal(detector.fit_data(back), detector.fit_data(ig))
    rows = [line for line in (tmp_path / name).read_text().splitlines()
            if not line.startswith("#")]
    assert len(rows) == ig.counts.size and not any("," in row for row in rows)


def test_every_run_works_without_scipy(tmp_path):
    # scipy is a test dependency only: with it unimportable, every run
    # above still ends with its own exit code
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    runs = [["--out", str(tmp_path / name), "--seed", "3", *argv]
            for name, (argv, _, _) in zip(RUN_IDS, RUNS)]
    code = ("import sys; sys.modules['scipy'] = None; from biphoton import cli; "
            f"print([cli.main(argv) for argv in {runs!r}])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == str([c for _, c, _ in RUNS])


def test_cli_import_loads_no_scipy():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, biphoton.cli; biphoton.cli.load_config(); "
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
