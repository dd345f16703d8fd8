"""Self-tests of the benchmark: tracing leaves artifacts unchanged, layer
times add up, corrupted reports fail their checks, and the comparison
labels metrics by its rule.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import compare  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, op_metrics  # noqa: E402
from worker import run_op  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LAYER_TIMES = ("config.load_s", "core.sample_s", "interferometer.scan_s",
               "interferometer.csv_write_s", "interferometer.csv_read_s",
               "detector.counts_s", "fitting.fit_s", "reconstruction.invert_s")


@pytest.fixture(scope="module")
def cli():
    from biphoton import cli
    return cli


def traced_op(cli, workload, seed, out):
    tracer = Tracer()
    tracer.install(0)
    try:
        op = run_op(cli, workload, seed, out, None)
    finally:
        tracer.uninstall()
    return op, op_metrics(tracer.spans, tracer.counts[0], op["wall_s"], op["cpu_s"])


def tree(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", ["interactive", "reconstruct"])
def test_tracing_leaves_artifacts_byte_identical(cli, tmp_path, name):
    workload = WORKLOADS[name]
    plain = run_op(cli, workload, 7, tmp_path / "plain", None)
    traced, _ = traced_op(cli, workload, 7, tmp_path / "traced")
    assert plain["errors"] == [] and traced["errors"] == []
    files = tree(tmp_path / "plain")
    assert len(files) >= 3
    assert files == tree(tmp_path / "traced")
    # the wrappers are gone once the tracer is uninstalled
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(cli.build_budget, "__wrapped__")


def test_layer_times_sum_to_op_wall_and_counts_are_exact(cli, tmp_path):
    op, m = traced_op(cli, WORKLOADS["reconstruct"], 1, tmp_path)
    assert op["errors"] == []
    assert all(m[k] >= 0 for k in LAYER_TIMES)
    assert m["cli.self_s"] >= 0
    assert sum(m[k] for k in LAYER_TIMES) + m["cli.self_s"] == pytest.approx(op["wall_s"],
                                                                              rel=1e-9)
    # cmd_reconstruct scans and inverts once itself and once in roundtrip_error
    assert m["interferometer.scans"] == 2
    assert m["reconstruction.inverts"] == 2
    assert m["detector.draws"] == 0 and m["fitting.fits"] == 0
    assert m["interferometer.kernel_gflop"] == pytest.approx(13.01, rel=1e-3)


def test_failing_call_fails_the_op(cli, tmp_path):
    bad = workloads.Workload("bad", lambda seed, out, _: [["--out", str(out), "--set",
                                                           "grid.n=x", "fringe"]],
                             workloads.check_interactive)
    op = run_op(cli, bad, 1, tmp_path, None)
    assert op["exit_codes"] == [2]
    assert op["errors"]


GOOD_REPORTS = {
    "scan2d": {"envelope_report.txt": "envelope_fwhm_mm: 1.074250 +- 0.000570\n"
                                      "ridge_slope: -0.9945\n"},
    "reconstruct": {"recon_report.txt": "correlation: -0.9000\n"
                                        "roundtrip_l2_error: 1.94815e-11\n"},
    "invert-csv": {"recon_report.txt": "correlation: -0.0000\n"},
    "interactive": {"fringe/fit_report.txt": "visibility: 0.999413 +- 0.000000\n"
                                             "period_nm: 1570.4600 +- 0.0000\n",
                    "hom-dip/fit_report.txt": "visibility_percent: 33.1000 +- 0.2000\n"},
}
CORRUPTIONS = [
    ("scan2d", "ridge_slope: -0.9945", "ridge_slope: -0.4000"),
    ("scan2d", "envelope_fwhm_mm: 1.074250", "envelope_fwhm_mm: 1.300000"),
    ("reconstruct", "roundtrip_l2_error: 1.94815e-11", "roundtrip_l2_error: 2e-06"),
    ("reconstruct", "correlation: -0.9000", "correlation: -0.8800"),
    ("invert-csv", "correlation: -0.0000", "correlation: 0.0300"),
    ("interactive", "period_nm: 1570.4600", "period_nm: 1573.0000"),
    ("interactive", "visibility: 0.999413", "visibility: 0.940000"),
    ("interactive", "visibility_percent: 33.1000", "visibility_percent: 35.0000"),
    ("interactive", "visibility_percent: 33.1000", "visibility_percent: 0.0000"),
    ("scan2d", "ridge_slope: -0.9945", "error: 12/23 slice fits failed"),
]


def write_reports(root: Path, files: dict[str, str]) -> None:
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text("# config_sha256=0\n" + text)


@pytest.mark.parametrize("name", sorted(GOOD_REPORTS))
def test_good_report_passes(tmp_path, name):
    write_reports(tmp_path, GOOD_REPORTS[name])
    assert WORKLOADS[name].check(tmp_path) == []


@pytest.mark.parametrize("name, old, new", CORRUPTIONS)
def test_corrupted_report_fails(tmp_path, name, old, new):
    files = {k: v.replace(old, new) for k, v in GOOD_REPORTS[name].items()}
    assert files != GOOD_REPORTS[name]
    write_reports(tmp_path, files)
    try:
        errors = WORKLOADS[name].check(tmp_path)
    except ValueError as exc:  # an `error:` line; run_op counts it as failed
        errors = [str(exc)]
    assert errors


def test_corrupted_real_report_fails_its_op_check(cli, tmp_path):
    workload = WORKLOADS["interactive"]
    assert run_op(cli, workload, 3, tmp_path, None)["errors"] == []
    report = tmp_path / "fringe" / "fit_report.txt"
    text = report.read_text()
    period = workloads.number(workloads.parse_report(report), "period_nm")
    report.write_text(text.replace(f"period_nm: {period:.4f}", f"period_nm: {period * 2:.4f}"))
    assert workload.check(tmp_path)


def test_compare_labels():
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    label = lambda change, bound=0.1: compare.classify(list(zip(parent, change)),
                                                       "lower", bound)["label"]
    assert label([p * 0.8 for p in parent]) == "improved"
    assert label([p * 1.3 for p in parent]) == "regressed"
    assert label([p * 1.05 for p in parent]) == "unchanged"
    assert label(parent) == "unchanged"
    assert label([p * 0.8 for p in parent[:5]]) == "unresolved"
    noisy = [5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0]
    assert compare.classify(list(zip(noisy, noisy)), "lower", 0.1)["label"] == "unresolved"
    # for a higher-is-better metric the same drop is a regression
    assert compare.classify(list(zip(parent, [p * 0.8 for p in parent])), "higher",
                            0.1)["label"] == "regressed"


def test_compare_pairs_runs_by_seed(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for side, scale in (("parent", 1.0), ("change", 0.5)):
        (tmp_path / side).mkdir()
        for seed in range(10):
            record = {"workload": "scan2d", "seed": seed, "trace": 0, "fail_ratio": 0.0,
                      "metrics": {m["name"]: {"value": scale * (20 + seed % 3), "unit": "s"}
                                  for m in spec["end_to_end"]}}
            (tmp_path / side / f"{seed}.json").write_text(json.dumps(record))
    rows = compare.compare_runs(compare.load_runs(tmp_path / "parent"),
                                compare.load_runs(tmp_path / "change"), spec)
    labels = {r["metric"]: r["label"] for r in rows}
    assert labels == {**{m["name"]: "improved" for m in spec["end_to_end"]},
                      "fail_ratio": "unchanged"}


def test_run_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "interactive",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
