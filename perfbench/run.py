"""biphoton benchmark: four CLI workloads, end-to-end and per-layer metrics.

Run one workload (from the root of a checkout that holds `src/biphoton`):

    python3 perfbench/run.py --workload scan2d --seed 1 --seconds 10 --trace 0

`--workload all` runs the four in turn. `BENCHMARK.json` lists the two
that a regression gate runs, `reconstruct` and `interactive`; between
them they reach every layer (see `workloads.py` for why the other two are
left out). An untraced run (`--trace 0`)
reports the end-to-end metrics:

- `wall_s`: median wall seconds per operation, from the call into
  `cli.main` to its return with every artifact on disk, over the run's
  operations (their count is `attempted`);
- `setup_s`: median over fresh interpreters, started before and after the
  workload, of `import biphoton.cli` plus `load_config()` at defaults, the
  cost every CLI invocation pays;
- `peak_rss_mb`: peak resident memory of the process running the workload;
- `fail_ratio`: failed over attempted operations, printed in the table and
  carried by `failed`/`attempted` in the JSON line.

A traced run (`--trace 1`) alternates untraced and traced operations and
reports the per-layer metrics of `BENCHMARK.json` (medians over the traced
operations), `<layer>.import_s` from `-X importtime` in the set-up
processes, and `trace.overhead_s`. Every run prints a table, then one JSON
line, and keeps its record (environment, operations, spans) under
`perfbench/out/runs/`.

Compare two sets of run records (say, parent and change) by the rule in
`compare.py`:

    python3 perfbench/run.py --compare PARENT_RUNS_DIR CHANGE_RUNS_DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
RUN_LIMIT_S = 170.0     # a run ends well within the 180 s it is allowed
SETUP_PROBES = 3        # fresh interpreters before the worker, and as many after

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

# Fresh-interpreter set-up cost: the import plus the default config load
# that every CLI invocation pays before its subcommand starts.
PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import biphoton.cli\n"
    "biphoton.cli.load_config()\n"
    "t1 = time.perf_counter()\n"
    "print(repr(t1 - t0), biphoton.cli.__file__)\n"
)


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _subprocess(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to run {cmd[:3]}")
    # subprocess.run kills the child on timeout and waits for it
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def setup_probes(trace: bool, deadline: float) -> tuple[list[float], dict[str, list[float]]]:
    """Set-up seconds per fresh interpreter and, traced, cumulative import
    seconds per biphoton module."""
    seconds, imports = [], {}
    flags = ["-X", "importtime"] if trace else []
    for _ in range(SETUP_PROBES):
        proc = _subprocess([sys.executable, *flags, "-c", PROBE, str(SRC)], deadline)
        value, path = proc.stdout.split()
        if Path(path).resolve().parent != SRC / "biphoton":
            raise BenchError(f"biphoton imported from {path}, not from {SRC}")
        seconds.append(float(value))
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3:
                name = parts[2].strip()
                if name.startswith("biphoton."):
                    layer = name.split(".", 1)[1]
                    imports.setdefault(f"{layer}.import_s", []).append(int(parts[1]) / 1e6)
    return seconds, imports


def git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_sha256() -> str:
    """Digest of every file under src/, for checkouts without git metadata."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run: set-up probes, the input file if any, then the worker."""
    if not (SRC / "biphoton" / "cli.py").is_file():
        raise BenchError(f"no biphoton sources under {SRC}")
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = WORKLOADS[name]
    work = OUT / "work" / name
    work.mkdir(parents=True, exist_ok=True)
    setup_s, imports = setup_probes(trace, deadline)

    input_path = None
    if workload.needs_input:
        input_path = work / f"input-seed{seed}.csv"
        spec_path = work / "input-spec.json"
        spec_path.write_text(json.dumps({"make_input": True, "seed": seed,
                                         "input": str(input_path)}))
        _subprocess([sys.executable, str(HERE / "worker.py"), str(spec_path)], deadline)

    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps({"workload": name, "seed": seed, "seconds": seconds,
                                     "trace": trace, "out": str(work / "op"),
                                     "input": str(input_path) if input_path else None}))
    result_path.unlink(missing_ok=True)
    _subprocess([sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                deadline)
    worker = json.loads(result_path.read_text())
    # probing again a minute later samples the shared machine's speed twice,
    # so one slow spell moves the median of the set-up samples less
    more_s, more_imports = setup_probes(trace, deadline)
    setup_s += more_s
    for key, values in more_imports.items():
        imports.setdefault(key, []).extend(values)
    if input_path is not None:
        input_path.unlink()

    ops = worker["ops"]
    failed = sum(1 for op in ops if op["errors"])
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": failed == 0, "attempted": len(ops), "failed": failed,
        "fail_ratio": failed / len(ops),
        "env": {"nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
                "src_sha256": source_sha256(), **worker["env"]},
        "traced_ops": sum(op["traced"] for op in ops),
        "setup_samples_s": setup_s,
        "ops": ops,
    }
    spec = benchmark_spec()
    if trace:
        traced = [op["layers"] for op in ops if op["traced"]]
        plain = [op["wall_s"] for op in ops if not op["traced"]]
        values = {key: statistics.median(layers[key] for layers in traced)
                  for key in traced[0]}
        values.update({key: statistics.median(v) for key, v in imports.items()})
        values["trace.overhead_s"] = (statistics.median(op["wall_s"] for op in ops
                                                        if op["traced"])
                                      - statistics.median(plain))
        declared = spec["per_layer"]
    else:
        values = {"wall_s": statistics.median(op["wall_s"] for op in ops),
                  "setup_s": statistics.median(setup_s),
                  "peak_rss_mb": worker["peak_rss_mb"]}
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in declared}

    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        (runs / f"{stem}-spans.json").write_text(json.dumps(worker["spans"]))
    (runs / f"{stem}.json").write_text(json.dumps(record, indent=1))
    return record


def print_table(record: dict) -> None:
    n, traced = record["attempted"], record["traced_ops"]
    print(f"workload {record['workload']}  seed {record['seed']}  ops {n}"
          f" ({traced} traced)  env {json.dumps(record['env'])}")
    for name, m in record["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'fail_ratio':34s} {record['fail_ratio']:14.6g} ratio"
          f"  ({record['failed']}/{n} operations failed)")
    for i, op in enumerate(record["ops"]):
        if op["errors"]:
            print(f"  op {i} (seed {op['seed']}) failed: {'; '.join(op['errors'])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    args = parser.parse_args(argv)
    try:
        if args.compare:
            from compare import compare_dirs
            return compare_dirs(*map(Path, args.compare), benchmark_spec())
        if args.workload is None:
            parser.error("--workload is required")
        seconds = args.seconds or benchmark_spec()["run_seconds"]
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        records = [run_workload(name, args.seed, seconds, bool(args.trace)) for name in names]
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print_table(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in records),
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
