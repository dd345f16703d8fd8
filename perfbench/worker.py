"""One workload run, in a process of its own.

`run.py` starts this script in a fresh interpreter, so the peak resident
memory it reports is that of the process running the workload and of
nothing else. It drives `biphoton.cli.main` in process as a closed loop
(one client, one operation at a time), checks each operation's reports,
and writes its findings as JSON.

    python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds `workload`, `seed`, `seconds`, `trace`, `out` and `input`; with
`"make_input": true` the script only writes the `invert-csv` input file.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from dataclasses import asdict
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from workloads import WORKLOADS, Workload, derive_seed, write_invert_input  # noqa: E402


def run_op(cli, workload: Workload, seed: int, out: Path, input_path: Path | None) -> dict:
    """One operation: its `cli.main` calls, timed together, then its checks.

    The operation fails on a non-zero exit code, a raised exception or a
    failed output check.
    """
    shutil.rmtree(out, ignore_errors=True)
    calls = workload.calls(seed, out, input_path)
    codes, errors = [], []
    captured = io.StringIO()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            for argv in calls:
                codes.append(cli.main(argv))
                if codes[-1] != 0:
                    break
    except Exception as exc:  # an operation that raises is a failed operation
        errors.append(f"raised {type(exc).__name__}: {exc}")
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if not errors and any(codes):
        errors.append(f"exit codes {codes}: {captured.getvalue()[-500:]}")
    if not errors:
        try:
            errors = workload.check(out)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            errors = [f"report unreadable: {type(exc).__name__}: {exc}"]
    return {"seed": seed, "wall_s": wall, "cpu_s": cpu, "exit_codes": codes,
            "errors": errors}


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads()}


def run(spec: dict) -> dict:
    import biphoton
    from biphoton import cli
    if Path(biphoton.__file__).resolve().parent != SRC / "biphoton":
        raise SystemExit(f"biphoton imported from {biphoton.__file__}, not from {SRC}")
    workload = WORKLOADS[spec["workload"]]
    out = Path(spec["out"])
    input_path = Path(spec["input"]) if spec["input"] else None
    trace = bool(spec["trace"])
    tracer = None
    if trace:
        from tracer import Tracer, op_metrics
        tracer = Tracer()
    ops = []
    start = time.perf_counter()
    while True:
        i = len(ops)
        # a traced run alternates untraced and traced operations, so the
        # tracing overhead is measured within one run
        traced = trace and i % 2 == 1
        if traced:
            tracer.install(i)
        try:
            op = run_op(cli, workload, derive_seed(spec["seed"], i), out, input_path)
        finally:
            if traced:
                tracer.uninstall()
        op["traced"] = traced
        if traced:
            spans = [s for s in tracer.spans if s.op == i]
            op["layers"] = op_metrics(spans, tracer.counts[i], op["wall_s"], op["cpu_s"])
        ops.append(op)
        # stop before an operation that would end past the measuring window;
        # an operation longer than the window still runs once
        projected = (time.perf_counter() - start) * (len(ops) + 1) / len(ops)
        if projected > spec["seconds"] and len(ops) >= (2 if trace else 1):
            break
    result = {"ops": ops,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "env": environment()}
    if trace:
        result["spans"] = [asdict(s) for s in tracer.spans]
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    if spec.get("make_input"):
        write_invert_input(Path(spec["input"]), spec["seed"])
        return 0
    Path(argv[1]).write_text(json.dumps(run(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
