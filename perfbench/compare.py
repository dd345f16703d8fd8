"""Compare two sets of untraced run records, metric by metric and workload
by workload.

Runs pair up by workload and seed, on every workload the records hold,
not only those BENCHMARK.json gates. For each end-to-end metric of
BENCHMARK.json, plus `fail_ratio` with a bound of 0, a row is labelled

- improved: the change wins at least 9 of every 10 pairs (ties count for
  neither side) and its median beats the parent's by more than the
  distance between the parent's quartiles;
- regressed: the change's median is worse than the parent's by more than
  the metric's bound, and the parent's quartile spread is within the bound
  or every change run is worse than every parent run;
- unresolved: fewer than 10 pairs, or the parent's spread is wider than the
  bound and neither of the above holds;
- unchanged: otherwise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from workloads import WORKLOADS

MIN_PAIRS = 10


def load_runs(directory: Path) -> dict[tuple[str, int], dict]:
    runs = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if isinstance(record, dict) and record.get("trace") == 0:
            runs[(record["workload"], record["seed"])] = record
    return runs


def value(record: dict, metric: str) -> float:
    if metric == "fail_ratio":
        return record["fail_ratio"]
    return record["metrics"][metric]["value"]


def classify(pairs: list[tuple[float, float]], better: str, bound: float) -> dict:
    """Label one metric on one workload from (parent, change) value pairs."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (p_med,) * 3
    iqr = q3 - q1
    gain = sign * (c_med - p_med)
    limit = bound * abs(p_med)
    all_worse = all(sign * (c - p) < 0 for c in change for p in parent)
    if len(pairs) < MIN_PAIRS:
        label = "unresolved"
    elif wins >= 0.9 * len(pairs) and gain > iqr:
        label = "improved"
    elif -gain > limit and (iqr <= limit or all_worse):
        label = "regressed"
    elif iqr > limit:
        label = "unresolved"
    else:
        label = "unchanged"
    return {"label": label, "pairs": len(pairs), "wins": wins, "parent_median": p_med,
            "change_median": c_med, "parent_iqr": iqr}


def compare_runs(parent: dict, change: dict, spec: dict) -> list[dict]:
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    metrics.append(("fail_ratio", "lower", 0.0))
    rows = []
    for workload in WORKLOADS:
        seeds = sorted(s for (w, s) in parent if w == workload and (w, s) in change)
        for name, better, bound in metrics:
            pairs = [(value(parent[(workload, s)], name), value(change[(workload, s)], name))
                     for s in seeds]
            if pairs:
                rows.append({"workload": workload, "metric": name,
                             **classify(pairs, better, bound)})
    return rows


def compare_dirs(parent_dir: Path, change_dir: Path, spec: dict) -> int:
    rows = compare_runs(load_runs(parent_dir), load_runs(change_dir), spec)
    print(f"{'workload':12s} {'metric':12s} {'label':11s} {'wins':>7s} "
          f"{'parent':>12s} {'change':>12s} {'parent IQR':>12s}")
    for r in rows:
        print(f"{r['workload']:12s} {r['metric']:12s} {r['label']:11s} "
              f"{r['wins']:>3d}/{r['pairs']:<3d} {r['parent_median']:12.6g} "
              f"{r['change_median']:12.6g} {r['parent_iqr']:12.6g}")
    print(json.dumps(rows))
    return 0
