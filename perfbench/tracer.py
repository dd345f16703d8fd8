"""Per-layer spans and counters for a traced run.

The tracer wraps the public functions of each biphoton module from the
benchmark's side, so nothing in the program changes. A wrapper replaces
the function on every biphoton module that holds it, which also covers
names bound by `from ... import` (such as `cli.build_budget` or
`reconstruction.scan_2d`). Spans are kept in memory with their operation
id and parent span and written out when the run ends.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

def _kernel_gflop(b, result, exc):
    # E1 @ M @ E2 in complex arithmetic: 8 real flops per multiply-add
    ns = np.atleast_1d(b["s_delays"]).size
    nl = np.atleast_1d(b["l_delays"]).size
    g = b["phi_a"].grid
    return {"interferometer.kernel_gflop": 8 * (ns * g.n1 * g.n2 + ns * g.n2 * nl) / 1e9}


def _invert_gflop(b, result, exc):
    na, nb = (ax.count for ax in b["interferogram"].axes)
    n1, n2 = b["band"].n1, b["band"].n2
    macs = n1 * na * nb + n1 * nb * n2
    # demodulated path: two complex matmuls; real path: four real ones
    flops = 8 * macs if b["demodulate"] else 4 * macs
    return {"reconstruction.inverts": 1, "reconstruction.kernel_gflop": flops / 1e9}


def _scan(b, result, exc):
    return {"interferometer.scans": 1,
            "interferometer.lattice_points": 0 if result is None else result.values.size}


def _fit(b, result, exc):
    return {"fitting.attempts": 1, "fitting.successes": int(exc is None),
            "fitting.unphysical": int(result is not None and result.visibility > 1.0)}


def _envelope(b, result, exc):
    return {"fitting.unphysical": int(result is not None
                                      and result.fit.peak_visibility > 1.0)}


# layer -> module -> {function name: counter hook or None}
TARGETS: dict[str, dict[str, dict[str, Callable | None]]] = {
    "config": {"biphoton.config": dict.fromkeys(
        ("load_config", "build_source_params", "build_filters", "build_model",
         "build_detector", "build_budget", "build_jitter"))},
    "core": {"biphoton.core": {
        "sample_on_grid": lambda b, r, e: {"core.grid_cells": b["grid"].n1 * b["grid"].n2},
        "grid_for_filters": None, "grid_for_gaussian": None,
        "jsi": None, "jsi_correlation": None}},
    "interferometer": {"biphoton.interferometer": {
        "scan_1d": _scan, "scan_2d": _scan, "gamma_lattice": _kernel_gflop,
        "write_interferogram_csv":
            lambda b, r, e: {"interferometer.csv_write_bytes":
                             0 if e else os.path.getsize(b["path"])},
        "read_interferogram_csv":
            lambda b, r, e: {"interferometer.csv_read_bytes":
                             0 if e else os.path.getsize(b["path"])}}},
    "detector": {"biphoton.detector": {
        "rate_to_counts": lambda b, r, e: {"detector.draws": b["normalized"].values.size},
        "independent_hom_dip": None, "accidentals": None,
        "subtract_accidentals": None, "pair_probability_from_car": None}},
    "fitting": {"biphoton.fitting": {
        "fit_fringe": _fit, "fit_dip": _fit, "visibility_envelope": _envelope,
        "ridge_slope": None, "delay_to_position": None,
        "_solve": lambda b, r, e: {"fitting.fits": 1}}},
    "reconstruction": {"biphoton.reconstruction": {
        "reconstruct_jsi": _invert_gflop, "roundtrip_error": None, "nyquist_step": None}},
    "cli": {"biphoton.cli": {"main": None}},
}


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float = 0.0


class Tracer:
    """Records spans and counters while installed; restores the modules on
    `uninstall`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}
        self.op = 0
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self, op: int) -> None:
        self.op = op
        self.counts[op] = Counter()
        mods = [m for name, m in list(sys.modules.items())
                if name == "biphoton" or name.startswith("biphoton.")]
        for layer, by_module in TARGETS.items():
            for mod_name, funcs in by_module.items():
                for fname, hook in funcs.items():
                    orig = getattr(sys.modules[mod_name], fname)
                    wrapper = self._wrap(orig, layer, f"{mod_name}.{fname}", hook)
                    for mod in mods:
                        for attr, val in list(vars(mod).items()):
                            if val is orig:
                                self._patched.append((mod, attr, orig))
                                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, fn, layer: str, name: str, hook):
        sig = inspect.signature(fn) if hook is not None else None

        def wrapper(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(self.op, len(self.spans), parent, layer, name, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if hook is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.counts[self.op].update(hook(bound.arguments, result, exc))

        wrapper.__wrapped__ = fn
        return wrapper


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def op_metrics(spans: list[Span], counts: Counter, wall_s: float, cpu_s: float) -> dict:
    """Per-layer metrics of one traced operation.

    Layer self times plus `cli.self_s` add up to `wall_s`, the operation's
    wall time measured around its `cli.main` calls.
    """
    own = self_times(spans)
    layer_self = Counter()
    by_name = Counter()
    for s in spans:
        layer_self[s.layer] += own[s.id]
        by_name[s.name] += own[s.id]
    scan = sum(by_name[f"biphoton.interferometer.{n}"]
               for n in ("scan_1d", "scan_2d", "gamma_lattice"))
    m = {
        "config.load_s": layer_self["config"],
        "core.sample_s": layer_self["core"],
        "interferometer.scan_s": scan,
        "interferometer.csv_write_s": by_name["biphoton.interferometer.write_interferogram_csv"],
        "interferometer.csv_read_s": by_name["biphoton.interferometer.read_interferogram_csv"],
        "detector.counts_s": layer_self["detector"],
        "fitting.fit_s": layer_self["fitting"],
        "reconstruction.invert_s": layer_self["reconstruction"],
        "reconstruction.roundtrip_s": sum(
            s.end - s.start for s in spans
            if s.name == "biphoton.reconstruction.roundtrip_error"),
    }
    layered = sum(v for layer, v in layer_self.items() if layer != "cli")
    m["cli.self_s"] = wall_s - layered
    m["cli.cpu_s"] = cpu_s
    for key in ("core.grid_cells", "interferometer.scans", "interferometer.lattice_points",
                "interferometer.kernel_gflop", "interferometer.csv_write_bytes",
                "interferometer.csv_read_bytes", "detector.draws", "fitting.fits",
                "fitting.unphysical", "reconstruction.inverts",
                "reconstruction.kernel_gflop"):
        m[key] = counts[key]
    attempts = counts["fitting.attempts"]
    # fit_fringe calls are the envelope slices on scan2d; 1.0 when nothing was fitted
    m["fitting.fit_success_ratio"] = counts["fitting.successes"] / attempts if attempts else 1.0
    return m
