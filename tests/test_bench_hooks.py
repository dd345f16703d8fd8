"""The benchmark tracer (perfbench/tracer.py) wraps program functions by name
and its counter hooks read their arguments by parameter name, so renaming or
deleting one of them breaks every traced benchmark run. These tests catch
that here rather than in the benchmark run."""

import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import biphoton
from biphoton import cli

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# function -> the parameters its tracer hook reads by name
HOOK_PARAMETERS = {
    "biphoton.core.sample_on_grid": ("grid",),
    "biphoton.interferometer.gamma_lattice": ("phi_a", "s_delays", "l_delays"),
    "biphoton.interferometer.write_interferogram_csv": ("path",),
    "biphoton.interferometer.read_interferogram_csv": ("path",),
    "biphoton.detector.rate_to_counts": ("normalized",),
    "biphoton.reconstruction.reconstruct_jsi": ("interferogram", "band", "demodulate"),
}


@pytest.fixture(scope="module")
def tracer():
    for info in pkgutil.iter_modules(biphoton.__path__):
        importlib.import_module(f"biphoton.{info.name}")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_wrapped_name_exists_and_is_restored(tracer):
    wrapped = {f"{mod}.{name}": getattr(importlib.import_module(mod), name)
               for by_module in tracer.TARGETS.values()
               for mod, funcs in by_module.items() for name in funcs}
    t = tracer.Tracer()
    try:
        t.install(0)  # AttributeError if a wrapped name is gone
    finally:
        t.uninstall()
    for qualname, fn in wrapped.items():
        mod, name = qualname.rsplit(".", 1)
        assert getattr(importlib.import_module(mod), name) is fn, qualname


@pytest.mark.parametrize("qualname", sorted(HOOK_PARAMETERS))
def test_hook_parameters_are_in_the_signature(tracer, qualname):
    mod, name = qualname.rsplit(".", 1)
    hooks = {f"{m}.{f}": hook for by_module in tracer.TARGETS.values()
             for m, funcs in by_module.items() for f, hook in funcs.items()}
    assert hooks.get(qualname) is not None, f"{qualname} has no counter hook"
    params = inspect.signature(getattr(importlib.import_module(mod), name)).parameters
    missing = [p for p in HOOK_PARAMETERS[qualname] if p not in params]
    assert not missing, f"{qualname} lacks {missing}"


def test_traced_runs_count_every_layer(tracer, tmp_path):
    t = tracer.Tracer()
    t.install(0)
    try:
        assert cli.main(["--out", str(tmp_path / "f"), "--set", "grid.n=64",
                         "--set", "scan.fringe_halfspan_mm=0.05", "fringe"]) == cli.EXIT_OK
        assert cli.main(["--out", str(tmp_path / "r"), "--set", "reconstruct.band_n=32",
                         "--set", "reconstruct.rho=0", "reconstruct"]) == cli.EXIT_OK
    finally:
        t.uninstall()
    counts = t.counts[0]
    for key in ("core.grid_cells", "interferometer.kernel_gflop", "interferometer.csv_write_bytes",
                "detector.draws", "fitting.fits", "reconstruction.inverts"):
        assert counts[key] > 0, key
    names = {s.name for s in t.spans}
    assert {"biphoton.detector.subtract_accidentals", "biphoton.core.jsi"} <= names
