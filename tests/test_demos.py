"""The fast narrative demos still run against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import biphoton

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(biphoton.__file__).resolve().parents[1])


@pytest.mark.parametrize("script", ["01_nonlocal_fringe_scan.py", "02_independent_photon_hom.py",
                                    "03_coherence_envelope_scan2d.py",
                                    "04_jsi_reconstruction.py"])
def test_demo_runs(tmp_path, script):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
