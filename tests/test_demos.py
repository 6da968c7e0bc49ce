"""Demos 01-04 run to completion; 05 runs the whole registry and stays out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_mesh_and_quadrature.py",
    "02_fractional_norms.py",
    "03_lift_and_interpolation.py",
    "04_multilinear_and_deformation.py",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
