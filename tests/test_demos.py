"""Every demo runs to completion; 05 runs the whole registry (marked slow)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from h32fem.experiments import REGISTRY

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_mesh_and_quadrature.py",
    "02_fractional_norms.py",
    "03_lift_and_interpolation.py",
    "04_multilinear_and_deformation.py",
]


def _run_demo(demo, cwd):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True,
    )


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    proc = _run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.slow
def test_verify_all_demo_runs(tmp_path):
    # the whole registry at order 1 through `run_plan`: one table per experiment
    proc = _run_demo("05_verify_all.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "all estimates certified" in proc.stdout
    assert sorted(p.stem for p in (tmp_path / "results").iterdir()) == sorted(REGISTRY)
