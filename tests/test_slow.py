"""End-to-end runs past the default levels (marked slow, deselected by default).

Run with `pytest -m slow`.
"""

import importlib.util
import os
from pathlib import Path

import pytest

from h32fem.cli import main
from h32fem.experiments import REGISTRY
from h32fem.harness import table_from_json

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("reference", _PERFBENCH / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


@pytest.mark.slow
def test_verify_all_order2_levels5_passes(tmp_path):
    # k=2 at one level past the default: about 13 s and 1.9 GB peak on 2 cores
    assert main(["verify", "all", "--order", "2", "--levels", "5",
                 "--format", "json", "--out", str(tmp_path)]) == 0
    for name in REGISTRY:
        with open(os.path.join(tmp_path, f"{name}.json")) as f:
            assert table_from_json(f.read()).verdict == "pass", name


@pytest.mark.slow
def test_verify_all_seed7_matches_the_references(tmp_path):
    # all 46 tables of both orders at the second reference seed: about 10 s
    drift = []
    for order in (1, 2):
        out = tmp_path / f"p{order}"
        assert main(["verify", "all", "--order", str(order), "--seed", "7",
                     "--format", "csv", "--out", str(out)]) == 0
        ref_dir = _PERFBENCH / "reference" / f"registry_p{order}" / "seed7"
        for name in REGISTRY:
            got = (out / f"{name}.csv").read_text()
            assert reference.verdict(got) == "pass", name
            ref = (ref_dir / f"{name}.csv").read_text()
            drift += [f"{name}/k{order} {m}" for m in reference.compare(ref, got)]
    assert not drift, drift
