"""End-to-end runs past the default levels (marked slow, deselected by default).

Run with `pytest -m slow`.
"""

import os

import pytest

from h32fem.cli import main
from h32fem.experiments import REGISTRY
from h32fem.harness import table_from_json


@pytest.mark.slow
def test_verify_all_order2_levels5_passes(tmp_path):
    # k=2 at one level past the default: about 13 s and 1.9 GB peak on 2 cores
    assert main(["verify", "all", "--order", "2", "--levels", "5",
                 "--format", "json", "--out", str(tmp_path)]) == 0
    for name in REGISTRY:
        with open(os.path.join(tmp_path, f"{name}.json")) as f:
            assert table_from_json(f.read()).verdict == "pass", name
