import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from h32fem.cli import main
from h32fem.experiments import REGISTRY, ExperimentConfig, run_experiment
from h32fem.harness import table_from_json

# registry order: it fixes the `verify all` output order and which
# experiment builds each shared cache
EXPECTED_ORDER = [
    "interp_rates", "lift_consistency", "lift_multilinear", "sz_projection",
    "sz_error", "dual_inverse", "inverse_estimate", "h1_stability",
    "norm_equivalence", "interpolant_membership", "dirichlet_regularity",
    "robin_regularity", "smallness", "product_sampled", "comparison_identity",
    "deformation_discrete", "deformation_continuous", "leibniz_half",
    "neumann_decay", "resolvent_identity", "det_identity", "duality_sampled",
    "l2_product",
]
EXPECTED_NAMES = set(EXPECTED_ORDER)


def test_registry_names_complete():
    assert set(REGISTRY) == EXPECTED_NAMES
    for name, (statement, fn) in REGISTRY.items():
        assert statement
        assert callable(fn)


def test_registry_order():
    assert list(REGISTRY) == EXPECTED_ORDER
    r = _cli("verify", "all", "--list")
    assert r.returncode == 0
    assert [line.split()[0] for line in r.stdout.splitlines()] == EXPECTED_ORDER


def test_unknown_experiment():
    with pytest.raises(KeyError):
        run_experiment("does_not_exist")


def test_level_precondition():
    with pytest.raises(ValueError):
        run_experiment("inverse_estimate", ExperimentConfig(levels=0))
    with pytest.raises(ValueError):
        run_experiment("inverse_estimate", ExperimentConfig(levels=2))


def test_config_validation():
    with pytest.raises(ValueError):
        run_experiment("det_identity", ExperimentConfig(order=3))
    with pytest.raises(ValueError):
        run_experiment("det_identity", ExperimentConfig(kappa=0.0))
    with pytest.raises(ValueError, match="seed must be non-negative"):
        run_experiment("det_identity", ExperimentConfig(seed=-1))


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "seed must be non-negative"),
    ("--levels", "2", "need at least 3 refinement levels"),
    ("--kappa", "1.5", "kappa must lie in (0, 1)"),
])
def test_cli_refuses_an_invalid_config_before_running(tmp_path, capsys, flag, value, message):
    # exit code 2, not the "verdict failed" 1, and no table written
    out = tmp_path / "out"
    assert main(["verify", "all", flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"h32fem verify: error: {message}\n"
    assert not out.exists()


def test_deformation_smallness_guard_fails_before_the_operator(monkeypatch):
    # a displacement gradient past the 1/4 bound is refused before the level
    # builds the spectral operator or any norm
    from h32fem import experiments

    def refuse(*args):
        raise AssertionError("spectral operator built before the guard")

    monkeypatch.setattr(experiments, "_norm_2x2", lambda a: np.full(a.shape[:-2], 0.3))
    monkeypatch.setattr(experiments, "spectral_decomp", refuse)
    with pytest.raises(RuntimeError, match="1/4 smallness"):
        run_experiment("deformation_continuous", ExperimentConfig())


def test_run_cheap_experiment_passes():
    t = run_experiment("resolvent_identity", ExperimentConfig())
    assert t.passed
    assert t.columns[0] == "h"
    assert t.config["seed"] == 20250809


def test_determinism_same_seed():
    t1 = run_experiment("det_identity", ExperimentConfig(seed=7))
    t2 = run_experiment("det_identity", ExperimentConfig(seed=7))
    assert t1.rows == t2.rows


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "h32fem", *args],
        capture_output=True, text=True,
    )


# Memory left resident after freeing 40 arrays of 1 MiB, once a 24 MiB
# array has been freed; with the policy only when the argument is "policy".
ALLOCATOR_PROBE = """
import sys
import numpy as np
from h32fem.cli import _return_freed_memory

def rss_mib():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f if line.startswith("VmRSS:")) / 1024

if sys.argv[1] == "policy":
    _return_freed_memory()
big = np.ones(3 * 2**20)
del big
before = rss_mib()
arrays = [np.ones(2**17) for _ in range(40)]
del arrays
print(rss_mib() - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's allocator thresholds")
def test_the_allocator_policy_returns_freed_memory():
    # left alone, glibc raises its thresholds when the 24 MiB array is freed,
    # so the 1 MiB arrays come from the heap and stay resident once freed
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def retained_mib(mode):
        run = subprocess.run([sys.executable, "-c", ALLOCATOR_PROBE, mode],
                             capture_output=True, text=True, env=env, check=True)
        return float(run.stdout)

    assert retained_mib("policy") <= 8.0
    assert retained_mib("default") >= 30.0


def test_cli_single_experiment(tmp_path):
    out = tmp_path / "det.json"
    r = _cli("verify", "det_identity", "--format", "json", "--out", str(out))
    assert r.returncode == 0, r.stderr
    table = table_from_json(out.read_text())
    assert table.name == "det_identity"
    assert table.passed


def test_cli_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    r1 = _cli("verify", "neumann_decay", "--out", str(a))
    r2 = _cli("verify", "neumann_decay", "--out", str(b))
    assert r1.returncode == 0 and r2.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_unknown_experiment_fails(tmp_path):
    r = _cli("verify", "nonsense", "--out", str(tmp_path / "x.csv"))
    assert r.returncode != 0


def test_cli_list():
    r = _cli("verify", "all", "--list")
    assert r.returncode == 0
    for name in EXPECTED_NAMES:
        assert name in r.stdout
