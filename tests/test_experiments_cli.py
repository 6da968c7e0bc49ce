import dataclasses
import functools
import json
import os
import platform
import signal
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from h32fem import cli, experiments
from h32fem.cli import main
from h32fem.experiments import REGISTRY, ExperimentConfig, plan_groups, run_experiment, run_plan
from h32fem.harness import render_csv

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
    from h32fem import experiments, norms

    def refuse(*args):
        raise AssertionError("spectral operator built before the guard")

    monkeypatch.setattr(experiments, "_norm_2x2", lambda a: np.full(a.shape[:-2], 0.3))
    monkeypatch.setattr(norms, "spectral_decomp", refuse)
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


def test_the_heap_is_trimmed_after_each_step(tmp_path, monkeypatch):
    # each step's table comes once its releases are done, so the trim after
    # it returns what the step freed; on the one-group path too (a group of
    # one here)
    events, trim = [], cli._trim_heap
    assert trim() is None    # where libc has no malloc_trim, a no-op too
    monkeypatch.setattr(cli, "_trim_heap", lambda: events.append("trim"))
    steps = (events.append(name) or (name, None) for name in ("a", "b"))
    assert [name for name, _ in cli._trimmed(steps)] == ["a", "b"]
    assert events == ["a", "trim", "b", "trim"]
    events.clear()
    assert main(["verify", "det_identity", "--out", str(tmp_path / "det.csv")]) == 0
    assert events == ["trim"]


def test_cli_single_experiment(tmp_path):
    out = tmp_path / "det.json"
    r = _cli("verify", "det_identity", "--format", "json", "--out", str(out))
    assert r.returncode == 0, r.stderr
    table = json.loads(out.read_text())
    assert table["name"] == "det_identity"
    assert table["verdict"] == "pass"


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


def test_cli_list_needs_no_experiment():
    r = _cli("verify", "--list")
    assert r.returncode == 0
    assert [line.split()[0] for line in r.stdout.splitlines()] == EXPECTED_ORDER


def test_cli_without_experiment_fails_in_one_line(tmp_path):
    r = _cli("verify", "--out", str(tmp_path))
    assert r.returncode == 2
    assert r.stdout == "" and len(r.stderr.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_cli_defaults_are_the_config_defaults():
    # one coding of the defaults: the parser reads them from ExperimentConfig
    defaults = dataclasses.asdict(ExperimentConfig())
    args = cli.build_parser().parse_args(["verify", "all"])
    assert {field: getattr(args, field) for field in defaults} == defaults


# -- `verify all` as groups of experiments, one group per process


@pytest.fixture
def two_cpus(monkeypatch):
    """`verify all` on two CPUs whatever the host has; the forks it makes."""
    forks = []
    fork = os.fork

    def counting():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counting)
    yield forks
    # every child was reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("order", [1, 2])
def test_verify_all_in_groups_writes_the_in_process_tables(tmp_path, capsys, two_cpus, order):
    assert main(["verify", "all", "--levels", "3", "--order", str(order), "--out", str(tmp_path)]) == 0
    cfg = ExperimentConfig(order=order, levels=3)
    assert len(two_cpus) == len(plan_groups(list(REGISTRY), cfg, 2)) - 1 == 1
    printed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert printed == list(REGISTRY)
    # the planned order run in this process, the first group head first
    planned = [name for group in plan_groups(list(REGISTRY), cfg, 2) for name in group]
    assert planned != list(REGISTRY)
    in_planned_order = {name: render_csv(table) for name, table in run_plan(planned, cfg)}
    for name, table in run_plan(list(REGISTRY), cfg):
        assert (tmp_path / f"{name}.csv").read_text() == render_csv(table), name
        assert in_planned_order[name] == render_csv(table), name


def test_verify_one_experiment_is_one_group_in_process(tmp_path, capsys, two_cpus):
    out = tmp_path / "det_identity.csv"
    assert main(["verify", "det_identity", "--seed", "7", "--out", str(out)]) == 0
    assert two_cpus == []
    assert out.read_text() == render_csv(run_experiment("det_identity", ExperimentConfig(seed=7)))


def test_verify_all_on_one_cpu_forks_nothing(tmp_path, monkeypatch):
    def refuse():
        raise AssertionError("forked on one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", refuse)
    assert main(["verify", "all", "--levels", "3", "--out", str(tmp_path)]) == 0
    assert sorted(p.stem for p in tmp_path.iterdir()) == sorted(REGISTRY)


def test_verify_all_under_a_wrapped_run_plan_forks_nothing(tmp_path, monkeypatch, two_cpus):
    # a tracer's wrapper sees the calls of its own process only
    seen = []

    @functools.wraps(run_plan)
    def traced(names, cfg):
        seen.extend(names)
        return run_plan(names, cfg)

    monkeypatch.setattr(cli, "run_plan", traced)
    assert main(["verify", "all", "--levels", "3", "--out", str(tmp_path)]) == 0
    assert two_cpus == [] and seen == list(REGISTRY)


# Output buffered before `verify all` forks its child on two CPUs: the
# child must not write it again when it ends. Standard output is reopened
# block-buffered whatever PYTHONUNBUFFERED says; it is a pipe, so "marker"
# stays in the buffer until it is flushed.
BUFFERED_BEFORE_THE_FORK = """
import os, sys
sys.stdout = open(sys.stdout.fileno(), "w", closefd=False)
from h32fem.cli import main
os.sched_getaffinity = lambda pid: {0, 1}
forks, fork = [], os.fork
os.fork = lambda: forks.append(None) or fork()
print("marker")
code = main(["verify", "all", "--levels", "3", "--out", sys.argv[1]])
print(f"forks {len(forks)}", file=sys.stderr)
sys.exit(code)
"""


def test_output_buffered_before_the_fork_is_written_once(tmp_path):
    r = subprocess.run([sys.executable, "-c", BUFFERED_BEFORE_THE_FORK, str(tmp_path)],
                       capture_output=True, text=True)
    assert r.returncode == 0 and r.stderr == "forks 1\n", r.stderr
    lines = r.stdout.splitlines()
    assert lines.count("marker") == 1
    assert [line.split()[0] for line in lines[1:]] == list(REGISTRY)


def _replace_level(monkeypatch, name, level):
    statement, build = REGISTRY[name]
    monkeypatch.setitem(REGISTRY, name, (statement, lambda cfg: dataclasses.replace(build(cfg), level=level)))


def _group_of(name):
    """The index of the group `verify all --levels 3` runs `name` in on two CPUs."""
    groups = plan_groups(list(REGISTRY), ExperimentConfig(levels=3), 2)
    return next(i for i, group in enumerate(groups) if name in group)


def test_an_experiment_raising_in_a_child_is_named(tmp_path, monkeypatch, two_cpus):
    def level(mesh, rng):
        raise ValueError("level refused")

    assert _group_of("det_identity") > 0
    _replace_level(monkeypatch, "det_identity", level)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="(?s)'det_identity' raised.*ValueError: level refused"):
        main(["verify", "all", "--levels", "3", "--out", str(out)])
    assert not out.exists()


def _send_part_of_a_message(group, cfg, send):
    # in place of the child's run: a frame header announcing 64 bytes, then 7
    os.write(send.fileno(), struct.pack("!i", 64) + b"cut off")
    os._exit(3)


@pytest.mark.parametrize("end, message", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by SIGKILL"),
    (lambda: os._exit(3), "exited with code 3"),
    # a child cut off mid-message is reported like one that sent nothing
    (_send_part_of_a_message, "exited with code 3"),
])
def test_a_child_that_ends_without_its_tables_is_reported(tmp_path, monkeypatch, two_cpus, end, message):
    parent = os.getpid()

    def level(mesh, rng):
        if os.getpid() == parent:
            raise AssertionError("ran in the parent")
        end()

    assert _group_of("resolvent_identity") > 0
    _replace_level(monkeypatch, "resolvent_identity", level)
    if end is _send_part_of_a_message:
        monkeypatch.setattr(cli, "_run_child", end)
    with pytest.raises(RuntimeError, match=f"resolvent_identity.* {message} without sending its tables"):
        main(["verify", "all", "--levels", "3", "--out", str(tmp_path)])


@pytest.mark.parametrize("step", [0, -1])
def test_a_release_raising_in_a_child_names_the_experiment_before_it(tmp_path, monkeypatch, two_cpus, step):
    parent = os.getpid()
    group = plan_groups(list(REGISTRY), ExperimentConfig(levels=3), 2)[1]
    released = []
    release = experiments.release_meshes

    def releasing(keep):
        if os.getpid() != parent:
            released.append(keep)
            if len(released) == range(len(group))[step] + 1:
                raise ValueError("release refused")
        release(keep)

    monkeypatch.setattr(experiments, "release_meshes", releasing)
    with pytest.raises(RuntimeError, match=f"(?s)'{group[step]}' raised.*ValueError: release refused"):
        main(["verify", "all", "--levels", "3", "--out", str(tmp_path)])


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
def test_a_failing_run_writes_no_table_on_one_cpu_or_two(tmp_path, monkeypatch, cpus):
    def level(mesh, rng):
        raise ValueError("stop")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    assert list(REGISTRY)[-2] == "duality_sampled" and _group_of("duality_sampled") == 0
    _replace_level(monkeypatch, "duality_sampled", level)
    with pytest.raises(ValueError, match="stop"):
        main(["verify", "all", "--levels", "3", "--out", str(tmp_path)])
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_an_error_in_the_parent_group_reaps_the_child(tmp_path, monkeypatch, two_cpus, error):
    def level(mesh, rng):
        raise error("stop")

    assert _group_of("sz_projection") == 0
    _replace_level(monkeypatch, "sz_projection", level)
    with pytest.raises(error, match="stop"):
        main(["verify", "all", "--levels", "3", "--out", str(tmp_path)])
