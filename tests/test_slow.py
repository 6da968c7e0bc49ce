"""End-to-end runs past the default levels, every default table against its
reference, negative controls, the point-location audit and the memory
budget of `verify all` (marked slow, deselected by default).

Run with `pytest -m slow`.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from h32fem import experiments, meshing, norms
from h32fem.assembly import FeFunction, grams_of
from h32fem.cli import main
from h32fem.experiments import REGISTRY, ExperimentConfig, overkill_rings, run_experiment, run_plan
from h32fem.harness import render_csv
from h32fem.interp import sz_via_dirichlet
from h32fem.meshing import shared_mesh

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_spec = importlib.util.spec_from_file_location("reference", _PERFBENCH / "reference.py")
reference = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reference)


@pytest.mark.slow
def test_verify_all_order2_levels5_passes(tmp_path):
    # k=2 at one level past the default: about 10 s and 0.9 GB peak on 2 cores
    assert main(["verify", "all", "--order", "2", "--levels", "5",
                 "--format", "json", "--out", str(tmp_path)]) == 0
    for name in REGISTRY:
        with open(os.path.join(tmp_path, f"{name}.json")) as f:
            assert json.load(f)["verdict"] == "pass", name


@pytest.mark.slow
@pytest.mark.parametrize("seed", [20250809, 7])
@pytest.mark.parametrize("order", [1, 2])
def test_verify_all_passes_the_reference_check(order, seed, tmp_path):
    # all 23 default tables of one order and reference seed, in process, each
    # with a pass verdict and within the reference tolerances: about 5 s each
    code = main(["verify", "all", "--order", str(order), "--seed", str(seed),
                 "--format", "csv", "--out", str(tmp_path)])
    ref_dir = _PERFBENCH / "reference" / f"registry_p{order}" / f"seed{seed}"
    result = reference.check_tables(str(tmp_path), str(ref_dir), list(REGISTRY))
    failed = {name: problems for name, (bad, problems) in result.items() if bad}
    assert not failed, failed
    assert code == 0


@pytest.mark.slow
@pytest.mark.parametrize("order", [1, 2])
def test_run_order_changes_no_table(order, monkeypatch):
    # the reverse run releases its meshes in another sequence; each run
    # starts from an empty mesh store
    cfg = ExperimentConfig(order=order)
    runs = []
    for names in (list(REGISTRY), list(REGISTRY)[::-1]):
        monkeypatch.setattr(meshing, "_MESHES", {})
        runs.append({name: render_csv(table) for name, table in run_plan(names, cfg)})
    assert runs[0] == runs[1]


# -- negative controls: a mutated norm must flip the verdict of the gate that
# certifies it, so these gates cannot pass vacuously


@pytest.mark.slow
def test_sz_error_rejects_the_threehalf_norm_without_its_boundary_term(monkeypatch):
    # the block of 3/2 norms the experiment takes per level, less the boundary term
    def gradient_dual_only(us, dofset="interior"):
        mesh, c = us[0].mesh, np.column_stack([u.coeffs for u in us])
        return norms.dual_norms(grams_of(mesh).A_bulk @ c, mesh, dofset)

    cfg = ExperimentConfig(order=1)
    assert run_experiment("sz_error", cfg).verdict == "pass"
    monkeypatch.setattr(experiments, "hhat_threehalf_norms", gradient_dual_only)
    assert run_experiment("sz_error", cfg).verdict == "fail"


@pytest.mark.slow
def test_inverse_estimate_rejects_the_h1_dual_norm(monkeypatch):
    # sqrt(b . K^{-1} b) is the dual norm of H^1, half an order off H^{1/2}'s;
    # per column, since the experiment passes its 8 loads per level as a block
    def h1_dual(loads, mesh, dofset):
        sb = norms.spectral_decomp(mesh, dofset)
        b = loads[sb.ids]
        return np.sqrt(np.vecdot(b.T, spla.spsolve(sb.K.tocsc(), b).T))

    cfg = ExperimentConfig(order=2)
    assert run_experiment("inverse_estimate", cfg).verdict == "pass"
    monkeypatch.setattr(norms, "dual_norms", h1_dual)
    assert run_experiment("inverse_estimate", cfg).verdict == "fail"


# -- point location: locate() refuses a point in no element, so building the
# overkill transfers at every supported level is the check that each point of
# the exact domain lies in an element of the lifted coarse or overkill mesh


@pytest.mark.slow
@pytest.mark.parametrize("order, levels", [(1, 6), (2, 5)])
def test_overkill_transfers_locate_every_point(order, levels):
    rng = np.random.default_rng(order)
    for n in overkill_rings(levels):
        m = shared_mesh("disk", n, order)
        sz_via_dirichlet(FeFunction(m, rng.normal(size=m.n_nodes)))


# -- memory: the peak of `verify all` above an import-only process, per order


def _python_env():
    """The environment of a Python child: one BLAS thread and the checkout's
    `src/` first on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _peak_rss_mb(args, tmp_path):
    """Peak resident set (ru_maxrss, MiB) of a Python child run with `args`
    (`_python_env`); where it forks, the largest peak of its tree."""
    env = _python_env()
    proc = subprocess.Popen([sys.executable, *args], cwd=tmp_path, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    return usage.ru_maxrss / 1024.0   # KiB on Linux


@pytest.mark.slow
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
@pytest.mark.parametrize("order, budget_mb", [(1, 59.0), (2, 135.0)])
def test_verify_all_stays_within_its_memory_budget(order, budget_mb, tmp_path):
    """Measured on a 2-core Intel Xeon (2.1 GHz, 8 GB) under Linux with glibc:
    an import-only process peaks at 62.9 MB, and `verify all` 53 MB (k=1) and
    122 MB (k=2) above it, against 60 and 160 MB before the first group ran
    head first, the heap was trimmed after each experiment and rule-point
    work ran in element blocks (67 and 197 MB before lifted records held only
    the boundary layer and the CLI returned freed memory to the OS). Each
    budget is the measured value plus more than 10 %. Where `verify all`
    runs two processes this bounds the larger of them; the tests below
    bound their sum and each of them at `--levels 5`."""
    base = _peak_rss_mb(["-c", "import h32fem.cli"], tmp_path)
    peak = _peak_rss_mb(["-m", "h32fem", "verify", "all", "--order", str(order), "--out", "out"], tmp_path)
    assert peak - base <= budget_mb


# run `h32fem verify` in this process and print its own peak and the
# largest peak of its reaped children (ru_maxrss, KiB on Linux)
_PEAKS_OF_BOTH = """
import resource, sys
from h32fem.cli import main
code = main(sys.argv[1:])
print(*(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))
sys.exit(code)
"""


def _peaks_of_both(args, tmp_path):
    """The peaks (MiB) of the CLI process and of its child running `h32fem
    verify` with `args`, and of an import-only process."""
    base = _peak_rss_mb(["-c", "import h32fem.cli"], tmp_path)
    r = subprocess.run([sys.executable, "-c", _PEAKS_OF_BOTH, "verify", *args, "--out", "out"],
                       cwd=tmp_path, env=_python_env(), capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    own, child = (int(kib) / 1024.0 for kib in r.stdout.splitlines()[-1].split())
    return own, child, base


@pytest.mark.slow
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
@pytest.mark.parametrize("order, budget_mb", [(1, 68.0), (2, 224.0)])
def test_verify_all_processes_together_stay_within_their_memory_budget(order, budget_mb, tmp_path):
    """The peaks of the CLI process and of the child that runs the second
    group, summed, above two import-only processes. Measured on the host of
    the test above with two CPUs: 116 + 72 MB (k=1) and 185 + 144 MB (k=2),
    so 62 and 203 MB above 2 × 62.9 MB, against 82 and 300 MB before the
    first group ran head first, the heap was trimmed after each experiment
    and rule-point work ran in element blocks. A child's peak counts the
    pages it shares with the CLI process since the fork. Each budget is the
    measured value plus more than 10 %."""
    own, child, base = _peaks_of_both(["all", "--order", str(order)], tmp_path)
    assert own + child - 2 * base <= budget_mb


@pytest.mark.slow
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_verify_all_order2_levels5_processes_stay_within_their_memory_budgets(tmp_path):
    """The CLI process and its child at k=2 `--levels 5`, each above an
    import-only process. Measured on the host of the tests above: 659-669
    and 403 MB, so 606 and 340 MB above 62.9 MB, against 650 and 589 MB
    before the first group ran head first, the heap was trimmed after each
    experiment and rule-point work ran in element blocks. Each budget is the
    measured value plus more than 10 %."""
    own, child, base = _peaks_of_both(["all", "--order", "2", "--levels", "5"], tmp_path)
    assert own - base <= 667.0
    assert child - base <= 375.0
