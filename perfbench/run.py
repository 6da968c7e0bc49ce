"""h32fem benchmark: time `h32fem verify` workloads end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload registry_p1 [--seed N] [--seconds S] [--trace 0|1]

A closed loop with one client: each workload process is started only
after the previous one has ended, and every process runs the public CLI
(`h32fem.cli.main`, what `python -m h32fem verify ...` runs) from the
checkout's `src/` with one BLAS thread.

Untraced (--trace 0), the workload repeats until --seconds have passed
(at least once) and the run reports the median over repetitions of
  wall_s       first process launch to the last table written
  setup_s      launch until h32fem and scipy are imported, summed over the
               workload's processes (median over several fresh processes)
  cpu_s        user + system CPU time of the workload's processes
  peak_rss_mb  largest peak resident set size of any workload process
and fail_share, experiments failed over experiments attempted. An
experiment fails if it raises, if its verdict is `fail`, or if its table
disagrees with the committed reference table; tables are checked after
timing. Traced (--trace 1), the workload runs once under the span
tracer; the run reports the per-layer metrics and the tracing overhead,
and checks the traced tables against the references.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

from layers import EXPERIMENTS, concat, layer_metrics, unit_of
from reference import check_tables

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference")
WORK = os.path.join(ROOT, ".perfbench")

# Reference tables exist for these experiment seeds. A --seed outside
# them selects one by its remainder, so that every run is checked.
REFERENCE_SEEDS = (20250809, 7)
# Import-only processes per untraced run, half before and half after the
# timed passes, that add set-up samples.
SETUP_PROBES = 6

# The 12 experiments that use the `norms` layer (spectral bases).
COLD_SPECTRAL = (
    "dual_inverse", "inverse_estimate", "h1_stability", "norm_equivalence",
    "interpolant_membership", "dirichlet_regularity", "robin_regularity",
    "product_sampled", "deformation_discrete", "deformation_continuous",
    "duality_sampled", "sz_error",
)

# name -> (experiments checked, CLI arguments of each process in order)
WORKLOADS = {
    # everyday certification at k=1; the Gagliardo oracle dominates
    "registry_p1": (EXPERIMENTS, [["verify", "all", "--order", "1"]]),
    # k=2: point location, shape functions and dense eigh share the time
    "registry_p2": (EXPERIMENTS, [["verify", "all", "--order", "2"]]),
    # every spectral artifact built cold, one fresh process per experiment
    "cold_spectral_p1_l5": (
        COLD_SPECTRAL,
        [["verify", name, "--order", "1", "--levels", "5"] for name in COLD_SPECTRAL],
    ),
}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def experiment_seed(seed):
    return seed if seed in REFERENCE_SEEDS else REFERENCE_SEEDS[seed % len(REFERENCE_SEEDS)]


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # One BLAS thread, so that wall time tracks the process's CPU time: on
    # a shared host a threaded eigh waits for whichever core is slowed.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(stamp, cli_args=(), spans=None, log=os.devnull):
    """Run one child process to completion; its timings and resource use."""
    cmd = [sys.executable, CHILD, stamp]
    if spans is not None:
        cmd += ["--spans", spans]
    cmd += ["--", *cli_args]
    with open(log, "w") as out:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    if not os.path.exists(stamp):
        raise RuntimeError(f"process {cmd} ended with code {proc.returncode} before it was ready; see {log}")
    with open(stamp) as f:
        times = json.load(f)
    if os.path.dirname(times["h32fem"]) != os.path.join(SRC, "h32fem"):
        raise RuntimeError(f"imported h32fem from {times['h32fem']}, not from {SRC}")
    return {
        "launch": start,
        "done": times["done"],
        "setup_s": times["ready"] - start,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def run_workload(workload, seed, out_dir, traced=False):
    """One pass of the workload; every table lands in out_dir."""
    os.makedirs(out_dir)
    procs = []
    for i, args in enumerate(WORKLOADS[workload][1]):
        cli = [*args, "--seed", str(seed), "--out", out_dir + os.sep]
        spans = os.path.join(out_dir, f"_spans{i}.npz") if traced else None
        procs.append(launch(os.path.join(out_dir, f"_stamp{i}.json"), cli, spans,
                            os.path.join(out_dir, f"_log{i}.txt")))
    return {
        "wall_s": procs[-1]["done"] - procs[0]["launch"],
        "setup": [p["setup_s"] for p in procs],
        "cpu_s": sum(p["cpu_s"] for p in procs),
        "peak_rss_mb": max(p["rss_mb"] for p in procs),
        "procs": len(procs),
    }


def check(workload, seed, out_dirs):
    """(attempted, failed, problems) over the passes written to out_dirs."""
    ref_dir = os.path.join(REFERENCE, workload, f"seed{seed}")
    attempted, failed, problems = 0, 0, []
    for out_dir in out_dirs:
        for bad, msgs in check_tables(out_dir, ref_dir, WORKLOADS[workload][0]).values():
            attempted += 1
            failed += bad
            problems += msgs
    return attempted, failed, problems


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown"
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(loose):
        with open(loose) as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return "unknown"


def provenance(seed, exp_seed):
    from importlib.metadata import version

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": nproc(),
        "openblas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        "mem_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "git_commit": git_commit(),
        "seed": seed,
        "experiment_seed": exp_seed,
    }


def probe_setups(work, tag):
    return [launch(os.path.join(work, f"probe{tag}{i}.json"))["setup_s"]
            for i in range(SETUP_PROBES // 2)]


def untraced_run(workload, seed, seconds, work):
    setups = probe_setups(work, "a")
    passes, dirs = [], []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        dirs.append(os.path.join(work, f"pass{len(passes)}"))
        passes.append(run_workload(workload, seed, dirs[-1]))
        setups += passes[-1]["setup"]
    setups += probe_setups(work, "b")
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": passes[0]["procs"] * statistics.median(setups),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return metrics, dirs


def traced_run(workload, seed, work):
    traced_dir = os.path.join(work, "traced")
    traced = run_workload(workload, seed, traced_dir, traced=True)
    span_sets = []
    for i in range(traced["procs"]):
        with np.load(os.path.join(traced_dir, f"_spans{i}.npz")) as z:
            span_sets.append(dict(z))
    metrics = layer_metrics(concat(span_sets))
    metrics["trace.overhead_s"] = sum(len(s["start"]) * float(s["cost_per_span"]) for s in span_sets)
    return metrics, [traced_dir]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "h32fem", "cli.py")):
        print(f"no h32fem sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    exp_seed = experiment_seed(args.seed)
    work = os.path.join(WORK, f"{args.workload}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if args.trace:
        metrics, dirs = traced_run(args.workload, exp_seed, work)
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics, dirs = untraced_run(args.workload, exp_seed, args.seconds, work)
        units = END_TO_END_UNITS
    attempted, failed, problems = check(args.workload, exp_seed, dirs)

    print(f"workload {args.workload}  seed {args.seed} (experiment seed {exp_seed})  "
          f"passes {len(dirs)}  trace {args.trace}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:.6g} {units[name]}")
    print(f"  {'fail_share':32s} {failed}/{attempted} = {failed / attempted:.4g} ratio")
    for msg in problems:
        print(f"  MISMATCH {msg}")
    print("provenance " + json.dumps(provenance(args.seed, exp_seed), sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
