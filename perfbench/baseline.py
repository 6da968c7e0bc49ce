"""Run the benchmark over several seeds and record medians and quartiles.

Usage (from the repository root):

    python3 perfbench/baseline.py [--runs 10] [--first-seed 0] [--traced] [WORKLOAD ...]

For each workload (default: those in BENCHMARK.json) this runs
`perfbench/run.py` untraced once per seed, one after another, and reports
for every end-to-end metric its median, quartiles and spread (the distance
between the quartiles as a share of the median) against the metric's
bound. With --traced it adds one traced run per workload. The results are
merged into perfbench/BASELINE.json, keyed by workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "BASELINE.json")


def bench_run(spec, workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    prov = next(json.loads(l[len("provenance "):]) for l in lines if l.startswith("provenance "))
    return json.loads(lines[-1]), prov, elapsed


def summarize(values, bound):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2
    return {"median": q2, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "samples": len(values), "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {}
    if os.path.exists(OUT):
        with open(OUT) as f:
            doc = json.load(f)
    ok = True
    for workload in workloads:
        samples = {name: [] for name in bounds}
        entry = {"runs": [], "run_seconds": spec["run_seconds"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, prov, elapsed = bench_run(spec, workload, seed, 0)
            ok &= result["correct"]
            entry["runs"].append({"seed": seed, "elapsed_s": elapsed, "correct": result["correct"],
                                  "attempted": result["attempted"], "failed": result["failed"]})
            for name in bounds:
                samples[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: {elapsed:.1f} s  "
                  + "  ".join(f"{k}={v[-1]:.4g}" for k, v in samples.items()), flush=True)
        entry["end_to_end"] = {name: summarize(vals, bounds[name]) for name, vals in samples.items()}
        entry["provenance"] = prov
        for name, s in entry["end_to_end"].items():
            flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"{workload} {name:12s} median {s['median']:.4g}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}  "
                  f"spread {s['spread']:.4f} (bound {s['bound']}) {flag}")
        if args.traced:
            result, prov, elapsed = bench_run(spec, workload, args.first_seed, 1)
            ok &= result["correct"]
            entry["per_layer"] = {k: v["value"] for k, v in result["metrics"].items()}
            entry["traced_elapsed_s"] = elapsed
            print(f"{workload} traced run: {elapsed:.1f} s, correct {result['correct']}")
        doc[workload] = entry
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
