"""Write the reference tables of one or more workloads at the reference seeds.

Usage (from the repository root):

    python3 perfbench/make_reference.py registry_p1 registry_p2 cold_spectral_p1_l5

Each workload's processes run once per seed in REFERENCE_SEEDS, and their
tables replace perfbench/reference/<workload>/seed<seed>/. Only regenerate
references for a change that is meant to alter table values, and say so.
"""

import os
import shutil
import sys

from run import REFERENCE, REFERENCE_SEEDS, WORK, WORKLOADS, run_workload


def main(workloads):
    for workload in workloads:
        for seed in REFERENCE_SEEDS:
            out = os.path.join(WORK, "reference", workload, f"seed{seed}")
            shutil.rmtree(out, ignore_errors=True)
            run_workload(workload, seed, out)
            dest = os.path.join(REFERENCE, workload, f"seed{seed}")
            shutil.rmtree(dest, ignore_errors=True)
            os.makedirs(dest)
            for name in sorted(os.listdir(out)):
                if name.endswith(".csv"):
                    shutil.copy(os.path.join(out, name), dest)
            print(f"{workload} seed {seed}: {len(os.listdir(dest))} tables -> {dest}")


if __name__ == "__main__":
    unknown = [w for w in sys.argv[1:] if w not in WORKLOADS]
    if unknown or len(sys.argv) < 2:
        sys.exit(f"usage: make_reference.py WORKLOAD...; workloads: {', '.join(WORKLOADS)}")
    main(sys.argv[1:])
