"""Run the full verification registry and emit one table per estimate.

Equivalent to: python -m h32fem verify all --order 1 --out results
(in one process, through `run_plan`, which releases each mesh after its
last reader)
Run: python demos/05_verify_all.py [order]
"""

import sys
import time

from h32fem import ExperimentConfig, REGISTRY, run_plan
from h32fem.harness import emit

order = int(sys.argv[1]) if len(sys.argv) > 1 else 1
cfg = ExperimentConfig(order=order)
print(f"running {len(REGISTRY)} experiments at order {order} "
      f"(levels={cfg.levels}, seed={cfg.seed}, kappa={cfg.kappa})\n")

failures = []
t_start = t0 = time.time()
for name, table in run_plan(list(REGISTRY), cfg):
    emit(table, "csv", f"results/{name}.csv")
    status = table.verdict.upper()
    print(f"  {name:26s} {status:4s}  slope {table.fitted_slope:+.3f}  "
          f"[{time.time()-t0:5.1f}s]  {table.statement}")
    if not table.passed:
        failures.append(name)
    t0 = time.time()

print(f"\ntotal {time.time()-t_start:.1f}s; tables in results/")
if failures:
    print("FAILED:", ", ".join(failures))
    sys.exit(1)
print("all estimates certified")
