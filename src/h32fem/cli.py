"""Command-line entry point: `h32fem verify <experiment|all> [options]`."""

import argparse
import ctypes
import os
import sys

from .experiments import REGISTRY, ExperimentConfig, run_experiment, run_plan
from .harness import emit


def build_parser():
    parser = argparse.ArgumentParser(
        prog="h32fem",
        description="Verification experiments for the 3/2-order FE norm toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    v = sub.add_parser(
        "verify", help="run one experiment (or all) and emit rate tables"
    )
    v.add_argument(
        "experiment",
        help="registered experiment name or 'all'; see --list",
    )
    v.add_argument("--list", action="store_true", help="list experiments and exit")
    v.add_argument("--order", type=int, choices=(1, 2), default=1)
    v.add_argument("--levels", type=int, default=4)
    v.add_argument("--seed", type=int, default=20250809)
    v.add_argument("--kappa", type=float, default=0.1)
    v.add_argument(
        "--out",
        default="results",
        help="output file (single experiment) or directory (all)",
    )
    v.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _run_verify(args):
    if args.list:
        for name, (statement, _) in REGISTRY.items():
            print(f"{name:26s} {statement}")
        return 0
    cfg = ExperimentConfig(
        order=args.order, levels=args.levels, seed=args.seed, kappa=args.kappa
    )
    # refuse a bad invocation before anything runs or is written
    try:
        cfg.validate()
        if args.experiment != "all" and args.experiment not in REGISTRY:
            raise ValueError(f"unknown experiment {args.experiment!r}; choose one of: "
                             + ", ".join(sorted(REGISTRY)))
    except ValueError as e:
        print(f"h32fem verify: error: {e}", file=sys.stderr)
        return 2
    runs = (run_plan(list(REGISTRY), cfg) if args.experiment == "all"
            else [(args.experiment, run_experiment(args.experiment, cfg))])
    all_pass = True
    for name, table in runs:
        all_pass &= table.passed
        if args.experiment == "all":
            path = os.path.join(args.out, f"{name}.{args.format}")
        else:
            path = args.out
            if os.path.isdir(path) or path.endswith(os.sep):
                path = os.path.join(path, f"{name}.{args.format}")
        emit(table, args.format, path)
        print(f"{name:26s} {table.verdict:4s} slope={table.fitted_slope:+.3f} -> {path}")
    return 0 if all_pass else 1


def _return_freed_memory():
    """Fix glibc's allocation thresholds, so freed memory goes back to the OS.

    Left alone, glibc raises the mmap threshold to the largest mapped chunk
    freed (up to 32 MiB) and the trim threshold to twice that, so arrays
    below it come from the heap and up to 64 MiB of freed heap stays
    resident. Setting either turns that off (128 KiB is the default trim
    threshold). A no-op where libc has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 128 * 1024)         # M_TRIM_THRESHOLD
    mallopt(-3, 16 * 1024 * 1024)   # M_MMAP_THRESHOLD


def main(argv=None):
    _return_freed_memory()
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return _run_verify(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
