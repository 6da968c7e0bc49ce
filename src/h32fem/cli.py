"""Command-line entry point: `h32fem verify <experiment|all> [options]`.

`verify all` runs the registry as the groups of `experiments.plan_groups`:
where this process may run on two CPUs or more and can fork, two groups,
the first here and the second in a `multiprocessing` child, forked so
that it starts from this process's imports, which sends its tables back
through a one-way pipe. Tables are written in registry order once both
groups are done, and do not depend on the grouping; if either group
fails, none is written. With one CPU, where `os.fork` does not exist, or
under a wrapped `run_plan` (a tracer's), the registry runs as one group in
this process; `verify <name>` is a group of one, run the same way.

`main` sets the allocator policy of the process (`_return_freed_memory`),
and every process that runs a group trims the heap after each experiment
(`_trimmed`): the memory an experiment freed goes back to the OS before
the next one starts.
"""

import argparse
import ctypes
import multiprocessing
import os
import signal
import sys
import traceback

from .experiments import REGISTRY, ExperimentConfig, plan_groups, run_plan
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
        "experiment", nargs="?",
        help="registered experiment name or 'all'; see --list",
    )
    v.add_argument("--list", action="store_true", help="list experiments and exit")
    v.set_defaults(**vars(ExperimentConfig()))
    v.add_argument("--order", type=int, choices=(1, 2))
    v.add_argument("--levels", type=int)
    v.add_argument("--seed", type=int)
    v.add_argument("--kappa", type=float)
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
    cfg = ExperimentConfig(**{field: getattr(args, field) for field in vars(ExperimentConfig())})
    # refuse a bad invocation before anything runs or is written
    try:
        if args.experiment is None:
            raise ValueError("name an experiment or 'all', or give --list")
        cfg.validate()
        if args.experiment != "all" and args.experiment not in REGISTRY:
            raise ValueError(f"unknown experiment {args.experiment!r}; choose one of: "
                             + ", ".join(sorted(REGISTRY)))
    except ValueError as e:
        print(f"h32fem verify: error: {e}", file=sys.stderr)
        return 2
    names = list(REGISTRY) if args.experiment == "all" else [args.experiment]
    runs = _run_groups(plan_groups(names, cfg, _workers()), cfg)
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


def _workers():
    """The CPUs `verify all` may use: those this process may run on, or one
    where it cannot fork or cannot tell. One also where `run_plan` is
    wrapped in this process (it has `__wrapped__`, as a tracer's or
    profiler's wrapper does): a wrapper sees only the calls made in its own
    process, so the whole registry runs where it can see it."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity") or hasattr(run_plan, "__wrapped__"):
        return 1
    return len(os.sched_getaffinity(0))


def _run_groups(groups, cfg):
    """Run `groups[0]` in this process and `groups[1]`, if there is one, in a
    forked child; the (name, table) pairs of both in registry order, once
    both are done. A failed child raises RuntimeError here, and the child
    is reaped before this returns or raises."""
    if len(groups) == 1:
        return list(_trimmed(run_plan(groups[0], cfg)))
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_run_child, args=(groups[1], cfg, send))
    with receive:
        with send:    # the child holds its own copy of the write end
            child.start()
        try:
            tables = dict(_trimmed(run_plan(groups[0], cfg)))
            tables.update(_child_tables(receive, child, groups[1]))
        finally:
            child.kill()
            child.join()
    return [(name, tables[name]) for name in REGISTRY if name in tables]


def _run_child(group, cfg, send):
    """In the forked child: run `group` and send either ("tables", [(name,
    table)]) or ("raised", name, traceback text). Whatever is raised,
    interrupts included, is sent to the parent; the child ends when this
    returns, never in the caller's stack it was forked from."""
    done = []
    try:
        for name, table in _trimmed(run_plan(group, cfg)):
            done.append((name, table))
        result = ("tables", done)
    except BaseException:
        # `run_plan` yields a table once its experiment's step is done,
        # releases included, so the step that raised is the first not done
        result = ("raised", group[len(done)], traceback.format_exc())
    send.send(result)


def _child_tables(receive, child, group):
    """The [(name, table)] that `child`, running `group`, sent through
    `receive`; the child is reaped once they arrive or it has ended."""
    try:
        kind, *sent = receive.recv()
    except (EOFError, OSError):   # nothing sent, or cut off by the child's end
        kind = None
    child.join()
    if kind == "tables":
        return sent[0]
    if kind == "raised":
        name, text = sent
        raise RuntimeError(f"experiment {name!r} raised in its worker process:\n{text}")
    code = child.exitcode
    ended = f"was killed by {signal.Signals(-code).name}" if code < 0 else f"exited with code {code}"
    raise RuntimeError(f"the worker process running {', '.join(group)} {ended} "
                       "without sending its tables")


def _return_freed_memory():
    """Fix glibc's allocation thresholds, so freed memory goes back to the OS.

    Left alone, glibc raises the mmap threshold to the largest mapped chunk
    freed (up to 32 MiB) and the trim threshold to twice that, so arrays
    below it come from the heap and up to 64 MiB of freed heap stays
    resident. Setting either turns that off (128 KiB is the default trim
    threshold). The threshold trims only the top of the heap: free chunks
    below a live one stay resident until `_trim_heap`. A no-op where libc
    has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-1, 128 * 1024)         # M_TRIM_THRESHOLD
    mallopt(-3, 16 * 1024 * 1024)   # M_MMAP_THRESHOLD


def _trim_heap():
    """Give the heap's free pages back to the OS now, wherever they lie
    (glibc's malloc_trim(0)): freed factors and element arrays below a live
    chunk stay resident otherwise. A no-op where libc has no malloc_trim."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError, TypeError):
        pass


def _trimmed(steps):
    """The (name, table) steps of `run_plan`, the heap trimmed after each:
    a step's releases are done when its table comes."""
    for step in steps:
        _trim_heap()
        yield step


def main(argv=None):
    _return_freed_memory()
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return _run_verify(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
