"""Command-line entry point: `h32fem verify <experiment|all> [options]`.

`verify all` runs the registry as the groups of `experiments.plan_groups`:
where this process may run on two CPUs or more and can fork, two groups,
the first here and the second in a forked child, which sends its tables
back pickled through a pipe. Tables are written in registry order once
both groups are done, and do not depend on the grouping; if either group
fails, none is written. With one CPU, where `os.fork` does not exist, or
under a wrapped `run_plan` (a tracer's), the registry runs as one group in
this process; `verify <name>` is a group of one, run the same way.
"""

import argparse
import ctypes
import os
import pickle
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
        "experiment",
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
    pid, pipe = _fork_group(groups[1], cfg) if len(groups) > 1 else (None, None)
    try:
        tables = dict(run_plan(groups[0], cfg))
        if pid is not None:
            data = pipe.read()
            status = os.waitpid(pid, 0)[1]
            pid = None
            tables.update(_child_tables(data, status, groups[1]))
    finally:
        if pipe is not None:
            pipe.close()
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return [(name, tables[name]) for name in REGISTRY if name in tables]


def _fork_group(group, cfg):
    """Fork a child that runs `group` (`_run_child`): its pid and the read
    end of its pipe, as a file."""
    sys.stdout.flush()
    sys.stderr.flush()
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        os.close(read)
        _run_child(group, cfg, write)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def _run_child(group, cfg, fd):
    """In a forked child: run `group` and write to `fd`, pickled, either
    ("tables", [(name, table)]) or ("raised", name, traceback text); then
    leave the process without returning: whatever is raised, interrupts
    included, is reported to the parent and ends the child here, never in
    the caller's stack it was forked from."""
    code = 1
    try:
        done = []
        try:
            for name, table in run_plan(group, cfg):
                done.append((name, table))
            result = ("tables", done)
        except BaseException:
            # `run_plan` yields a table once its experiment's step is done,
            # releases included, so the step that raised is the first not done
            result = ("raised", group[len(done)], traceback.format_exc())
        with os.fdopen(fd, "wb") as f:
            pickle.dump(result, f)
        code = 0
    finally:
        os._exit(code)


def _child_tables(data, status, group):
    """The [(name, table)] a child sent as `data` and ended with `status`."""
    try:
        kind, *sent = pickle.loads(data)
    except (EOFError, pickle.UnpicklingError):   # nothing sent, or cut off by the child's end
        kind = None
    if kind == "tables":
        return sent[0]
    if kind == "raised":
        name, text = sent
        raise RuntimeError(f"experiment {name!r} raised in its worker process:\n{text}")
    if os.WIFSIGNALED(status):
        ended = f"was killed by {signal.Signals(os.WTERMSIG(status)).name}"
    else:
        ended = f"exited with code {os.waitstatus_to_exitcode(status)}"
    raise RuntimeError(f"the worker process running {', '.join(group)} {ended} "
                       "without sending its tables")


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
