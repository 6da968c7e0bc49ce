"""One workload process: import h32fem, stamp the time, run its CLI.

Usage: python3 child.py STAMP [--spans FILE] [-- CLI ARGS...]

STAMP receives a JSON object with the `time.monotonic()` readings taken
once h32fem and its scipy dependencies are imported (`ready`) and once
the CLI has returned (`done`), and the path h32fem was imported from.
CLOCK_MONOTONIC is system-wide on Linux, so the parent can subtract its
own launch reading. Without CLI arguments the process only imports and stamps, which
samples the set-up time. With --spans the CLI runs under the tracer and
the spans are saved to FILE.
"""

import contextlib
import json
import os
import sys
import time


def main(argv):
    stamp, rest = argv[0], argv[1:]
    spans = None
    if rest[:1] == ["--spans"]:
        spans, rest = rest[1], rest[2:]
    cli_args = rest[1:] if rest[:1] == ["--"] else rest

    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    import h32fem.cli

    ready = time.monotonic()
    tracer = None
    if spans is not None:
        from tracer import Tracer

        tracer = Tracer(run_id=os.getpid())
    code = 0
    try:
        if cli_args:
            with tracer or contextlib.nullcontext():
                code = h32fem.cli.main(cli_args)
    finally:
        done = time.monotonic()
        with open(stamp, "w") as f:
            json.dump({"ready": ready, "done": done, "h32fem": h32fem.cli.__file__}, f)
        if tracer is not None:
            tracer.save(spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
