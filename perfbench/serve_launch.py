"""Run ``repro serve`` with the perfbench layer wrappers installed.

Usage: ``python perfbench/serve_launch.py TRACE_OUT serve [serve args...]``

Installs the wrappers of :func:`harness.install`, hands the remaining
arguments to the normal CLI entry point, and when the daemon has shut
down writes its spans and counters to ``TRACE_OUT``.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from harness import Tracer, dump_solver_counters, install  # noqa: E402


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    from repro.cli import main as cli_main

    tracer = Tracer()
    install(tracer)
    code = cli_main(argv)
    dump_solver_counters(tracer)
    tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
