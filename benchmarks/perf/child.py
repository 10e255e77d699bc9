"""Subprocess entry points of the perf benchmark.

    python child.py reps                    imports the program, then forks one
                                            batch rep per spec path read from
                                            stdin; one exit status line per rep
    python child.py serve TRACE_DIR ARGS..  a traced daemon: installs the span
                                            wrappers, then runs ``repro ARGS..``

``run.py`` starts both; they are not meant to be run by hand.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))


def main(argv: list[str]) -> int:
    if argv == ["reps"]:
        import workloads

        return workloads.serve_reps(sys.stdin, sys.stdout)
    if argv[:1] == ["serve"] and len(argv) >= 2:
        import trace

        from repro import cli

        # wrappers go in before the daemon forks its worker pool, so the
        # workers inherit them
        trace.install(trace.Recorder(argv[1]))
        return cli.main(argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
