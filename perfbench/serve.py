"""Start ``repro-tam serve`` with the benchmark's recorders installed.

Usage::

    python3 perfbench/serve.py RECORDS_DIR {ledger,trace} serve [ARGS...]

Installs the solve ledger (and, with ``trace``, the span tracer) and
then hands the remaining arguments to ``repro.cli.main`` -- the
function the ``repro-tam`` console script runs.  The server's pool
workers are forked from this process, so they inherit the wrappers.
Records are written to RECORDS_DIR when the server exits.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv: list) -> int:
    records, mode, *serve_args = argv
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.instrument import Recorder, install_ledger, install_tracer

    recorder = Recorder(records)
    install_ledger(recorder)
    if mode == "trace":
        install_tracer(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(serve_args)
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
