#!/usr/bin/env python3
"""Regenerate ``reference.json``, the answers to the fixed inputs.

Usage (from the root of a checkout; takes a few minutes)::

    python3 perfbench/make_reference.py

For every fixed input of ``polish-bound`` it records, from an
inline ``evaluate_point`` with freshly built tables: the testing time
T, the partition, the outcome of the final exact solve, and a digest
of the whole serialized point and its assignment.  ``best_known`` is
the lower of T and the answer of a stronger configuration (every TAM
count's best two partitions polished exactly); ``quality_ratio`` is
measured against it.  Rerun only when the program's answers are meant
to change, and say why in the change.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import checks, workloads
    from perfbench.instrument import Recorder, install_ledger
    from repro.analysis.sweep import evaluate_point
    from repro.wrapper.pareto import build_time_tables

    recorder = Recorder(HERE)
    install_ledger(recorder)
    inputs = {}
    for key, soc, job in workloads.batch_inputs("polish-bound"):
        tables = build_time_tables(soc, job.total_width)
        marker = len(recorder.solves)
        start = time.perf_counter()
        point = evaluate_point(soc, job.total_width, num_tams=job.num_tams,
                               tables=tables, **job.options_dict())
        seconds = time.perf_counter() - start
        outcomes = [s["outcome"] for s in recorder.solves[marker:]]
        strong = evaluate_point(soc, job.total_width,
                                num_tams=job.num_tams, tables=tables,
                                polish_per_tam_count=True,
                                polish_top_k=2)
        inputs[key] = {
            "T": point.testing_time,
            "partition": list(point.partition),
            "proof": "proved" if all(o == "proved" for o in outcomes)
            else next(o for o in outcomes if o != "proved"),
            "digest": checks.point_digest(point),
            "best_known": min(point.testing_time, strong.testing_time),
            "gap": point.certificate.gap,
            "inline_s": round(seconds, 3),
        }
        print(key, inputs[key], flush=True)
    document = {
        "about": "Answers of the fixed inputs; regenerate with "
                 "perfbench/make_reference.py.",
        "cpu_count": os.cpu_count(),
        "inputs": inputs,
    }
    with open(checks.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
