"""Exact ``P_AW`` solver perf smoke on p93791.

Solves the three partitions that perfbench's polish-bound inputs
polish (W=16, 24 and 48), three W=32 B=4 candidates of the search
tier's polish, and two one-class partitions, (8,8,8,8) and
(8,8,8,8,8), that the 2M-node cap stopped unproved until the subset-sum
rule (rule 6 of ``repro.assign.exact``); the node budget alone decides
where a search stops.  The polish solves are timed only:
``tests/assign/test_exact_differential.py`` already pins their
assignments and node ceilings.  Each candidate must end proved at its
pinned optimum, within its node ceiling (the last column of
``CANDIDATES``): for the W=32 candidates, the nodes the branch-and-
bound explored before its rectangle, bus-class and twin-core rules;
for the one-class solves, the nodes rule 6 needs.  Node counts hold
on any runner; seconds do not, so only the nodes are asserted.

The timing table also lands in ``results/exact_solver.txt``; the
machine-readable record (seconds and nodes per solve) is appended to
``BENCH_exact_solver.json`` at the repository root in the shared
history schema of ``benchmarks/common.py``.
"""

import time
from pathlib import Path

from common import append_history, bench_record

from repro.assign.exact import exact_assign
from repro.engine.cache import WrapperTableCache
from repro.report.experiments import rows_to_table

BENCH_JSON = Path(__file__).resolve().parent.parent / (
    "BENCH_exact_solver.json"
)

#: (what the solve is, bus widths in pipeline order).
POLISH = (
    ("polish W=16", (4, 4, 4, 4)),
    ("polish W=24", (6, 6, 6, 6)),
    ("polish W=48", (4, 6, 7, 7, 7, 8, 9)),
)

#: (what the solve is, bus widths in pipeline order, proved optimum,
#: node ceiling; see the module doc).
CANDIDATES = (
    ("W=32 candidate", (11, 8, 7, 6), 2_458_186, 537_460),
    ("W=32 candidate", (10, 9, 7, 6), 2_459_525, 167_598),
    ("W=32 candidate", (11, 7, 7, 7), 2_475_989, 1_513_449),
    ("W=32 one-class", (8, 8, 8, 8), 2_553_265, 3_679),
    ("W=40 polish", (8, 8, 8, 8, 8), 2_042_635, 41_040),
)


def solve_row(tables, label, widths):
    """Time one solve; the row and the solver's result."""
    times = [[table.time(width) for width in widths] for table in tables]
    start = time.perf_counter()
    exact = exact_assign(times, widths)
    seconds = time.perf_counter() - start
    return {
        "solve": label,
        "partition": "+".join(map(str, widths)),
        "T": exact.result.testing_time,
        "nodes": exact.nodes_explored,
        "seconds": round(seconds, 3),
    }, exact


def run_solves(tables):
    """One row per solve; asserts each candidate's proof, optimum and
    node ceiling."""
    rows = [solve_row(tables, label, widths)[0] for label, widths in POLISH]
    for label, widths, optimum, ceiling in CANDIDATES:
        row, exact = solve_row(tables, label, widths)
        partition = row["partition"]
        assert exact.optimal, f"{partition}: not proved"
        assert exact.result.testing_time == optimum, partition
        assert exact.nodes_explored <= ceiling, (
            f"{partition}: {exact.nodes_explored} nodes, above the "
            f"{ceiling} ceiling"
        )
        rows.append(dict(row, node_ceiling=ceiling))
    return rows


def test_exact_solver_nodes_and_seconds(benchmark, report, p93791):
    tables = WrapperTableCache(p93791).table_list(48)
    rows = benchmark.pedantic(
        run_solves, args=(tables,), rounds=1, iterations=1
    )
    report(
        "exact_solver",
        rows_to_table(
            rows,
            ["solve", "partition", "T", "nodes", "node_ceiling",
             "seconds"],
            title="Exact P_AW solves on p93791 (proved, node budget "
                  "only).",
        ),
    )
    append_history(BENCH_JSON, bench_record(
        "bench_exact_solver",
        config={"soc": "p93791"},
        samples=rows,
    ))
    print(f"[appended to {BENCH_JSON}]")
