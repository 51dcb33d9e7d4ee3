"""Shared assertions and rendering for the Philips-SOC benchmarks.

The three Philips SOCs are deterministic stand-ins built from the
paper's published ranges, so these benches check the paper's
*relative* claims (heuristic vs exhaustive quality, CPU advantage,
monotonicity, saturation) rather than absolute cycle counts.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.engine import BatchRunner, grid_rows
from repro.engine.batch import BATCH_COLUMNS
from repro.report.experiments import (
    PAPER_WIDTHS,
    run_npaw,
    run_paw_comparison,
    rows_to_table,
)

COMPARISON_COLUMNS = [
    "W", "old_partition", "T_old", "t_old_s",
    "new_partition", "T_new", "t_new_s", "delta_pct", "cpu_ratio",
]
NPAW_COLUMNS = ["W", "B", "partition", "T_new", "t_new_s"]


def run_batch_sweep(
    socs: Sequence,
    widths: Sequence[int],
    max_workers: "int | None" = None,
) -> List[Dict[str, object]]:
    """Sweep ``socs`` x ``widths`` through the parallel batch engine.

    Returns one row per grid point in job order, ready for
    :func:`rows_to_table` with ``BATCH_COLUMNS``.
    """
    runner = BatchRunner(max_workers=max_workers)
    return grid_rows(runner.run_grid(socs, widths))


def run_comparison_bench(
    benchmark,
    report,
    soc,
    num_tams: int,
    result_name: str,
    title: str,
    widths: Sequence[int] = PAPER_WIDTHS,
    delta_tolerance_pct: float = 25.0,
    exhaustive_total_time: float = 180.0,
) -> List[Dict[str, object]]:
    """Run one fixed-B comparison table and assert the paper's shape."""
    rows = benchmark.pedantic(
        run_paw_comparison,
        args=(soc, num_tams),
        kwargs={
            "widths": widths,
            "exhaustive_total_time": exhaustive_total_time,
        },
        rounds=1,
        iterations=1,
    )
    report(result_name, rows_to_table(rows, COMPARISON_COLUMNS, title=title))

    for row in rows:
        if row["old_complete"]:
            # The heuristic can never beat a proven-exact sweep...
            assert row["delta_pct"] >= -1e-9, row
        # ...and the paper's envelope keeps it within ~20% above
        # (worst entry in the paper: +17.62%; allow a little slack
        # on the synthesized instances).
        assert row["delta_pct"] <= delta_tolerance_pct, row

    old_times = [row["T_old"] for row in rows]
    new_times = [row["T_new"] for row in rows]
    assert all(a >= 0.98 * b for a, b in zip(old_times, old_times[1:]))
    assert all(a >= 0.98 * b for a, b in zip(new_times, new_times[1:]))
    return rows


def run_npaw_bench(
    benchmark,
    report,
    soc,
    result_name: str,
    title: str,
    widths: Sequence[int] = PAPER_WIDTHS,
    max_tams: int = 10,
) -> List[Dict[str, object]]:
    """Run one P_NPAW table and assert the paper's shape."""
    rows = benchmark.pedantic(
        run_npaw,
        args=(soc,),
        kwargs={"widths": widths, "max_tams": max_tams},
        rounds=1,
        iterations=1,
    )
    report(
        result_name,
        rows_to_table(rows, NPAW_COLUMNS + ["assignment"], title=title),
    )

    times = [row["T_new"] for row in rows]
    assert all(a >= 0.98 * b for a, b in zip(times, times[1:]))
    for row in rows:
        assert sum(map(int, row["partition"].split("+"))) == row["W"]
        assert 1 <= row["B"] <= max_tams
    return rows
