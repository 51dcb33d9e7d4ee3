"""Experiment drivers — one per table family of the paper.

Benchmarks, tests and EXPERIMENTS.md all consume these drivers, so the
numbers in every artifact come from a single code path:

* :func:`run_range_table` — Tables 4 / 8 / 14 (SOC data ranges);
* :func:`run_table1` — Table 1 (partition-pruning efficiency);
* :func:`run_paw_comparison` — Tables 2, 5/6, 9/10, 11/12, 15/16,
  17/18 (fixed-B comparison: exhaustive [8] vs the new method);
* :func:`run_npaw` — Tables 3, 7, 13, 19 (P_NPAW across TAM counts);
* :func:`run_fig2_example` — the Fig. 2 worked example.

Each driver returns a list of per-row dicts plus renders via
:func:`rows_to_table`.
"""

from __future__ import annotations

import time as _time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.assign.core_assign import core_assign
from repro.engine.cache import WrapperTableCache
from repro.optimize.co_optimize import co_optimize
from repro.optimize.exhaustive import exhaustive_optimize
from repro.optimize.result import percent_delta
from repro.partition.count import count_partitions
from repro.partition.evaluate import partition_evaluate
from repro.report.tables import TextTable
from repro.soc.soc import Soc

#: The TAM widths every results table in the paper sweeps.
PAPER_WIDTHS: Tuple[int, ...] = (16, 24, 32, 40, 48, 56, 64)


def rows_to_table(
    rows: Sequence[Dict[str, object]],
    columns: Sequence[str],
    title: Optional[str] = None,
) -> str:
    """Render selected ``columns`` of ``rows`` as an ASCII table."""
    table = TextTable(list(columns), title=title)
    for row in rows:
        table.add_row([row.get(column, "") for column in columns])
    return table.render()


# ----------------------------------------------------------------------
# Tables 4 / 8 / 14 — SOC data ranges
# ----------------------------------------------------------------------
def run_range_table(soc: Soc) -> List[Dict[str, object]]:
    """Rows of the per-class data-range summary for ``soc``."""
    rows: List[Dict[str, object]] = []
    for label, summary in (
        ("Logic cores", soc.logic_range_summary()),
        ("Memory cores", soc.memory_range_summary()),
    ):
        if summary is None:
            continue
        cells = summary.as_row()
        rows.append({
            "circuit": label,
            "cores": cells["cores"],
            "patterns": cells["patterns"],
            "ios": cells["ios"],
            "chains": cells["chains"],
            "lengths": cells["lengths"],
        })
    return rows


# ----------------------------------------------------------------------
# Table 1 — partition-pruning efficiency
# ----------------------------------------------------------------------
def run_table1(
    soc: Soc,
    widths: Sequence[int] = (44, 48, 52, 56, 60, 64),
    tam_counts: Sequence[int] = (4, 5),
    prune: bool = True,
) -> List[Dict[str, object]]:
    """Pruning-efficiency rows: P(W,B), N_eval and E per (W, B).

    Matches the paper's protocol: each (W, B) cell is an independent
    ``Partition_evaluate`` run over that single B under the paper's
    best-known-time abort.  The dense kernel's lower-bound skip runs
    in front of the abort; N_eval and E are unchanged (the bound is
    admissible), and the per-count ``LBpruned`` columns show how
    many partitions never even started ``Core_assign``.
    """
    cache = WrapperTableCache(soc)
    table_list = cache.table_list(max(widths))

    rows = []
    for width in widths:
        row: Dict[str, object] = {"W": width}
        for count in tam_counts:
            result = partition_evaluate(
                table_list, width, count, prune=prune
            )
            stats = result.stats_for(count)
            row[f"P(W,{count})"] = count_partitions(width, count)
            row[f"Neval(B={count})"] = stats.num_completed
            row[f"E(B={count})"] = round(stats.efficiency, 4)
            row[f"LBpruned(B={count})"] = stats.num_lb_pruned
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Fixed-B comparison tables (2, 5/6, 9/10, 11/12, 15/16, 17/18)
# ----------------------------------------------------------------------
def run_paw_comparison(
    soc: Soc,
    num_tams: int,
    widths: Sequence[int] = PAPER_WIDTHS,
    exhaustive_time_per_partition: float = 5.0,
    exhaustive_total_time: float = 300.0,
) -> List[Dict[str, object]]:
    """Exhaustive-[8] vs new-method rows for a fixed TAM count.

    Per width: the exhaustive baseline (exact assignment per
    partition, budgeted) and the heuristic+polish pipeline, with the
    paper's ΔT% and CPU-ratio columns.  Both methods read the same
    cached wrapper tables, built once at the largest width, so table
    construction is paid once per core per width across the whole
    table — and excluded from both timing columns alike.
    """
    cache = WrapperTableCache(soc)
    cache.ensure(max(widths))
    rows = []
    for width in widths:
        tables = cache.tables(width)
        exhaustive = exhaustive_optimize(
            soc,
            width,
            num_tams,
            time_limit_per_partition=exhaustive_time_per_partition,
            total_time_limit=exhaustive_total_time,
            tables=tables,
        )
        start = _time.monotonic()
        cooptimized = co_optimize(soc, width, num_tams=num_tams,
                                  tables=tables)
        new_elapsed = _time.monotonic() - start
        rows.append({
            "W": width,
            "old_partition": "+".join(map(str, exhaustive.partition)),
            "T_old": exhaustive.testing_time,
            "t_old_s": round(exhaustive.elapsed_seconds, 3),
            "old_complete": exhaustive.complete and exhaustive.all_exact,
            "new_partition": "+".join(map(str, cooptimized.partition)),
            "T_new": cooptimized.testing_time,
            "t_new_s": round(new_elapsed, 3),
            "assignment": cooptimized.final.vector_notation(),
            "delta_pct": round(
                percent_delta(
                    cooptimized.testing_time, exhaustive.testing_time
                ),
                2,
            ),
            "cpu_ratio": round(
                new_elapsed / max(exhaustive.elapsed_seconds, 1e-9), 4
            ),
        })
    return rows


# ----------------------------------------------------------------------
# P_NPAW tables (3, 7, 13, 19)
# ----------------------------------------------------------------------
def run_npaw(
    soc: Soc,
    widths: Sequence[int] = PAPER_WIDTHS,
    max_tams: int = 10,
) -> List[Dict[str, object]]:
    """New-method rows across TAM counts 1..max_tams per width.

    Wrapper tables are built once at the largest width and shared
    across the per-width runs via a
    :class:`~repro.engine.cache.WrapperTableCache`.
    """
    cache = WrapperTableCache(soc)
    cache.ensure(max(widths))
    rows = []
    for width in widths:
        start = _time.monotonic()
        result = co_optimize(
            soc, width, num_tams=range(1, min(max_tams, width) + 1),
            tables=cache.tables(width),
        )
        elapsed = _time.monotonic() - start
        rows.append({
            "W": width,
            "B": result.num_tams,
            "partition": "+".join(map(str, result.partition)),
            "T_new": result.testing_time,
            "T_heuristic": result.search.testing_time,
            "t_new_s": round(elapsed, 3),
            "assignment": result.final.vector_notation(),
        })
    return rows


# ----------------------------------------------------------------------
# Fig. 2 — the Core_assign worked example
# ----------------------------------------------------------------------
FIG2_TIMES: Tuple[Tuple[int, ...], ...] = (
    (50, 100, 200),
    (75, 95, 200),
    (90, 100, 150),
    (60, 75, 80),
    (120, 120, 125),
)
FIG2_WIDTHS: Tuple[int, ...] = (32, 16, 8)


def run_fig2_example() -> Dict[str, object]:
    """Reproduce Figure 2: the 5-core / 3-TAM walkthrough."""
    outcome = core_assign(
        [list(row) for row in FIG2_TIMES], list(FIG2_WIDTHS)
    )
    assert outcome.result is not None
    return {
        "assignment": outcome.result.vector_notation(),
        "bus_times": outcome.result.bus_times,
        "testing_time": outcome.testing_time,
    }
