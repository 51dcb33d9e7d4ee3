"""The exhaustive baseline of [8]: exact P_AW for every partition.

For each TAM count and each unique width partition, solve the core
assignment exactly and keep the global best.  This is the method the
paper improves on; every results table quotes it in the "Results in
[8]" columns.  Its cost is partitions x exact-solve — which is why
the paper reports it failing to terminate for B >= 3 or 4 on the
Philips SOCs.  A total time budget reproduces that behaviour
gracefully: on expiry the best-so-far is returned with
``complete=False``.
"""

from __future__ import annotations

import time as _time
from typing import Dict, Iterable, Optional, Union

from repro.assign.exact import exact_assign
from repro.exceptions import ConfigurationError
from repro.optimize.result import ExhaustiveResult
from repro.partition.count import count_partitions
from repro.partition.enumerate import unique_partitions
from repro.soc.soc import Soc
from repro.tam.assignment import AssignmentResult
from repro.wrapper.pareto import TimeTable, build_time_tables


def exhaustive_optimize(
    soc: Soc,
    total_width: int,
    num_tams: Union[int, Iterable[int]],
    total_time_limit: float = 600.0,
    tables: Optional[Dict[str, TimeTable]] = None,
) -> ExhaustiveResult:
    """Run the [8]-style exhaustive enumeration.

    Parameters
    ----------
    soc / total_width:
        The instance, as for :func:`~repro.optimize.co_optimize.co_optimize`.
    num_tams:
        TAM count(s) to cover.
    total_time_limit:
        Wall-clock budget for the whole enumeration (the "two days"
        guard), checked between exact solves.  On expiry the sweep
        stops with ``complete=False``.  Each solve runs to the exact
        solver's default node budget; ``all_exact`` in the result
        reports whether every solve proved optimality.
    tables:
        Pre-built wrapper time tables covering widths up to
        ``total_width`` (e.g. from a
        :class:`repro.engine.WrapperTableCache`); built here when
        ``None``.
    """
    if total_width < 1:
        raise ConfigurationError(
            f"total_width must be >= 1, got {total_width}"
        )
    tam_counts = (
        [num_tams] if isinstance(num_tams, int) else list(num_tams)
    )
    if not tam_counts:
        raise ConfigurationError("num_tams iterable is empty")

    start = _time.monotonic()
    deadline = start + total_time_limit

    if tables is None:
        tables = build_time_tables(soc, total_width)
    table_list = [tables[core.name] for core in soc.cores]

    partitions_total = sum(
        count_partitions(total_width, count)
        for count in tam_counts
        if count <= total_width
    )

    best: Optional[AssignmentResult] = None
    evaluated = 0
    all_exact = True
    complete = True

    for count in tam_counts:
        if count > total_width:
            continue
        # Re-check the wall clock between TAM counts too: a count
        # whose enumeration finished exactly on budget must not admit
        # the next count's sweep.
        if _time.monotonic() > deadline:
            complete = False
            break
        for widths in unique_partitions(total_width, count):
            if _time.monotonic() > deadline:
                complete = False
                break
            times = [
                [table.time(width) for width in widths]
                for table in table_list
            ]
            exact = exact_assign(times, widths)
            evaluated += 1
            all_exact = all_exact and exact.optimal
            if best is None or exact.result.testing_time < best.testing_time:
                best = exact.result
        if not complete:
            break

    if best is None:
        raise ConfigurationError(
            "exhaustive enumeration evaluated no partitions "
            f"(W={total_width}, B={tam_counts})"
        )
    return ExhaustiveResult(
        soc_name=soc.name,
        total_width=total_width,
        best=best,
        partitions_evaluated=evaluated,
        partitions_total=partitions_total,
        all_exact=all_exact,
        complete=complete,
        elapsed_seconds=_time.monotonic() - start,
    )
