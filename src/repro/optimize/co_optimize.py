"""The paper's two-step wrapper/TAM co-optimization method.

Step 1 — ``Partition_evaluate``: enumerate width partitions over the
requested TAM counts, scoring each with the O(N²) ``Core_assign``
heuristic under the shared incumbent abort.  This lands "within the
neighborhood of the optimal solution" in seconds.

Step 2 — final optimization: run the exact P_AW solver *once*, on the
winning partition, warm-started with the heuristic assignment.  The
partition is frozen; only the core assignment can change.  This is
the paper's use of the ILP model of [8], implemented here by the
dedicated branch-and-bound (use ``repro.assign.ilp_model`` for the
literal ILP).

The paper documents an anomaly this structure inherits: because step
1 is heuristic, the partition it selects is not always the partition
with the lowest *post-polish* time (Section 4.2's W=16 example).  The
anomaly is reproduced — and tested — rather than papered over.
"""

from __future__ import annotations

import time as _time
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Union,
)

from repro.api.specs import (
    DEFAULT_MAX_TAMS,
    OptimizeSpec,
    resolved_tam_counts,
)
from repro.assign.exact import ExactResult, exact_assign
from repro.assign.lower_bounds import partition_lower_bound
from repro.exceptions import ConfigurationError
from repro.obs import span as _obs_span
from repro.optimize.result import CoOptimizationResult
from repro.partition.evaluate import (
    PartitionSearchResult,
    partition_evaluate,
)
from repro.soc.soc import Soc
from repro.tam.assignment import AssignmentResult
from repro.wrapper.pareto import TimeTable, build_time_tables

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.kernel import DenseTimeMatrix

__all__ = [
    "DEFAULT_MAX_TAMS",
    "co_optimize",
    "run_polish_task",
]


def run_polish_task(
    times: List[List[int]], candidate: AssignmentResult, node_limit: int
) -> ExactResult:
    """One exact-polish solve of ``candidate``'s partition.

    ``times`` holds each core's testing time at each of the
    candidate's widths; the candidate's heuristic assignment
    warm-starts the solve, and ``node_limit`` is its node budget.
    """
    return exact_assign(
        times, candidate.widths, incumbent=candidate, node_limit=node_limit
    )


def co_optimize(
    soc: Soc,
    total_width: Optional[int] = None,
    num_tams: Union[int, Iterable[int], None] = None,
    *,
    spec: Optional[OptimizeSpec] = None,
    tables: Optional[Dict[str, TimeTable]] = None,
    dense: "Optional[DenseTimeMatrix]" = None,
    sweep: Optional[Callable[..., "PartitionSearchResult"]] = None,
    **options: Any,
) -> CoOptimizationResult:
    """Co-optimize the wrapper/TAM architecture of ``soc``.

    The job is one :class:`repro.api.OptimizeSpec`, the type shared
    with the batch engine, the exploration service and the CLI: pass
    it as ``spec``, or pass ``total_width``, ``num_tams`` and any of
    its option fields as keywords (``polish=False``,
    ``polish_top_k=3``, ...), which
    :meth:`~repro.api.specs.OptimizeSpec.from_options` checks and
    builds into the same spec.  The spec's fields document every
    option; an unknown or mistyped one raises
    :class:`~repro.exceptions.ConfigurationError` naming it.

    Parameters
    ----------
    soc:
        The SOC to optimize.
    total_width, num_tams, **options:
        The spec's TAM budget, TAM count(s) and options.
    spec:
        The typed job description, instead of the three above.  Its
        ``mode`` must be ``"exact"``: this function is the exact
        tier, and :func:`repro.analysis.sweep.evaluate_point` runs
        either.
    tables:
        Pre-built wrapper time tables (core name → table covering
        widths up to at least ``total_width``), e.g. from a
        :class:`repro.engine.WrapperTableCache`.  When ``None`` the
        tables are built here.  Either way the tables actually used
        are exposed on the result, so downstream consumers
        (certificates, utilization, sweeps) never rebuild them.
    dense:
        Optional pre-built :class:`~repro.engine.kernel.
        DenseTimeMatrix` for the kernel sweep (e.g. the one the batch
        engine built from the same ``tables``).
    sweep:
        Optional replacement for :func:`~repro.partition.evaluate.
        partition_evaluate` — called with the identical signature and
        required to return an outcome-identical
        :class:`~repro.partition.evaluate.PartitionSearchResult`.
        This is the seam the batch engine's intra-job sharding plugs
        into (:mod:`repro.partition.shard`): step 1 fans out across
        the pool, while step 2 (the exact polish) and the result
        assembly stay right here.  An execution hint, not part of the
        job's canonical content.

    Returns
    -------
    :class:`~repro.optimize.result.CoOptimizationResult`
    """
    if spec is None:
        if total_width is None:
            raise ConfigurationError(
                "co_optimize needs either total_width or spec="
            )
        spec = OptimizeSpec.from_options(total_width, num_tams, options)
    elif total_width is not None or num_tams is not None or options:
        raise ConfigurationError(
            "pass either spec= or total_width, num_tams and options, "
            "not both"
        )
    if spec.mode != "exact":
        raise ConfigurationError(
            f'co_optimize runs mode="exact", got mode={spec.mode!r}; '
            f"evaluate_point runs either tier"
        )
    total_width = spec.total_width
    counts = resolved_tam_counts(total_width, spec.num_tams)

    start = _time.monotonic()
    if tables is None:
        with _obs_span("build_tables", soc=soc.name, W=total_width):
            tables = build_time_tables(soc, total_width)
    table_list = [tables[core.name] for core in soc.cores]

    search_fn = sweep if sweep is not None else partition_evaluate
    with _obs_span(
        "partition_sweep", soc=soc.name, W=total_width
    ) as sweep_span:
        search = search_fn(
            table_list,
            total_width,
            counts,
            enumerator=spec.enumerator,
            prune=spec.prune,
            keep_top=spec.polish_top_k if spec.polish else 1,
            stratify_by_tam_count=(
                spec.polish and spec.polish_per_tam_count
            ),
            dense=dense,
        )
        sweep_span.annotate(best_time=search.best.testing_time)

    final = search.best
    final_optimal = False
    if spec.polish:
        candidates = (search.best,) + search.runners_up
        if not spec.polish_per_tam_count:
            candidates = candidates[:spec.polish_top_k]
        best_polished: Optional[AssignmentResult] = None
        best_optimal = False
        with _obs_span("polish", candidates=len(candidates)):
            for candidate in candidates:
                times = [
                    [table.time(width) for width in candidate.widths]
                    for table in table_list
                ]
                # Only a strictly better result replaces the best.
                if best_polished is not None and partition_lower_bound(
                    times, candidate.widths
                ) >= best_polished.testing_time:
                    continue
                exact = run_polish_task(times, candidate, spec.exact_node_limit)
                if (best_polished is None
                        or exact.result.testing_time
                        < best_polished.testing_time):
                    best_polished = exact.result
                    best_optimal = exact.optimal
        assert best_polished is not None
        final = best_polished
        final_optimal = best_optimal

    return CoOptimizationResult(
        soc_name=soc.name,
        total_width=total_width,
        search=search,
        final=final,
        final_optimal=final_optimal,
        elapsed_seconds=_time.monotonic() - start,
        tables=tables,
    )
