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
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.specs import (
    DEFAULT_MAX_TAMS,
    OptimizeSpec,
    resolved_tam_counts,
)
from repro.assign.exact import ExactResult, exact_assign
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
    "PolishTask",
    "co_optimize",
    "run_polish_task",
]

#: One exact-polish solve, fully described and picklable: the
#: candidate's per-core times at its widths, the candidate itself
#: (widths + warm-start assignment), and the solve's node budget.  The
#: unit a ``polish_runner`` dispatches to pool workers.
PolishTask = Tuple[List[List[int]], AssignmentResult, int]

#: The polish fan-out seam: called with every candidate's task, must
#: return their :class:`~repro.assign.exact.ExactResult` s *in task
#: order* — the order the parent's first-strict-minimum reduction
#: assumes.  Tasks are independent (the serial loop never threads one
#: candidate's solution into the next solve), so any execution
#: placement reproduces the serial result bit for bit.
PolishRunner = Callable[[Sequence[PolishTask]], List[ExactResult]]


def run_polish_task(task: PolishTask) -> ExactResult:
    """Execute one polish task — the worker side of the seam."""
    times, candidate, node_limit = task
    return exact_assign(
        times, candidate.widths, incumbent=candidate, node_limit=node_limit
    )


def co_optimize(
    soc: Soc,
    total_width: Optional[int] = None,
    num_tams: Union[int, Iterable[int], None] = None,
    enumerator: str = "unique",
    polish: bool = True,
    polish_top_k: int = 1,
    polish_per_tam_count: bool = False,
    exact_node_limit: int = 2_000_000,
    tables: Optional[Dict[str, TimeTable]] = None,
    prune: bool = True,
    dense: "Optional[DenseTimeMatrix]" = None,
    spec: Optional[OptimizeSpec] = None,
    sweep: Optional[Callable[..., "PartitionSearchResult"]] = None,
    polish_runner: Optional[PolishRunner] = None,
) -> CoOptimizationResult:
    """Co-optimize the wrapper/TAM architecture of ``soc``.

    The canonical configuration is a :class:`repro.api.OptimizeSpec`
    passed as ``spec`` — one typed, hashable object shared with the
    batch engine, the exploration service and the CLI.  The loose
    keyword form below is kept as a compatibility shim: it simply
    builds the same spec internally, and new options are added to
    :class:`~repro.api.specs.OptimizeSpec` first.

    Parameters
    ----------
    soc:
        The SOC to optimize.
    spec:
        The typed job description.  Mutually exclusive with
        ``total_width`` (and the other spec-covered keywords, whose
        values are ignored when a spec is given).
    total_width:
        Total TAM width ``W`` available at the SOC pins.
    num_tams:
        A single TAM count (problem P_PAW), an iterable of counts, or
        ``None`` for the paper's P_NPAW default ``range(1, 11)``
        (capped at ``total_width``).
    enumerator:
        Partition enumerator: ``"unique"`` or ``"increment"``.
    polish:
        When False, skip the exact final step and return the heuristic
        assignment (useful to measure the polish's contribution).
    polish_top_k:
        How many of ``Partition_evaluate``'s best distinct partitions
        to polish exactly.  1 is the paper's method.  Larger values
        mitigate the anomaly the paper documents in its conclusion:
        the heuristically-best partition is not always the best after
        exact optimization, so polishing the runners-up and keeping
        the overall winner can only improve the result (at k times
        the polish cost and a slightly slower sweep).
    polish_per_tam_count:
        When True, the sweep keeps the best partition of *every* TAM
        count and the polish visits each of them.  This targets the
        anomaly's usual form — the heuristic picking the wrong number
        of TAMs — at the cost of weaker cross-B pruning during the
        sweep.  Composable with ``polish_top_k`` (top-k per B).
    exact_node_limit:
        Node budget for each exact solve.
    tables:
        Pre-built wrapper time tables (core name → table covering
        widths up to at least ``total_width``), e.g. from a
        :class:`repro.engine.WrapperTableCache`.  When ``None`` the
        tables are built here.  Either way the tables actually used
        are exposed on the result, so downstream consumers
        (certificates, utilization, sweeps) never rebuild them.
    prune:
        Partition-sweep pruning, forwarded to
        :func:`~repro.partition.evaluate.partition_evaluate`:
        ``True`` (default) is the paper's best-known-time abort, with
        the dense kernel's outcome-identical lower-bound skip in
        front of it; ``False`` disables pruning for ablations.
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
    polish_runner:
        Optional executor for step 2's per-candidate exact solves
        (:data:`PolishTask` in, :class:`~repro.assign.exact.
        ExactResult` out, task order preserved) — the seam the batch
        engine uses to fan a ``polish_top_k > 1`` polish across its
        pool.  Only consulted when there are two or more candidates;
        like ``sweep``, an execution hint with a bit-identical
        result.

    Returns
    -------
    :class:`~repro.optimize.result.CoOptimizationResult`
    """
    if spec is None:
        if total_width is None:
            raise ConfigurationError(
                "co_optimize needs either total_width or spec="
            )
        # The legacy keyword surface is a shim over the canonical
        # spec: building it here gives every caller the same
        # validation and the same canonical content.
        spec = OptimizeSpec(
            total_width=total_width,
            num_tams=num_tams,
            enumerator=enumerator,
            polish=polish,
            polish_top_k=polish_top_k,
            polish_per_tam_count=polish_per_tam_count,
            exact_node_limit=exact_node_limit,
            prune=prune,
        )
    elif total_width is not None:
        raise ConfigurationError(
            "pass either total_width or spec=, not both"
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
        tasks: List[PolishTask] = [
            (
                [
                    [table.time(width) for width in candidate.widths]
                    for table in table_list
                ],
                candidate,
                spec.exact_node_limit,
            )
            for candidate in candidates
        ]
        with _obs_span("polish", candidates=len(candidates)):
            if polish_runner is not None and len(tasks) > 1:
                exacts = polish_runner(tasks)
            else:
                exacts = [run_polish_task(task) for task in tasks]
        # First strict minimum in candidate order — identical whether
        # the tasks ran serially here or through a polish runner.
        best_polished = None
        best_optimal = False
        for exact in exacts:
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
