"""Design-space sweeps with structured results.

Thin, reusable drivers over :func:`repro.optimize.co_optimize` for the
two questions every SOC test architect asks first:

* how does testing time respond to the TAM budget W?
* at a fixed budget, how many TAMs should I build?

Each sweep point carries the optimality certificate and wire-cycle
utilization from the sibling modules, so the answers come with their
*why*.

Both sweeps execute through :class:`repro.engine.BatchRunner`: by
default inline (sequential, deterministic), or in parallel across a
process pool when a runner with workers is passed in.  Either way the
wrapper time tables are built once per core via
:class:`repro.engine.WrapperTableCache` and shared by the optimizer,
the certificate, and the utilization accounting — a width sweep over
``1..W`` performs exactly one ``design_wrapper`` call per
(core, width) pair instead of the O(W²) a rebuild-per-point strategy
would pay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.certificates import (
    Certificate,
    certify,
    global_lower_bound,
)
from repro.analysis.utilization import (
    ArchitectureUtilization,
    analyze_utilization,
)
from repro.api.specs import OptimizeSpec, frozen_tam_counts
from repro.exceptions import ConfigurationError
from repro.obs import REGISTRY
from repro.obs import span as _obs_span
from repro.optimize.co_optimize import PolishRunner, co_optimize
from repro.partition.evaluate import PartitionSearchResult
from repro.soc.soc import Soc
from repro.wrapper.pareto import TimeTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.batch import BatchRunner
    from repro.engine.kernel import DenseTimeMatrix
    from repro.search.driver import IslandsRunner, SearchResult


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated design point.

    ``mode`` records which tier produced it: ``"exact"`` (the paper's
    sweep + polish pipeline) or ``"search"`` (the anytime
    metaheuristic tier), in which case ``seed`` is the result-defining
    RNG seed and ``search`` the full :class:`repro.search.
    SearchResult` — islands, trajectory, and the gap-vs-bound
    certificate the service streams as ``incumbent`` events.
    """

    total_width: int
    num_tams: int
    partition: Tuple[int, ...]
    testing_time: int
    certificate: Certificate
    utilization: ArchitectureUtilization
    mode: str = "exact"
    seed: Optional[int] = None
    search: "Optional[SearchResult]" = None

    @property
    def wire_efficiency(self) -> float:
        """Shorthand for the wire-cycle utilization fraction."""
        return self.utilization.utilization


def evaluate_point(
    soc: Soc,
    total_width: int,
    num_tams: Union[int, Iterable[int], None] = None,
    tables: Optional[Dict[str, TimeTable]] = None,
    dense: "Optional[DenseTimeMatrix]" = None,
    *,
    sweep: Optional[Callable[..., PartitionSearchResult]] = None,
    polish_runner: Optional[PolishRunner] = None,
    search_islands: "Optional[IslandsRunner]" = None,
    **options: Any,
) -> SweepPoint:
    """Optimize one (W, B) design point and annotate it.

    ``options`` are option fields of :class:`~repro.api.specs.
    OptimizeSpec`, which documents each; they are checked once, by
    :meth:`~repro.api.specs.OptimizeSpec.from_options`, so an unknown
    or mistyped option raises :class:`~repro.exceptions.
    ConfigurationError` naming it in either mode.  The spec's
    ``mode`` picks the tier: ``"exact"`` runs
    :func:`~repro.optimize.co_optimize.co_optimize`, ``"search"`` the
    anytime metaheuristic tier (:func:`repro.search.search_optimize`),
    for which the exact-tier options (``polish``, ``prune``, ...) are
    inert.

    The certificate and utilization are computed from the *same*
    tables the optimizer used, so the point costs zero extra
    ``design_wrapper`` calls beyond the optimization itself.  Pass
    ``tables`` (e.g. from a :class:`repro.engine.WrapperTableCache`)
    to also share them across points, and ``dense`` (e.g. the one the
    batch engine built from the same tables) to hand the sweep a
    pre-built matrix.

    ``sweep`` and ``polish_runner`` (exact tier, see ``co_optimize``)
    and ``search_islands`` (search tier, ``search_optimize``'s
    ``islands_runner``) are the batch engine's pool seams: execution
    strategy, with results bit-identical to running without them.
    """
    spec = OptimizeSpec.from_options(total_width, num_tams, options)
    if spec.mode == "search":
        return _evaluate_search_point(
            soc, spec, tables, dense, search_islands
        )
    with _obs_span(
        "evaluate_point", soc=soc.name, W=total_width
    ) as point_span:
        with _obs_span("co_optimize"):
            result = co_optimize(
                soc, spec=spec, tables=tables, dense=dense,
                sweep=sweep, polish_runner=polish_runner,
            )
        tables = result.tables
        with _obs_span("certify"):
            certificate = certify(soc, result.final, tables)
        with _obs_span("utilization"):
            utilization = analyze_utilization(soc, result.final, tables)
        point_span.annotate(
            B=result.num_tams, T=result.testing_time
        )
    # Post-hoc sweep totals from the search stats — observation only,
    # recorded outside the scored pipeline (RPR001 discipline).
    REGISTRY.counter("sweep.points").inc()
    for stats in result.search.stats:
        REGISTRY.counter("sweep.partitions_enumerated").inc(
            stats.num_enumerated
        )
        REGISTRY.counter("sweep.partitions_completed").inc(
            stats.num_completed
        )
        REGISTRY.counter("sweep.partitions_lb_pruned").inc(
            stats.num_lb_pruned
        )
    return SweepPoint(
        total_width=total_width,
        num_tams=result.num_tams,
        partition=result.partition,
        testing_time=result.testing_time,
        certificate=certificate,
        utilization=utilization,
    )


def _evaluate_search_point(
    soc: Soc,
    spec: OptimizeSpec,
    tables: Optional[Dict[str, TimeTable]],
    dense: "Optional[DenseTimeMatrix]",
    search_islands: "Optional[IslandsRunner]",
) -> SweepPoint:
    """One ``mode="search"`` design point through the anytime tier.

    The certificate folds the search tier's range bound (see
    :func:`repro.search.range_lower_bound`) into the standard
    :class:`~repro.analysis.certificates.Certificate` shape —
    ``architecture_bound`` carries the explored-range bound, so the
    reported gap is exactly the search certificate's gap.
    """
    # Imported lazily: repro.search builds on repro.engine, which
    # builds on this module.
    from repro.search import search_optimize

    total_width = spec.total_width
    with _obs_span(
        "evaluate_point", soc=soc.name, W=total_width, mode="search"
    ) as point_span:
        if tables is None:
            from repro.wrapper.pareto import build_time_tables
            tables = build_time_tables(soc, total_width)
        floor = global_lower_bound(soc, tables, total_width)
        with _obs_span(
            "search_optimize", strategy=spec.search_strategy,
            seed=spec.seed,
        ):
            result = search_optimize(
                tables,
                total_width,
                num_tams=spec.num_tams,
                strategy=spec.search_strategy,
                seed=spec.seed,
                eval_budget=spec.eval_budget,
                target_gap=spec.target_gap,
                matrix=dense,
                floor_bound=floor,
                islands_runner=search_islands,
                core_order=[core.name for core in soc.cores],
            )
        with _obs_span("certify"):
            certificate = Certificate(
                testing_time=result.testing_time,
                architecture_bound=result.certificate.bound,
                global_bound=floor,
            )
        with _obs_span("utilization"):
            utilization = analyze_utilization(soc, result.best, tables)
        point_span.annotate(B=result.num_tams, T=result.testing_time)
    # Post-hoc totals, recorded outside the scored pipeline (RPR001
    # discipline) — the search-health numbers ``info()`` and the
    # warehouse surface.
    REGISTRY.counter("sweep.points").inc()
    REGISTRY.counter("search.points").inc()
    REGISTRY.counter("search.evals").inc(result.certificate.evals)
    REGISTRY.counter("search.improvements").inc(
        result.certificate.improvements
    )
    REGISTRY.gauge("search.gap").set(result.certificate.gap)
    return SweepPoint(
        total_width=total_width,
        num_tams=result.num_tams,
        partition=result.partition,
        testing_time=result.testing_time,
        certificate=certificate,
        utilization=utilization,
        mode="search",
        seed=spec.seed,
        search=result,
    )


def _run(
    soc: Soc,
    points: Sequence[Tuple[int, Union[int, Iterable[int], None]]],
    runner: "Optional[BatchRunner]",
) -> List[SweepPoint]:
    """Run (W, B) points through a batch runner (inline by default)."""
    # Imported here: repro.engine.batch builds on this module.
    from repro.engine.batch import BatchJob, BatchRunner

    if runner is None:
        runner = BatchRunner(max_workers=1)
    return runner.run([
        BatchJob(soc=soc, total_width=width, num_tams=num_tams)
        for width, num_tams in points
    ])


def pareto_widths(
    soc: Soc,
    max_width: int,
    tables: Optional[Dict[str, TimeTable]] = None,
) -> List[int]:
    """Union of every core's Pareto breakpoint widths up to ``max_width``.

    The widths at which at least one core's T*(w) staircase actually
    drops — the only budgets where a width sweep can observe a
    per-core time change.  Pass ``tables`` (covering ``max_width``)
    to reuse already-built staircases; otherwise they are built here.
    """
    if tables is None:
        from repro.wrapper.pareto import build_time_tables
        tables = build_time_tables(soc, max_width)
    union = {
        width
        for core in soc.cores
        for width, _ in tables[core.name].pareto_points()
        if width <= max_width
    }
    return sorted(union)


def sweep_widths(
    soc: Soc,
    widths: Sequence[int],
    num_tams: Union[int, Iterable[int], None] = None,
    runner: "Optional[BatchRunner]" = None,
    pareto_only: bool = False,
) -> List[SweepPoint]:
    """Testing time (and why) across TAM budgets.

    ``runner`` selects the execution engine: ``None`` runs inline
    (sequential) with table reuse across widths; a
    :class:`repro.engine.BatchRunner` with workers fans the widths
    out over a process pool.

    ``pareto_only=True`` replaces ``widths`` by the union of each
    core's :meth:`~repro.wrapper.pareto.TimeTable.pareto_points`
    breakpoints within ``[min(widths), max(widths)]``, always keeping
    the top budget itself.  Per-core times only change at breakpoint
    widths, so this is where the testing-time curve moves fastest;
    skipped budgets can still differ slightly at the SOC level (a
    wider budget fits *combinations* of breakpoints no smaller budget
    holds), which is the trade: a much smaller grid for a curve
    sampled where it bends.  Each swept point's result is identical
    to the dense sweep's at that width.
    """
    num_tams = frozen_tam_counts(num_tams)
    widths = list(widths)
    if pareto_only and widths:
        # Imported here: repro.engine.batch builds on this module.
        from repro.engine.batch import BatchRunner

        if runner is None:
            runner = BatchRunner(max_workers=1)
        lo, hi = min(widths), max(widths)
        # The runner's own cache builds (or reuses) the staircases the
        # breakpoints come from; the jobs below then share them.
        tables = runner.cache_for(soc).tables(hi)
        union = pareto_widths(soc, hi, tables=tables)
        widths = sorted(
            {width for width in union if lo <= width <= hi} | {hi}
        )
    return _run(soc, [(width, num_tams) for width in widths], runner)


def sweep_tam_counts(
    soc: Soc,
    total_width: int,
    tam_counts: Sequence[int],
    runner: "Optional[BatchRunner]" = None,
) -> List[SweepPoint]:
    """Testing time (and why) across TAM counts at a fixed budget.

    Every requested count must be feasible: a count larger than
    ``total_width`` cannot give each bus a wire, and raises
    :class:`~repro.exceptions.ConfigurationError` (matching the
    partition enumerator) instead of silently dropping the point.
    """
    for count in tam_counts:
        if count > total_width:
            raise ConfigurationError(
                f"cannot split width {total_width} into {count} "
                f"buses of width >= 1"
            )
    return _run(soc, [(total_width, count) for count in tam_counts], runner)
