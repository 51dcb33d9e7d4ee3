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
from repro.api.specs import OPTION_DEFAULTS, SEARCH_ONLY_OPTIONS
from repro.exceptions import ConfigurationError
from repro.obs import REGISTRY
from repro.obs import span as _obs_span
from repro.optimize.co_optimize import co_optimize
from repro.soc.soc import Soc
from repro.wrapper.pareto import TimeTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.batch import BatchRunner
    from repro.engine.kernel import DenseTimeMatrix
    from repro.search.driver import SearchResult


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
    **co_optimize_options: Any,
) -> SweepPoint:
    """Optimize one (W, B) design point and annotate it.

    The certificate and utilization are computed from the *same*
    tables the optimizer used (``result.tables``), so the point costs
    zero extra ``design_wrapper`` calls beyond the optimization
    itself.  Pass ``tables`` (e.g. from a
    :class:`repro.engine.WrapperTableCache`) to also share them
    across points, and ``dense`` (e.g. the one the batch engine built
    from the same tables) to hand the partition sweep a pre-built
    matrix.  Remaining keyword arguments go to
    :func:`~repro.optimize.co_optimize.co_optimize` verbatim
    (``polish``, ``exact_time_limit``, ...).

    ``mode="search"`` dispatches to the anytime metaheuristic tier
    instead (:func:`repro.search.search_optimize`); the exact-tier
    knobs (``polish``, ``prune``, ...) are inert there, and the
    search-only knobs (``seed``, ``eval_budget``, ...) are rejected
    here under ``mode="exact"`` — mirroring the spec-layer
    validation for callers that bypass :class:`~repro.api.specs.
    OptimizeSpec`.
    """
    mode = co_optimize_options.pop("mode", "exact")
    if mode == "search":
        return _evaluate_search_point(
            soc, total_width, num_tams, tables, dense,
            co_optimize_options,
        )
    if mode != "exact":
        raise ConfigurationError(
            f'mode must be "exact" or "search", got {mode!r}'
        )
    for key in SEARCH_ONLY_OPTIONS:
        if key in co_optimize_options:
            value = co_optimize_options.pop(key)
            if value != OPTION_DEFAULTS[key]:
                raise ConfigurationError(
                    f'option {key}={value!r} only applies to '
                    f'mode="search"'
                )
    with _obs_span(
        "evaluate_point", soc=soc.name, W=total_width
    ) as point_span:
        with _obs_span("co_optimize"):
            result = co_optimize(
                soc, total_width, num_tams=num_tams, tables=tables,
                dense=dense, **co_optimize_options,
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


#: Exact-tier knobs a ``mode="search"`` point silently ignores (they
#: configure the sweep/polish pipeline the search tier replaces);
#: ``sweep``/``polish_runner`` are the batch engine's injected pool
#: seams.
_SEARCH_IGNORED_OPTIONS = (
    "enumerator", "polish", "polish_top_k", "polish_per_tam_count",
    "exact_node_limit", "exact_time_limit", "prune", "sweep",
    "polish_runner",
)


def _evaluate_search_point(
    soc: Soc,
    total_width: int,
    num_tams: Union[int, Iterable[int], None],
    tables: Optional[Dict[str, TimeTable]],
    dense: "Optional[DenseTimeMatrix]",
    options: Dict[str, Any],
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

    strategy = options.pop("search_strategy", "sa")
    seed = options.pop("seed", 0)
    time_budget = options.pop("time_budget", 5.0)
    eval_budget = options.pop("eval_budget", 20000)
    target_gap = options.pop("target_gap", 0.0)
    islands_runner = options.pop("search_islands", None)
    for key in _SEARCH_IGNORED_OPTIONS:
        options.pop(key, None)
    if options:
        raise ConfigurationError(
            f"unknown option(s) for mode=\"search\": "
            f"{', '.join(sorted(options))}"
        )
    with _obs_span(
        "evaluate_point", soc=soc.name, W=total_width, mode="search"
    ) as point_span:
        if tables is None:
            from repro.wrapper.pareto import build_time_tables
            tables = build_time_tables(soc, total_width)
        floor = global_lower_bound(soc, tables, total_width)
        with _obs_span(
            "search_optimize", strategy=strategy, seed=seed
        ):
            result = search_optimize(
                tables,
                total_width,
                num_tams=num_tams,
                strategy=strategy,
                seed=seed,
                time_budget=time_budget,
                eval_budget=eval_budget,
                target_gap=target_gap,
                matrix=dense,
                floor_bound=floor,
                islands_runner=islands_runner,
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
        seed=seed,
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
    num_tams = _freeze_counts(num_tams)
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


def _freeze_counts(
    num_tams: Union[int, Iterable[int], None]
) -> Union[int, Tuple[int, ...], None]:
    """Make a (possibly one-shot) counts iterable reusable per point."""
    if num_tams is None or isinstance(num_tams, int):
        return num_tams
    return tuple(num_tams)
