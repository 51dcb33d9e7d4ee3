"""Parallel batch execution of (SOC, W, B) optimization jobs.

A design-space sweep is embarrassingly parallel across its points,
but a naive pool would re-run ``Design_wrapper`` per point.  The
:class:`BatchRunner` keeps the sharing and adds the parallelism:

* **inline mode** (``max_workers=1``, the default for the sequential
  sweeps in :mod:`repro.analysis.sweep`): jobs run in the calling
  process against runner-owned :class:`~repro.engine.cache.
  WrapperTableCache` s, one per SOC, so a width sweep pays one
  wrapper design per (core, width) pair in total;
* **pool mode** (``max_workers > 1`` or ``None`` = one per CPU):
  jobs fan out over a ``concurrent.futures`` process pool.  The
  parent builds each SOC's wrapper tables once and ships them,
  pickled, in every task's :class:`~repro.engine.shm.
  DenseDescriptor`; a worker unpickles each SOC's tables and builds
  their dense matrix once per process, and runs no wrapper design.
  A job that leaves workers idle fans its inner work out instead: a
  partition sweep as shards, a search as islands.  Neither kind of
  task shares state while it runs.

Three orthogonal options extend the engine for service use:

* ``cache_dir`` backs the runner's table caches with a persistent
  :class:`repro.service.store.TableStore`, so table builds are
  skipped entirely once the store is warm — across processes *and*
  across runs;
* ``on_error="record"`` turns a failing grid point into a structured
  :class:`FailedPoint` in the result list instead of aborting the
  whole grid;
* ``persistent=True`` keeps the process pool alive across
  :meth:`BatchRunner.run` calls (close with :meth:`BatchRunner.
  close` or a ``with`` block) — the resident-worker mode the
  exploration service (:mod:`repro.service.server`) is built on.

Results come back as :class:`~repro.analysis.sweep.SweepPoint`
records in job order, and are identical to a sequential run — the
optimizer is deterministic and the tables a cache hands out match a
fresh build exactly.  For the same reason a job or a fanned task that
raises would raise again, so nothing re-runs one: the one recovery
is the pool supervisor's rebuild after a worker dies (see
:attr:`BatchRunner.POOL_RESTART_RETRIES`).
"""

from __future__ import annotations

import logging
import os
import threading
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Executor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as _FuturesTimeout
from time import sleep as _sleep
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.analysis.sweep import SweepPoint, evaluate_point
from repro.api.specs import frozen_tam_counts, resolved_tam_counts
from repro.engine.cache import WrapperTableCache
from repro.engine.faults import FaultPlan
from repro.engine.kernel import DenseTimeMatrix, build_dense_matrix
from repro.engine.shm import DenseDescriptor, SegmentRegistry, attach
from repro.exceptions import ConfigurationError, DeadlineError
from repro.obs import (
    REGISTRY,
    TRACER,
    MetricsRegistry,
    MetricsSnapshot,
    SpanRecord,
    TaskTelemetry,
    span,
    task_begin,
    task_end,
)
from repro.partition.evaluate import PartitionSearchResult
from repro.partition.shard import (
    ShardOutcome,
    ShardPlan,
    ShardSpan,
    count_sizes,
    kept_times,
    sharded_partition_evaluate,
    sweep_shard,
)
from repro.retry import backoff_schedule
from repro.soc.fingerprint import soc_fingerprint
from repro.soc.soc import Soc
from repro.wrapper.pareto import TimeTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.api.specs import GridSpec, OptimizeSpec
    from repro.service.store import TableStore

logger = logging.getLogger(__name__)

_T = TypeVar("_T")

#: Valid ``on_error`` policies: abort the grid on the first failing
#: point, or record it as a :class:`FailedPoint` and keep going.
ON_ERROR_POLICIES: Tuple[str, ...] = ("raise", "record")


@dataclass(frozen=True)
class BatchJob:
    """One optimization job: a SOC, a TAM budget, and TAM count(s).

    ``num_tams`` follows :func:`repro.optimize.co_optimize.co_optimize`:
    a single count (P_PAW), a tuple of counts, or ``None`` for the
    paper's P_NPAW default.  Iterables are frozen to tuples so jobs
    are immutable and picklable for the process pool.

    ``options`` holds the job's option fields of
    :class:`~repro.api.specs.OptimizeSpec` (e.g. ``polish``,
    ``polish_top_k``, ``mode``), sparse, as
    :meth:`~repro.api.specs.OptimizeSpec.engine_options` gives them;
    the spec documents each.  A mapping is frozen to sorted items.
    They are checked when the job runs, so a job with a bad option
    fails as its own grid point.
    """

    soc: Soc
    total_width: int
    num_tams: Union[int, Tuple[int, ...], None] = None
    options: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.total_width < 1:
            raise ConfigurationError(
                f"total_width must be >= 1, got {self.total_width}"
            )
        object.__setattr__(
            self, "num_tams", frozen_tam_counts(self.num_tams)
        )
        if isinstance(self.options, Mapping):
            object.__setattr__(
                self, "options", tuple(sorted(self.options.items()))
            )
        else:
            object.__setattr__(self, "options", tuple(self.options))

    def options_dict(self) -> Dict[str, Any]:
        """The frozen ``options`` pairs as keyword arguments."""
        return dict(self.options)

    @classmethod
    def from_spec(cls, soc: Soc, spec: "OptimizeSpec") -> "BatchJob":
        """The engine job a typed :class:`repro.api.OptimizeSpec` means.

        Options are carried *sparse* (non-defaults only, via
        :meth:`~repro.api.specs.OptimizeSpec.engine_options`),
        exactly as for a hand-built job.
        """
        return cls(
            soc=soc,
            total_width=spec.total_width,
            num_tams=spec.num_tams,
            options=spec.engine_options(),
        )

    def spec(self) -> "OptimizeSpec":
        """This job's configuration as a typed ``OptimizeSpec``.

        Raises :class:`~repro.exceptions.ConfigurationError` when the
        job carries an option the spec does not know or a value of
        the wrong type: every supported option exists in one place,
        the fields of :class:`~repro.api.specs.OptimizeSpec`.
        """
        from repro.api.specs import OptimizeSpec

        return OptimizeSpec.from_options(
            self.total_width,
            num_tams=self.num_tams,
            options=self.options_dict(),
        )

    def describe(self) -> str:
        """Short ``soc W=.. B=..`` label for logs and progress lines."""
        if self.num_tams is None:
            counts = "B=auto"
        elif isinstance(self.num_tams, int):
            counts = f"B={self.num_tams}"
        else:
            counts = f"B in {list(self.num_tams)}"
        return f"{self.soc.name} W={self.total_width} {counts}"


@dataclass(frozen=True)
class FailedPoint:
    """A grid point that raised instead of producing a result.

    Returned in place of a :class:`~repro.analysis.sweep.SweepPoint`
    when the runner's ``on_error`` policy is ``"record"``: the grid
    completes, and failures stay attributable — which job, which
    exception.  ``attempts`` is 1 for an error the job raised itself
    (nothing re-runs one); a point the pool supervisor gave up on
    counts the pools that broke under it.  Picklable, so pool workers
    can ship it back like any result.
    """

    job: BatchJob
    error_type: str
    error_message: str
    attempts: int

    @property
    def total_width(self) -> int:
        """The failed job's TAM budget, mirroring ``SweepPoint``."""
        return self.job.total_width

    def describe(self) -> str:
        """One-line ``job: error`` summary for logs and reports."""
        retried = (
            f" after {self.attempts} attempts" if self.attempts > 1 else ""
        )
        return (
            f"{self.job.describe()}: {self.error_type}: "
            f"{self.error_message}{retried}"
        )


#: What a batch returns per job: a result or a recorded failure.
BatchResult = Union[SweepPoint, FailedPoint]


def _valid_spec(job: BatchJob) -> "Optional[OptimizeSpec]":
    """``job``'s spec, or ``None`` when its options do not validate."""
    try:
        return job.spec()
    except ConfigurationError:
        return None


def normalize_shard_policy(
    value: Union[int, str, None]
) -> Union[int, str, None]:
    """Validate a shard policy (runner default, CLI flag, or hint).

    Accepts ``None`` (defer to the runner), ``"auto"``, or a shard
    count >= 0; anything else — including the untrusted ``runner``
    mapping of a submitted :class:`~repro.api.specs.GridSpec` —
    raises :class:`~repro.exceptions.ConfigurationError` instead of
    silently degrading the grid or crashing a worker.
    """
    if value is None or value == "auto":
        return value
    if isinstance(value, int) and not isinstance(value, bool) \
            and value >= 0:
        return value
    raise ConfigurationError(
        f'shard must be "auto", a count >= 0, or None; got {value!r}'
    )


def normalize_point_timeout(
    value: Union[int, float, None]
) -> Optional[float]:
    """Validate a per-point deadline (runner default, CLI, or hint).

    Accepts ``None`` (no deadline) or a number of seconds in
    ``(0, threading.TIMEOUT_MAX]`` — the longest wait
    ``Future.result`` can take; a larger one, or ``inf`` (which JSON
    hints can carry), would abort the whole grid with
    ``OverflowError`` mid-run.  Anything else — including the
    untrusted ``runner`` mapping of a submitted
    :class:`~repro.api.specs.GridSpec` — raises
    :class:`~repro.exceptions.ConfigurationError`.  Like ``shard``,
    the deadline is pure execution strategy: excluded from every
    canonical job key.
    """
    if value is None:
        return None
    if (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0 < value <= threading.TIMEOUT_MAX
    ):
        return float(value)
    raise ConfigurationError(
        "point_timeout must be a positive number of seconds up to "
        f"{threading.TIMEOUT_MAX:.0f}, or None; got {value!r}"
    )


def normalize_max_concurrent(
    value: Union[int, None]
) -> Optional[int]:
    """Validate a concurrent-point ceiling (quota or runner hint).

    Accepts ``None`` (uncapped) or an int >= 1 — the most grid
    points of one job kept in flight on the pool at once, the
    fairness knob a multi-tenant server derives from the client's
    ``max_concurrent_points`` quota.  Pure execution strategy:
    excluded from every canonical job key, results bit-identical at
    any setting.
    """
    if value is None:
        return None
    if isinstance(value, int) and not isinstance(value, bool) \
            and value >= 1:
        return value
    raise ConfigurationError(
        f"max_concurrent must be an int >= 1 or None; got {value!r}"
    )


def split_results(
    results: Iterable[BatchResult],
) -> Tuple[List[SweepPoint], List[FailedPoint]]:
    """Partition mixed batch results into (points, failures)."""
    points: List[SweepPoint] = []
    failures: List[FailedPoint] = []
    for result in results:
        if isinstance(result, FailedPoint):
            failures.append(result)
        else:
            points.append(result)
    return points, failures


def align_point_telemetry(
    results: Sequence[BatchResult],
    telemetry: Sequence[Optional[TaskTelemetry]],
) -> List[Optional[TaskTelemetry]]:
    """Per-job telemetry re-aligned with a serialized grid's points.

    :func:`repro.service.server.grid_payload` keeps successful points
    (in job order) separate from failures; the warehouse stores
    telemetry per *point*, so failed jobs' slots are dropped here.
    """
    return [
        entry for result, entry in zip(results, telemetry)
        if not isinstance(result, FailedPoint)
    ]


#: Per-worker-process ``on_error`` policy, set by :func:`_init_worker`
#: at pool start.
_WORKER_POLICY = "raise"

#: The fault-injection plan active in this worker process, parsed
#: from the plan text the parent threaded through the initializer.
#: ``None`` (the default, and the only production value) makes every
#: fault hook a no-op.
_WORKER_FAULTS: Optional[FaultPlan] = None

#: True only in processes initialized by :func:`_init_worker` — the
#: guard that keeps crash faults (``os._exit``) from ever firing in
#: the parent/inline process.
_IN_POOL_WORKER = False


def _make_store(cache_dir: Union[str, Path, None]) -> "Optional[TableStore]":
    """A :class:`TableStore` on ``cache_dir``, or ``None``."""
    if cache_dir is None:
        return None
    # Imported lazily: repro.service builds on this module.
    from repro.service.store import TableStore

    return TableStore(cache_dir)


def _init_worker(
    on_error: str,
    trace: bool = False,
    faults: Optional[str] = None,
) -> None:
    """Pool initializer: install the runner's policy in this worker.

    ``trace`` mirrors the parent tracer's state at pool start, so one
    ``TRACER.enable()`` in the parent traces the whole fleet — each
    worker's spans ride home in its :class:`TaskTelemetry`.
    ``faults`` is the parent's ``REPRO_FAULTS`` plan text at pool
    start (normally ``None``), re-parsed here so every worker shares
    the same deterministic chaos plan.
    """
    global _WORKER_POLICY, _WORKER_FAULTS, _IN_POOL_WORKER
    _WORKER_POLICY = on_error
    _WORKER_FAULTS = FaultPlan.parse(faults) if faults else None
    _IN_POOL_WORKER = True
    if trace:
        TRACER.enable()


def _cache_for(
    caches: Dict[str, WrapperTableCache],
    soc: Soc,
    store: "Optional[TableStore]" = None,
) -> WrapperTableCache:
    """The cache for ``soc`` in ``caches``, created or replaced as needed."""
    cache = caches.get(soc.name)
    if cache is None or cache.soc != soc:
        cache = WrapperTableCache(soc, store=store)
        caches[soc.name] = cache
    return cache


def _by_core_name(
    soc: Soc, tables: Sequence[TimeTable]
) -> Dict[str, TimeTable]:
    """``tables``, in core order, keyed by ``soc``'s own core names.

    Shipped and held tables are keyed by SOC fingerprint, which
    ignores core names, so one SOC's tables also serve a structurally
    identical SOC whose cores are named otherwise.  The fingerprint
    is order-sensitive, so the positions match.
    """
    return {core.name: table for core, table in zip(soc.cores, tables)}


def _run_job(
    caches: Dict[str, WrapperTableCache],
    job: BatchJob,
    store: "Optional[TableStore]" = None,
    descriptor: Optional[DenseDescriptor] = None,
    point_index: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
) -> SweepPoint:
    """Evaluate one job, over its transported tables if given.

    With a descriptor (every pool job) the worker builds *no* wrapper
    tables: the job runs on the parent's tables and the dense matrix
    built from them (:func:`~repro.engine.shm.attach`).  Without one
    (inline mode) the job runs on ``caches``.
    """
    if faults is not None and point_index is not None:
        delay = faults.slow_delay(point_index)
        if delay:
            _sleep(delay)  # injected stall; delay comes from the plan
    # Options pass through the spec, which names an unknown key, so
    # none can bind to one of evaluate_point's own parameters.
    options = job.spec().engine_options()
    dense: Optional[DenseTimeMatrix] = None
    if descriptor is None:
        cache = _cache_for(caches, job.soc, store=store)
        tables = cache.tables(job.total_width)
    else:
        table_list, dense = attach(descriptor)
        tables = _by_core_name(job.soc, table_list)
    return evaluate_point(
        job.soc,
        job.total_width,
        num_tams=job.num_tams,
        tables=tables,
        dense=dense,
        **options,
    )


def _with_policy(
    job: BatchJob,
    on_error: str,
    run: Callable[[], _T],
) -> Union[_T, FailedPoint]:
    """Run one job once under the runner's failure policy.

    The pipeline is deterministic, so a job that raised would raise
    again: its error raises, or under ``on_error="record"`` becomes a
    :class:`FailedPoint`.  A ``BrokenProcessPool`` is pool-level, not
    the job's: it passes straight up to the pool supervisor.
    """
    try:
        return run()
    except BrokenProcessPool:
        raise
    except Exception as error:  # noqa: BLE001 - policy boundary
        if on_error != "record":
            raise
        logger.error(
            "job %s failed: %s: %s",
            job.describe(), type(error).__name__, error,
        )
        return FailedPoint(
            job=job,
            error_type=type(error).__name__,
            error_message=str(error),
            attempts=1,
        )


def _run_job_safe(
    caches: Dict[str, WrapperTableCache],
    job: BatchJob,
    on_error: str,
    store: "Optional[TableStore]" = None,
    descriptor: Optional[DenseDescriptor] = None,
    point_index: Optional[int] = None,
    faults: Optional[FaultPlan] = None,
) -> BatchResult:
    """Evaluate one job under the runner's failure policy."""
    return _with_policy(
        job, on_error,
        lambda: _run_job(
            caches, job, store=store, descriptor=descriptor,
            point_index=point_index, faults=faults,
        ),
    )


def _pool_worker(
    item: Tuple[BatchJob, DenseDescriptor, int]
) -> Tuple[BatchResult, TaskTelemetry]:
    """Pool entry point: evaluate one (job, descriptor, index) item.

    Ships the job's :class:`TaskTelemetry` (its spans plus this
    worker's metrics delta) back with the result, so the parent's
    registry covers the whole fleet.  The grid-point index keys the
    fault-injection hooks.
    """
    job, descriptor, point_index = item
    faults = _WORKER_FAULTS
    if (
        faults is not None
        and _IN_POOL_WORKER
        and faults.take_crash(point_index)
    ):
        # Injected worker death: surfaces in the parent as a
        # BrokenProcessPool, exercising the pool-rebuild recovery.
        os._exit(1)
    baseline = task_begin()
    result = _run_job_safe(
        {}, job, _WORKER_POLICY,
        descriptor=descriptor, point_index=point_index, faults=faults,
    )
    return result, task_end(baseline)


def _task_prologue(
    index: int, descriptor: DenseDescriptor
) -> Tuple[MetricsSnapshot, DenseTimeMatrix]:
    """The shared start of a shard or island task.

    Fires the task's crash and slow fault hooks (keyed by its
    ``index``), opens its telemetry window and attaches the job's
    dense matrix.  Returns (telemetry baseline, matrix).
    """
    faults = _WORKER_FAULTS
    if faults is not None and _IN_POOL_WORKER \
            and faults.take_crash(index):
        os._exit(1)  # injected task-worker death
    baseline = task_begin()
    if faults is not None:
        delay = faults.slow_delay(index)
        if delay:
            _sleep(delay)  # injected stall; delay comes from the plan
    _, matrix = attach(descriptor)
    return baseline, matrix


def _shard_worker(
    item: Tuple[
        DenseDescriptor, Tuple[int, ...], int,
        Tuple[ShardSpan, ...], Soc, int, int,
    ]
) -> Tuple[ShardOutcome, TaskTelemetry]:
    """Pool entry point: score one shard of a sharded partition sweep.

    Attaches the job's dense matrix, scores the shard's rank ranges
    under the seed its payload carries (the kept times of the shards
    before it that had finished when it was submitted), and ships the
    recorded completions back for the parent-side deterministic
    merge.
    """
    (descriptor, earlier, shard_index, spans, soc,
     total_width, keep_top) = item
    baseline, matrix = _task_prologue(shard_index, descriptor)
    with span(
        "shard_sweep", soc=soc.name, shard=shard_index
    ) as shard_span:
        outcome = sweep_shard(
            matrix, spans, shard_index, total_width,
            keep_top=keep_top, earlier=earlier,
        )
        shard_span.annotate(completions=len(outcome.completions))
    REGISTRY.counter("shard.shards_run").inc()
    return outcome, task_end(baseline)


def _search_worker(
    item: Tuple[DenseDescriptor, Any, Soc]
) -> Tuple[Any, TaskTelemetry]:
    """Pool entry point: run one island of a ``mode="search"`` point.

    Attaches the job's dense matrix, runs the island to budget
    exhaustion, and ships its :class:`~repro.search.IslandResult`
    back for the parent-side deterministic merge.  Islands share
    nothing while they run, so the result is bit-identical to inline
    execution.
    """
    (descriptor, plan, soc) = item
    # Imported lazily: repro.search builds on repro.engine.kernel,
    # whose package import lands back in this module.
    from repro.search.driver import run_island

    baseline, matrix = _task_prologue(plan.island_index, descriptor)
    with span(
        "search_island", soc=soc.name, island=plan.island_index,
        strategy=plan.strategy,
    ) as island_span:
        result = run_island(matrix, plan)
        island_span.annotate(evals=result.evals)
    REGISTRY.counter("search.islands_run").inc()
    return result, task_end(baseline)


def _merge_task_telemetry(
    parent: TaskTelemetry, tasks: Sequence[TaskTelemetry]
) -> TaskTelemetry:
    """One job's telemetry from its parent-side and task-side parts.

    A fanned job's spans and counters come from two places: the
    parent (merge, polish, certificate) and each fanned task.  The
    merged record is what the warehouse stores per point; the caller
    is responsible for absorbing each part into the runner's registry
    exactly once.
    """
    if not tasks:
        return parent
    registry = MetricsRegistry()
    registry.absorb(parent.metrics)
    merged: List[SpanRecord] = list(parent.spans)
    for telemetry in tasks:
        registry.absorb(telemetry.metrics)
        merged.extend(telemetry.spans)
    return TaskTelemetry(
        spans=tuple(merged), metrics=registry.snapshot()
    )


class BatchRunner:
    """Run batches of :class:`BatchJob` s with shared-table reuse.

    Parameters
    ----------
    max_workers:
        ``1`` runs jobs inline in the calling process (sequential,
        no pool, runner-owned caches reused across ``run`` calls);
        ``None`` uses one worker per CPU; any other value sizes the
        process pool explicitly.  An ephemeral pool never exceeds
        the number of jobs; a persistent one is sized once.
    on_error:
        ``"raise"`` (default) aborts the batch on the first failing
        job; ``"record"`` returns a :class:`FailedPoint` for it and
        completes the rest of the grid.
    cache_dir:
        When set, the runner's table caches — which build every
        SOC's tables, inline and for the pool — are backed by a
        persistent :class:`repro.service.store.TableStore` on this
        directory.
    persistent:
        Keep the process pool alive across :meth:`run` calls instead
        of starting one per call.  Callers own the shutdown:
        :meth:`close`, or use the runner as a context manager.
    shard:
        Intra-job sharding policy for the partition sweep
        (:mod:`repro.partition.shard`): ``"auto"`` (default) splits a
        job's enumeration across the pool when jobs are scarcer than
        workers and the partition space is big enough to pay for the
        fan-out; an ``int`` forces that many shards per eligible job;
        ``None``/``0`` disables.  Outcomes are bit-identical to the
        unsharded run either way — sharding is pure execution
        strategy, excluded from every canonical job key.  Only jobs
        on the production defaults (canonical ``unique`` enumeration,
        pruned sweep, no per-count stratification) shard; others fall
        back to whole-job dispatch.
    point_timeout:
        Per-point wall-clock deadline in seconds (pool mode only;
        inline jobs cannot be interrupted).  A point whose result
        does not arrive within the deadline counts into
        ``engine.points_timed_out`` and becomes a
        :class:`FailedPoint` under ``on_error="record"`` or raises
        :class:`~repro.exceptions.DeadlineError` under ``"raise"``.
        Like ``shard``, overridable per call and per submitted
        :class:`~repro.api.specs.GridSpec` runner hint, and excluded
        from every canonical job key.
    """

    #: How many times a grid survives its process pool breaking (a
    #: worker OOM-killed or segfaulting): the pool is rebuilt,
    #: already-yielded results are kept, and only the unfinished
    #: points re-dispatch, after a deterministic
    #: :func:`repro.retry.backoff_schedule` delay.  The engine's only
    #: recovery: a dead worker is the one failure a re-run can cure.
    POOL_RESTART_RETRIES = 2

    def __init__(
        self,
        max_workers: Optional[int] = 1,
        on_error: str = "raise",
        cache_dir: Union[str, Path, None] = None,
        persistent: bool = False,
        shard: Union[int, str, None] = "auto",
        point_timeout: Union[int, float, None] = None,
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(
                f"max_workers must be >= 1 or None, got {max_workers}"
            )
        if on_error not in ON_ERROR_POLICIES:
            raise ConfigurationError(
                f"on_error must be one of {ON_ERROR_POLICIES}, "
                f"got {on_error!r}"
            )
        normalize_shard_policy(shard)
        self.point_timeout = normalize_point_timeout(point_timeout)
        self.max_workers = max_workers
        self.on_error = on_error
        self.cache_dir = (
            str(cache_dir) if cache_dir is not None else None
        )
        self.persistent = persistent
        self.shard = shard
        #: This runner's typed instrument namespace: the engine's own
        #: counters (``engine.pools_started``, ``engine.jobs_sharded``,
        #: ``shard.shards_planned``) plus everything absorbed from job
        #: and worker telemetry (cache hit/miss counts, sweep prune
        #: totals, shard/build timers).
        self.metrics = MetricsRegistry()
        #: The *previous* ``run_iter`` consumption's own metrics — the
        #: registry delta between that run's start and end, so a
        #: persistent runner reports per-run numbers, not lifetime
        #: totals.  ``None`` before the first run.
        self.last_run_metrics: Optional[MetricsSnapshot] = None
        #: Per-job telemetry of the previous run, in job order
        #: (``None`` per job when that job shipped none).
        self.last_run_telemetry: List[Optional[TaskTelemetry]] = []
        #: Run-level spans of the previous run — parent- and
        #: pool-side table/matrix builds not attributable to one job.
        self.last_run_spans: List[SpanRecord] = []
        self._store = _make_store(self.cache_dir)
        self._caches: Dict[str, WrapperTableCache] = {}
        self._executor: Optional[ProcessPoolExecutor] = None
        self._published = SegmentRegistry()
        #: The published tables by SOC fingerprint, in core order —
        #: what a fanned job is finished on; lifetime matches the
        #: published descriptors.
        self._tables: Dict[str, List[TimeTable]] = {}
        #: Parent-side dense matrices by fingerprint, built from
        #: ``_tables`` when a fanned job first needs one
        #: (:meth:`_matrix`).
        self._matrices: Dict[str, DenseTimeMatrix] = {}

    @property
    def pools_started(self) -> int:
        """Pools started over this runner's lifetime — observable
        evidence that ``persistent=True`` reuses one pool."""
        return self.metrics.counter("engine.pools_started").value

    @property
    def jobs_sharded(self) -> int:
        """Jobs that executed via the intra-job sharded sweep."""
        return self.metrics.counter("engine.jobs_sharded").value

    @property
    def pool_restarts(self) -> int:
        """Process pools that broke mid-grid over this runner's
        lifetime, each one a worker death.  Every break counts: those
        the supervisor rebuilt the pool after, and the last one, after
        which it gave up."""
        return self.metrics.counter("engine.pool_restarts").value

    @property
    def points_timed_out(self) -> int:
        """Grid points abandoned at their wall-clock deadline."""
        return self.metrics.counter("engine.points_timed_out").value

    def cache_for(self, soc: Soc) -> WrapperTableCache:
        """This runner's (inline-mode) table cache for ``soc``."""
        return _cache_for(self._caches, soc, store=self._store)

    def _new_pool(self, workers: int) -> ProcessPoolExecutor:
        """Start a pool carrying this runner's policy to its workers."""
        self.metrics.counter("engine.pools_started").inc()
        logger.debug("starting process pool with %d workers", workers)
        # Parse (and thereby validate) any active chaos plan here in
        # the parent — a malformed REPRO_FAULTS fails fast instead of
        # breaking every worker's initializer.
        plan = FaultPlan.from_env()
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(
                self.on_error, TRACER.enabled,
                plan.text if plan is not None else None,
            ),
        )

    def _resident_pool(self, workers: int) -> ProcessPoolExecutor:
        """The persistent pool, started on first use."""
        if self._executor is None:
            self._executor = self._new_pool(workers)
        return self._executor

    def close(self) -> None:
        """Shut down the persistent pool and drop its published tables."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        self._forget_published()

    def _forget_published(self) -> None:
        """Drop the published descriptors and what the parent holds."""
        self._published.close()
        self._tables.clear()
        self._matrices.clear()

    def _matrix(self, descriptor: DenseDescriptor) -> DenseTimeMatrix:
        """The parent's matrix for ``descriptor``, built on first need."""
        matrix = self._matrices.get(descriptor.fingerprint)
        if matrix is None or matrix.total_width != descriptor.total_width:
            matrix = build_dense_matrix(
                self._tables[descriptor.fingerprint],
                descriptor.total_width,
            )
            self._matrices[descriptor.fingerprint] = matrix
        return matrix

    def _dense_descriptors(
        self, jobs: Sequence[BatchJob]
    ) -> List[DenseDescriptor]:
        """One (possibly shared) dense descriptor per job, in order.

        Builds each distinct SOC's tables once — at the largest width
        any of its jobs needs, through this runner's own store-backed
        cache, which a persistent runner extends in place for a wider
        grid — and pickles them into one descriptor, which the
        registry caches.  Every job of that SOC ships the same one.
        Tables already held for the fingerprint (a structurally
        identical SOC with renamed cores included) are reused while
        they are wide enough.
        """
        width_by_soc: Dict[str, int] = {}
        soc_by_print: Dict[str, Soc] = {}
        prints: List[str] = []
        for job in jobs:
            fingerprint = soc_fingerprint(job.soc)
            prints.append(fingerprint)
            soc_by_print.setdefault(fingerprint, job.soc)
            width_by_soc[fingerprint] = max(
                width_by_soc.get(fingerprint, 0), job.total_width
            )
        descriptors: Dict[str, DenseDescriptor] = {}
        for fingerprint, width in width_by_soc.items():
            held = self._tables.get(fingerprint)
            if held is not None \
                    and all(table.max_width >= width for table in held):
                # The registry reuses its descriptor when that is wide
                # enough, and pickles the held tables afresh otherwise.
                descriptors[fingerprint] = self._published.publish(
                    fingerprint, held, width
                )
            else:
                tables = self.cache_for(
                    soc_by_print[fingerprint]
                ).table_list(width)
                self._tables[fingerprint] = tables
                descriptors[fingerprint] = self._published.publish(
                    fingerprint, tables, width
                )
        return [descriptors[fingerprint] for fingerprint in prints]

    def __enter__(self) -> "BatchRunner":
        """Context-manager entry: the runner itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: release the persistent pool."""
        self.close()

    #: Below this many partitions in a job's whole enumeration,
    #: ``shard="auto"`` leaves the job on one worker — the fan-out
    #: overhead would outweigh the sweep.
    AUTO_SHARD_MIN_PARTITIONS = 2048
    #: Shards per worker under ``shard="auto"``: oversubscription
    #: smooths the load imbalance between a shard that discovers the
    #: incumbents and shards that mostly abort against them.
    SHARD_OVERSUBSCRIPTION = 4

    @staticmethod
    def _job_shardable(job: BatchJob) -> bool:
        """True when the shard protocol's determinism argument applies.

        That is the exact tier's pruned sweep over the ``"unique"``
        enumerator with no per-count stratification.  An unpruned job
        runs whole, through the serial sweep.  A job whose options do
        not validate is not fanned: it runs whole and fails as its own
        point.
        """
        spec = _valid_spec(job)
        return (
            spec is not None
            and spec.mode == "exact"
            and spec.enumerator == "unique"
            and spec.prune
            and not spec.polish_per_tam_count
        )

    @staticmethod
    def _job_search_mode(job: BatchJob) -> bool:
        """True for valid ``mode="search"`` jobs (the anytime tier)."""
        spec = _valid_spec(job)
        return spec is not None and spec.mode == "search"

    def _shard_count(
        self,
        job: BatchJob,
        override: Union[int, str, None],
        workers: int,
        num_jobs: int,
    ) -> int:
        """How many shards this job should split into (0 = don't)."""
        policy = override if override is not None else self.shard
        if policy in (None, 0, 1):
            return 0
        if not self._job_shardable(job):
            return 0
        counts = resolved_tam_counts(job.total_width, job.num_tams)
        total = sum(count_sizes(job.total_width, counts))
        if total == 0:
            return 0
        if policy == "auto":
            if num_jobs >= workers:
                return 0
            if total < self.AUTO_SHARD_MIN_PARTITIONS:
                return 0
            wanted = workers * self.SHARD_OVERSUBSCRIPTION
        else:
            wanted = int(policy)
        return max(1, min(wanted, total))

    def run_iter(
        self,
        jobs: Sequence[BatchJob],
        shard: Union[int, str, None] = None,
        point_timeout: Union[int, float, None] = None,
        max_concurrent: Optional[int] = None,
    ) -> Iterator[BatchResult]:
        """Evaluate ``jobs``, yielding one result per job, in order.

        The streaming form of :meth:`run`: each result becomes
        available as soon as it and every earlier job have finished,
        which is what lets the exploration server emit per-point
        :class:`~repro.api.JobEvent` s while a grid is still running.  The iterator must be consumed for
        the batch to complete; abandoning it mid-grid closes the
        underlying ephemeral pool.

        ``shard`` and ``point_timeout`` override the runner's
        intra-job sharding policy and per-point deadline for this
        call (the per-submission runner hints); results are identical
        either way.  ``max_concurrent`` caps how many of this call's
        grid points are in flight on the pool at once (windowed
        submission) — the multi-tenant fairness knob; it also
        disables intra-job sharding and search island fan-out, which
        would otherwise let a single point occupy every worker.
        """
        jobs = list(jobs)
        if not jobs:
            return
        shard = normalize_shard_policy(shard)
        timeout = normalize_point_timeout(point_timeout)
        if timeout is None:
            timeout = self.point_timeout
        cap = normalize_max_concurrent(max_concurrent)
        run_start = self.metrics.snapshot()
        self.last_run_telemetry = [None] * len(jobs)
        self.last_run_spans = []
        try:
            yield from self._run_iter_inner(jobs, shard, timeout, cap)
        finally:
            # The registry is cumulative (the lifetime counters the
            # tests and ``info()`` read); the per-run delta is what
            # one ``run`` call actually did — a persistent
            # runner's second grid no longer inherits its first
            # grid's numbers.
            self.last_run_metrics = (
                self.metrics.snapshot().delta(run_start)
            )

    def _absorb_job(
        self,
        index: int,
        telemetry: TaskTelemetry,
        tasks: Sequence[TaskTelemetry] = (),
    ) -> None:
        """File one job's telemetry: registry merge + per-job slot.

        ``tasks`` is the telemetry of the job's fanned tasks, which
        :meth:`_fan_out` has already absorbed: it joins the slot only.
        """
        self.metrics.absorb(telemetry.metrics)
        if index < len(self.last_run_telemetry):
            self.last_run_telemetry[index] = _merge_task_telemetry(
                telemetry, tasks
            )

    def _run_iter_inner(
        self,
        jobs: List[BatchJob],
        shard: Union[int, str, None],
        point_timeout: Optional[float],
        max_concurrent: Optional[int] = None,
    ) -> Iterator[BatchResult]:
        """The dispatch body of :meth:`run_iter` (one run's worth)."""
        requested = self.max_workers
        if requested is None:
            requested = os.cpu_count() or 1
        shard_counts = (
            [
                self._shard_count(job, shard, requested, len(jobs))
                for job in jobs
            ]
            if requested > 1 and max_concurrent is None
            else [0] * len(jobs)
        )
        # mode="search" jobs fan their islands across the pool under
        # the same policy as auto-sharding: only when jobs are scarcer
        # than workers (otherwise job-level parallelism already
        # saturates the pool).  Island results are bit-identical to
        # inline execution, so this is pure execution strategy.
        # A max_concurrent cap suppresses both fan-outs: one point
        # spraying shard/island tasks across the pool is exactly the
        # monopolisation the cap exists to prevent.
        search_fan = [
            requested > 1 and max_concurrent is None
            and len(jobs) < requested
            and self._job_search_mode(job)
            for job in jobs
        ]
        workers = requested
        if not any(shard_counts) and not any(search_fan) \
                and not self.persistent:
            workers = min(workers, len(jobs))
        if workers == 1:
            faults = FaultPlan.from_env()
            for index, job in enumerate(jobs):
                baseline = task_begin()
                result = _run_job_safe(
                    self._caches, job, self.on_error,
                    store=self._store, point_index=index,
                    faults=faults,
                )
                self._absorb_job(index, task_end(baseline))
                yield result
            return
        # Pool supervision: a BrokenProcessPool (worker OOM-killed,
        # segfaulted, or chaos-crashed) no longer aborts the grid.
        # Already-yielded results are kept — the dispatch loop
        # yields strictly in job order — the pool is rebuilt after a
        # deterministic backoff, and only jobs[emitted:] re-dispatch.
        # The published descriptors are parent-owned and survive the
        # dead pool, so the rebuilt workers attach the same tables.
        emitted = 0
        restarts = 0
        delays = backoff_schedule(self.POOL_RESTART_RETRIES)
        pool = (
            self._resident_pool(workers) if self.persistent
            else self._new_pool(workers)
        )
        try:
            while True:
                try:
                    for result in self._dispatch_pool(
                        jobs, shard_counts, search_fan, pool, workers,
                        emitted, point_timeout, max_concurrent,
                    ):
                        emitted += 1
                        yield result
                    return
                except BrokenProcessPool:
                    restarts += 1
                    self.metrics.counter("engine.pool_restarts").inc()
                    self._executor = None
                    pool.shutdown(wait=False)
                    if restarts > self.POOL_RESTART_RETRIES:
                        logger.error(
                            "process pool broke after %d/%d results "
                            "and %d rebuild(s); giving up",
                            emitted, len(jobs), restarts - 1,
                        )
                        if self.on_error == "record":
                            for job in jobs[emitted:]:
                                emitted += 1
                                yield FailedPoint(
                                    job=job,
                                    error_type="BrokenProcessPool",
                                    error_message=(
                                        "process pool died and could "
                                        "not be rebuilt"
                                    ),
                                    attempts=restarts,
                                )
                            return
                        raise
                    logger.warning(
                        "process pool broke after %d/%d results; "
                        "rebuilding and resuming (restart %d/%d)",
                        emitted, len(jobs), restarts,
                        self.POOL_RESTART_RETRIES,
                    )
                    _sleep(delays[restarts - 1])
                    pool = (
                        self._resident_pool(workers) if self.persistent
                        else self._new_pool(workers)
                    )
        finally:
            if not self.persistent:
                # Ephemeral pool: its workers are gone, so the
                # published descriptors have no readers left — drop
                # them (and what the parent holds) now.
                pool.shutdown(wait=True)
                self._forget_published()

    def _await_point(
        self,
        future: "Future[Tuple[BatchResult, TaskTelemetry]]",
        job: BatchJob,
        point_timeout: Optional[float],
    ) -> Tuple[BatchResult, Optional[TaskTelemetry]]:
        """One submitted point's result, under the deadline policy.

        A point that misses its wall-clock deadline is *abandoned*
        (its worker cannot be interrupted; the result, if any, is
        discarded) — counted, then recorded or raised per the
        ``on_error`` policy.
        """
        if point_timeout is None:
            return future.result()
        try:
            return future.result(timeout=point_timeout)
        except _FuturesTimeout:
            future.cancel()
            self.metrics.counter("engine.points_timed_out").inc()
            message = (
                f"grid point exceeded its {point_timeout:g}s "
                "wall-clock deadline"
            )
            logger.error("job %s: %s", job.describe(), message)
            if self.on_error == "record":
                return FailedPoint(
                    job=job,
                    error_type="DeadlineError",
                    error_message=message,
                    attempts=1,
                ), None
            raise DeadlineError(
                f"job {job.describe()}: {message}"
            ) from None

    def _dispatch_pool(
        self,
        jobs: List[BatchJob],
        shard_counts: List[int],
        search_fan: List[bool],
        pool: ProcessPoolExecutor,
        workers: int,
        skip: int,
        point_timeout: Optional[float],
        max_concurrent: Optional[int] = None,
    ) -> Iterator[BatchResult]:
        """Dispatch ``jobs[skip:]`` over ``pool``, yielding in order.

        One pool's worth of work: descriptors are (re)published —
        idempotent for matrices already wide enough — and results
        stream back in job order, so the caller can resume from its
        yield count if this pool breaks mid-grid.

        Points enter a window of ``max_concurrent`` (all of them when
        uncapped).  A whole-point job takes its slot as one pool task.
        A sharded or island-fanned job (never under a cap) runs here
        in the parent at its turn, fanning its own tasks over the
        pool's ``workers`` while the points submitted ahead of it keep
        running.
        """
        build_baseline = task_begin()
        with span("publish_tables", jobs=len(jobs)):
            descriptors = self._dense_descriptors(jobs)
        build_telemetry = task_end(build_baseline)
        self.metrics.absorb(build_telemetry.metrics)
        self.last_run_spans.extend(build_telemetry.spans)
        queued = deque(range(skip, len(jobs)))
        window = len(queued) if max_concurrent is None else max_concurrent
        pending: Deque[Tuple[int, "Optional[Future[Any]]"]] = deque()

        def fill() -> None:
            while queued and len(pending) < window:
                index = queued.popleft()
                fanned = shard_counts[index] >= 2 or search_fan[index]
                pending.append((index, None if fanned else pool.submit(
                    _pool_worker, (jobs[index], descriptors[index], index)
                )))

        try:
            fill()
            while pending:
                index, future = pending.popleft()
                tasks: Sequence[TaskTelemetry] = ()
                if future is not None:
                    result, telemetry = self._await_point(
                        future, jobs[index], point_timeout
                    )
                else:
                    baseline = task_begin()
                    outcome = _with_policy(
                        jobs[index], self.on_error,
                        lambda: self._run_fanned(
                            jobs[index], descriptors[index], pool,
                            workers, shard_counts[index],
                        ),
                    )
                    result, tasks = (
                        (outcome, ()) if isinstance(outcome, FailedPoint)
                        else outcome
                    )
                    telemetry = task_end(baseline)
                fill()
                if telemetry is not None:
                    self._absorb_job(index, telemetry, tasks)
                yield result
        finally:
            # Like Executor.map: a grid abandoned or failed mid-way
            # leaves no queued points behind to occupy the pool.
            for _, future in pending:
                if future is not None:
                    future.cancel()

    def _fan_out(
        self,
        pool: Executor,
        worker: Callable[[Any], Tuple[Any, TaskTelemetry]],
        payload: Callable[[int, Mapping[int, Any]], Any],
        count: int,
        window: int,
    ) -> Tuple[List[Any], List[TaskTelemetry]]:
        """Run ``count`` tasks on ``pool``: values and telemetry, task order.

        Tasks are submitted in index order, at most ``window`` in
        flight at once (one per pool worker).  ``payload(index,
        finished)`` builds task ``index``'s payload at the moment it
        is submitted, from the values of the tasks finished by then
        (``finished`` maps task index to value): that is how a shard
        is seeded from the shards before it.  No task's value depends
        on what the others finished before it, so the merged result
        stays bit-identical however the tasks interleave.  A task's
        error propagates at once, to the job's failure policy — or,
        as a ``BrokenProcessPool``, to the pool supervisor.  Each
        task's metrics are absorbed into the runner's registry once;
        the returned telemetry is for the caller's records.
        """
        finished: Dict[int, Any] = {}
        telemetry: Dict[int, TaskTelemetry] = {}
        queued = deque(range(count))
        running: Dict["Future[Tuple[Any, TaskTelemetry]]", int] = {}
        try:
            while queued or running:
                while queued and len(running) < window:
                    index = queued.popleft()
                    running[pool.submit(
                        worker, payload(index, finished)
                    )] = index
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in sorted(done, key=running.__getitem__):
                    index = running.pop(future)
                    value, task_telemetry = future.result()
                    self.metrics.absorb(task_telemetry.metrics)
                    finished[index] = value
                    telemetry[index] = task_telemetry
        finally:
            # A failed fan-out leaves no queued task behind.
            for future in running:
                future.cancel()
        return (
            [finished[index] for index in range(count)],
            [telemetry[index] for index in range(count)],
        )

    def _run_fanned(
        self,
        job: BatchJob,
        descriptor: DenseDescriptor,
        pool: ProcessPoolExecutor,
        workers: int,
        num_shards: int,
    ) -> Tuple[SweepPoint, List[TaskTelemetry]]:
        """Run one job here with its inner work fanned over the pool.

        A ``mode="search"`` job fans its fixed
        :data:`repro.search.NUM_ISLANDS` islands; any other job fans
        its partition sweep as ``num_shards`` shards, at most
        ``workers`` tasks in flight.  Both kinds of task build the
        job's dense matrix from its descriptor and share nothing
        while they run: each shard is seeded, when it is submitted,
        with the :func:`~repro.partition.shard.kept_times` of the
        shards already finished before it.  The deterministic merge,
        the exact polish and the certificate/utilization accounting
        run here over the tables the descriptor carries and the
        matrix built from them, so the point is bit-identical to
        whole-job execution.  Returns the point and its tasks'
        telemetry.
        """
        matrix = self._matrix(descriptor)
        telemetry: List[TaskTelemetry] = []

        def fan(
            worker: Callable[[Any], Tuple[Any, TaskTelemetry]],
            payload: Callable[[int, Mapping[int, Any]], Any],
            count: int,
        ) -> List[Any]:
            values, task_telemetry = self._fan_out(
                pool, worker, payload, count, workers,
            )
            telemetry.extend(task_telemetry)
            return values

        def islands(plans: Sequence[Any]) -> List[Any]:
            self.metrics.counter("search.islands_planned").inc(
                len(plans)
            )
            return fan(
                _search_worker,
                lambda index, _: (descriptor, plans[index], job.soc),
                len(plans),
            )

        def sweep(
            table_list: Sequence[TimeTable],
            total_width: int,
            tam_counts: Union[int, Iterable[int]], *,
            keep_top: int = 1,
            **_: Any,
        ) -> PartitionSearchResult:
            # Only jobs _job_shardable admits get here, so the sweep
            # prunes, the enumerator is "unique" and nothing is
            # stratified; the dense matrix co_optimize passes on is
            # `matrix` itself.

            def scorer(plan: ShardPlan) -> List[ShardOutcome]:
                self.metrics.counter("shard.shards_planned").inc(
                    plan.num_shards
                )

                def payload(
                    index: int, finished: Mapping[int, ShardOutcome]
                ) -> Tuple[Any, ...]:
                    earlier = kept_times(
                        (finished[shard] for shard in range(index)
                         if shard in finished),
                        keep_top,
                    )
                    return (
                        descriptor, earlier, index, plan.shards[index],
                        job.soc, total_width, keep_top,
                    )

                return fan(_shard_worker, payload, plan.num_shards)

            return sharded_partition_evaluate(
                None, total_width, tam_counts, num_shards,
                keep_top=keep_top, dense=matrix, scorer=scorer,
            )

        self.metrics.counter(
            "engine.jobs_search_fanned" if self._job_search_mode(job)
            else "engine.jobs_sharded"
        ).inc()
        # Each tier reads only its own seam.
        point = evaluate_point(
            job.soc,
            job.total_width,
            num_tams=job.num_tams,
            tables=_by_core_name(
                job.soc, self._tables[descriptor.fingerprint]
            ),
            dense=matrix,
            sweep=sweep,
            search_islands=islands,
            **job.spec().engine_options(),
        )
        return point, telemetry

    def run(
        self,
        jobs: Sequence[BatchJob],
        shard: Union[int, str, None] = None,
        point_timeout: Union[int, float, None] = None,
        max_concurrent: Optional[int] = None,
    ) -> List[BatchResult]:
        """Evaluate ``jobs``, returning one result per job, in order.

        Results are independent of worker count and scheduling: the
        pipeline is deterministic given (SOC, W, B), and cached
        tables answer exactly like freshly built ones.  Under
        ``on_error="record"`` a failing job yields a
        :class:`FailedPoint` in its slot (see :func:`split_results`);
        under the default policy every element is a
        :class:`~repro.analysis.sweep.SweepPoint`.
        """
        return list(self.run_iter(
            jobs, shard=shard, point_timeout=point_timeout,
            max_concurrent=max_concurrent,
        ))

    def run_grid(
        self, grid: "GridSpec"
    ) -> List[Tuple[BatchJob, BatchResult]]:
        """Evaluate a :class:`repro.api.GridSpec`, pairing each job with
        its result.

        The grid is the same typed object the exploration service and
        the CLI submit::

            runner.run_grid(GridSpec.from_axes(["d695"], [16, 24]))

        Its ``runner`` hints (``shard``, ``point_timeout``) apply to
        this call.  Hand-built :class:`BatchJob` lists go to
        :meth:`run`.
        """
        jobs = grid.jobs()
        # Execution hints ride the spec's `runner` mapping — excluded
        # from its canonical key, honored here.
        hints = grid.runner_options()
        return list(zip(jobs, self.run(
            jobs,
            shard=hints.get("shard"),
            point_timeout=hints.get("point_timeout"),
        )))
