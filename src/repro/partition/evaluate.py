"""``Partition_evaluate`` — the fast partition sweep of Fig. 3.

For every candidate TAM count ``B`` and every width partition of the
total TAM width ``W``, run ``Core_assign`` against the incumbent SOC
testing time; keep the best (partition, assignment).  Three pruning
levels, exactly as the paper describes:

1. the enumerator never emits (most) reordered duplicates — the
   production default goes further than the paper's ``Increment``
   bound and emits *only* unique partitions;
2. ``Core_assign`` aborts a partition the moment any bus's summed
   time reaches the incumbent (Lines 18-20 of Fig. 1) — the dominant
   saving, quantified in Table 1;
3. the evaluation itself is the O(N²) heuristic rather than an ILP.

The sweep records, per TAM count, how many partitions were enumerated
and how many were *evaluated to completion* — the paper's
``N_eval`` — so the efficiency study (Table 1) falls out directly.

Partitions are scored by the dense time-matrix kernel of
:mod:`repro.engine.kernel`: the N×W matrix is assembled once per
sweep, per-width columns are memoized, and the inner loop is
allocation-free.  Under the abort (``prune=True``) the kernel also
skips ``Core_assign`` outright when an admissible O(1) lower bound
(widest-column aggregates) already meets the incumbent.  Such a
partition could only have aborted, so every observable outcome —
best time, partition, assignment, ``num_completed``, efficiency — is
the paper's; only the ``num_lb_pruned`` telemetry and the wall clock
see the skip.  A per-partition ``core_assign`` sweep in
``tests/engine/test_kernel.py`` is the differential oracle.

This module is the *serial* sweep and the semantic reference: the
sharded driver in :mod:`repro.partition.shard` splits the same
enumeration across pool workers and merges back a
:class:`PartitionSearchResult` equal to what the loop below produces
(the differential suite in ``tests/partition/test_shard.py`` holds it
to that), reusing the :class:`_TopK` incumbent tracker both for the
shard-local thresholds and for the deterministic replay merge.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exceptions import ConfigurationError
from repro.obs import span as _obs_span
from repro.partition.count import count_partitions
from repro.partition.enumerate import increment_partitions, unique_partitions
from repro.tam.assignment import AssignmentResult
from repro.wrapper.pareto import TimeTable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.engine.kernel import DenseTimeMatrix

Enumerator = Callable[[int, int], Iterator[Tuple[int, ...]]]

_ENUMERATORS: Dict[str, Enumerator] = {
    "unique": unique_partitions,
    "increment": increment_partitions,
}

#: What a partition is scored under: ``True`` — the paper's
#: best-known-time abort, plus the kernel's admissible lower-bound
#: skip; ``False`` — no pruning (ablation).
PRUNE_MODES: Tuple[bool, ...] = (True, False)


@dataclass(frozen=True)
class PartitionStats:
    """Pruning statistics for one TAM count ``B`` (one row of Table 1).

    ``num_lb_pruned`` is execution telemetry: the partitions this run
    skipped *before* ``Core_assign`` by the kernel's lower bound.
    They are included in ``num_enumerated`` and can never be in
    ``num_completed`` (the bound is admissible, so a skipped
    partition would have aborted).  How many get skipped depends on
    the thresholds each scorer saw — a sharded sweep skips under its
    own looser ones — so equality ignores the field.
    """

    num_tams: int
    num_unique: int
    num_enumerated: int
    num_completed: int
    num_lb_pruned: int = field(default=0, compare=False)

    @property
    def efficiency(self) -> float:
        """The paper's E = N_eval / P(W, B) (1.0 means no pruning)."""
        if self.num_unique == 0:
            return 0.0
        return self.num_completed / self.num_unique


@dataclass(frozen=True)
class PartitionSearchResult:
    """Outcome of a ``Partition_evaluate`` sweep.

    ``runners_up`` holds the next-best *distinct* partitions (by
    heuristic testing time) when the sweep was asked to keep them —
    the raw material for the top-k polish that mitigates the paper's
    anomaly (see :func:`repro.optimize.co_optimize.co_optimize`).
    """

    total_width: int
    best: AssignmentResult
    stats: Tuple[PartitionStats, ...]
    elapsed_seconds: float
    runners_up: Tuple[AssignmentResult, ...] = ()

    @property
    def testing_time(self) -> int:
        return self.best.testing_time

    @property
    def best_partition(self) -> Tuple[int, ...]:
        return self.best.widths

    @property
    def best_num_tams(self) -> int:
        return len(self.best.widths)

    @property
    def num_lb_pruned(self) -> int:
        """Partitions skipped by the lower bound, over all TAM counts."""
        return sum(stats.num_lb_pruned for stats in self.stats)

    def stats_for(self, num_tams: int) -> PartitionStats:
        """Statistics for one TAM count; raises ``KeyError`` if absent."""
        for stats in self.stats:
            if stats.num_tams == num_tams:
                return stats
        raise KeyError(f"no statistics recorded for B={num_tams}")


class _TopK:
    """The ``keep_top`` best distinct partitions seen so far.

    Distinctness is up to bus reordering (canonical sorted widths).
    The pruning threshold is the worst kept time once the list is
    full — for ``keep_top == 1`` this is exactly the paper's
    best-known-time abort.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.entries: List[AssignmentResult] = []  # sorted by time asc

    def threshold(self) -> Optional[int]:
        """Current abort threshold for ``Core_assign``."""
        if len(self.entries) == self.capacity:
            return self.entries[-1].testing_time
        return None

    def offer(self, result: AssignmentResult) -> None:
        """Insert ``result`` if it improves the kept set."""
        key = tuple(sorted(result.widths))
        for index, kept in enumerate(self.entries):
            if tuple(sorted(kept.widths)) == key:
                if result.testing_time < kept.testing_time:
                    self.entries[index] = result
                    self.entries.sort(key=lambda r: r.testing_time)
                return
        self.entries.append(result)
        self.entries.sort(key=lambda r: r.testing_time)
        del self.entries[self.capacity:]


def partition_evaluate(
    tables: Sequence[TimeTable],
    total_width: int,
    num_tams: Union[int, Iterable[int]],
    enumerator: str = "unique",
    prune: bool = True,
    keep_top: int = 1,
    stratify_by_tam_count: bool = False,
    dense: "Optional[DenseTimeMatrix]" = None,
) -> PartitionSearchResult:
    """Sweep width partitions, scoring each with ``Core_assign``.

    Parameters
    ----------
    tables:
        One :class:`~repro.wrapper.pareto.TimeTable` per core, covering
        widths up to ``total_width``.
    total_width:
        The SOC's TAM width budget ``W``.
    num_tams:
        Either a single TAM count ``B`` (problem P_PAW) or an iterable
        of counts, e.g. ``range(1, 11)`` (problem P_NPAW; the paper's
        experiments use ``B_max = 10``).
    enumerator:
        ``"unique"`` (default, duplicate-free) or ``"increment"`` (the
        paper's odometer, for ablation).
    prune:
        ``True`` (default) — the paper's best-known-time abort, with
        the kernel's admissible lower-bound skip in front of it
        (outcome-identical, faster); ``False`` — ``Core_assign``
        always runs to completion (disables pruning level 2 for the
        ablation study).
    keep_top:
        How many best *distinct* partitions to retain.  1 reproduces
        the paper exactly; larger values loosen the abort threshold to
        the k-th best time so runners-up survive for a top-k polish.
    stratify_by_tam_count:
        When True, the top-``keep_top`` list is kept *per TAM count*
        and pruning is per-count too (each B's sweep races only
        against itself).  This costs pruning efficiency but preserves
        the best candidate of every B — the diversity the final exact
        polish needs to escape the paper's wrong-B anomaly, where the
        heuristically best partition has the wrong number of TAMs.
    dense:
        Optional pre-built :class:`~repro.engine.kernel.
        DenseTimeMatrix` covering ``total_width`` (e.g. the one the
        batch engine built from the same tables); when ``None`` the
        kernel assembles one from ``tables``.

    Returns
    -------
    :class:`PartitionSearchResult` — the best assignment found, the
    runners-up (when ``keep_top > 1`` or stratified), and per-B
    pruning statistics.
    """
    if not tables:
        raise ConfigurationError("need at least one core time table")
    if total_width < 1:
        raise ConfigurationError(
            f"total_width must be >= 1, got {total_width}"
        )
    if keep_top < 1:
        raise ConfigurationError(f"keep_top must be >= 1, got {keep_top}")
    for table in tables:
        if table.max_width < total_width:
            raise ConfigurationError(
                f"time table for {table.core.name!r} covers widths up to "
                f"{table.max_width} < total width {total_width}"
            )
    try:
        enumerate_fn = _ENUMERATORS[enumerator]
    except KeyError:
        raise ConfigurationError(
            f"unknown enumerator {enumerator!r}; "
            f"choose from {sorted(_ENUMERATORS)}"
        ) from None
    if prune not in PRUNE_MODES:
        raise ConfigurationError(
            f"prune must be one of {PRUNE_MODES}, got {prune!r}"
        )

    tam_counts = (
        [num_tams] if isinstance(num_tams, int) else list(num_tams)
    )
    if not tam_counts:
        raise ConfigurationError("num_tams iterable is empty")
    for count in tam_counts:
        if count < 1:
            raise ConfigurationError(f"TAM count must be >= 1, got {count}")

    start = _time.monotonic()

    # Imported lazily: repro.engine builds on this module.
    from repro.engine.kernel import (
        KernelWorkspace,
        build_dense_matrix,
        sweep_assign,
    )

    if dense is not None:
        if dense.num_cores != len(tables):
            raise ConfigurationError(
                f"dense matrix has {dense.num_cores} rows for "
                f"{len(tables)} tables"
            )
        if dense.total_width < total_width:
            raise ConfigurationError(
                f"dense matrix covers widths up to "
                f"{dense.total_width} < total width {total_width}"
            )
        matrix = dense
    else:
        matrix = build_dense_matrix(tables, total_width)
    workspace = KernelWorkspace()

    global_top = _TopK(keep_top)
    trackers: List[_TopK] = []
    all_stats: List[PartitionStats] = []

    for count in tam_counts:
        tracker = (
            _TopK(keep_top) if stratify_by_tam_count
            else global_top
        )
        trackers.append(tracker)
        enumerated = 0
        completed = 0
        lb_pruned = 0
        # One span per TAM count (the sweep's natural sampling
        # granularity); the per-partition loop below carries no
        # instrumentation at all — RPR001's telemetry discipline.
        with _obs_span("sweep_count", num_tams=count) as count_span:
            if count <= total_width:
                # The abort threshold only moves when a partition
                # completes and is offered, so it is cached across the
                # (overwhelmingly aborting) partitions in between.
                threshold = tracker.threshold() if prune else None
                for widths in enumerate_fn(total_width, count):
                    enumerated += 1
                    if (
                        threshold is not None
                        and matrix.lower_bound(widths) >= threshold
                    ):
                        # Admissible bound: this partition could only
                        # have aborted — skip Core_assign entirely.
                        lb_pruned += 1
                        continue
                    result = sweep_assign(
                        matrix, widths, best_known=threshold,
                        workspace=workspace,
                    )
                    if result is None:
                        continue
                    completed += 1
                    tracker.offer(result)
                    if prune:
                        threshold = tracker.threshold()
            count_span.annotate(
                enumerated=enumerated,
                completed=completed,
                lb_pruned=lb_pruned,
            )
        all_stats.append(
            PartitionStats(
                num_tams=count,
                num_unique=(
                    count_partitions(total_width, count)
                    if count <= total_width else 0
                ),
                num_enumerated=enumerated,
                num_completed=completed,
                num_lb_pruned=lb_pruned,
            )
        )

    if stratify_by_tam_count:
        entries = sorted(
            (entry for tracker in trackers for entry in tracker.entries),
            key=lambda result: result.testing_time,
        )
    else:
        entries = list(global_top.entries)

    if not entries:
        raise ConfigurationError(
            f"no partition to return: every TAM count in {tam_counts} "
            f"exceeds total_width={total_width}"
        )
    return PartitionSearchResult(
        total_width=total_width,
        best=entries[0],
        stats=tuple(all_stats),
        elapsed_seconds=_time.monotonic() - start,
        runners_up=tuple(entries[1:]),
    )
