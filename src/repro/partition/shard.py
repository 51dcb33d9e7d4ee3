"""Sharded ``Partition_evaluate`` — one sweep split across workers.

:func:`~repro.partition.evaluate.partition_evaluate` walks one job's
whole partition space serially; for a single hot (SOC, W, B) job that
leaves every other pool worker idle.  This module splits the canonical
enumeration into contiguous rank ranges ("shards") that score
independently over one shared :class:`~repro.engine.kernel.
DenseTimeMatrix`, then merges the per-shard outcomes back into a
:class:`~repro.partition.evaluate.PartitionSearchResult` that is
**bit-identical** to the serial sweep's — best time, best partition,
assignment, runners-up order, and every :class:`~repro.partition.
evaluate.PartitionStats` count that equality compares.  The one
exception is the ``num_lb_pruned`` telemetry: each shard counts the
lower-bound skips it actually makes, under its own thresholds, and
the merge sums them.  Only the pruned sweep (``prune=True``, the
default) shards; an unpruned one stays serial.

The protocol rests on two facts about the serial sweep:

1. **Completion is a prefix property.**  A partition completes iff its
   heuristic time beats the incumbent, and the incumbent is exactly
   the running (top-k) minimum of the heuristic times of all
   *earlier* partitions.  So "which partitions complete" depends only
   on the enumeration order, not on who evaluates them.
2. **Looser thresholds are safe.**  A shard scoring its range under
   any abort threshold that is *never tighter* than the serial
   threshold completes a superset of the serial completions, each
   with its exact time and assignment.  The merge replays the
   recorded completions in serial rank order and keeps exactly those
   the serial incumbent trajectory would have kept, discarding the
   extras.  Shards therefore only ever share incumbents **forward**:
   shard ``s`` is seeded with the kept times of shards ``< s`` that
   have already finished (all of whose partitions precede ``s``'s in
   serial order, :func:`kept_times`) — which is why a missing seed
   can only cost speed, never change a result.  The kernel's
   lower-bound skip is safe under the same argument: a partition
   skipped against a looser threshold would have aborted against the
   serial one.

Everything here is process-free: :func:`sweep_shard` is the worker
payload (the engine runs it on pool workers over the matrix built
from the transported tables, seeding each shard when it submits it,
:mod:`repro.engine.batch`), and :func:`sharded_partition_evaluate`
runs the whole protocol inline — the differential-test surface, and
the single-process reference for the merge semantics.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import (
    Callable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.engine.kernel import (
    DenseTimeMatrix,
    KernelWorkspace,
    build_dense_matrix,
    sweep_assign,
)
from repro.exceptions import ConfigurationError
from repro.partition.count import count_partitions
from repro.partition.enumerate import partitions_slice
from repro.partition.evaluate import (
    PartitionSearchResult,
    PartitionStats,
    _TopK,
)
from repro.tam.assignment import AssignmentResult
from repro.wrapper.pareto import TimeTable


def count_sizes(
    total_width: int, tam_counts: Sequence[int]
) -> List[int]:
    """Enumeration size per TAM count (0 when count > width).

    The one statement of the rule — shared by the shard planner, the
    merge's stats reconstruction, and the engine's auto-shard
    eligibility test, which must never disagree about it.
    """
    return [
        count_partitions(total_width, count)
        if count <= total_width else 0
        for count in tam_counts
    ]


@dataclass(frozen=True)
class ShardSpan:
    """One contiguous rank range of one TAM count's enumeration.

    ``count_index`` is the position in the sweep's ``tam_counts``
    (counts may repeat), ``num_tams`` its value, and ``[start, stop)``
    the canonical ranks this span covers.
    """

    count_index: int
    num_tams: int
    start: int
    stop: int


@dataclass(frozen=True)
class ShardPlan:
    """The whole sweep cut into per-shard span lists.

    Shards partition the concatenation of every TAM count's
    enumeration (counts in sweep order, ranks ascending) into
    contiguous, nearly equal ranges; shard order *is* serial order.
    """

    total_width: int
    tam_counts: Tuple[int, ...]
    shards: Tuple[Tuple[ShardSpan, ...], ...]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def count_sizes(self) -> List[int]:
        """Enumeration size per TAM count (0 when count > width)."""
        return count_sizes(self.total_width, self.tam_counts)


@dataclass(frozen=True)
class ShardCompletion:
    """One partition a shard ran to completion, with its exact score."""

    count_index: int
    rank: int
    result: AssignmentResult


@dataclass(frozen=True)
class ShardOutcome:
    """Everything one scored shard reports back for the merge.

    ``lb_pruned`` is the shard's own tally of lower-bound skips, one
    ``(count_index, skipped)`` pair per span it scored.
    """

    shard_index: int
    completions: Tuple[ShardCompletion, ...]
    elapsed_seconds: float
    lb_pruned: Tuple[Tuple[int, int], ...]


def plan_shards(
    total_width: int,
    tam_counts: Sequence[int],
    num_shards: int,
) -> ShardPlan:
    """Cut a sweep's enumeration into ``num_shards`` contiguous ranges.

    Ranges are balanced by partition count over the concatenated
    per-count enumerations; a shard may straddle count boundaries.
    Counts larger than ``total_width`` contribute nothing (the serial
    sweep enumerates nothing for them either).
    """
    counts = tuple(tam_counts)
    if not counts:
        raise ConfigurationError("num_tams iterable is empty")
    for count in counts:
        if count < 1:
            raise ConfigurationError(
                f"TAM count must be >= 1, got {count}"
            )
    if num_shards < 1:
        raise ConfigurationError(
            f"num_shards must be >= 1, got {num_shards}"
        )
    sizes = count_sizes(total_width, counts)
    total = sum(sizes)
    num_shards = max(1, min(num_shards, total))
    shards: List[Tuple[ShardSpan, ...]] = []
    for shard in range(num_shards):
        lo = shard * total // num_shards
        hi = (shard + 1) * total // num_shards
        spans: List[ShardSpan] = []
        offset = 0
        for index, (count, size) in enumerate(zip(counts, sizes)):
            start = max(lo, offset)
            stop = min(hi, offset + size)
            if start < stop:
                spans.append(ShardSpan(
                    count_index=index,
                    num_tams=count,
                    start=start - offset,
                    stop=stop - offset,
                ))
            offset += size
        shards.append(tuple(spans))
    return ShardPlan(
        total_width=total_width, tam_counts=counts,
        shards=tuple(shards),
    )


def kept_times(
    outcomes: Iterable[ShardOutcome], keep_top: int = 1
) -> Tuple[int, ...]:
    """The ``keep_top`` best times the ``outcomes`` completed, ascending.

    Times of *distinct* partitions (up to bus order), as the serial
    top-k tracker keeps them: a partition that completes under two
    repeated TAM counts counts once.  This is the seed a shard gets
    from the shards before it that have already finished.
    """
    tracker = _TopK(keep_top)
    for outcome in outcomes:
        for completion in outcome.completions:
            tracker.offer(completion.result)
    return tuple(entry.testing_time for entry in tracker.entries)


def _tighter(
    own: Optional[int], seed: Optional[int]
) -> Optional[int]:
    """The tighter of two abort thresholds (``None`` = no abort)."""
    if own is None:
        return seed
    if seed is None:
        return own
    return min(own, seed)


def sweep_shard(
    matrix: DenseTimeMatrix,
    spans: Sequence[ShardSpan],
    shard_index: int,
    total_width: int,
    keep_top: int = 1,
    earlier: Sequence[int] = (),
    workspace: Optional[KernelWorkspace] = None,
) -> ShardOutcome:
    """Score one shard's spans; the pool-worker payload.

    Runs the kernel sweep over the shard's ranks, records every
    completion with its exact result and every lower-bound skip in
    its per-span tally.  ``earlier`` seeds the abort threshold: the
    times of distinct partitions before this shard's range, as
    :func:`kept_times` gives them for the shards already finished.
    The threshold is the tighter of the seed's ``keep_top``-th time
    and the shard's own top-k threshold; each is the ``keep_top``-th
    best time over a subset of the serial-earlier partitions, so
    neither is ever tighter than the serial threshold (fact 2).  The
    two are not pooled into one top-k: times alone cannot tell when
    a seed partition completes here again under a repeated TAM
    count, and counting it twice would over-tighten.  ``earlier=()``
    scores blind, which records more completions for the same merged
    outcome.
    """
    start_clock = _time.monotonic()
    tracker = _TopK(keep_top)
    workspace = workspace or KernelWorkspace()
    completions: List[ShardCompletion] = []
    lb_pruned: List[Tuple[int, int]] = []
    seed = (
        sorted(earlier)[keep_top - 1]
        if len(earlier) >= keep_top else None
    )
    threshold = seed
    for span in spans:
        skipped = 0
        for offset, widths in enumerate(partitions_slice(
            total_width, span.num_tams, span.start, span.stop,
        )):
            if (
                threshold is not None
                and matrix.lower_bound(widths) >= threshold
            ):
                skipped += 1
                continue
            result = sweep_assign(
                matrix, widths, best_known=threshold,
                workspace=workspace,
            )
            if result is None:
                continue
            completions.append(ShardCompletion(
                count_index=span.count_index,
                rank=span.start + offset,
                result=result,
            ))
            tracker.offer(result)
            threshold = _tighter(tracker.threshold(), seed)
        lb_pruned.append((span.count_index, skipped))
    return ShardOutcome(
        shard_index=shard_index,
        completions=tuple(completions),
        elapsed_seconds=_time.monotonic() - start_clock,
        lb_pruned=tuple(lb_pruned),
    )


def merge_shard_outcomes(
    plan: ShardPlan,
    outcomes: Sequence[ShardOutcome],
    keep_top: int = 1,
    elapsed_seconds: Optional[float] = None,
) -> PartitionSearchResult:
    """Deterministically merge shard outcomes into the serial result.

    Replays the recorded completions in serial rank order against a
    fresh incumbent tracker: exactly the completions the serial sweep
    would have kept survive (extras recorded under looser shard
    thresholds are discarded), reproducing ``num_completed``, the
    best result and the runners-up order bit-for-bit.  Each count's
    ``num_lb_pruned`` is the sum of the shards' own skip tallies.
    """
    start_clock = _time.monotonic()
    ordered = sorted(outcomes, key=lambda outcome: outcome.shard_index)
    if len(ordered) != plan.num_shards:
        raise ConfigurationError(
            f"{len(ordered)} outcomes for a {plan.num_shards}-shard plan"
        )
    per_count: List[List[ShardCompletion]] = [
        [] for _ in plan.tam_counts
    ]
    lb_pruned = [0] * len(plan.tam_counts)
    for outcome in ordered:
        for completion in outcome.completions:
            per_count[completion.count_index].append(completion)
        for count_index, skipped in outcome.lb_pruned:
            lb_pruned[count_index] += skipped
    sizes = plan.count_sizes()

    tracker = _TopK(keep_top)
    stats: List[PartitionStats] = []
    for index, count in enumerate(plan.tam_counts):
        size = sizes[index]
        completed = 0
        threshold = tracker.threshold()
        previous_rank = -1
        for completion in per_count[index]:
            if completion.rank <= previous_rank:
                raise ConfigurationError(
                    f"shard completions out of order for B={count}: "
                    f"rank {completion.rank} after {previous_rank}"
                )
            previous_rank = completion.rank
            result = completion.result
            if threshold is not None \
                    and result.testing_time >= threshold:
                continue  # an extra: serial would have aborted it
            completed += 1
            tracker.offer(result)
            threshold = tracker.threshold()
        stats.append(PartitionStats(
            num_tams=count,
            num_unique=size,
            num_enumerated=size,
            num_completed=completed,
            num_lb_pruned=lb_pruned[index],
        ))

    entries = list(tracker.entries)
    if not entries:
        raise ConfigurationError(
            "no partition to return: every TAM count in "
            f"{list(plan.tam_counts)} exceeds total_width="
            f"{plan.total_width}"
        )
    if elapsed_seconds is None:
        elapsed_seconds = _time.monotonic() - start_clock
    return PartitionSearchResult(
        total_width=plan.total_width,
        best=entries[0],
        stats=tuple(stats),
        elapsed_seconds=elapsed_seconds,
        runners_up=tuple(entries[1:]),
    )


#: A scorer turns a plan into outcomes — inline here, pool workers in
#: :mod:`repro.engine.batch`.
ShardScorer = Callable[[ShardPlan], Sequence[ShardOutcome]]


def sharded_partition_evaluate(
    tables: Optional[Sequence[TimeTable]],
    total_width: int,
    num_tams: Union[int, Sequence[int]],
    num_shards: int,
    keep_top: int = 1,
    dense: Optional[DenseTimeMatrix] = None,
    scorer: Optional[ShardScorer] = None,
) -> PartitionSearchResult:
    """The sharded sweep end to end, equal to the serial one.

    With the default inline ``scorer`` the shards run sequentially in
    this process, each seeded with the :func:`kept_times` of every
    shard before it.  The engine passes a ``scorer`` that fans the
    shards out to its pool workers, seeding each from the shards
    already finished when it is submitted.

    Restrictions mirror what the protocol's determinism proof needs:
    the pruned sweep over the canonical ``unique`` enumeration with no
    per-count stratification — exactly the production defaults.
    """
    start_clock = _time.monotonic()
    if keep_top < 1:
        raise ConfigurationError(
            f"keep_top must be >= 1, got {keep_top}"
        )
    if dense is None:
        if not tables:
            raise ConfigurationError(
                "need tables or a dense matrix to sweep over"
            )
        dense = build_dense_matrix(tables, total_width)
    counts = (
        (num_tams,) if isinstance(num_tams, int) else tuple(num_tams)
    )
    plan = plan_shards(total_width, counts, num_shards)
    outcomes: Sequence[ShardOutcome]
    if scorer is None:
        workspace = KernelWorkspace()
        scored: List[ShardOutcome] = []
        for index, spans in enumerate(plan.shards):
            scored.append(sweep_shard(
                dense, spans, index, total_width, keep_top=keep_top,
                earlier=kept_times(scored, keep_top),
                workspace=workspace,
            ))
        outcomes = scored
    else:
        outcomes = scorer(plan)
    return merge_shard_outcomes(
        plan, outcomes, keep_top=keep_top,
        elapsed_seconds=_time.monotonic() - start_clock,
    )
