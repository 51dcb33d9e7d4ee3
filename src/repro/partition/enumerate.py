"""Generating TAM width partitions.

Two full enumerators, plus the rank machinery that lets the sharded
partition sweep (:mod:`repro.partition.shard`) split the canonical
enumeration into contiguous index ranges without paying for the
skipped prefix: :func:`partitions_slice` yields the partitions with
rank in ``[start, stop)`` of the canonical order, skipping to
``start`` in O(W·B) counting steps instead of enumerating the prefix.

Two enumerators:

* :func:`unique_partitions` — canonical enumeration of partitions in
  non-decreasing part order; emits every unique partition exactly
  once.  This is what the production pipeline uses.

* :func:`increment_partitions` — the paper's recursive ``Increment``
  odometer (Fig. 3).  Loop variables ``w_1 .. w_{B-1}`` each range
  from 1 up to the Line-1 bound  floor((W - sum of earlier parts) /
  (B - i + 1)), and ``w_B`` takes the remainder.  The bound suppresses
  "a sizeable number" of duplicate (reordered) partitions but not all
  of them — e.g. for W=9, B=3 it emits both (1,2,6) and (2,1,6).
  Kept verbatim for the fidelity/ablation study
  (``benchmarks/bench_ablation_pruning.py``).

Both yield tuples of length ``parts`` summing to ``total`` with every
part >= 1, and both match the paper's worked example: for W=8, B=4
the first three partitions are (1,1,1,5), (1,1,2,4), (1,1,3,3), and
the reordering (1,3,1,3) of (1,1,3,3) is never emitted (the Line-1
bound caps w_2 at 2).
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.exceptions import ConfigurationError
from repro.partition.count import count_partitions, count_partitions_min


def _check(total: int, parts: int) -> None:
    if total < 1:
        raise ConfigurationError(f"total width must be >= 1, got {total}")
    if parts < 1:
        raise ConfigurationError(f"number of parts must be >= 1, got {parts}")
    if parts > total:
        raise ConfigurationError(
            f"cannot split width {total} into {parts} buses of width >= 1"
        )


def unique_partitions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """Every partition of ``total`` into ``parts`` parts, exactly once.

    Parts are emitted in non-decreasing order within each tuple;
    tuples are emitted in lexicographic order.

    >>> list(unique_partitions(8, 4))
    [(1, 1, 1, 5), (1, 1, 2, 4), (1, 1, 3, 3), (1, 2, 2, 3), (2, 2, 2, 2)]
    """
    _check(total, parts)

    def recurse(
        remaining: int, slots: int, minimum: int, prefix: Tuple[int, ...]
    ) -> Iterator[Tuple[int, ...]]:
        if slots == 1:
            yield prefix + (remaining,)
            return
        # Largest value keeping the suffix non-decreasing and feasible.
        upper = remaining // slots
        for value in range(minimum, upper + 1):
            yield from recurse(
                remaining - value, slots - 1, value, prefix + (value,)
            )

    yield from recurse(total, parts, 1, ())


def increment_partitions(
    total: int, parts: int
) -> Iterator[Tuple[int, ...]]:
    """The paper's ``Increment`` odometer, duplicates and all.

    >>> list(increment_partitions(9, 3))[:4]
    [(1, 1, 7), (1, 2, 6), (1, 3, 5), (1, 4, 4)]
    >>> (2, 1, 6) in list(increment_partitions(9, 3))  # surviving duplicate
    True
    """
    _check(total, parts)

    def recurse(
        remaining: int, position: int, prefix: Tuple[int, ...]
    ) -> Iterator[Tuple[int, ...]]:
        slots_left = parts - position + 1
        if slots_left == 1:
            yield prefix + (remaining,)
            return
        # Line 1 of Increment: w_position may not exceed the average
        # of what is left for it and all later parts.
        upper = remaining // slots_left
        for value in range(1, upper + 1):
            yield from recurse(remaining - value, position + 1,
                               prefix + (value,))

    yield from recurse(total, 1, ())


def partitions_slice(
    total: int, parts: int, start: int, stop: int
) -> Iterator[Tuple[int, ...]]:
    """Partitions of rank ``[start, stop)`` in canonical order.

    Identical to ``list(unique_partitions(total, parts))[start:stop]``,
    but the prefix is *skipped*, not enumerated: at every level of the
    recursion whole subtrees are jumped over by their counted size
    (:func:`~repro.partition.count.count_partitions_min`), so seeking
    costs O(total · parts) counting steps.  This is what lets the
    sharded sweep hand each worker a contiguous index range.

    >>> list(partitions_slice(8, 4, 1, 3))
    [(1, 1, 2, 4), (1, 1, 3, 3)]
    >>> list(partitions_slice(8, 4, 0, 5)) == list(unique_partitions(8, 4))
    True
    """
    _check(total, parts)
    available = count_partitions(total, parts)
    if not 0 <= start <= stop <= available:
        raise ConfigurationError(
            f"slice [{start}, {stop}) outside the {available} "
            f"partitions of {total} into {parts} parts"
        )
    budget = stop - start
    if budget == 0:
        return

    def recurse(
        remaining: int, slots: int, minimum: int,
        prefix: Tuple[int, ...], skip: int,
    ) -> Iterator[Tuple[int, ...]]:
        if slots == 1:
            yield prefix + (remaining,)
            return
        upper = remaining // slots
        for value in range(minimum, upper + 1):
            size = count_partitions_min(
                remaining - value, slots - 1, value
            )
            if skip >= size:
                skip -= size
                continue
            yield from recurse(
                remaining - value, slots - 1, value,
                prefix + (value,), skip,
            )
            skip = 0

    emitted = 0
    for widths in recurse(total, parts, 1, (), start):
        yield widths
        emitted += 1
        if emitted == budget:
            return


def is_valid_partition(widths: Tuple[int, ...], total: int) -> bool:
    """True when ``widths`` is a legal partition of ``total``."""
    return (
        len(widths) >= 1
        and all(width >= 1 for width in widths)
        and sum(widths) == total
    )
