"""Table transport for pool workers, and the incumbent board.

The parent builds each SOC's wrapper tables once and ships workers a
:class:`DenseDescriptor`: the SOC fingerprint, the sweep width, and
the parent's own :class:`~repro.wrapper.pareto.TimeTable` list,
pickled once per SOC by :class:`SegmentRegistry`.  The descriptor
rides the pool's pickle channel with each task as plain bytes: a
whole SOC packs into at most about 150 KiB (p93791 at W=64), cheap
against grid points that take milliseconds to seconds.  Workers
unpickle each SOC's tables once per process and build the dense
matrix from them with :func:`~repro.engine.kernel.build_dense_matrix`,
the same call the parent makes (:func:`attach`).  So the same tables
serve on both sides of the pool, and a worker runs no
``Design_wrapper``.

Shared memory carries only the **incumbent board**
(:class:`IncumbentBoard`): a tiny int64 array with one slot of
``keep_top`` best-times per shard of an intra-job sharded sweep
(:mod:`repro.partition.shard`) — live state that shards write while
they run.  Each shard writes only its own slot and reads only
earlier shards' slots (forward-only, which is what keeps the merged
result bit-identical to the serial sweep), so no locking is needed;
a torn read is not a correctness hazard on any platform CPython
supports shared memory on, because slot writes are single aligned
8-byte stores.  A board that cannot be created or attached only
costs the broadcast: shards run with looser thresholds and the
merged outcome is the same.  Nothing else asks for shared memory:
the islands of a fanned search share nothing while they run.

Python ≤ 3.12 registers *attached* segments with the worker's
``resource_tracker`` too, which would tear a segment down (and warn)
as soon as any one worker exits; the attach path therefore
unregisters them — cleanup stays the creator's job.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.kernel import DenseTimeMatrix, build_dense_matrix
from repro.wrapper.pareto import TimeTable

try:  # pragma: no cover - import guard for exotic builds
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - no _posixshmem / _winapi
    _shared_memory = None  # type: ignore[assignment]


@dataclass(frozen=True)
class DenseDescriptor:
    """Everything a worker needs to rebuild one SOC's tables and matrix.

    ``payload`` is the parent's :class:`~repro.wrapper.pareto.
    TimeTable` list for the SOC, in core order, pickled;
    ``total_width`` is the width of the dense matrix the worker
    builds from it; ``fingerprint`` is the :func:`repro.soc.
    fingerprint.soc_fingerprint` of the SOC, the key workers cache
    the result under.
    """

    fingerprint: str
    total_width: int
    payload: bytes


class SegmentRegistry:
    """Parent-side cache of published descriptors, by SOC fingerprint.

    Pickles each SOC's tables once: a descriptor already published
    for a fingerprint is reused while it is wide enough, and replaced
    otherwise, so every task of that SOC ships the same bytes.
    :meth:`close` forgets everything —
    :class:`~repro.engine.batch.BatchRunner` calls it when its pool
    goes away.
    """

    def __init__(self) -> None:
        self._descriptors: Dict[str, DenseDescriptor] = {}

    def publish(
        self,
        fingerprint: str,
        tables: Iterable[TimeTable],
        total_width: int,
    ) -> DenseDescriptor:
        """A descriptor carrying ``tables`` for a ``total_width`` sweep."""
        held = self._descriptors.get(fingerprint)
        if held is not None and held.total_width >= total_width:
            return held
        descriptor = DenseDescriptor(
            fingerprint=fingerprint,
            total_width=total_width,
            payload=pickle.dumps(list(tables), pickle.HIGHEST_PROTOCOL),
        )
        self._descriptors[fingerprint] = descriptor
        return descriptor

    def close(self) -> None:
        """Forget every published descriptor (idempotent)."""
        self._descriptors.clear()

    def __len__(self) -> int:
        return len(self._descriptors)


#: Worker-side cache of unpickled tables and the matrix built from
#: them, keyed by SOC fingerprint — one unpickle and one build per SOC
#: per worker process, the matrix's column/pick-order memos shared by
#: every job that names it.  A descriptor of another width for the
#: same SOC replaces the entry, so a growing matrix keeps one
#: generation per worker, not all of them.
_ATTACHED: Dict[str, Tuple[List[TimeTable], DenseTimeMatrix]] = {}


def attach(
    descriptor: DenseDescriptor,
) -> Tuple[List[TimeTable], DenseTimeMatrix]:
    """The descriptor's (tables in core order, matrix), once per worker.

    The tables are positional: the fingerprint ignores core names, so
    one descriptor serves every SOC of the same structure, and each
    job names the tables by its own cores.  The payload is only ever
    bytes the parent pickled for this pool, received over the pool's
    own pickle channel.
    """
    held = _ATTACHED.get(descriptor.fingerprint)
    if held is None or held[1].total_width != descriptor.total_width:
        tables: List[TimeTable] = pickle.loads(descriptor.payload)
        held = (tables, build_dense_matrix(tables, descriptor.total_width))
        _ATTACHED[descriptor.fingerprint] = held
    return held


@dataclass(frozen=True)
class BoardDescriptor:
    """How a pool worker finds a sharded sweep's incumbent board."""

    shm_name: str
    num_shards: int
    keep_top: int


class IncumbentBoard:
    """Cross-process incumbent slots for one sharded partition sweep.

    An int64 array of ``num_shards`` slots × ``keep_top`` entries,
    initialized to :data:`SENTINEL`.  Shard ``s`` *writes* only slot
    ``s`` (its current best times, ascending) and *reads* only slots
    ``< s`` — the forward-only broadcast the sharded sweep's
    determinism argument rests on (:mod:`repro.partition.shard`).
    Single-writer slots need no locking, and every write is one
    aligned 8-byte store.

    The parent owns the segment (:meth:`create` / :meth:`close`);
    workers :meth:`attach` by descriptor and close their mapping when
    the shard finishes.  Every failure path returns ``None`` — the
    sweep simply runs without cross-shard sharing, which cannot
    change its outcome.
    """

    SENTINEL = 1 << 62

    def __init__(self, segment: "_shared_memory.SharedMemory",
                 num_shards: int, keep_top: int,
                 owner: bool) -> None:
        self._segment = segment
        self._view = memoryview(segment.buf).cast("q")
        self.num_shards = num_shards
        self.keep_top = keep_top
        self._owner = owner

    @classmethod
    def create(
        cls, num_shards: int, keep_top: int = 1
    ) -> "Optional[IncumbentBoard]":
        """A zeroed board, or ``None`` when shared memory is absent."""
        if _shared_memory is None:
            return None
        size = num_shards * keep_top * 8
        try:
            segment = _shared_memory.SharedMemory(
                create=True, size=size
            )
        except OSError:
            return None
        board = cls(segment, num_shards, keep_top, owner=True)
        for index in range(num_shards * keep_top):
            board._view[index] = cls.SENTINEL
        return board

    def descriptor(self) -> BoardDescriptor:
        """The attach handle workers receive in their shard payload."""
        return BoardDescriptor(
            shm_name=self._segment.name,
            num_shards=self.num_shards,
            keep_top=self.keep_top,
        )

    @classmethod
    def attach(
        cls, descriptor: Optional[BoardDescriptor]
    ) -> "Optional[IncumbentBoard]":
        """The descriptor's board, or ``None`` when it cannot be had."""
        if descriptor is None or _shared_memory is None:
            return None
        try:
            segment = _attach_untracked(descriptor.shm_name)
        except (OSError, ValueError):
            return None
        expected = descriptor.num_shards * descriptor.keep_top * 8
        if segment.size < expected:  # pragma: no cover - size mismatch
            segment.close()
            return None
        return cls(
            segment, descriptor.num_shards, descriptor.keep_top,
            owner=False,
        )

    def publish(
        self, shard_index: int, times: Sequence[int]
    ) -> None:
        """Record ``shard_index``'s current kept times (ascending)."""
        base = shard_index * self.keep_top
        view = self._view
        for offset in range(self.keep_top):
            view[base + offset] = (
                times[offset] if offset < len(times) else self.SENTINEL
            )

    def earlier_times(self, shard_index: int) -> List[int]:
        """Every time published by shards before ``shard_index``."""
        sentinel = self.SENTINEL
        return [
            value
            for value in self._view[:shard_index * self.keep_top]
            if value < sentinel
        ]

    def close(self) -> None:
        """Release the mapping; the owner also unlinks the segment."""
        self._view.release()
        try:
            self._segment.close()
            if self._owner:
                self._segment.unlink()
        except OSError:  # pragma: no cover - already gone
            pass


def _attach_untracked(name: str) -> "_shared_memory.SharedMemory":
    """Attach to ``name`` without telling the resource tracker.

    Python ≤ 3.12 registers *attached* segments with the resource
    tracker too; with the pool's shared tracker that interleaves
    registrations and the creator's eventual unregister arbitrarily,
    producing spurious unlinks and tracker warnings.  Cleanup belongs
    to the creating process alone, so the registration is suppressed
    for the duration of the attach (the standard workaround for
    https://github.com/python/cpython/issues/82300; Python 3.13's
    ``track=False`` makes it official).
    """
    try:
        from multiprocessing import resource_tracker
    except ImportError:  # pragma: no cover - exotic build
        return _shared_memory.SharedMemory(name=name)
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return _shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original
