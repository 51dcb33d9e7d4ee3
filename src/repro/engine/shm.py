"""Dense-matrix transport for pool workers, and the incumbent board.

The parent builds each SOC's dense N×W matrix once
(:func:`repro.engine.kernel.build_dense_matrix`) and ships workers a
:class:`DenseDescriptor` carrying the matrix's int64 bytes, its shape
and the SOC fingerprint, plus the wrapper-design staircases
(:func:`design_steps_blob`).  The descriptor rides the pool's pickle
channel with each task: a whole SOC packs into tens to a couple of
hundred kilobytes, microseconds to pickle against grid points that
take milliseconds to seconds.  Workers unpack each matrix once per
process (:func:`attach`) and decode its staircases once
(:func:`attach_design_steps`), so the scoring path builds no wrapper
tables and runs no ``Design_wrapper`` in a worker.

Shared memory carries only the **incumbent board**
(:class:`IncumbentBoard`): a tiny int64 array with one slot of
``keep_top`` best-times per shard of an intra-job sharded sweep
(:mod:`repro.partition.shard`) or per island of a fanned search —
live state that tasks write while they run.  Each shard writes only
its own slot and reads only earlier shards' slots (forward-only,
which is what keeps the merged result bit-identical to the serial
sweep), so no locking is needed; a torn read is not a correctness
hazard on any platform CPython supports shared memory on, because
slot writes are single aligned 8-byte stores.  A board that cannot
be created or attached only costs the broadcast: tasks run with
looser thresholds and the merged outcome is the same.

Python ≤ 3.12 registers *attached* segments with the worker's
``resource_tracker`` too, which would tear a segment down (and warn)
as soon as any one worker exits; the attach path therefore
unregisters them — cleanup stays the creator's job.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.engine.kernel import DenseTimeMatrix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.wrapper.pareto import TimeTable

try:  # pragma: no cover - import guard for exotic builds
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - no _posixshmem / _winapi
    _shared_memory = None  # type: ignore[assignment]


@dataclass(frozen=True)
class DenseDescriptor:
    """Everything a worker needs to reconstruct a dense matrix.

    ``payload`` is the matrix's native int64 bytes
    (:meth:`~repro.engine.kernel.DenseTimeMatrix.to_bytes`);
    ``fingerprint`` is the :func:`repro.soc.fingerprint.soc_fingerprint`
    of the SOC the matrix was built for, the key workers cache the
    unpacked matrix under.  ``design_payload`` optionally carries the
    wrapper-design staircase blob (:func:`design_steps_blob`).  Absent
    designs only cost speed — workers fall back to on-demand
    ``Design_wrapper`` recovery.
    """

    fingerprint: str
    num_cores: int
    total_width: int
    payload: bytes
    design_payload: Optional[bytes] = None


class SegmentRegistry:
    """Parent-side cache of published descriptors, by SOC fingerprint.

    Packs each matrix once: a descriptor already published for a
    fingerprint is reused while it is wide enough and not missing
    newly available designs, and replaced otherwise.  :meth:`close`
    forgets everything — :class:`~repro.engine.batch.BatchRunner`
    calls it when its pool goes away.
    """

    def __init__(self) -> None:
        self._descriptors: Dict[str, DenseDescriptor] = {}

    def publish(
        self,
        fingerprint: str,
        matrix: DenseTimeMatrix,
        designs: Optional[bytes] = None,
    ) -> DenseDescriptor:
        """A descriptor carrying ``matrix`` and the optional ``designs``."""
        held = self._descriptors.get(fingerprint)
        if held is not None and held.total_width >= matrix.total_width \
                and (held.design_payload is not None or not designs):
            return held
        descriptor = DenseDescriptor(
            fingerprint=fingerprint,
            num_cores=matrix.num_cores,
            total_width=matrix.total_width,
            payload=matrix.to_bytes(),
            design_payload=designs or None,
        )
        self._descriptors[fingerprint] = descriptor
        return descriptor

    def close(self) -> None:
        """Forget every published descriptor (idempotent)."""
        self._descriptors.clear()

    def __len__(self) -> int:
        return len(self._descriptors)


#: Worker-side cache of unpacked matrices, keyed by SOC fingerprint —
#: one unpack per matrix per worker process, its column/pick-order
#: memos shared by every job that names it.  A descriptor of another
#: width for the same SOC replaces the entry, so a growing matrix
#: keeps one generation per worker, not all of them.
_ATTACHED: Dict[str, DenseTimeMatrix] = {}


def attach(descriptor: DenseDescriptor) -> DenseTimeMatrix:
    """The descriptor's matrix, unpacked once per worker process."""
    matrix = _ATTACHED.get(descriptor.fingerprint)
    if matrix is None or matrix.total_width != descriptor.total_width:
        matrix = DenseTimeMatrix.from_buffer(
            descriptor.payload,
            descriptor.num_cores,
            descriptor.total_width,
        )
        _ATTACHED[descriptor.fingerprint] = matrix
    return matrix


def design_steps_blob(tables: "Sequence[TimeTable]") -> bytes:
    """Serialize wrapper-design staircases for the pool transport.

    One record per core: the Pareto breakpoints of its
    :class:`~repro.wrapper.pareto.TimeTable` with each breakpoint's
    serialized design — tens of kilobytes for a whole SOC, versus the
    per-worker ``Design_wrapper`` runs they replace.  The inverse is
    :func:`parse_design_steps`.
    """
    # Imported lazily: the serializer sits above this module.
    from repro.report.serialize import wrapper_design_to_dict

    cores = {
        table.core.name: [
            [width, wrapper_design_to_dict(design)]
            for width, _, design in table.staircase()
        ]
        for table in tables
    }
    return json.dumps(
        {"schema": 1, "kind": "design_staircases", "cores": cores},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")


def parse_design_steps(
    blob: bytes,
) -> Optional[Dict[str, List[Tuple[int, dict]]]]:
    """Decode a :func:`design_steps_blob`; ``None`` when unusable.

    Designs are an optimization, not a correctness dependency, so a
    blob from a different build (schema mismatch, truncation) degrades
    to on-demand recovery instead of failing the job.
    """
    try:
        record = json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or record.get("schema") != 1 \
            or record.get("kind") != "design_staircases":
        return None
    cores = record.get("cores")
    if not isinstance(cores, dict):
        return None
    return {
        str(name): [(int(width), step) for width, step in steps]
        for name, steps in cores.items()
    }


#: Worker-side cache of parsed design staircases, keyed by SOC
#: fingerprint; the first element is the length of the blob they were
#: parsed from (a wider republish ships a longer blob).
_DESIGN_STEPS: Dict[str, Tuple[int, Optional[Dict]]] = {}


def attach_design_steps(
    descriptor: DenseDescriptor,
) -> Optional[Dict[str, List[Tuple[int, dict]]]]:
    """The descriptor's design staircases, or ``None`` when absent.

    Parsed once per worker per blob.  An undecodable blob also
    returns ``None``, and the caller falls back to on-demand design
    recovery.
    """
    blob = descriptor.design_payload
    if blob is None:
        return None
    held = _DESIGN_STEPS.get(descriptor.fingerprint)
    if held is not None and held[0] == len(blob):
        return held[1]
    steps = parse_design_steps(blob)
    _DESIGN_STEPS[descriptor.fingerprint] = (len(blob), steps)
    return steps


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
