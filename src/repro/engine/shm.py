"""Table transport for pool workers.

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

No fanned task shares state while it runs: sweep shards are seeded
from the shards already finished when they are submitted
(:func:`repro.partition.shard.kept_times`) and search islands share
nothing, so the engine asks for no shared memory at all.  The module
and :class:`SegmentRegistry` keep their names from when descriptors
pointed at shared-memory segments; the end-to-end benchmark traces
``SegmentRegistry.publish`` and :func:`attach` under them.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from repro.engine.kernel import DenseTimeMatrix, build_dense_matrix
from repro.wrapper.pareto import TimeTable


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
