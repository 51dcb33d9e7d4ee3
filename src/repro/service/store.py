"""On-disk persistence of wrapper time tables.

``Design_wrapper`` is the pipeline's only expensive primitive, and
its outputs depend on nothing but a core's scan/IO structure — the
perfect memoization target.  :class:`TableStore` persists each core's
Pareto-compressed :class:`~repro.wrapper.pareto.TimeTable` staircase
as one JSON file per *content hash* (:func:`repro.soc.fingerprint.
core_fingerprint`), so repeated CLI invocations, benchmark runs and
service restarts skip wrapper design entirely once a core has been
tabulated at a sufficient width.

Layout and semantics:

* ``<directory>/<fingerprint>.json`` — one record per distinct core
  structure, in the :func:`repro.report.serialize.time_table_to_dict`
  format.  Identically-structured cores (common in synthesized SOCs)
  share a single entry; core *names* never appear in the key.
* **Invalidation is automatic**: editing a core's patterns, terminals
  or scan chains changes its fingerprint, so the next lookup simply
  misses (the stale entry is ignored, not served).  Bumping
  :data:`repro.soc.fingerprint.ALGORITHM_VERSION` invalidates every
  entry at once.
* **Extend-in-place**: a stored table covering width ``w`` answers a
  request for ``w' > w`` by paying only the ``w' - w`` missing
  designs, mirroring :meth:`repro.engine.cache.WrapperTableCache.
  ensure`; :meth:`TableStore.save` then widens the record (and never
  narrows it — concurrent writers can only grow coverage).
* Unreadable, corrupt or mismatching records are treated as misses,
  never as errors: the store is a cache, the builder is the truth.
  For the same reason a failed write is logged and counted under
  ``store.write_errors``, never raised: the tables stay in memory.
"""

from __future__ import annotations

import contextlib
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

try:  # POSIX-only; the store degrades to lock-free elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.engine.faults import FaultPlan
from repro.obs import REGISTRY, MetricsRegistry
from repro.report.serialize import (
    SCHEMA_VERSION,
    grid_memo_from_dict,
    grid_memo_to_dict,
    time_table_from_dict,
    time_table_to_dict,
    to_json,
)
from repro.soc.core import Core
from repro.soc.fingerprint import core_fingerprint
from repro.soc.soc import Soc
from repro.wrapper.pareto import TimeTable

logger = logging.getLogger(__name__)


def _quarantine(path: Path, reason: str, metrics: MetricsRegistry) -> None:
    """Move a record that failed validation out of the lookup path.

    The entry is renamed to ``<name>.bad`` (replacing any previous
    quarantined copy) rather than deleted: the next lookup misses and
    rebuilds, while the damaged bytes stay on disk for forensics.
    Counted under ``store.quarantined`` in ``metrics`` so the service
    health block can surface silent corruption.
    """
    target = path.with_name(path.name + ".bad")
    try:
        os.replace(path, target)
    except OSError:
        return  # a racing reader already moved or removed it
    logger.warning(
        "quarantined corrupt store entry %s -> %s (%s)",
        path.name, target.name, reason,
    )
    metrics.counter("store.quarantined").inc()


def _publish(path: Path, payload: str) -> None:
    """Write ``payload`` to ``path`` atomically, through a temp file.

    Concurrent readers see the old record or the new one, never a
    torn write.
    """
    handle, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(handle, "w") as tmp:
            tmp.write(payload)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _corrupt_write_requested() -> bool:
    """Fault hook: should this store write be truncated mid-record?

    Only ever True under an explicit ``REPRO_FAULTS`` plan with a
    ``corrupt`` directive (one-shot, claimed through the plan's state
    directory) — production writes never take this branch.
    """
    plan = FaultPlan.from_env()
    return plan is not None and plan.take_corrupt_write()


class TableStore:
    """A directory of persisted per-core time tables.

    Parameters
    ----------
    directory:
        Where the ``<fingerprint>.json`` records live.  Created on
        first use (including parents); safe to point several
        processes at concurrently — writes are atomic renames and
        never narrow an existing record.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        #: Widths known to be on disk, per fingerprint — a same-process
        #: fast path so repeated saves don't re-parse existing records.
        #: Never trusted to *skip* growth checks under the write lock.
        self._known_widths: Dict[str, int] = {}

    def path_for(self, core: Core) -> Path:
        """The record path serving ``core`` (existing or not)."""
        return self.directory / f"{core_fingerprint(core)}.json"

    @contextlib.contextmanager
    def _write_lock(self) -> Iterator[None]:
        """Serialize same-machine writers (no-op where flock is absent).

        Makes :meth:`save`'s check-then-replace atomic across
        processes sharing this directory, so a narrower writer can
        never clobber a wider record it raced with.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        handle = os.open(
            self.directory / ".lock", os.O_CREAT | os.O_RDWR, 0o644
        )
        try:
            fcntl.flock(handle, fcntl.LOCK_EX)
            yield
        finally:
            os.close(handle)  # closing drops the flock

    def load(self, core: Core) -> Optional[TimeTable]:
        """The stored table for ``core``'s structure, or ``None``.

        Misses on: absent record, unreadable/corrupt JSON, schema or
        fingerprint mismatch, or an invalid staircase.  Never raises
        for bad cache contents — the caller falls back to building.
        A record that *exists* but fails validation is deleted, so a
        bad header can never block :meth:`save` from repairing the
        entry with a freshly built table.
        """
        path = self.path_for(core)
        try:
            data = json.loads(path.read_text())
        except OSError:
            return None
        except ValueError:
            self._discard(path, core_fingerprint(core),
                          "undecodable JSON")
            return None
        try:
            table = time_table_from_dict(data, core)
        except Exception as error:
            self._discard(path, core_fingerprint(core),
                          f"invalid record: {error}")
            return None
        fingerprint = core_fingerprint(core)
        self._known_widths[fingerprint] = max(
            self._known_widths.get(fingerprint, 0), table.max_width
        )
        return table

    def save(self, table: TimeTable) -> bool:
        """Persist ``table``, widening its record if needed.

        Returns True when a record was written, False when the
        existing record already covers ``table.max_width`` (saving a
        narrower table never clobbers a wider one — the growth check
        and the replace happen under one cross-process write lock,
        so racing workers can only grow the store) or when the write
        failed (logged and counted, never raised).  Directory
        creation is lazy: a store is free until something is worth
        keeping.
        """
        fingerprint = core_fingerprint(table.core)
        # Same-process fast path: a width we have already seen on
        # disk can only have grown since.
        if self._known_widths.get(fingerprint, -1) >= table.max_width:
            return False
        path = self.path_for(table.core)
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with self._write_lock():
                existing = self.stored_width(table.core)
                if existing >= table.max_width:
                    return False
                payload = to_json(time_table_to_dict(table))
                if _corrupt_write_requested():
                    payload = payload[: max(1, len(payload) // 2)]
                _publish(path, payload)
                self._known_widths[fingerprint] = table.max_width
        except OSError as error:
            logger.warning("table store write failed: %s", error)
            REGISTRY.counter("store.write_errors").inc()
            return False
        return True

    def _discard(
        self, path: Path, fingerprint: str, reason: str
    ) -> None:
        """Quarantine a record that failed validation."""
        _quarantine(path, reason, REGISTRY)
        self._known_widths.pop(fingerprint, None)

    def stored_width(self, core: Core) -> int:
        """Width the stored record covers for ``core`` (0 on miss).

        Reads the record header without reconstructing designs, so
        callers can decide whether a save would widen anything.
        Header-only by design: a record with a healthy header but a
        body :meth:`load` rejects is removed *by load*, so this check
        can never leave the store permanently cold.
        """
        path = self.path_for(core)
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return 0
        if (
            not isinstance(data, dict)
            or data.get("schema") != SCHEMA_VERSION
            or data.get("kind") != "time_table"
            or data.get("fingerprint") != core_fingerprint(core)
        ):
            return 0
        width = data.get("max_width")
        if not isinstance(width, int) or width < 1:
            return 0
        fingerprint = core_fingerprint(core)
        self._known_widths[fingerprint] = max(
            self._known_widths.get(fingerprint, 0), width
        )
        return width

    def fetch(self, core: Core, max_width: int) -> TimeTable:
        """Load-or-build ``core``'s table covering ``max_width``.

        The convenience one-shot: a hit wide enough is returned as
        is; a narrower hit is extended in place (paying only the
        missing widths) and re-persisted; a miss builds fresh and
        persists.  Heavy consumers should prefer a store-backed
        :class:`repro.engine.cache.WrapperTableCache`, which adds the
        in-memory sharing layer on top of this.
        """
        table = self.load(core)
        if table is None:
            table = TimeTable(core, max_width)
            self.save(table)
        elif table.max_width < max_width:
            table.extend_to(max_width)
            self.save(table)
        return table

    def tables(self, soc: Soc, max_width: int) -> Dict[str, TimeTable]:
        """Core-name → table dict for ``soc`` via :meth:`fetch`."""
        return {
            core.name: self.fetch(core, max_width)
            for core in soc.cores
        }

    def entries(self) -> List[Path]:
        """Paths of every record currently in the store."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.json"))

    def __len__(self) -> int:
        return len(self.entries())

    def clear(self) -> int:
        """Delete every record; returns how many were removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        self._known_widths.clear()
        return removed


class GridMemo:
    """On-disk memoization of finished exploration grids.

    The exploration server's in-memory memo answers identical
    re-submissions within one process; this store is the cross-restart
    half of that contract (ROADMAP: "memo persisted next to the table
    store").  One ``<canonical_key>.json`` per completed clean grid —
    the key is :meth:`repro.api.GridSpec.canonical_key`, a content
    hash over SOC fingerprints and normalized options, so it is
    identical across processes, protocol versions and CLI surfaces.

    Same cache discipline as :class:`TableStore`: unreadable, corrupt
    or key-mismatching records are misses, never errors; writes are
    atomic renames; entries hold *serialized* results (the exact
    ``points``/``failures`` payload the IPC ``result`` op returns),
    so serving one costs no object reconstruction.

    Its quarantines and failed writes count in ``metrics``: the
    exploration server passes its runner's registry, whose counters
    its health block reads, since memo reads and writes happen
    outside any task's telemetry window.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        metrics: MetricsRegistry = REGISTRY,
    ) -> None:
        self.directory = Path(directory)
        self.metrics = metrics

    def path_for(self, key: str) -> Path:
        """The record path serving canonical ``key``."""
        return self.directory / f"{key}.json"

    def load(self, key: str) -> Optional[Dict[str, object]]:
        """The stored payload for ``key``, or ``None`` on any miss.

        A record written by a *newer* build (unknown schema version)
        is a miss but is left on disk — a rolled-back server must
        never destroy entries the newer build can still serve.  Only
        records this build positively identifies as corrupt or
        mismatched are removed.
        """
        path = self.path_for(key)
        try:
            data = json.loads(path.read_text())
        except OSError:
            return None
        except ValueError:
            self._discard(path, "undecodable JSON")
            return None
        if isinstance(data, dict) \
                and data.get("schema") != SCHEMA_VERSION:
            return None
        try:
            return grid_memo_from_dict(data, key)
        except Exception as error:
            self._discard(path, f"invalid record: {error}")
            return None

    def _discard(self, path: Path, reason: str) -> None:
        """Quarantine a record this build knows is bad."""
        _quarantine(path, reason, self.metrics)

    def save(
        self, key: str, payload: Dict[str, object], num_jobs: int
    ) -> bool:
        """Persist a finished grid's payload under ``key``.

        Atomic publish (temp file + rename), idempotent — a key
        already present is simply rewritten with identical content
        (the pipeline is deterministic).  Returns False when the
        write failed (logged and counted); persistence is best-effort
        and never takes a finished grid down with it.
        """
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            _publish(
                self.path_for(key),
                to_json(grid_memo_to_dict(key, payload, num_jobs)),
            )
        except OSError as error:
            logger.warning("grid memo write failed: %s", error)
            self.metrics.counter("store.write_errors").inc()
            return False
        return True

    def entries(self) -> List[Path]:
        """Paths of every memo record currently on disk."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.json"))

    def __len__(self) -> int:
        return len(self.entries())

    def clear(self) -> int:
        """Delete every memo record; returns how many were removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
