"""Durable job journal: crash-safe record of accepted work.

The :class:`~repro.service.server.ExplorationServer` keeps job
records in memory — fine for liveness, fatal for durability: a
killed server silently loses every queued and in-flight job.  The
:class:`JobJournal` fixes that with the classic recipe — state in
the store, process stateless:

* every *accepted* submission appends a ``submitted`` entry (the
  job id, its canonical content key and its
  :class:`~repro.api.GridSpec` record, runner hints included — all
  a replay needs) and is fsynced before the caller learns the job
  id — the at-least-once half of the durability contract;
* every *terminal* transition (done / failed / cancelled) appends a
  ``terminal`` entry, fsync-batched (losing a terminal entry merely
  re-runs a finished grid, and the :class:`~repro.service.store.
  GridMemo` answers that replay instantly — the effectively
  exactly-once half).

On startup the server calls :meth:`replay`: entries are folded in
order, anything submitted but not terminal is returned for automatic
resubmission (deduplicated by canonical key), and the journal is
compacted down to just those open entries.

The format is one JSON object per line, append-only.  A torn final
line is the *expected* crash artifact and is dropped silently;
corrupt interior lines are skipped with a warning — a damaged
journal degrades to replaying less, never to refusing to start.
"""

from __future__ import annotations

import json
import logging
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

__all__ = ["JobJournal", "JournalEntry", "JOURNAL_NAME"]

logger = logging.getLogger(__name__)

#: File name inside the cache directory, next to the table store.
JOURNAL_NAME = "journal.jsonl"


@dataclass(frozen=True)
class JournalEntry:
    """One open (submitted, not yet terminal) journal record.

    ``spec`` is the submission's ``GridSpec.to_dict()`` record; the
    server writes one on every line.  It reads as ``None`` only from
    a line an older build wrote without one, which replay marks
    ``lost``.  ``client_id``/``priority`` carry the submitting tenant
    so a replay after a crash restores per-client accounting, not
    just the work itself.  Absent on pre-tenancy journals — replay
    then runs the entry as the anonymous client, which is exactly
    what those servers did.
    """

    job_id: str
    key: Optional[str]
    spec: Optional[Dict[str, Any]]
    client_id: Optional[str] = None
    priority: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """The ``submitted`` line this entry serializes to."""
        record: Dict[str, Any] = {
            "kind": "submitted",
            "job": self.job_id,
            "key": self.key,
            "spec": self.spec,
        }
        if self.client_id is not None:
            record["client"] = self.client_id
        if self.priority is not None:
            record["priority"] = self.priority
        return record


class JobJournal:
    """Append-only, fsync-batched journal of job submissions/outcomes.

    Parameters
    ----------
    path:
        The journal file (created on first append; parent directory
        must exist — it is the cache directory).
    fsync_every:
        Terminal entries are fsynced at most every this many appends
        (and on :meth:`close`).  ``submitted`` entries are *always*
        fsynced — accepting a job is the durability point.
    """

    def __init__(self, path: Path, fsync_every: int = 8) -> None:
        self.path = Path(path)
        self._fsync_every = max(1, int(fsync_every))
        self._lock = threading.Lock()
        self._handle: Optional[Any] = None
        self._unsynced = 0
        self._appends_since_compact = 0
        self.compactions = 0
        self.last_replay_lines = 0

    # -- appends ------------------------------------------------------

    def record_submitted(self, entry: JournalEntry) -> None:
        """Durably record an accepted submission (always fsynced)."""
        self._append(entry.to_dict(), sync=True)

    def record_terminal(self, job_id: str, status: str) -> None:
        """Record a terminal transition (fsync-batched)."""
        self._append(
            {"kind": "terminal", "job": job_id, "status": status},
            sync=False,
        )

    def record_replayed(self, job_id: str, new_job_id: str) -> None:
        """Mark an open entry as resubmitted under a new job id.

        Treated as terminal for ``job_id`` on the next replay; the
        new submission writes its own ``submitted`` entry.
        """
        self._append(
            {"kind": "replayed", "job": job_id, "as": new_job_id},
            sync=True,
        )

    def _append(self, record: Dict[str, Any], sync: bool) -> None:
        line = json.dumps(record, sort_keys=True)
        with self._lock:
            if self._handle is None:
                self._handle = open(
                    self.path, "a", encoding="utf-8"
                )
            self._handle.write(line + "\n")
            self._handle.flush()
            self._unsynced += 1
            self._appends_since_compact += 1
            if sync or self._unsynced >= self._fsync_every:
                os.fsync(self._handle.fileno())
                self._unsynced = 0

    # -- replay / compaction ------------------------------------------

    def replay(self) -> List[JournalEntry]:
        """Fold the journal; return open entries in submission order.

        Tolerant by design: a torn final line (the normal artifact of
        dying mid-append) is dropped silently; any other undecodable
        line is skipped with a warning.
        """
        self.last_replay_lines = 0
        if not self.path.exists():
            return []
        try:
            raw = self.path.read_bytes()
        except OSError as error:
            logger.warning(
                "could not read job journal %s: %s", self.path, error
            )
            return []
        lines = raw.split(b"\n")
        # A well-formed journal ends with a newline, so the final
        # split element is empty; anything else is a torn tail.
        torn_tail = lines and lines[-1] != b""
        open_entries: Dict[str, JournalEntry] = {}
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            self.last_replay_lines += 1
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("journal line must be an object")
                kind = record["kind"]
                job_id = str(record["job"])
            except (ValueError, KeyError) as error:
                if torn_tail and index == len(lines) - 1:
                    continue  # dying mid-append is not corruption
                logger.warning(
                    "skipping corrupt journal line %d in %s: %s",
                    index + 1, self.path, error,
                )
                continue
            if kind == "submitted":
                spec = record.get("spec")
                client_id = record.get("client")
                priority = record.get("priority")
                open_entries[job_id] = JournalEntry(
                    job_id=job_id,
                    key=record.get("key"),
                    spec=spec if isinstance(spec, dict) else None,
                    client_id=(
                        str(client_id) if client_id is not None
                        else None
                    ),
                    priority=(
                        str(priority) if priority is not None
                        else None
                    ),
                )
            elif kind in ("terminal", "replayed"):
                open_entries.pop(job_id, None)
            else:
                logger.warning(
                    "skipping unknown journal record kind %r in %s",
                    kind, self.path,
                )
        return list(open_entries.values())

    def compact(self, open_entries: List[JournalEntry]) -> None:
        """Atomically rewrite the journal to just ``open_entries``.

        Called after replay so the file does not grow without bound
        across restarts.  The rewrite is tmp-file + ``os.replace``;
        a crash mid-compaction leaves the old journal intact.
        """
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
                self._unsynced = 0
            tmp = self.path.with_name(self.path.name + ".tmp")
            with open(tmp, "w", encoding="utf-8") as handle:
                for entry in open_entries:
                    handle.write(
                        json.dumps(entry.to_dict(), sort_keys=True)
                        + "\n"
                    )
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.path)
            self._appends_since_compact = 0
            self.compactions += 1

    def compact_if_needed(
        self, open_entries: List[JournalEntry], threshold: int
    ) -> bool:
        """Compact when the journal has grown past ``threshold`` lines.

        The trigger is dead weight, not size: at startup the line
        count just replayed, at runtime the appends since the last
        compaction — either way a journal holding at most
        ``threshold`` live-or-settled lines is left alone, so steady
        low-traffic servers never pay the rewrite.  Returns whether a
        compaction ran.
        """
        grown = max(
            self.last_replay_lines, self._appends_since_compact
        )
        if grown <= max(0, int(threshold)):
            return False
        self.compact(open_entries)
        self.last_replay_lines = 0
        return True

    def close(self) -> None:
        """Flush, fsync, and release the append handle."""
        with self._lock:
            if self._handle is None:
                return
            self._handle.flush()
            if self._unsynced:
                os.fsync(self._handle.fileno())
                self._unsynced = 0
            self._handle.close()
            self._handle = None
