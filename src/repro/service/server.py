"""The long-lived exploration job server.

The paper's workload is interactive: an engineer sweeps TAM budgets
over an SOC, looks at the result, and immediately submits a variant.
Paying process-pool startup and wrapper-table construction per
invocation dominates that loop, so :class:`ExplorationServer` keeps
both resident:

* one persistent :class:`~repro.engine.batch.BatchRunner` (pool
  workers stay warm across jobs, their table caches extend rather
  than rebuild, and an optional ``cache_dir`` makes the tables
  outlive the server itself);
* a FIFO job queue drained by a dispatcher thread, with job IDs,
  status/result polling, cancellation of queued jobs, and per-job
  structured failure records (the runner runs with
  ``on_error="record"``, so one bad grid point cannot take down a
  whole submission);
* **result memoization**: a grid identical to one already completed
  — same SOCs by content, same widths, counts and options — is
  answered instantly from the finished job, without touching the
  queue or the pool;
* with a ``cache_dir``, a **durable job journal**: a submission is
  a :class:`repro.api.GridSpec`, and every accepted one journals
  that spec before its job id is returned, so a restarted server
  replays whatever was not finished.

The server is transport-agnostic; :mod:`repro.service.ipc` puts a
line-oriented JSON socket in front of it and
:mod:`repro.service.client` speaks that protocol.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.envelopes import JobEvent
from repro.api.specs import GridSpec, jobs_canonical_key
from repro.engine.batch import (
    BatchJob,
    BatchResult,
    BatchRunner,
    FailedPoint,
    align_point_telemetry,
    normalize_point_timeout,
)
from repro.exceptions import (
    OverloadedError,
    QuotaExceededError,
    ReproError,
    ServiceError,
    UnauthorizedError,
)
from repro.obs.warehouse import RunWarehouse, warehouse_for
from repro.report.serialize import (
    failed_point_to_dict,
    sweep_point_to_dict,
)
from repro.retry import backoff_schedule
from repro.service.journal import JOURNAL_NAME, JobJournal, JournalEntry
from repro.service.store import GridMemo
from repro.service.tenancy import (
    ANONYMOUS_CLIENT,
    AdmissionQueue,
    ClientAccount,
    ClientIdentity,
    PRIORITIES,
    TOKENS_NAME,
    TokenRegistry,
    priority_rank,
)

logger = logging.getLogger(__name__)

#: Job lifecycle states, in order of progress.  ``cancelled`` is
#: reachable only from ``queued`` — a running grid is not interrupted.
#: ``shed`` is the overload variant of ``cancelled``: a queued job
#: evicted by the admission controller to make room for
#: higher-priority work when the bounded queue is full.
JOB_STATUSES: Tuple[str, ...] = (
    "queued", "running", "done", "failed", "cancelled", "shed",
)

#: States from which a job record will never change again.
TERMINAL_STATUSES: Tuple[str, ...] = (
    "done", "failed", "cancelled", "shed",
)

#: Compact the job journal at startup once replay folded more than
#: this many lines; compactions count in ``info()['health']``.
JOURNAL_COMPACT_THRESHOLD = 256

#: Consecutive-overload backoff hints (seconds): the ``retry_after``
#: a rejected client is told grows with each back-to-back overload
#: rejection and resets once any submission is admitted again.
_RETRY_AFTER = backoff_schedule(6, base=0.25, cap=5.0)


def grid_payload(
    jobs: Sequence[BatchJob], results: Sequence[BatchResult]
) -> Dict[str, Any]:
    """Serialize a finished grid: per-point records plus failures.

    The one wire/persistence form of a grid's results — what the IPC
    ``result`` op returns and what :class:`~repro.service.store.
    GridMemo` stores, so a memo entry written by one server answers a
    client of another byte-for-byte.
    """
    points: List[Dict[str, Any]] = []
    failures: List[Dict[str, Any]] = []
    for job, result in zip(jobs, results):
        if isinstance(result, FailedPoint):
            failures.append(failed_point_to_dict(result))
        else:
            points.append(
                dict(sweep_point_to_dict(result), soc=job.soc.name)
            )
    return {"points": points, "failures": failures}


def _point_event(
    record: "JobRecord",
    index: int,
    total: int,
    result: BatchResult,
    metrics: Optional[Dict[str, Any]] = None,
    seq: Optional[int] = None,
) -> JobEvent:
    """One grid point's completion as a streamable :class:`JobEvent`.

    ``metrics`` (a serialized per-point
    :class:`~repro.obs.metrics.MetricsSnapshot` delta) rides inside
    the free-form payload dict — the envelope's locked field set
    (RPR004) is untouched.  ``seq`` is the event's position in the
    stream; it equals ``index`` only while every event is a point
    event (``mode="search"`` points interleave ``incumbent`` events,
    so the live stream passes the append position explicitly).
    """
    if isinstance(result, FailedPoint):
        kind, payload = "failed", failed_point_to_dict(result)
    else:
        kind, payload = "point", dict(
            sweep_point_to_dict(result),
            soc=record.jobs[index].soc.name,
        )
    if metrics is not None:
        payload = dict(payload, metrics=metrics)
    return JobEvent(
        job_id=record.job_id,
        seq=index if seq is None else seq,
        kind=kind,
        index=index,
        total=total,
        payload=payload,
    )


def _incumbent_payloads(
    soc_name: str, search: Any
) -> List[Dict[str, Any]]:
    """The ``incumbent`` event payloads of one finished search point.

    One record per strict improvement in the merged island
    trajectory, in interleave order — what ``submit --stream`` and
    ``tail`` render as the live convergence trail.  ``search`` is the
    point's :class:`repro.search.SearchResult` (or ``None`` for
    exact-tier and failed points, yielding no events).
    """
    if search is None:
        return []
    bound = search.certificate.bound
    return [
        {
            "soc": soc_name,
            "eval": eval_index,
            "island": island_index,
            "time": testing_time,
            "bound": bound,
            "gap": testing_time / bound - 1.0,
        }
        for eval_index, island_index, testing_time
        in search.trajectory
    ]


@dataclass
class JobRecord:
    """One submitted grid and everything known about it.

    Mutable by design — the dispatcher thread advances ``status`` and
    fills in ``payload``/``events``/``error`` under the server's
    lock.  ``key`` is the grid's canonical content hash (the memo
    key); ``payload`` is the finished grid's serialized form
    (:func:`grid_payload`), the one copy every reader gets — whether
    the grid ran here, memo-hit in process, or was answered from the
    *persisted* memo of an earlier server process.
    """

    job_id: str
    jobs: Tuple[BatchJob, ...]
    key: str
    status: str = "queued"
    cached: bool = False
    #: Intra-job sharding hint from the submission's runner options
    #: (``None`` = the runner's own policy).  Pure execution
    #: strategy: not part of ``key``, so any setting memo-hits.
    shard: "Union[int, str, None]" = None
    #: Per-point wall-clock deadline hint (seconds) from the
    #: submission's runner options; like ``shard``, pure execution
    #: strategy excluded from ``key``.
    point_timeout: Optional[float] = None
    #: The submitting tenant and the priority class this job drains
    #: at.  Execution policy only — neither is part of ``key``, so
    #: identical grids memo-hit across clients.
    client_id: str = "anonymous"
    priority: str = "normal"
    #: Per-client concurrency ceiling (grid points in flight on the
    #: pool at once) from the client's quota; ``None`` = uncapped.
    max_concurrent: Optional[int] = None
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    payload: Optional[Dict[str, Any]] = None
    events: List[JobEvent] = field(default_factory=list)
    error: Optional[str] = None
    #: The run's own serialized metrics delta (what this grid cost,
    #: not the runner's lifetime totals), set when the grid finishes.
    metrics: Optional[Dict[str, Any]] = None

    @property
    def is_terminal(self) -> bool:
        """True once the record will never change again."""
        return self.status in TERMINAL_STATUSES

    def snapshot(self) -> Dict[str, object]:
        """Plain-data status view (no result payload), lock-free safe."""
        info: Dict[str, object] = {
            "job": self.job_id,
            "status": self.status,
            "cached": self.cached,
            "num_jobs": len(self.jobs),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "client": self.client_id,
            "priority": self.priority,
        }
        if self.payload is not None:
            info["num_points"] = len(self.payload["points"])
            info["num_failures"] = len(self.payload["failures"])
        if self.error is not None:
            info["error"] = self.error
        if self.metrics is not None:
            info["metrics"] = self.metrics
        return info


class ExplorationServer:
    """A resident worker service over the batch engine.

    Parameters
    ----------
    runner:
        The :class:`~repro.engine.batch.BatchRunner` executing grids.
        When ``None`` one is built from the remaining parameters,
        persistent and with ``on_error="record"`` — the policies a
        long-lived service wants.
    max_workers:
        Pool size for the built runner (``None`` = one per CPU,
        ``1`` = inline execution in the dispatcher thread).
    cache_dir:
        Optional persistent table store directory for the built
        runner (see :class:`repro.service.store.TableStore`).
    max_records:
        Retention bound for *terminal* job records (done / failed /
        cancelled).  ``None`` (default) keeps every record for the
        server's lifetime; with a bound, each submission evicts the
        oldest terminal records beyond it, so a long-lived server's
        memory stays flat.  Queued and running jobs are never
        evicted, and an evicted grid's results remain answerable
        from the persisted memo when a ``cache_dir`` is configured.
    require_auth:
        Enable the tenancy layer: submissions must authenticate via
        a bearer token resolved against ``tokens_path``.  Off by
        default — the anonymous single-trust service is unchanged.
    tokens_path:
        The ``tokens.json`` registry (see
        :class:`repro.service.tenancy.TokenRegistry`).  Defaults to
        ``tokens.json`` next to the cache directory; required (here
        or via ``cache_dir``) when ``require_auth`` is set.
    max_queue_depth:
        Bound on the total admission queue.  When full, an arriving
        submission either sheds the newest queued job of a strictly
        lower priority class or is rejected with a typed
        :class:`~repro.exceptions.OverloadedError` carrying a
        ``retry_after`` hint.  ``None`` (default) = unbounded.
    """

    def __init__(
        self,
        runner: Optional[BatchRunner] = None,
        max_workers: Optional[int] = None,
        cache_dir: Union[str, Path, None] = None,
        max_records: Optional[int] = None,
        require_auth: bool = False,
        tokens_path: Union[str, Path, None] = None,
        max_queue_depth: Optional[int] = None,
    ) -> None:
        if runner is None:
            runner = BatchRunner(
                max_workers=max_workers,
                on_error="record",
                cache_dir=cache_dir,
                persistent=True,
            )
        if max_records is not None and max_records < 1:
            raise ServiceError(
                f"max_records must be >= 1 or None, got {max_records}"
            )
        self.runner = runner
        self.max_records = max_records
        #: Persisted grid memo, next to the runner's table store —
        #: the cross-restart half of result memoization.
        self.grid_memo: Optional[GridMemo] = None
        if self.runner.cache_dir is not None:
            self.grid_memo = GridMemo(
                Path(self.runner.cache_dir) / "grid-memo",
                metrics=self.runner.metrics,
            )
        #: Run warehouse next to the table store: every grid this
        #: server finishes lands there with its metrics and spans,
        #: queryable later by ``repro-tam report``.
        self.warehouse: Optional[RunWarehouse] = warehouse_for(
            self.runner.cache_dir
        )
        #: Durable job journal next to the table store: every
        #: accepted submission's spec and every terminal outcome,
        #: replayed on startup so a killed server loses no jobs.
        self.journal: Optional[JobJournal] = None
        if self.runner.cache_dir is not None:
            # The table store creates this directory lazily; the
            # journal cannot — its very first append must succeed.
            Path(self.runner.cache_dir).mkdir(
                parents=True, exist_ok=True
            )
            self.journal = JobJournal(
                Path(self.runner.cache_dir) / JOURNAL_NAME
            )
        #: Tenancy: the token registry (when auth is on), per-client
        #: live accounting, and the priority-classed admission queue
        #: replacing the old FIFO.
        self.token_registry: Optional[TokenRegistry] = None
        if require_auth:
            if tokens_path is None:
                if self.runner.cache_dir is None:
                    raise ServiceError(
                        "require_auth needs a tokens_path (or a "
                        "cache_dir to find tokens.json next to)"
                    )
                tokens_path = (
                    Path(self.runner.cache_dir) / TOKENS_NAME
                )
            self.token_registry = TokenRegistry.load(tokens_path)
        self.require_auth = require_auth
        self._records: Dict[str, JobRecord] = {}
        self._memo: Dict[str, str] = {}
        self._queue = AdmissionQueue(max_depth=max_queue_depth)
        self._accounts: Dict[str, ClientAccount] = {}
        self._overload_streak = 0
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._counter = 0
        self.memo_hits = 0
        self.records_evicted = 0
        self.jobs_shed = 0
        self._dispatcher = threading.Thread(
            target=self._drain, name="repro-exploration-dispatcher",
            daemon=True,
        )
        # Replay before the dispatcher starts: recovered jobs enqueue
        # in their original submission order, ahead of anything a
        # client submits after startup.
        if self.journal is not None:
            self._replay_journal()
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # Submission and queries
    # ------------------------------------------------------------------
    def submit(
        self,
        grid: GridSpec,
        client: Optional[ClientIdentity] = None,
        priority: Optional[str] = None,
        preadmitted: bool = False,
    ) -> JobRecord:
        """Enqueue a grid; returns its (possibly pre-answered) record.

        ``grid`` is a :class:`repro.api.GridSpec`, the one submission
        form: every accepted job journals that spec, so a restart can
        replay it.  Anything else raises
        :class:`~repro.exceptions.ServiceError` before anything is
        queued or journaled.

        ``client`` is the authenticated tenant the submission runs
        as (default: the unlimited anonymous identity — the
        pre-tenancy behavior); ``priority`` may *lower* the job
        below the client's class.  Admission is checked in order:
        grid size against the client's quota, queued-job count
        against its quota, then the bounded queue — a full queue
        sheds the newest strictly-lower-priority queued job, or
        rejects this arrival with a typed
        :class:`~repro.exceptions.OverloadedError` and a
        ``retry_after`` hint.  ``preadmitted`` (journal replay only)
        skips quota and overload checks: recovered work was already
        admitted once.

        A grid whose canonical key matches a previously *completed*
        clean submission is answered from memo — first the
        in-process memo (sharing the finished payload), then, when a
        ``cache_dir`` is configured, the memo persisted by *any*
        earlier server process on that directory.  Either way the
        returned record is already ``done``, flagged ``cached``, and
        the queue and the pool are never touched (memo hits cost no
        queue quota).
        """
        if not isinstance(grid, GridSpec):
            raise ServiceError(
                f"submit takes a GridSpec, got {type(grid).__name__}"
            )
        identity = ANONYMOUS_CLIENT if client is None else client
        try:
            effective = identity.effective_priority(priority)
        except UnauthorizedError:
            self.note_rejection(identity, "unauthorized")
            raise
        job_tuple = tuple(grid.jobs())
        hints = grid.runner_options()
        # Validated at the boundary: a bad hint answers the submitter,
        # instead of failing the job at dispatch.
        point_timeout = normalize_point_timeout(
            hints.get("point_timeout")
        )
        spec_dict = grid.to_dict()
        key = jobs_canonical_key(job_tuple)
        quota = identity.quota
        shed_job_id: Optional[str] = None
        with self._lock:
            account = self._account_locked(identity)
            if not preadmitted and quota.max_grid_size is not None \
                    and len(job_tuple) > quota.max_grid_size:
                account.rejected_quota += 1
                self.runner.metrics.counter(
                    "service.rejected_quota"
                ).inc()
                raise QuotaExceededError(
                    f"grid of {len(job_tuple)} points exceeds client "
                    f"{identity.client_id!r} max_grid_size "
                    f"{quota.max_grid_size}"
                )
            self._counter += 1
            job_id = f"job-{self._counter:04d}"
            memo_id = self._memo.get(key)
            source = (
                self._records.get(memo_id) if memo_id is not None
                else None
            )
            if source is not None:
                payload = source.payload
            elif self.grid_memo is not None:
                payload = self.grid_memo.load(key)
            else:
                payload = None
            if payload is not None:
                # The memo matches SOCs by content, not by name: the
                # points carry this submission's own SOC names.
                payload = dict(payload, points=[
                    dict(point, soc=job.soc.name)
                    for point, job in zip(payload["points"], job_tuple)
                ])
                record = JobRecord(
                    job_id=job_id,
                    jobs=job_tuple,
                    status="done",
                    cached=True,
                    key=key,
                    client_id=identity.client_id,
                    priority=effective,
                    payload=payload,
                )
                if source is not None:
                    record.started_at = source.started_at
                    record.finished_at = source.finished_at
                    record.metrics = source.metrics
                else:
                    record.finished_at = time.time()
                    self._memo[key] = job_id
                self._records[job_id] = record
                self.memo_hits += 1
                account.submitted += 1
                account.done += 1
                self.runner.metrics.counter("service.memo_hits").inc()
                self._evict_locked(keep=job_id)
                self._journal_submitted(record, spec_dict)
                return record
            if not preadmitted and quota.max_queued_jobs is not None \
                    and account.queued >= quota.max_queued_jobs:
                account.rejected_quota += 1
                self.runner.metrics.counter(
                    "service.rejected_quota"
                ).inc()
                raise QuotaExceededError(
                    f"client {identity.client_id!r} already has "
                    f"{account.queued} queued job(s) "
                    f"(max_queued_jobs {quota.max_queued_jobs})"
                )
            if not preadmitted and self._queue.is_full():
                shed_job_id = self._shed_for_locked(effective)
                if shed_job_id is None and self._queue.is_full():
                    streak = min(
                        self._overload_streak, len(_RETRY_AFTER) - 1
                    )
                    retry_after = _RETRY_AFTER[streak]
                    self._overload_streak += 1
                    account.rejected_overload += 1
                    self.runner.metrics.counter(
                        "service.rejected_overloaded"
                    ).inc()
                    raise OverloadedError(
                        f"admission queue is full "
                        f"({self._queue.max_depth} jobs) and nothing "
                        f"below priority {effective!r} is queued; "
                        f"retry in {retry_after:.2f}s",
                        retry_after=retry_after,
                    )
            record = JobRecord(
                job_id=job_id, jobs=job_tuple, key=key,
                shard=hints.get("shard"), point_timeout=point_timeout,
                client_id=identity.client_id,
                priority=effective,
                max_concurrent=quota.max_concurrent_points,
            )
            self._records[job_id] = record
            account.submitted += 1
            account.queued += 1
            self._overload_streak = 0
            self._evict_locked(keep=job_id)
            # Durability point: the submission is journaled (and
            # fsynced) before the caller ever learns the job id, so
            # an accepted job survives any crash after this line.
            self._journal_submitted(record, spec_dict)
        if shed_job_id is not None:
            self._journal_terminal(shed_job_id, "shed")
        self._queue.push(record.job_id, record.priority)
        return record

    # ------------------------------------------------------------------
    # Tenancy plumbing
    # ------------------------------------------------------------------
    def authenticate(self, token: Optional[str]) -> ClientIdentity:
        """Resolve a bearer token to an identity (IPC entry point).

        With auth off every token — including none — resolves to the
        anonymous identity, exactly the pre-tenancy service.
        """
        if self.token_registry is None:
            return ANONYMOUS_CLIENT
        try:
            return self.token_registry.authenticate(token)
        except UnauthorizedError:
            self.runner.metrics.counter(
                "service.rejected_unauthorized"
            ).inc()
            raise

    def note_rejection(
        self, identity: ClientIdentity, code: str
    ) -> None:
        """Count one policy rejection against ``identity``."""
        counter = {
            "unauthorized": "service.rejected_unauthorized",
            "over_quota": "service.rejected_quota",
            "overloaded": "service.rejected_overloaded",
        }[code]
        self.runner.metrics.counter(counter).inc()
        with self._lock:
            account = self._account_locked(identity)
            if code == "unauthorized":
                account.rejected_unauthorized += 1
            elif code == "over_quota":
                account.rejected_quota += 1
            else:
                account.rejected_overload += 1

    def _account_locked(
        self, identity: ClientIdentity
    ) -> ClientAccount:
        """The live account for ``identity`` (caller holds the lock)."""
        account = self._accounts.get(identity.client_id)
        if account is None:
            account = ClientAccount(identity=identity)
            self._accounts[identity.client_id] = account
        return account

    def _shed_for_locked(self, incoming: str) -> Optional[str]:
        """Evict one queued job strictly below ``incoming`` priority.

        Caller holds the lock.  Returns the shed job id (its terminal
        journal entry is the caller's job, outside the lock), or
        ``None`` when nothing sheddable is queued — including the
        race where the dispatcher popped the candidate first, which
        simply means the queue has room again.
        """
        candidate = self._queue.shed_candidate(incoming)
        if candidate is None:
            return None
        shed_id, shed_priority = candidate
        if not self._queue.remove(shed_id, shed_priority):
            return None
        shed_record = self._records.get(shed_id)
        if shed_record is None or shed_record.status != "queued":
            return None
        shed_record.status = "shed"
        shed_record.finished_at = time.time()
        shed_account = self._accounts.get(shed_record.client_id)
        if shed_account is not None:
            shed_account.queued -= 1
            shed_account.shed += 1
        self.jobs_shed += 1
        self.runner.metrics.counter("service.jobs_shed").inc()
        self._done.notify_all()
        return shed_id

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------
    def _journal_submitted(
        self, record: JobRecord, spec_dict: Dict[str, Any]
    ) -> None:
        """Append one accepted submission; never fails the submit.

        A memo hit is accepted already ``done``: its terminal line
        follows at once.
        """
        if self.journal is None:
            return
        try:
            self.journal.record_submitted(JournalEntry(
                job_id=record.job_id,
                key=record.key,
                spec=spec_dict,
                client_id=record.client_id,
                priority=record.priority,
            ))
            if record.is_terminal:
                self.journal.record_terminal(
                    record.job_id, record.status
                )
        except OSError as error:
            self._journal_degraded(record.job_id, error)

    def _journal_terminal(self, job_id: str, status: str) -> None:
        """Append one terminal transition; never fails the job."""
        if self.journal is None:
            return
        try:
            self.journal.record_terminal(job_id, status)
        except OSError as error:
            self._journal_degraded(job_id, error)

    def _journal_degraded(self, job_id: str, error: OSError) -> None:
        """A journal write failed: log, count, keep serving."""
        logger.warning(
            "journal write for %s failed (durability degraded): %s",
            job_id, error,
        )
        self.runner.metrics.counter("service.journal_errors").inc()

    def _replay_journal(self) -> None:
        """Resubmit every journaled job that never reached terminal.

        Runs once at startup, before the dispatcher.  Open entries
        are deduplicated by canonical key (several crashed
        submissions of the same grid replay as one job — and if the
        grid finished before the crash, the persisted
        :class:`~repro.service.store.GridMemo` answers it instantly),
        then the journal is compacted to just the still-open work.
        """
        assert self.journal is not None
        entries = self.journal.replay()
        replayed_keys: Dict[str, str] = {}
        for entry in entries:
            if entry.key is not None and entry.key in replayed_keys:
                self.journal.record_replayed(
                    entry.job_id, replayed_keys[entry.key]
                )
                continue
            identity = self._replay_identity(entry)
            priority = entry.priority
            if priority not in PRIORITIES or priority_rank(
                priority
            ) < priority_rank(identity.priority):
                # Garbage in the journal, or the client's class was
                # demoted between restarts: run at the current class
                # rather than losing recovered work to a rejection.
                priority = None
            try:
                # A line without a spec (an older build's raw-job
                # submit) or with a schema this build does not read
                # cannot be rebuilt: it is journaled as lost.
                record = self.submit(
                    GridSpec.from_dict(entry.spec),
                    client=identity,
                    priority=priority,
                    preadmitted=True,
                )
            except ReproError as error:
                logger.warning(
                    "could not replay journaled job %s: %s",
                    entry.job_id, error,
                )
                self.runner.metrics.counter(
                    "service.journal_unreplayable"
                ).inc()
                self._journal_terminal(entry.job_id, "lost")
                continue
            logger.info(
                "journal replay: %s resubmitted as %s (%s)",
                entry.job_id, record.job_id, record.status,
            )
            self.journal.record_replayed(entry.job_id, record.job_id)
            self.runner.metrics.counter(
                "service.journal_replays"
            ).inc()
            if entry.key is not None:
                replayed_keys[entry.key] = record.job_id
        if entries or self.journal.path.exists():
            # Auto-compaction: only rewrite the file once its dead
            # weight (replayed-and-settled lines) crosses the
            # threshold, so small journals restart without paying an
            # fsync'd rewrite every time.
            try:
                if self.journal.compact_if_needed(
                    self.journal.replay(), JOURNAL_COMPACT_THRESHOLD,
                ):
                    self.runner.metrics.counter(
                        "service.journal_compactions"
                    ).inc()
            except OSError as error:
                self._journal_degraded("compact", error)

    def _replay_identity(self, entry: JournalEntry) -> ClientIdentity:
        """The identity a journaled submission replays as.

        Preference order: the token registry's current entry for the
        journaled client name (quota edits between restarts apply),
        then a bare identity carrying the journaled name/priority
        (auth off, or a client since removed — its accounting still
        reattaches), then anonymous for pre-tenancy journals.
        """
        if entry.client_id is None:
            return ANONYMOUS_CLIENT
        if self.token_registry is not None:
            known = self.token_registry.identity_for(entry.client_id)
            if known is not None:
                return known
        try:
            return ClientIdentity(
                client_id=entry.client_id,
                priority=entry.priority or "normal",
            )
        except ReproError:
            return ANONYMOUS_CLIENT

    def _evict_locked(self, keep: Optional[str] = None) -> None:
        """Drop oldest terminal records beyond ``max_records``.

        Caller holds the lock.  ``keep`` shields the record being
        created right now.  Dropping a record also drops the
        in-memory memo entries pointing at it; the persisted memo
        (when configured) still answers those grids.
        """
        if self.max_records is None:
            return
        terminal = [
            record for record in self._records.values()
            if record.is_terminal
        ]
        excess = len(terminal) - self.max_records
        if excess <= 0:
            return
        candidates = sorted(
            (record for record in terminal if record.job_id != keep),
            key=lambda record: (record.finished_at or 0.0),
        )
        for record in candidates[:excess]:
            del self._records[record.job_id]
            self.records_evicted += 1
            self.runner.metrics.counter(
                "service.records_evicted"
            ).inc()
            stale = [
                memo_key for memo_key, memo_id in self._memo.items()
                if memo_id == record.job_id
            ]
            for memo_key in stale:
                del self._memo[memo_key]

    def record(self, job_id: str) -> JobRecord:
        """The record for ``job_id``; unknown IDs raise."""
        with self._lock:
            record = self._records.get(job_id)
        if record is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return record

    def status(self, job_id: str) -> Dict[str, object]:
        """Plain-data status snapshot of ``job_id``."""
        return self.record(job_id).snapshot()

    def result_payload(self, job_id: str) -> Dict[str, Any]:
        """The finished grid of ``job_id`` in serialized form.

        ``{"points": [...], "failures": [...]}`` — identical whether
        the grid ran here, memo-hit in process, or was restored from
        the persisted memo after a restart.  Raises
        :class:`~repro.exceptions.ServiceError` unless the job is
        ``done`` — poll :meth:`status` or block on :meth:`wait` first.
        """
        record = self.record(job_id)
        if record.status != "done" or record.payload is None:
            raise ServiceError(
                f"job {job_id} has no results (status: {record.status})"
            )
        return record.payload

    def events(
        self,
        job_id: str,
        start: int = 0,
        timeout: Optional[float] = None,
    ) -> Iterator[JobEvent]:
        """Yield ``job_id``'s per-point events from ``start`` onwards.

        Blocks between events while the grid is running and returns
        once the record is terminal and every recorded event has been
        yielded — the push-style alternative to poll/wait.  For a
        terminal record with no recorded events (a memo hit, or a
        grid restored from the persisted memo), events are
        synthesized from the stored results so consumers see the
        same per-point stream either way (synthetic streams carry
        only terminal point events — a ``mode="search"`` point's
        ``incumbent`` trail exists live but is not reconstructed
        from the memo).  A ``timeout`` (seconds) bounds the total
        wait; expiry simply ends the stream.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        next_seq = start
        while True:
            with self._done:
                record = self._records.get(job_id)
                if record is None:
                    raise ServiceError(f"unknown job {job_id!r}")
                if record.is_terminal and not record.events:
                    pending = self._synthetic_events(record)[next_seq:]
                    terminal = True
                else:
                    pending = list(record.events[next_seq:])
                    terminal = record.is_terminal
                if not pending and not terminal:
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return
                    self._done.wait(timeout=remaining)
                    continue
            for event in pending:
                yield event
            next_seq += len(pending)
            if terminal:
                return

    def _synthetic_events(self, record: JobRecord) -> List[JobEvent]:
        """Per-point events reconstructed from a finished record."""
        events: List[JobEvent] = []
        if record.payload is None:
            return events
        entries = (
            [("point", point) for point in record.payload["points"]]
            + [("failed", failure)
               for failure in record.payload["failures"]]
        )
        total = len(entries)
        for index, (kind, payload) in enumerate(entries):
            events.append(JobEvent(
                job_id=record.job_id, seq=index, kind=kind,
                index=index, total=total, payload=payload,
            ))
        return events

    def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> JobRecord:
        """Block until ``job_id`` reaches a terminal state.

        Returns the record either way; check ``status`` afterwards
        when a ``timeout`` (seconds) is given, since expiry simply
        returns the still-running record.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._done:
            while True:
                record = self._records.get(job_id)
                if record is None:
                    raise ServiceError(f"unknown job {job_id!r}")
                if record.is_terminal:
                    return record
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return record
                self._done.wait(timeout=remaining)

    def cancel(self, job_id: str) -> bool:
        """Cancel ``job_id`` if still queued; True when it was.

        A running grid is never interrupted (its pool workers hold
        partial state worth keeping warm); terminal jobs are
        unaffected.
        """
        with self._done:
            record = self._records.get(job_id)
            if record is None:
                raise ServiceError(f"unknown job {job_id!r}")
            if record.status != "queued":
                return False
            record.status = "cancelled"
            record.finished_at = time.time()
            self._queue.remove(job_id, record.priority)
            account = self._accounts.get(record.client_id)
            if account is not None:
                account.queued -= 1
                account.cancelled += 1
            self._done.notify_all()
        self._journal_terminal(job_id, "cancelled")
        return True

    def info(self) -> Dict[str, object]:
        """Server-wide counters for monitoring and tests."""
        queue_depth = self._queue.depth()
        self.runner.metrics.gauge("service.queue_depth").set(
            queue_depth
        )
        snapshot = self.runner.metrics.snapshot()
        pool_restarts = snapshot.counter("engine.pool_restarts")
        points_timed_out = snapshot.counter("engine.points_timed_out")
        journal_errors = snapshot.counter("service.journal_errors")
        unreplayable = snapshot.counter("service.journal_unreplayable")
        quarantined = snapshot.counter("store.quarantined")
        store_write_errors = snapshot.counter("store.write_errors")
        degraded = bool(
            pool_restarts or points_timed_out or journal_errors
            or unreplayable or quarantined or store_write_errors
        )
        health = {
            # "degraded" means the server *recovered* from something
            # (restarted a pool, quarantined a store entry, kept a
            # result it could not persist, timed out a point, marked
            # a journaled job it could not rebuild lost) — results
            # stay correct, but an operator should look at why.
            "status": "degraded" if degraded else "ok",
            "journal": self.journal is not None,
            "pool_restarts": pool_restarts,
            "points_timed_out": points_timed_out,
            "journal_replays": snapshot.counter(
                "service.journal_replays"
            ),
            "journal_errors": journal_errors,
            "journal_unreplayable": unreplayable,
            "journal_compactions": snapshot.counter(
                "service.journal_compactions"
            ),
            "quarantined_entries": quarantined,
            "store_write_errors": store_write_errors,
            "faults_injected": snapshot.counter("faults.injected"),
        }
        with self._lock:
            by_status: Dict[str, int] = {}
            for record in self._records.values():
                by_status[record.status] = (
                    by_status.get(record.status, 0) + 1
                )
            return {
                "jobs": len(self._records),
                "by_status": by_status,
                "memo_hits": self.memo_hits,
                "pools_started": self.runner.pools_started,
                "jobs_sharded": self.runner.jobs_sharded,
                "max_records": self.max_records,
                "records_evicted": self.records_evicted,
                "persistent_memo": self.grid_memo is not None,
                "queue_depth": queue_depth,
                "max_queue_depth": self._queue.max_depth,
                "auth": self.require_auth,
                "jobs_shed": self.jobs_shed,
                "clients": {
                    client_id: account.snapshot()
                    for client_id, account
                    in sorted(self._accounts.items())
                },
                "warehouse": self.warehouse is not None,
                "health": health,
                "search": {
                    "points": snapshot.counter("search.points"),
                    "evals": snapshot.counter("search.evals"),
                    "improvements": snapshot.counter(
                        "search.improvements"
                    ),
                    "islands_run": snapshot.counter(
                        "search.islands_run"
                    ),
                    "jobs_fanned": snapshot.counter(
                        "engine.jobs_search_fanned"
                    ),
                    "last_gap": snapshot.gauge("search.gap"),
                },
                "metrics": snapshot.to_dict(),
            }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> None:
        """Stop the dispatcher and release the runner's pool.

        Still-queued jobs are transitioned to ``cancelled`` (and
        their waiters woken) — they will never run; a grid already
        running finishes first when ``wait`` is True.
        """
        self._stop.set()
        if wait and self._dispatcher.is_alive():
            self._dispatcher.join()
        cancelled: List[str] = []
        with self._done:
            for record in self._records.values():
                if record.status == "queued":
                    record.status = "cancelled"
                    record.finished_at = time.time()
                    self._queue.remove(
                        record.job_id, record.priority
                    )
                    account = self._accounts.get(record.client_id)
                    if account is not None:
                        account.queued -= 1
                        account.cancelled += 1
                    cancelled.append(record.job_id)
            self._done.notify_all()
        for job_id in cancelled:
            self._journal_terminal(job_id, "cancelled")
        self.runner.close()
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "ExplorationServer":
        """Context-manager entry: the server itself."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: orderly :meth:`shutdown`."""
        self.shutdown()

    # ------------------------------------------------------------------
    # Dispatcher
    # ------------------------------------------------------------------
    def _drain(self) -> None:
        """Dispatcher loop: execute queued grids until stopped.

        Jobs come off the admission queue weighted-fair by priority
        class, not FIFO — see
        :class:`repro.service.tenancy.AdmissionQueue`.
        """
        while not self._stop.is_set():
            job_id = self._queue.pop(timeout=0.05)
            if job_id is None:
                continue
            with self._lock:
                record = self._records[job_id]
                if record.status != "queued":
                    continue  # cancelled/shed while waiting
                record.status = "running"
                record.started_at = time.time()
                account = self._accounts.get(record.client_id)
                if account is not None:
                    account.queued -= 1
                    account.running += 1
            results: List[BatchResult] = []
            total = len(record.jobs)
            try:
                # Streamed, not batched: each finished point becomes
                # a JobEvent immediately, so `events` consumers watch
                # the grid progress instead of polling `status`.
                for index, result in enumerate(
                    self.runner.run_iter(
                        list(record.jobs), shard=record.shard,
                        point_timeout=record.point_timeout,
                        max_concurrent=record.max_concurrent,
                    )
                ):
                    results.append(result)
                    telemetry = None
                    if index < len(self.runner.last_run_telemetry):
                        telemetry = (
                            self.runner.last_run_telemetry[index]
                        )
                    incumbents = _incumbent_payloads(
                        record.jobs[index].soc.name,
                        getattr(result, "search", None),
                    )
                    with self._done:
                        # The convergence trail precedes its point's
                        # terminal event; every seq is the append
                        # position, which is what the `events` op's
                        # `from` cursor slices by.
                        for payload in incumbents:
                            record.events.append(JobEvent(
                                job_id=record.job_id,
                                seq=len(record.events),
                                kind="incumbent",
                                index=index,
                                total=total,
                                payload=payload,
                            ))
                        record.events.append(_point_event(
                            record, index, total, result,
                            metrics=(
                                telemetry.metrics.to_dict()
                                if telemetry is not None else None
                            ),
                            seq=len(record.events),
                        ))
                        self._done.notify_all()
            except Exception as error:  # noqa: BLE001 - job boundary
                logger.error(
                    "grid %s failed: %s: %s",
                    job_id, type(error).__name__, error,
                )
                with self._done:
                    record.status = "failed"
                    record.error = f"{type(error).__name__}: {error}"
                    record.finished_at = time.time()
                    account = self._accounts.get(record.client_id)
                    if account is not None:
                        account.running -= 1
                        account.failed += 1
                    self._done.notify_all()
                self._journal_terminal(job_id, "failed")
                continue
            # Only clean grids are memoized: a recorded failure may
            # be transient (killed worker, truncated solve), and
            # serving it from cache forever would make resubmission
            # useless as a retry path.  Persisting happens *before*
            # the record turns terminal, so a client that observed
            # `done` can rely on the memo surviving a restart.
            payload = grid_payload(record.jobs, results)
            clean = not payload["failures"]
            if clean and self.grid_memo is not None:
                self.grid_memo.save(record.key, payload, num_jobs=total)
            run_metrics = (
                self.runner.last_run_metrics.to_dict()
                if self.runner.last_run_metrics is not None else None
            )
            if self.warehouse is not None:
                # Every finished grid lands in the warehouse — clean
                # or not — with its per-point telemetry and run-level
                # spans.  A write failure must not fail the job.
                try:
                    self.warehouse.record_grid(
                        record.key,
                        payload,
                        job_id=job_id,
                        source="service",
                        client=record.client_id,
                        metrics=run_metrics,
                        point_telemetry=align_point_telemetry(
                            results, self.runner.last_run_telemetry
                        ),
                        run_spans=self.runner.last_run_spans,
                    )
                except Exception as error:  # noqa: BLE001 - telemetry
                    logger.warning(
                        "warehouse write for %s failed: %s",
                        job_id, error,
                    )
            with self._done:
                record.payload = payload
                record.metrics = run_metrics
                record.status = "done"
                record.finished_at = time.time()
                if clean:
                    self._memo[record.key] = job_id
                account = self._accounts.get(record.client_id)
                if account is not None:
                    account.running -= 1
                    account.done += 1
                self._done.notify_all()
            self._journal_terminal(job_id, "done")
