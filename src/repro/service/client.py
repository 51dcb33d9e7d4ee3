"""Python client for the exploration service's JSON IPC.

:class:`ServiceClient` wraps one socket connection in typed calls::

    with ServiceClient(port=7293) as client:
        job = client.submit(["d695"], widths=[16, 24, 32], num_tams=2)
        record = client.wait(job)
        for point in client.result(job)["points"]:
            print(point["total_width"], point["testing_time"])

Every method sends one request line and reads one response line; an
``ok: false`` answer raises :class:`~repro.exceptions.ServiceError`
with the server's message.  The connection is persistent (the server
handles many requests per connection) and the client is *not*
thread-safe — use one per thread.
"""

from __future__ import annotations

import json
import logging
import socket
import time as _time
from typing import Any, Dict, Iterator, Optional, Sequence, Union

from repro.api.envelopes import PROTOCOL_VERSION, JobEvent
from repro.api.specs import DEFAULT_MAX_TAMS, GridSpec
from repro.exceptions import (
    ConfigurationError,
    OverloadedError,
    QuotaExceededError,
    ServiceError,
    ServiceTransportError,
    UnauthorizedError,
)
from repro.retry import backoff_schedule

logger = logging.getLogger(__name__)

#: Typed rejection classes by the machine-readable ``code`` field a
#: server puts on policy refusals; anything else stays a plain
#: :class:`~repro.exceptions.ServiceError`.
_REJECTION_TYPES = {
    "unauthorized": UnauthorizedError,
    "over_quota": QuotaExceededError,
    "overloaded": OverloadedError,
}


def _response_error(response: Any) -> ServiceError:
    """The exception an ``ok: false`` response line decodes to."""
    message = "request failed"
    code: Optional[str] = None
    retry_after: Optional[float] = None
    if isinstance(response, dict):
        message = str(response.get("error", message))
        code = response.get("code")
        raw_retry = response.get("retry_after")
        if isinstance(raw_retry, (int, float)) \
                and not isinstance(raw_retry, bool):
            retry_after = float(raw_retry)
    rejection = _REJECTION_TYPES.get(code or "")
    if rejection is not None:
        return rejection(message, retry_after=retry_after)
    return ServiceError(message)


class ServiceClient:
    """One connection to a running exploration service.

    Parameters
    ----------
    host / port:
        Where ``repro-tam serve`` (or an :class:`repro.service.ipc.
        IPCServer`) is listening.
    timeout:
        Socket timeout in seconds for connect and for each response.
        Blocking ``wait`` calls bump it by their own timeout so the
        socket never fires first.
    token:
        Bearer token attached to every request — required when the
        server runs with ``--auth``.  The server resolves it to a
        client identity with a priority class and quota.
    priority:
        Default priority class for submissions (``high`` / ``normal``
        / ``low``); a client may lower, never raise, its registered
        class.  ``None`` submits at the registered class.
    overload_retries:
        How many times :meth:`submit_grid` transparently retries a
        typed ``overloaded`` rejection, honoring the server's
        ``retry_after`` hint between attempts.  ``0`` surfaces the
        first :class:`~repro.exceptions.OverloadedError` directly.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float = 30.0,
        token: Optional[str] = None,
        priority: Optional[str] = None,
        overload_retries: int = 3,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.token = token
        self.priority = priority
        self.overload_retries = max(0, int(overload_retries))
        self._connect()

    def _connect(self) -> None:
        """(Re)establish the socket; transport state starts fresh."""
        try:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except OSError as error:
            raise ServiceTransportError(
                f"cannot connect to service at {self.host}:"
                f"{self.port}: {error}"
            ) from error
        self._reader = self._sock.makefile("rb")

    def _reconnect(self) -> None:
        """Swap in a fresh connection after a transport failure."""
        try:
            self.close()
        except OSError:  # pragma: no cover - already torn down
            pass
        self._connect()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request object, return the decoded response.

        The raw escape hatch the typed methods build on; raises
        :class:`~repro.exceptions.ServiceError` on transport failure,
        undecodable responses, or an ``ok: false`` answer — typed
        rejections (``unauthorized`` / ``over_quota`` /
        ``overloaded``) decode to their
        :class:`~repro.exceptions.ServiceRejectionError` subclasses.
        The client's bearer token, when set, rides on every request.
        """
        if self.token is not None and "token" not in request:
            request = dict(request, token=self.token)
        payload = json.dumps(request) + "\n"
        try:
            self._sock.sendall(payload.encode("utf-8"))
            line = self._reader.readline()
        except OSError as error:
            raise ServiceTransportError(
                f"service connection failed: {error}"
            ) from error
        if not line:
            raise ServiceTransportError(
                "service closed the connection mid-request"
            )
        try:
            # Plain response line: `ok`/`error` framing plus loose
            # per-op fields — there is deliberately no envelope class
            # for these (only requests and events are typed), so the
            # framing checks below are the whole validation.
            response = json.loads(line)  # repro: allow[RPR005]
        except ValueError as error:
            raise ServiceTransportError(
                f"undecodable service response: {error}"
            ) from error
        if not isinstance(response, dict) or not response.get("ok"):
            raise _response_error(response)
        return response

    def close(self) -> None:
        """Close the connection (the server keeps running)."""
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServiceClient":
        """Context-manager entry: the connected client."""
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: close the connection."""
        self.close()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        """Liveness check; returns the server's counters."""
        return self.call({"op": "ping"})

    def submit_grid(
        self, grid: GridSpec, priority: Optional[str] = None
    ) -> str:
        """Submit one typed :class:`repro.api.GridSpec`; returns the
        job ID.

        The protocol canonical submission: the spec serializes
        through its schema-versioned ``to_dict`` and is re-validated
        server-side, and its canonical content key is what the
        server memoizes on — in memory and, with a ``--cache-dir``,
        across restarts.  ``priority`` (default: the client's
        configured class) may lower the submission below the
        client's registered priority.

        A typed ``overloaded`` rejection is retried transparently up
        to ``overload_retries`` times, sleeping the server's
        ``retry_after`` hint between attempts — callers see either a
        job id or the final :class:`~repro.exceptions.
        OverloadedError`, never the intermediate ones.
        """
        request: Dict[str, Any] = {
            "v": PROTOCOL_VERSION,
            "op": "submit",
            "spec": grid.to_dict(),
        }
        if priority is None:
            priority = self.priority
        if priority is not None:
            request["priority"] = priority
        # Deterministic fallback delays for overloaded servers that
        # (version skew) sent no retry_after hint.
        fallback = backoff_schedule(
            max(1, self.overload_retries), base=0.25, cap=5.0
        )
        attempts = self.overload_retries + 1
        for attempt in range(attempts):
            try:
                return str(self.call(request)["job"])
            except OverloadedError as error:
                if attempt + 1 >= attempts:
                    raise
                delay = (
                    error.retry_after
                    if error.retry_after is not None
                    else fallback[attempt % len(fallback)]
                )
                logger.warning(
                    "server overloaded; retrying submit in %.2fs "
                    "(attempt %d/%d)", delay, attempt + 1, attempts,
                )
                _time.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover

    def submit(
        self,
        socs: Sequence[str],
        widths: Sequence[int],
        num_tams: Union[int, Sequence[int], None] = None,
        bmax: Optional[int] = None,
        options: Optional[Dict[str, Any]] = None,
        shard: Union[int, str, None] = None,
        priority: Optional[str] = None,
    ) -> str:
        """Submit a SOCs × widths grid; returns the job ID.

        Convenience wrapper over :meth:`submit_grid`: the axes are
        folded into a :class:`repro.api.GridSpec` exactly like
        ``repro-tam batch`` folds its arguments (``-B`` wins,
        otherwise the flat ``1..bmax`` P_NPAW counts), so the same
        grid submitted either way memo-hits.  ``socs`` are sources
        the *server* resolves (benchmark names or ``.soc`` paths
        readable server-side).  Whether the answer came from the
        server's memo is visible via :meth:`status` (``cached``).

        ``shard`` is the intra-job sharding hint (``"auto"``, a shard
        count, or ``None`` for the server's policy): an execution
        hint carried in the spec's ``runner`` mapping, excluded from
        the canonical key — so the same grid memo-hits at any shard
        setting.
        """
        if num_tams is None:
            num_tams = tuple(
                range(1, (bmax or DEFAULT_MAX_TAMS) + 1)
            )
        runner: Dict[str, Any] = (
            {} if shard is None else {"shard": shard}
        )
        return self.submit_grid(GridSpec.from_axes(
            socs, widths, num_tams=num_tams, options=options,
            runner=runner,
        ), priority=priority)

    def status(self, job_id: str) -> Dict[str, Any]:
        """Status snapshot of ``job_id``."""
        return self.call({"op": "status", "job": job_id})

    def wait(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Block server-side until ``job_id`` is terminal (or timeout).

        Returns the final status snapshot; with a ``timeout`` the job
        may still be ``running`` — check the ``status`` field.
        """
        request: Dict[str, Any] = {"op": "wait", "job": job_id}
        if timeout is not None:
            request["timeout"] = float(timeout)
        previous = self._sock.gettimeout()
        # The server blocks for up to `timeout`; give the socket
        # headroom so the transport never expires before the wait.
        self._sock.settimeout(
            None if timeout is None else self.timeout + timeout
        )
        try:
            return self.call(request)
        finally:
            self._sock.settimeout(previous)

    def _events_once(
        self,
        job_id: str,
        start: int,
        timeout: Optional[float],
    ) -> Iterator[Dict[str, Any]]:
        """One ``events`` stream over the current connection."""
        request: Dict[str, Any] = {
            "v": PROTOCOL_VERSION,
            "op": "events",
            "job": job_id,
        }
        if self.token is not None:
            request["token"] = self.token
        if start:
            request["from"] = int(start)
        if timeout is not None:
            request["timeout"] = float(timeout)
        previous = self._sock.gettimeout()
        # The server pushes lines for as long as the grid runs; only
        # a bounded stream keeps a socket deadline.
        self._sock.settimeout(
            None if timeout is None else self.timeout + timeout
        )
        try:
            payload = json.dumps(request) + "\n"
            try:
                self._sock.sendall(payload.encode("utf-8"))
            except OSError as error:
                raise ServiceTransportError(
                    f"service connection failed: {error}"
                ) from error
            while True:
                try:
                    line = self._reader.readline()
                except OSError as error:
                    raise ServiceTransportError(
                        f"service connection failed: {error}"
                    ) from error
                if not line:
                    raise ServiceTransportError(
                        "service closed the connection mid-stream"
                    )
                try:
                    response = json.loads(line)
                except ValueError as error:
                    raise ServiceTransportError(
                        f"undecodable service response: {error}"
                    ) from error
                if not isinstance(response, dict) \
                        or not response.get("ok"):
                    raise _response_error(response)
                if "event" in response:
                    # Validate through the typed envelope before
                    # handing the record to callers: a server pushing
                    # malformed events is a protocol error, reported
                    # here rather than as a KeyError downstream.
                    try:
                        event = JobEvent.from_dict(response["event"])
                    except ConfigurationError as error:
                        raise ServiceError(
                            f"malformed event record: {error}"
                        ) from error
                    yield event.to_dict()
                    continue
                if response.get("done"):
                    return
        finally:
            try:
                self._sock.settimeout(previous)
            except OSError:  # pragma: no cover - socket replaced
                pass

    def events(
        self,
        job_id: str,
        start: int = 0,
        timeout: Optional[float] = None,
        reconnect: bool = False,
        max_reconnects: int = 5,
    ) -> Iterator[Dict[str, Any]]:
        """Stream ``job_id``'s per-point completion events.

        Yields one serialized :class:`repro.api.JobEvent` dictionary
        per finished grid point, pushed by the server as the grid
        runs (protocol v2 ``events`` op), and returns when the job
        is terminal — no polling.  ``start`` resumes mid-stream at
        an event sequence number; ``timeout`` bounds the server-side
        wait.  Raises :class:`~repro.exceptions.ServiceError` on an
        error line.

        With ``reconnect=True`` a *dropped* stream (the connection —
        not the request — failed: :class:`~repro.exceptions.
        ServiceTransportError`) is resumed transparently: the client
        reconnects and re-issues the request from the sequence cursor
        after the last delivered event, so consumers see every event
        exactly once.  ``max_reconnects`` bounds consecutive
        reconnect attempts *without progress* — failed reconnects
        included, with a short growing backoff between them (a
        restarting server answers connection-refused for a moment) —
        and any delivered event resets the budget.  Server-side
        errors (unknown job, bad request) are never retried.
        """
        next_seq = start
        failures = 0
        dropped = False
        # Deterministic backoff: the whole delay sequence is fixed up
        # front (seeded, no wall-clock randomness), so reconnect
        # timing is reproducible in tests and across runs.
        delays = backoff_schedule(max_reconnects, base=0.1, cap=1.0)
        while True:
            try:
                if dropped:
                    dropped = False
                    self._reconnect()
                for event in self._events_once(
                    job_id, next_seq, timeout
                ):
                    cursor = event.get("seq")
                    next_seq = (
                        int(cursor) + 1 if cursor is not None
                        else next_seq + 1
                    )
                    failures = 0
                    yield event
                return
            except ServiceTransportError as error:
                if not reconnect:
                    raise
                failures += 1
                if failures > max_reconnects:
                    raise ServiceTransportError(
                        f"event stream for {job_id} did not recover "
                        f"after {max_reconnects} reconnect attempts "
                        f"(last cursor {next_seq}): {error}"
                    ) from error
                logger.warning(
                    "event stream for %s dropped (%s); reconnecting "
                    "from seq %d (attempt %d/%d)",
                    job_id, error, next_seq, failures, max_reconnects,
                )
                dropped = True
                if failures > 1:
                    _time.sleep(delays[failures - 2])

    def result(self, job_id: str) -> Dict[str, Any]:
        """Finished grid of ``job_id``: ``points`` and ``failures``.

        ``points`` are serialized sweep records (one per successful
        grid point, each tagged with its ``soc``); ``failures`` are
        structured error records for points that raised.
        """
        return self.call({"op": "result", "job": job_id})

    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job; True when it was still cancellable."""
        return bool(self.call({"op": "cancel", "job": job_id})["cancelled"])

    def shutdown(self) -> None:
        """Ask the server to stop (responds, then exits)."""
        self.call({"op": "shutdown"})


def run_grid_remotely(
    client: ServiceClient,
    socs: Sequence[str],
    widths: Sequence[int],
    num_tams: Union[int, Sequence[int], None] = None,
    bmax: Optional[int] = None,
    options: Optional[Dict[str, Any]] = None,
    timeout: Optional[float] = None,
) -> Dict[str, Any]:
    """Submit, wait, and fetch in one call — the 90% client workflow.

    Returns the ``result`` payload.  Raises
    :class:`~repro.exceptions.ServiceError` when the job ends in any
    state but ``done`` (including a ``wait`` timeout).
    """
    job_id = client.submit(
        socs, widths, num_tams=num_tams, bmax=bmax, options=options
    )
    record = client.wait(job_id, timeout=timeout)
    if record["status"] != "done":
        raise ServiceError(
            f"job {job_id} ended as {record['status']}: "
            f"{record.get('error', 'no result')}"
        )
    return client.result(job_id)
