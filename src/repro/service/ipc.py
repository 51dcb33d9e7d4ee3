"""Line-oriented JSON IPC in front of the exploration server.

One request per line, one JSON object per response line — the whole
protocol is greppable from a terminal::

    $ printf '{"op":"ping"}\n' | nc 127.0.0.1 7293
    {"ok": true, "pong": true, ...}

The protocol is versioned by an optional ``v`` field on every
request; a request without one is **version 1**, and both versions
are served by the same listener (see :mod:`repro.api.envelopes` for
the compatibility policy).  Version 2 responses echo ``"v": 2``;
version 1 responses stay byte-compatible with what v1 clients always
received.

Operations (``op`` field):

``ping``
    Liveness check; echoes server :meth:`~repro.service.server.
    ExplorationServer.info` counters.
``submit``
    v2: ``{"v":2,"op":"submit","spec":{...}}`` with a typed,
    schema-versioned :class:`repro.api.GridSpec` dictionary — the
    same canonical spec ``co_optimize`` and ``repro-tam batch``
    consume, validated at the boundary.
    v1 (still accepted): ``{"op":"submit","socs":["d695",...],
    "widths":[16,24],...}`` — sources are benchmark names or ``.soc``
    paths (resolved server-side by :func:`repro.soc.loader.
    load_source`); optional ``num_tams`` (int or list), ``bmax``
    (P_NPAW cap, default 10) and ``options`` (option fields of
    :class:`repro.api.OptimizeSpec`).  The server folds a v1 request into the same typed spec
    (:func:`spec_from_request`), so both forms are validated alike,
    share one memo and replay from the journal after a restart.
    Answers
    ``{"ok":true,"job":"job-0001","cached":false,...}``.
``status`` / ``wait``
    Poll or block (``timeout`` seconds, optional) on a job ID.
``result``
    Finished grid as serialized sweep points (``points``) plus
    structured per-point failures (``failures``).
``events``
    v2: *streaming* per-point progress — one response line per
    finished grid point (``{"ok":true,"event":{...}}``, see
    :class:`repro.api.JobEvent`), pushed as the grid runs, then a
    final ``{"ok":true,"done":true,...}`` status line.  ``from``
    resumes a stream at an event sequence number.  The push-style
    replacement for poll/wait loops.
``cancel``
    Cancel a still-queued job.
``shutdown``
    Orderly stop: responds, then stops the listener and the
    exploration server (queued jobs are dropped, the running grid
    finishes).

Every response carries ``ok``; failures are ``{"ok": false,
"error": ...}`` and never tear down the connection.  The listener is
a threading TCP server bound to localhost by default — this is an
engineer-facing workstation service, not an internet-facing one.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import threading
from typing import Any, Dict, Iterable, Iterator, Optional, Tuple, Union

from repro.api.envelopes import JobRequest
from repro.api.specs import DEFAULT_MAX_TAMS, GridSpec
from repro.engine.faults import FaultPlan
from repro.exceptions import (
    ReproError,
    ServiceRejectionError,
    UnauthorizedError,
)
from repro.service.server import ExplorationServer
from repro.service.tenancy import ClientIdentity

logger = logging.getLogger(__name__)

#: Hard cap on one request line (bytes).  A line-oriented protocol
#: read unbounded is a trivial memory DoS — one peer streaming a
#: newline-free gigabyte used to buffer forever.  1 MiB comfortably
#: holds the largest real submission (a v2 spec with hundreds of
#: sources) while bounding the worst case.
DEFAULT_MAX_REQUEST_BYTES = 1 << 20

#: Per-connection read deadline (seconds): a peer that opens a
#: connection and never finishes a line is answered with a typed
#: ``stalled`` error and dropped, instead of pinning a handler
#: thread forever.
DEFAULT_READ_TIMEOUT = 600.0


def spec_from_request(request: Dict[str, Any]) -> GridSpec:
    """The typed grid a v1 ``submit`` request describes.

    Folds the axes into a :class:`repro.api.GridSpec` exactly like
    :meth:`repro.service.client.ServiceClient.submit` and the
    ``repro-tam batch`` subcommand do — same widths-fastest job
    order, same ``bmax``-derived P_NPAW default — so a v1 grid is
    validated at the boundary, memoized, journaled and replayed after
    a restart exactly like a v2 one.  Sources resolve when the spec's
    jobs are built (:meth:`repro.api.GridSpec.jobs`).
    """
    sources = request.get("socs")
    widths = request.get("widths")
    if not sources or not isinstance(sources, list):
        raise ReproError("submit needs a non-empty 'socs' list")
    if not widths or not isinstance(widths, list):
        raise ReproError("submit needs a non-empty 'widths' list")
    num_tams = request.get("num_tams")
    if num_tams is None:
        bmax = int(request.get("bmax", DEFAULT_MAX_TAMS))
        num_tams = tuple(range(1, bmax + 1))
    elif isinstance(num_tams, list):
        num_tams = tuple(int(count) for count in num_tams)
    else:
        num_tams = int(num_tams)
    options = request.get("options") or {}
    if not isinstance(options, dict):
        raise ReproError("'options' must be an object")
    return GridSpec.from_axes(
        sources, widths, num_tams=num_tams, options=options
    )


class _InjectedDisconnect(Exception):
    """Raised by an ``ipc@K`` fault to sever the whole connection.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: it
    must escape :func:`_event_stream`'s error handling and reach the
    connection handler, which drops the socket — exactly what a real
    network fault looks like from the client's side.
    """


def _event_stream(
    exploration: ExplorationServer,
    job_id: str,
    start: int,
    timeout: Optional[float],
    tag: Dict[str, Any],
) -> Iterator[Dict[str, Any]]:
    """Response lines for one ``events`` stream, errors included.

    Fault hook: an ``ipc@K`` directive in ``REPRO_FAULTS`` severs
    the stream after ``K`` event lines (the generator just stops, so
    the connection handler moves on and the client sees a mid-stream
    close) — the injected double of a flaky network.  The reconnect
    path then resumes from the client's sequence cursor.
    """
    drop_after: Optional[int] = None
    plan = FaultPlan.from_env()
    if plan is not None:
        drop_after = plan.take_ipc_drop()
    try:
        sent = 0
        for event in exploration.events(
            job_id, start=start, timeout=timeout
        ):
            if drop_after is not None and sent >= drop_after:
                exploration.runner.metrics.counter(
                    "faults.injected"
                ).inc()
                logger.warning(
                    "fault injection: severing event stream for %s "
                    "after %d events", job_id, sent,
                )
                raise _InjectedDisconnect(job_id)
            yield {"ok": True, "event": event.to_dict(), **tag}
            sent += 1
        yield {
            "ok": True,
            "done": True,
            **exploration.status(job_id),
            **tag,
        }
    except ReproError as error:
        yield {"ok": False, "error": str(error), **tag}


def _check_job_access(
    exploration: ExplorationServer,
    client: ClientIdentity,
    job_id: str,
) -> None:
    """Job-scoped ops touch only the caller's own jobs under auth.

    With auth off every identity is anonymous and every job is
    anonymous-owned, so this never fires — the open single-trust
    service is unchanged.  Unknown job ids raise the usual
    :class:`~repro.exceptions.ServiceError` from :meth:`record`
    *before* the ownership check, deliberately: probing for another
    tenant's job ids learns nothing new (ids are sequential anyway),
    while a misaddressed request gets the accurate answer.
    """
    if exploration.token_registry is None:
        return
    record = exploration.record(job_id)
    if record.client_id != client.client_id:
        exploration.note_rejection(client, "unauthorized")
        raise UnauthorizedError(
            f"job {job_id} belongs to another client"
        )


def handle_request(
    exploration: ExplorationServer, request: Dict[str, Any]
) -> Tuple[Union[Dict[str, Any], Iterable[Dict[str, Any]]], bool]:
    """Dispatch one decoded request; returns (response, shutdown?).

    Pure with respect to the transport — the unit the protocol tests
    drive directly.  The raw dict is decoded into one
    :class:`repro.api.JobRequest` envelope (the single place version
    and field validation live), then dispatched.  The response is
    one JSON-ready object for every op except ``events``, which
    returns an *iterable* of them (one line per event, the transport
    writes each as it arrives).  Library errors (:class:`~repro.
    exceptions.ReproError`) become ``ok: false`` responses;
    programming errors propagate.
    """
    #: Echoed on v2+ responses; v1 responses stay byte-compatible.
    tag: Dict[str, Any] = {}
    try:
        envelope = JobRequest.from_dict(request)
        if envelope.version >= 2:
            tag = {"v": envelope.version}
        op = envelope.op
        job_id = str(envelope.job_id)
        if op == "ping":
            # Liveness stays unauthenticated — health checks must
            # not need credentials.
            return {
                "ok": True, "pong": True, **exploration.info(), **tag,
            }, False
        # Every other op runs as an authenticated identity (or the
        # anonymous one when auth is off) — resolved once, here.
        client = exploration.authenticate(envelope.token)
        if op == "submit":
            # v2 carries a GridSpec, schema-validated by the envelope
            # decode; v1 fields fold into one here.  Either way a bad
            # request answers ok:false before anything is enqueued.
            spec = envelope.spec
            if spec is None:
                spec = spec_from_request(envelope.extra_dict())
            record = exploration.submit(
                spec, client=client, priority=envelope.priority,
            )
            return {
                "ok": True,
                "job": record.job_id,
                "cached": record.cached,
                "status": record.status,
                "num_jobs": len(record.jobs),
                **tag,
            }, False
        if op == "status":
            _check_job_access(exploration, client, job_id)
            snapshot = exploration.status(job_id)
            return {"ok": True, **snapshot, **tag}, False
        if op == "wait":
            _check_job_access(exploration, client, job_id)
            record = exploration.wait(job_id, timeout=envelope.timeout)
            return {"ok": True, **record.snapshot(), **tag}, False
        if op == "result":
            _check_job_access(exploration, client, job_id)
            payload = exploration.result_payload(job_id)
            record = exploration.record(job_id)
            return {
                "ok": True,
                **record.snapshot(),
                **payload,
                **tag,
            }, False
        if op == "events":
            # Unknown IDs and foreign jobs fail up front, before the
            # stream starts.
            _check_job_access(exploration, client, job_id)
            return _event_stream(
                exploration,
                job_id,
                envelope.start,
                envelope.timeout,
                tag,
            ), False
        if op == "cancel":
            _check_job_access(exploration, client, job_id)
            cancelled = exploration.cancel(job_id)
            return {"ok": True, "cancelled": cancelled, **tag}, False
        if op == "shutdown":
            return {"ok": True, "bye": True, **tag}, True
        raise ReproError(f"unknown op {op!r}")
    except ServiceRejectionError as error:
        # Policy refusals are first-class answers: a stable machine
        # code and (for overload) a retry hint, never a dropped
        # connection or a traceback.
        response: Dict[str, Any] = {
            "ok": False,
            "error": str(error),
            "code": error.code,
            **tag,
        }
        if error.retry_after is not None:
            response["retry_after"] = error.retry_after
        return response, False
    except ReproError as error:
        return {"ok": False, "error": str(error), **tag}, False
    except (ValueError, TypeError, KeyError, OSError) as error:
        # Malformed field *types* (non-numeric widths/timeout,
        # unhashable options, an unreadable/directory .soc path, ...)
        # are the client's fault, not a server bug: answer, don't
        # tear down the connection.
        logger.warning(
            "malformed %r request: %s: %s",
            request.get("op"), type(error).__name__, error,
        )
        return {
            "ok": False,
            "error": f"malformed request: {type(error).__name__}: {error}",
            **tag,
        }, False


class _Handler(socketserver.StreamRequestHandler):
    """One connection: newline-delimited JSON requests in, out.

    Two transport-level guards (the rest of validation lives in
    :func:`handle_request`): a request line longer than the server's
    ``max_request_bytes`` is answered with a typed ``oversized``
    error and the connection closed (the line cannot be resynced
    mid-stream), and a peer that stalls mid-line past
    ``read_timeout`` gets a typed ``stalled`` error and is dropped —
    neither ever buffers unbounded input or pins a handler thread.
    """

    def handle(self) -> None:
        """Serve requests until the peer closes or asks for shutdown."""
        exploration = self.server.exploration  # type: ignore[attr-defined]
        max_bytes = self.server.max_request_bytes  # type: ignore[attr-defined]
        read_timeout = self.server.read_timeout  # type: ignore[attr-defined]
        if read_timeout is not None:
            self.connection.settimeout(read_timeout)
        while True:
            try:
                raw = self.rfile.readline(max_bytes + 1)
            except socket.timeout:
                exploration.runner.metrics.counter(
                    "ipc.stalled_connections"
                ).inc()
                logger.warning(
                    "dropping stalled connection from %s "
                    "(no complete request in %gs)",
                    self.client_address, read_timeout,
                )
                self._reply({
                    "ok": False,
                    "error": (
                        f"no complete request line within "
                        f"{read_timeout:g}s"
                    ),
                    "code": "stalled",
                })
                return
            except OSError:
                return  # peer vanished mid-read
            if not raw:
                return  # orderly close
            if len(raw) > max_bytes:
                exploration.runner.metrics.counter(
                    "ipc.oversized_requests"
                ).inc()
                logger.warning(
                    "rejected oversized request from %s "
                    "(> %d bytes)",
                    self.client_address, max_bytes,
                )
                self._reply({
                    "ok": False,
                    "error": (
                        f"request line exceeds {max_bytes} bytes"
                    ),
                    "code": "oversized",
                })
                # The rest of the over-long line is unread; there is
                # no way back to a line boundary, so close.
                return
            line = raw.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
                if not isinstance(request, dict):
                    raise ValueError("request must be a JSON object")
            except ValueError as error:  # repro: allow[RPR008] request loop, not a retry: one iteration per client request, bounded by the read deadline
                logger.warning(
                    "rejected undecodable request from %s: %s",
                    self.client_address, error,
                )
                self._reply({"ok": False, "error": f"bad request: {error}"})
                continue
            response, stop = handle_request(exploration, request)
            if isinstance(response, dict):
                self._reply(response)
            else:
                # Streaming op (`events`): one line per item, flushed
                # as produced, so clients see progress in real time.
                try:
                    for item in response:
                        self._reply(item)
                except _InjectedDisconnect:
                    # Fault injection: drop the connection without a
                    # done line, as a network failure would.
                    return
            if stop:
                self.server.initiate_shutdown()  # type: ignore[attr-defined]
                return

    def _reply(self, response: Dict[str, Any]) -> None:
        try:
            payload = json.dumps(response, sort_keys=True)
            self.wfile.write(payload.encode("utf-8") + b"\n")
            self.wfile.flush()
        except OSError:
            # The peer is gone; the enclosing loop exits on its next
            # read.  A reply to a dead socket must not kill the
            # handler with a traceback.
            pass


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    """TCP listener that knows its exploration server."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        exploration: ExplorationServer,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        read_timeout: Optional[float] = DEFAULT_READ_TIMEOUT,
    ) -> None:
        super().__init__(address, _Handler)
        self.exploration = exploration
        self.max_request_bytes = max_request_bytes
        self.read_timeout = read_timeout

    def initiate_shutdown(self) -> None:
        """Stop the listener (from a handler thread) and the service."""
        # shutdown() blocks until serve_forever exits, so it must run
        # off the serving thread; handler threads qualify, but detach
        # anyway so a handler never waits on itself.
        threading.Thread(target=self.shutdown, daemon=True).start()
        self.exploration.shutdown(wait=True)


class IPCServer:
    """The socket front-end: an :class:`ExplorationServer` plus listener.

    Parameters
    ----------
    exploration:
        The job server to expose.
    host / port:
        Bind address.  Port ``0`` (default) lets the OS pick a free
        port — read it back from :attr:`address`.
    max_request_bytes:
        Cap on one request line; longer lines are answered with a
        typed ``oversized`` error and the connection closed.
    read_timeout:
        Per-connection read deadline (seconds); a peer with no
        complete request line within it is answered with a typed
        ``stalled`` error and dropped.  ``None`` disables.
    """

    def __init__(
        self,
        exploration: ExplorationServer,
        host: str = "127.0.0.1",
        port: int = 0,
        max_request_bytes: int = DEFAULT_MAX_REQUEST_BYTES,
        read_timeout: Optional[float] = DEFAULT_READ_TIMEOUT,
    ) -> None:
        self.exploration = exploration
        self._tcp = _ThreadingTCPServer(
            (host, port), exploration,
            max_request_bytes=max_request_bytes,
            read_timeout=read_timeout,
        )
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The (host, port) actually bound."""
        return self._tcp.server_address[:2]

    def serve_forever(self) -> None:
        """Serve until a ``shutdown`` request or :meth:`stop` arrives."""
        self._tcp.serve_forever(poll_interval=0.1)
        self._tcp.server_close()

    def start(self) -> "IPCServer":
        """Serve on a background thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self.serve_forever,
            name="repro-service-ipc",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop listener and exploration server from the outside."""
        self._tcp.shutdown()
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.exploration.shutdown(wait=True)

    def __enter__(self) -> "IPCServer":
        """Context-manager entry: a started server."""
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        """Context-manager exit: full stop."""
        self.stop()
