"""Exception hierarchy for the ``repro`` package.

Every error deliberately raised by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing genuine programming errors (``TypeError`` and
friends propagate untouched).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ValidationError(ReproError):
    """A data object (core, SOC, TAM architecture, ...) is malformed."""


class ParseError(ReproError):
    """An input file could not be parsed.

    Attributes
    ----------
    line_number:
        1-based line on which the problem was detected, or ``None`` when
        the error is not tied to a specific line.
    """

    def __init__(self, message: str, line_number: "int | None" = None) -> None:
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class InfeasibleError(ReproError):
    """A model has no feasible solution (e.g. contradictory constraints)."""


class ConfigurationError(ReproError):
    """An algorithm was configured with invalid options."""


class DeadlineError(ReproError):
    """A grid point exceeded its per-point wall-clock deadline.

    Raised by the batch engine (under ``on_error="raise"``) when a
    pool worker's result does not arrive within the configured
    ``point_timeout``.  The deadline is execution strategy, not part
    of any job's canonical identity — re-running the same point with
    a longer (or no) deadline yields the same result as an
    uninterrupted run.
    """


class ServiceError(ReproError):
    """An exploration-service request failed.

    Raised client-side when the server answers ``ok: false`` (unknown
    job, malformed request, unloadable SOC source, ...) or when the
    connection itself breaks mid-request.
    """


class ServiceRejectionError(ServiceError):
    """A request was *refused by policy*, not failed by a bug.

    The typed rejection family of the multi-tenant service: every
    subclass carries a stable machine-readable ``code`` (what the IPC
    layer puts in the response's ``code`` field) and an optional
    ``retry_after`` hint in seconds.  Rejections are deliberate,
    deterministic answers — never dropped connections, never
    tracebacks — so clients can distinguish "fix your credentials"
    (:class:`UnauthorizedError`), "you are over *your* limit"
    (:class:`QuotaExceededError`, retrying later helps once your own
    jobs drain) and "the *server* is saturated"
    (:class:`OverloadedError`, back off for ``retry_after``).
    """

    code = "rejected"

    def __init__(
        self, message: str, retry_after: "float | None" = None
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class UnauthorizedError(ServiceRejectionError):
    """The request's bearer token is missing, unknown, or names a
    client that may not touch the addressed job."""

    code = "unauthorized"


class QuotaExceededError(ServiceRejectionError):
    """The client's own quota (queued jobs, grid size) is exhausted."""

    code = "over_quota"


class OverloadedError(ServiceRejectionError):
    """The server's bounded admission queue is full and the request
    lost the shedding decision; retry after ``retry_after`` seconds."""

    code = "overloaded"


class ServiceTransportError(ServiceError):
    """The service *connection* failed, not the request.

    The subclass the client raises when the socket drops, the peer
    closes mid-stream, or a response line cannot be decoded — the
    failures that are safe to retry on a fresh connection.  A server
    that answered ``ok: false`` keeps raising plain
    :class:`ServiceError`: retrying those would just repeat the
    refusal.  The distinction is what lets the event stream's
    auto-reconnect (``ServiceClient.events(reconnect=True)``) resume
    a dropped stream from its sequence cursor without ever retrying a
    genuine rejection.
    """
