"""Deterministic fault injection for chaos testing.

A :class:`FaultPlan` is a small, seeded description of *which* faults
to inject *where* — parsed from a plan string, normally supplied via
the ``REPRO_FAULTS`` environment variable.  Production code consults
the plan at a handful of well-defined hook points (worker task entry,
incumbent-board attach, the IPC event stream, store writes); with no
plan active every hook is a ``None`` check and nothing else.

Plan strings are comma-separated directives::

    REPRO_FAULTS="seed=7,state=/tmp/faults,crash@2,slow@1=0.05"

========================  =============================================
directive                 fault
========================  =============================================
``crash@K``               the worker evaluating grid-point index K
                          dies (``os._exit``) before scoring it —
                          surfaces as ``BrokenProcessPool`` in the
                          parent.  Requires ``state=`` (see below).
``shm@K``                 shard K's incumbent-board attach is
                          refused, so that shard of a sharded job runs
                          without broadcast.  Whole-point jobs and
                          search islands have no board and ignore it.
``slow@K=S``              point K sleeps S seconds before scoring —
                          drives per-point deadline enforcement.
``ipc@K``                 the server drops an ``events`` stream after
                          K event lines — drives client reconnect.
``corrupt``               the next table-store/grid-memo write is
                          truncated on disk — drives quarantine.
                          Requires ``state=``.
``seed=N``                folds N into the plan (reserved for seeded
                          schedule/jitter choices; also keys tests).
``state=DIR``             a directory for one-shot tokens.  Faults
                          that would otherwise repeat forever (a
                          crashed point is *re-run*, a quarantined
                          entry is *re-written*) fire only once per
                          token directory.
========================  =============================================

Every fired fault increments the ``faults.injected`` counter on the
process-wide metrics registry, so injected chaos is visible in the
run's telemetry and the service health block.

Determinism contract: a plan never changes *what* is computed — only
when processes die, how long points take, and which shards run
without incumbent broadcast.  The chaos suite asserts grid results
under every plan are bit-identical to the fault-free run.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.exceptions import ConfigurationError
from repro.obs import REGISTRY

__all__ = ["FaultPlan", "FAULTS_ENV"]

logger = logging.getLogger(__name__)

#: The environment variable carrying the active plan string.
FAULTS_ENV = "REPRO_FAULTS"


def _count_fault() -> None:
    REGISTRY.counter("faults.injected").inc()


@dataclass(frozen=True)
class FaultPlan:
    """A parsed, immutable fault-injection plan.

    Instances are cheap value objects: picklable (they ride to pool
    workers via the initializer as plan *text* and are re-parsed
    there), hashable, and side-effect free except for the one-shot
    token files under :attr:`state_dir`.
    """

    text: str
    seed: int = 0
    crash_points: FrozenSet[int] = frozenset()
    shm_points: FrozenSet[int] = frozenset()
    #: ``(point_index, delay_seconds)`` pairs, sorted by index.
    slow_points: Tuple[Tuple[int, float], ...] = ()
    ipc_drops: FrozenSet[int] = frozenset()
    corrupt_writes: bool = False
    state_dir: Optional[str] = None

    # -- construction -------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS`` plan string.

        Raises :class:`~repro.exceptions.ConfigurationError` on any
        malformed directive — a half-understood chaos plan must never
        run silently.
        """
        seed = 0
        state_dir: Optional[str] = None
        crash = set()
        shm = set()
        slow: Dict[int, float] = {}
        ipc = set()
        corrupt = False
        for raw in text.split(","):
            directive = raw.strip()
            if not directive:
                continue
            try:
                if directive.startswith("seed="):
                    seed = int(directive[len("seed="):])
                elif directive.startswith("state="):
                    state_dir = directive[len("state="):]
                elif directive.startswith("crash@"):
                    crash.add(int(directive[len("crash@"):]))
                elif directive.startswith("shm@"):
                    shm.add(int(directive[len("shm@"):]))
                elif directive.startswith("slow@"):
                    where, _, amount = (
                        directive[len("slow@"):].partition("=")
                    )
                    delay = float(amount)
                    if delay < 0:
                        raise ValueError("negative delay")
                    slow[int(where)] = delay
                elif directive.startswith("ipc@"):
                    ipc.add(int(directive[len("ipc@"):]))
                elif directive == "corrupt":
                    corrupt = True
                else:
                    raise ValueError("unknown directive")
            except ValueError as error:
                raise ConfigurationError(
                    f"bad {FAULTS_ENV} directive {directive!r}: {error}"
                ) from error
        if (crash or corrupt) and state_dir is None:
            # Without one-shot tokens a crashed point would crash
            # again on every re-run and a quarantined entry would be
            # re-corrupted on every rebuild — the plan could never
            # converge.
            raise ConfigurationError(
                f"{FAULTS_ENV} plans with crash@/corrupt directives "
                "need a state=DIR token directory"
            )
        if state_dir is not None:
            Path(state_dir).mkdir(parents=True, exist_ok=True)
        return cls(
            text=text,
            seed=seed,
            crash_points=frozenset(crash),
            shm_points=frozenset(shm),
            slow_points=tuple(sorted(slow.items())),
            ipc_drops=frozenset(ipc),
            corrupt_writes=corrupt,
            state_dir=state_dir,
        )

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> Optional["FaultPlan"]:
        """The active plan, or ``None`` when ``REPRO_FAULTS`` is unset."""
        text = (environ or os.environ).get(FAULTS_ENV, "").strip()
        if not text:
            return None
        return cls.parse(text)

    # -- one-shot tokens ----------------------------------------------

    def _claim(self, token: str) -> bool:
        """Atomically claim a one-shot token; True exactly once.

        With no :attr:`state_dir` the claim always succeeds (the
        fault repeats) — parse() guarantees the fault kinds that must
        not repeat always have a token directory.
        """
        if self.state_dir is None:
            return True
        path = Path(self.state_dir) / token
        try:
            fd = os.open(
                path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
            )
        except FileExistsError:
            return False
        os.close(fd)
        return True

    # -- hook points ---------------------------------------------------

    def take_crash(self, point_index: int) -> bool:
        """True if the worker handling ``point_index`` should die now.

        The caller performs the actual ``os._exit`` — and only ever
        in a pool-worker process, never inline in the parent.
        """
        if point_index not in self.crash_points:
            return False
        if not self._claim(f"crash-{point_index}"):
            return False
        _count_fault()
        logger.warning(
            "fault injection: crashing worker at point %d", point_index
        )
        return True

    def take_shm_failure(self, point_index: int) -> bool:
        """True if shard ``point_index``'s board attach should be refused."""
        if point_index not in self.shm_points:
            return False
        if not self._claim(f"shm-{point_index}"):
            return False
        _count_fault()
        return True

    def slow_delay(self, point_index: int) -> Optional[float]:
        """Seconds to stall before scoring ``point_index`` (or None)."""
        for where, delay in self.slow_points:
            if where == point_index:
                if not self._claim(f"slow-{point_index}"):
                    return None
                _count_fault()
                return delay
        return None

    def take_ipc_drop(self, stream_index: int = 0) -> Optional[int]:
        """Event count after which to sever stream ``stream_index``.

        Returns the drop threshold K from the first un-claimed
        ``ipc@K`` directive, or ``None`` when this stream runs clean.
        The fault counter is incremented by the IPC layer when the
        drop actually happens (the stream may finish under K events).
        """
        for threshold in sorted(self.ipc_drops):
            if self._claim(f"ipc-{threshold}-{stream_index}"):
                return threshold
        return None

    def take_corrupt_write(self) -> bool:
        """True if the store write being attempted should truncate."""
        if not self.corrupt_writes:
            return False
        if not self._claim("corrupt"):
            return False
        _count_fault()
        return True
