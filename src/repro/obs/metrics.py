"""Typed runtime metrics: counters, gauges, timers, and snapshots.

One :class:`MetricsRegistry` replaces the scattered integer
attributes the engine and the service grew (``BatchRunner.
jobs_sharded``, ``ExplorationServer.memo_hits``, ...) with a single
namespace of typed instruments:

* :class:`Counter` — monotonically increasing counts (cache hits,
  shards run, pool restarts);
* :class:`Gauge` — point-in-time levels (queue depth);
* :class:`Timer` — duration accumulators (per-phase wall time),
  measured with :func:`time.monotonic` only.

The registry's serialized view is a frozen :class:`MetricsSnapshot`:
the one shape that rides in ``JobEvent`` payloads, the service
``info()`` op, and the run warehouse.  Snapshots subtract
(:meth:`MetricsSnapshot.delta`) — which is how a *persistent* runner
reports each ``run`` call's own numbers instead of its lifetime
totals — and registries absorb snapshots
(:meth:`MetricsRegistry.absorb`), which is how pool workers' deltas
merge into the parent's registry.

Instrument creation is lock-guarded; updates are plain attribute
arithmetic (GIL-granular).  Metrics are observational only: nothing
in the scoring pipeline ever reads them (RPR001's telemetry rule).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import monotonic as _clock
from typing import Any, Dict, Iterator, Optional, Tuple

from repro.exceptions import ValidationError

__all__ = [
    "Counter",
    "Gauge",
    "Timer",
    "MetricsRegistry",
    "MetricsSnapshot",
    "REGISTRY",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (>= 0) to the count."""
        self.value += amount


class Gauge:
    """A point-in-time level; set, not accumulated."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = float(value)


class Timer:
    """An accumulator of durations (monotonic-clock seconds)."""

    __slots__ = ("name", "count", "total_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total_s = 0.0

    def observe(self, seconds: float) -> None:
        """Record one duration."""
        self.count += 1
        self.total_s += seconds

    def time(self) -> "_TimerContext":
        """Context manager measuring one block into this timer."""
        return _TimerContext(self)


class _TimerContext:
    __slots__ = ("_timer", "_start")

    def __init__(self, timer: Timer) -> None:
        self._timer = timer
        self._start = 0.0

    def __enter__(self) -> "_TimerContext":
        self._start = _clock()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._timer.observe(_clock() - self._start)
        return False


@dataclass(frozen=True)
class MetricsSnapshot:
    """A frozen, serializable view of a registry at one moment.

    Counters and timers are cumulative values; :meth:`delta` turns
    two snapshots of the same registry into the activity *between*
    them (gauges, being levels, carry the later reading through).
    Built from primitives only — picklable for the worker result
    channel and JSON-stable for events, ``info()``, and the
    warehouse.
    """

    counters: Tuple[Tuple[str, int], ...] = ()
    gauges: Tuple[Tuple[str, float], ...] = ()
    #: ``(name, count, total_s)`` per timer.
    timers: Tuple[Tuple[str, int, float], ...] = ()

    def counter(self, name: str) -> int:
        """The named counter's value (0 when absent)."""
        return dict(self.counters).get(name, 0)

    def gauge(self, name: str) -> float:
        """The named gauge's level (0.0 when absent)."""
        return dict(self.gauges).get(name, 0.0)

    def timer(self, name: str) -> Tuple[int, float]:
        """The named timer as ``(count, total_s)`` (zeros when absent)."""
        for timer_name, count, total_s in self.timers:
            if timer_name == name:
                return count, total_s
        return 0, 0.0

    def delta(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Activity between ``earlier`` and this snapshot.

        Counters/timers subtract (entries that did not move are
        dropped); gauges keep this snapshot's readings.  The result
        is what one run, one job, or one worker task contributed.
        """
        base_counts = dict(earlier.counters)
        counters = tuple(
            (name, value - base_counts.get(name, 0))
            for name, value in self.counters
            if value != base_counts.get(name, 0)
        )
        base_timers = {
            name: (count, total_s)
            for name, count, total_s in earlier.timers
        }
        timers = tuple(
            (name, count - base_timers.get(name, (0, 0.0))[0],
             total_s - base_timers.get(name, (0, 0.0))[1])
            for name, count, total_s in self.timers
            if count != base_timers.get(name, (0, 0.0))[0]
        )
        return MetricsSnapshot(
            counters=counters, gauges=self.gauges, timers=timers
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form: the one wire shape for metrics."""
        return {
            "counters": {name: value for name, value in self.counters},
            "gauges": {name: value for name, value in self.gauges},
            "timers": {
                name: {"count": count, "total_s": total_s}
                for name, count, total_s in self.timers
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsSnapshot":
        """Rebuild a snapshot serialized by :meth:`to_dict`."""
        if not isinstance(data, dict):
            raise ValidationError("metrics record must be an object")
        try:
            return cls(
                counters=tuple(sorted(
                    (str(name), int(value))
                    for name, value in data.get("counters", {}).items()
                )),
                gauges=tuple(sorted(
                    (str(name), float(value))
                    for name, value in data.get("gauges", {}).items()
                )),
                timers=tuple(sorted(
                    (str(name), int(entry["count"]),
                     float(entry["total_s"]))
                    for name, entry in data.get("timers", {}).items()
                )),
            )
        except (TypeError, KeyError, ValueError) as error:
            raise ValidationError(
                f"malformed metrics record: {error}"
            ) from error


class MetricsRegistry:
    """A namespace of named instruments with snapshot/absorb support."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}

    def counter(self, name: str) -> Counter:
        """The named counter, created on first use."""
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(
                    name, Counter(name)
                )
        return counter

    def gauge(self, name: str) -> Gauge:
        """The named gauge, created on first use."""
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(name, Gauge(name))
        return gauge

    def timer(self, name: str) -> Timer:
        """The named timer, created on first use."""
        timer = self._timers.get(name)
        if timer is None:
            with self._lock:
                timer = self._timers.setdefault(name, Timer(name))
        return timer

    def instruments(self) -> Iterator[str]:
        """Every instrument name currently registered."""
        with self._lock:
            yield from sorted(
                set(self._counters) | set(self._gauges)
                | set(self._timers)
            )

    def snapshot(self) -> MetricsSnapshot:
        """This registry's current values, frozen."""
        with self._lock:
            return MetricsSnapshot(
                counters=tuple(sorted(
                    (name, counter.value)
                    for name, counter in self._counters.items()
                )),
                gauges=tuple(sorted(
                    (name, gauge.value)
                    for name, gauge in self._gauges.items()
                )),
                timers=tuple(sorted(
                    (name, timer.count, timer.total_s)
                    for name, timer in self._timers.items()
                )),
            )

    def absorb(self, snapshot: Optional[MetricsSnapshot]) -> None:
        """Fold a (delta) snapshot into this registry.

        Counters and timers add; gauges take the snapshot's reading.
        This is the merge half of the worker telemetry channel: each
        pool task ships its delta, the parent absorbs it, and the
        parent's own snapshots then cover the whole fleet.
        """
        if snapshot is None:
            return
        for name, value in snapshot.counters:
            self.counter(name).inc(value)
        for name, value in snapshot.gauges:
            self.gauge(name).set(value)
        for name, count, total_s in snapshot.timers:
            timer = self.timer(name)
            timer.count += count
            timer.total_s += total_s


#: The process-wide registry library instrumentation records into.
#: Pool workers each have their own (fresh process); their deltas
#: ship back with results and are absorbed by the parent's runner.
REGISTRY = MetricsRegistry()
