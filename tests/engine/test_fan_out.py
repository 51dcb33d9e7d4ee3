"""The engine's one fan-out primitive, ``BatchRunner._fan_out``.

Sweep shards and search islands both run through it.  A process pool
reports a dying worker as ``BrokenProcessPool``, which the task retry
must leave to the pool supervisor, so the retry itself is driven here
with a thread pool and a worker that fails on cue.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.engine.batch import BatchRunner
from repro.obs import MetricsRegistry, TaskTelemetry

RETRIES = "engine.test_retries"
TASKS = [3, 1, 4, 2, 5]


class CueWorker:
    """Squares its task; the first ``failures[task]`` calls raise.

    ``delay`` seconds of work per call let tasks overlap; ``peak``
    is the most calls ever running at once.
    """

    def __init__(self, failures, error=RuntimeError, delay=0.0):
        self.failures = dict(failures)
        self.error = error
        self.delay = delay
        self.calls = {}
        self.running = 0
        self.peak = 0
        self._lock = threading.Lock()

    def __call__(self, task):
        with self._lock:
            self.calls[task] = self.calls.get(task, 0) + 1
            fail = self.calls[task] <= self.failures.get(task, 0)
            self.running += 1
            self.peak = max(self.peak, self.running)
        try:
            time.sleep(self.delay)
        finally:
            with self._lock:
                self.running -= 1
        if fail:
            raise self.error(f"task {task} failed on cue")
        registry = MetricsRegistry()
        registry.counter("test.task_value").inc(task)
        telemetry = TaskTelemetry(spans=(), metrics=registry.snapshot())
        return task * task, telemetry


def fan_out(runner, worker, payload=None, window=3, threads=3):
    if payload is None:
        def payload(index, finished):
            return TASKS[index]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return runner._fan_out(
            pool, worker, payload, len(TASKS), window, RETRIES, "test",
        )


class TestFanOut:
    def test_one_failure_reruns_alone_in_task_order(self):
        runner = BatchRunner()
        worker = CueWorker({4: 1})
        values, telemetry = fan_out(runner, worker)
        assert values == [task * task for task in TASKS]
        assert [
            entry.metrics.counter("test.task_value") for entry in telemetry
        ] == TASKS
        assert worker.calls == {3: 1, 1: 1, 4: 2, 2: 1, 5: 1}
        assert runner.metrics.counter(RETRIES).value == 1
        # Each task's metrics are absorbed once; the failed attempt
        # shipped none.
        assert runner.metrics.counter("test.task_value").value == sum(
            TASKS
        )

    def test_second_failure_of_a_task_raises(self):
        runner = BatchRunner()
        worker = CueWorker({4: 2})
        with pytest.raises(RuntimeError, match="task 4 failed"):
            fan_out(runner, worker)
        assert worker.calls[4] == BatchRunner.SHARD_RETRY_ATTEMPTS
        assert runner.metrics.counter(RETRIES).value == 1

    def test_broken_pool_propagates_without_retry(self):
        runner = BatchRunner()
        worker = CueWorker({5: 1}, error=BrokenProcessPool)
        with pytest.raises(BrokenProcessPool):
            fan_out(runner, worker)
        assert worker.calls[5] == 1
        assert runner.metrics.counter(RETRIES).value == 0

    def test_no_more_than_window_tasks_in_flight(self):
        # The pool has threads to spare; only the window holds tasks
        # back.  At each submission, in flight = submitted - finished.
        runner = BatchRunner()
        worker = CueWorker({}, delay=0.02)
        in_flight = []

        def payload(index, finished):
            in_flight.append(len(in_flight) + 1 - len(finished))
            return TASKS[index]

        values, _ = fan_out(
            runner, worker, payload, window=2, threads=len(TASKS),
        )
        assert values == [task * task for task in TASKS]
        assert max(in_flight) == 2
        assert worker.peak <= 2

    def test_later_task_is_built_from_finished_values(self):
        # One task in flight at a time: each payload is built after
        # every earlier task finished, and sees all of their values.
        runner = BatchRunner()
        seen = {}

        def payload(index, finished):
            seen[index] = dict(finished)
            return TASKS[index]

        values, _ = fan_out(runner, CueWorker({}), payload, window=1)
        assert values == [task * task for task in TASKS]
        assert seen == {
            index: {
                earlier: TASKS[earlier] ** 2 for earlier in range(index)
            }
            for index in range(len(TASKS))
        }
