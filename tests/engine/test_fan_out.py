"""The engine's one fan-out primitive, ``BatchRunner._fan_out``.

Shard sweeps, search islands, polish solves and cold table builds all
run through it.  A process pool reports a dying worker as
``BrokenProcessPool``, which the task retry must leave to the pool
supervisor, so the retry itself is driven here with a thread pool and
a worker that fails on cue.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.engine.batch import BatchRunner
from repro.obs import MetricsRegistry, TaskTelemetry

RETRIES = "engine.test_retries"
TASKS = [3, 1, 4, 2, 5]


class CueWorker:
    """Squares its task; the first ``failures[task]`` calls raise."""

    def __init__(self, failures, error=RuntimeError):
        self.failures = dict(failures)
        self.error = error
        self.calls = {}
        self._lock = threading.Lock()

    def __call__(self, task):
        with self._lock:
            self.calls[task] = self.calls.get(task, 0) + 1
            fail = self.calls[task] <= self.failures.get(task, 0)
        if fail:
            raise self.error(f"task {task} failed on cue")
        registry = MetricsRegistry()
        registry.counter("test.task_value").inc(task)
        telemetry = TaskTelemetry(spans=(), metrics=registry.snapshot())
        return task * task, telemetry


def fan_out(runner, worker, tasks):
    with ThreadPoolExecutor(max_workers=3) as pool:
        return runner._fan_out(pool, worker, tasks, RETRIES, "test")


class TestFanOut:
    def test_one_failure_reruns_alone_in_task_order(self):
        runner = BatchRunner()
        worker = CueWorker({4: 1})
        values, telemetry = fan_out(runner, worker, TASKS)
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
            fan_out(runner, worker, TASKS)
        assert worker.calls[4] == BatchRunner.SHARD_RETRY_ATTEMPTS
        assert runner.metrics.counter(RETRIES).value == 1

    def test_broken_pool_propagates_without_retry(self):
        runner = BatchRunner()
        worker = CueWorker({5: 1}, error=BrokenProcessPool)
        with pytest.raises(BrokenProcessPool):
            fan_out(runner, worker, TASKS)
        assert worker.calls[5] == 1
        assert runner.metrics.counter(RETRIES).value == 0
