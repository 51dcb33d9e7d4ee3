"""Unit tests for the in-process exploration job server."""

import pytest

from repro.api.specs import GridSpec
from repro.engine.batch import BatchJob, BatchRunner, FailedPoint
from repro.exceptions import ConfigurationError, ServiceError
from repro.service.server import ExplorationServer


@pytest.fixture
def server():
    """An inline-execution server, shut down after the test."""
    with ExplorationServer(max_workers=1) as srv:
        yield srv


def grid(soc, widths=(4, 6), num_tams=2, **options):
    return [BatchJob(soc, w, num_tams, options=options) for w in widths]


class TestJobLifecycle:
    def test_submit_runs_and_matches_inline_runner(self, tiny_soc, server):
        record = server.submit(grid(tiny_soc))
        done = server.wait(record.job_id, timeout=120)
        assert done.status == "done"
        reference = BatchRunner(max_workers=1).run(grid(tiny_soc))
        assert server.results(record.job_id) == reference

    def test_status_snapshot_counts(self, tiny_soc, server):
        record = server.submit(grid(tiny_soc))
        server.wait(record.job_id, timeout=120)
        snapshot = server.status(record.job_id)
        assert snapshot["status"] == "done"
        assert snapshot["num_points"] == 2
        assert snapshot["num_failures"] == 0
        assert not snapshot["cached"]

    def test_unknown_job_raises(self, server):
        with pytest.raises(ServiceError):
            server.status("job-9999")
        with pytest.raises(ServiceError):
            server.results("job-9999")

    def test_results_before_done_raise(self, tiny_soc, server):
        record = server.submit(grid(tiny_soc))
        server.wait(record.job_id, timeout=120)
        # A fresh, never-run id fails cleanly even when others are done.
        with pytest.raises(ServiceError):
            server.results("job-0042")

    def test_empty_submission_rejected(self, server):
        with pytest.raises(ServiceError):
            server.submit([])


class TestMemoization:
    def test_identical_grid_is_answered_without_rerunning(
        self, tiny_soc, server, monkeypatch
    ):
        first = server.submit(grid(tiny_soc))
        server.wait(first.job_id, timeout=120)

        runs = []
        original = server.runner.run
        monkeypatch.setattr(
            server.runner, "run",
            lambda jobs: runs.append(len(jobs)) or original(jobs),
        )
        second = server.submit(grid(tiny_soc))
        assert second.cached
        assert second.status == "done"
        assert second.job_id != first.job_id
        assert runs == []  # the runner was never touched
        assert server.results(second.job_id) == \
            server.results(first.job_id)
        assert server.info()["memo_hits"] == 1

    def test_different_grid_is_not_memoized(self, tiny_soc, server):
        first = server.submit(grid(tiny_soc))
        server.wait(first.job_id, timeout=120)
        other = server.submit(grid(tiny_soc, widths=(4, 7)))
        assert not other.cached
        assert server.wait(other.job_id, timeout=120).status == "done"

    def test_memo_survives_across_clients_by_content(self, tiny_soc, server):
        """Equality is by job content, not object identity."""
        first = server.submit(grid(tiny_soc))
        server.wait(first.job_id, timeout=120)
        rebuilt = [
            BatchJob(tiny_soc, w, 2, options={}) for w in (4, 6)
        ]
        assert server.submit(rebuilt).cached


class TestFaultSurfacing:
    def test_failed_points_are_structured_not_fatal(
        self, tiny_soc, server
    ):
        bad = grid(tiny_soc, widths=(4,), enumerator="bogus")
        good = grid(tiny_soc, widths=(6,))
        record = server.submit(bad + good)
        done = server.wait(record.job_id, timeout=120)
        assert done.status == "done"
        results = server.results(record.job_id)
        assert isinstance(results[0], FailedPoint)
        assert results[0].error_type == "ConfigurationError"
        assert not isinstance(results[1], FailedPoint)
        snapshot = server.status(record.job_id)
        assert snapshot["num_failures"] == 1
        assert snapshot["num_points"] == 1


class TestRunnerHintAdmission:
    def test_unwaitable_point_timeout_is_rejected_at_submit(self, server):
        spec = GridSpec.from_axes(
            ["d695"], [8], num_tams=2, runner={"point_timeout": 1e12}
        )
        with pytest.raises(ConfigurationError, match="point_timeout"):
            server.submit(spec)
        info = server.info()
        assert info["jobs"] == 0
        assert info["queue_depth"] == 0


class TestCancellation:
    def test_cancel_queued_job(self, tiny_soc):
        # A server whose dispatcher is busy on a slow job keeps the
        # next submission queued long enough to cancel it.
        with ExplorationServer(max_workers=1) as server:
            slow = server.submit(grid(tiny_soc, widths=(4, 5, 6, 7, 8)))
            victim = server.submit(grid(tiny_soc, widths=(9,)))
            cancelled = server.cancel(victim.job_id)
            final = server.wait(victim.job_id, timeout=120)
            if cancelled:
                assert final.status == "cancelled"
            else:  # the dispatcher won the race; it must have run it
                assert final.status in ("running", "done")
            server.wait(slow.job_id, timeout=300)

    def test_cancel_finished_job_returns_false(self, tiny_soc, server):
        record = server.submit(grid(tiny_soc, widths=(4,)))
        server.wait(record.job_id, timeout=120)
        assert server.cancel(record.job_id) is False

    def test_cancel_unknown_job_raises(self, server):
        with pytest.raises(ServiceError):
            server.cancel("job-7777")


class TestPersistentPool:
    def test_two_grids_share_one_pool(self, tiny_soc):
        with ExplorationServer(max_workers=2) as server:
            first = server.submit(grid(tiny_soc, widths=(4, 5)))
            server.wait(first.job_id, timeout=300)
            second = server.submit(grid(tiny_soc, widths=(6, 7)))
            server.wait(second.job_id, timeout=300)
            assert server.info()["pools_started"] == 1


class TestFailedGridsAreNotMemoized:
    def test_resubmission_of_failed_grid_re_executes(self, tiny_soc, server):
        bad = grid(tiny_soc, widths=(4,), enumerator="bogus")
        first = server.submit(bad)
        server.wait(first.job_id, timeout=120)
        again = server.submit(bad)
        assert not again.cached  # transient failures must be retryable
        assert server.wait(again.job_id, timeout=120).status == "done"


class TestShutdownUnblocksWaiters:
    def test_queued_jobs_are_cancelled_on_shutdown(self, tiny_soc, p93791):
        import threading
        import time

        server = ExplorationServer(max_workers=1)
        # A grid slow enough (seconds on the big SOC) that shutdown
        # lands while it is still running.
        busy = server.submit(grid(p93791, widths=(16, 20, 24)))
        deadline = time.monotonic() + 60
        while server.status(busy.job_id)["status"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.005)
        queued = server.submit(grid(tiny_soc, widths=(8,)))
        seen = {}

        def waiter():
            seen["record"] = server.wait(queued.job_id, timeout=120)

        thread = threading.Thread(target=waiter, daemon=True)
        thread.start()
        server.shutdown(wait=True)
        thread.join(timeout=120)
        assert not thread.is_alive(), "wait() never woke after shutdown"
        assert seen["record"].is_terminal
        assert server.status(queued.job_id)["status"] == "cancelled"
        # The running grid was allowed to finish.
        assert server.status(busy.job_id)["status"] == "done"
