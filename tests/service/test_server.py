"""Unit tests for the in-process exploration job server."""

import json

import pytest

from repro.api.specs import GridSpec, OptimizeSpec
from repro.engine.batch import BatchJob, BatchRunner
from repro.exceptions import ConfigurationError, ServiceError
from repro.service.journal import JOURNAL_NAME
from repro.service.server import ExplorationServer, grid_payload
from repro.soc.itc02 import write_soc


@pytest.fixture
def server():
    """An inline-execution server, shut down after the test."""
    with ExplorationServer(max_workers=1) as srv:
        yield srv


def grid(source, widths=(4, 6), num_tams=2, **options):
    return GridSpec.from_axes(
        [source], widths, num_tams=num_tams, options=options
    )


class TestJobLifecycle:
    def test_submit_runs_and_matches_inline_runner(
        self, tiny_soc_source, server
    ):
        record = server.submit(grid(tiny_soc_source))
        done = server.wait(record.job_id, timeout=120)
        assert done.status == "done"
        jobs = grid(tiny_soc_source).jobs()
        reference = BatchRunner(max_workers=1).run(jobs)
        assert server.result_payload(record.job_id) == \
            grid_payload(jobs, reference)

    def test_status_snapshot_counts(self, tiny_soc_source, server):
        record = server.submit(grid(tiny_soc_source))
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
            server.result_payload("job-9999")

    def test_results_before_done_raise(self, tiny_soc_source, server):
        record = server.submit(grid(tiny_soc_source))
        server.wait(record.job_id, timeout=120)
        # A fresh, never-run id fails cleanly even when others are done.
        with pytest.raises(ServiceError):
            server.result_payload("job-0042")

    def test_empty_submission_rejected(self, server):
        with pytest.raises(ServiceError):
            server.submit([])


class TestOneSubmissionForm:
    """A GridSpec is the only thing the server accepts and journals."""

    def test_job_lists_are_rejected_before_queue_or_journal(
        self, tiny_soc, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        with ExplorationServer(
            max_workers=1, cache_dir=cache_dir
        ) as server:
            with pytest.raises(ServiceError, match="got list"):
                server.submit([BatchJob(tiny_soc, 4, 2)])
            info = server.info()
            assert info["jobs"] == 0
            assert info["queue_depth"] == 0
        assert not (cache_dir / JOURNAL_NAME).exists()

    def test_every_accepted_submission_journals_its_spec(
        self, tiny_soc_source, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        hinted = GridSpec.from_axes(
            [tiny_soc_source], [4], num_tams=2,
            runner={"shard": 0, "point_timeout": 120},
        )
        with ExplorationServer(
            max_workers=1, cache_dir=cache_dir
        ) as server:
            first = server.submit(hinted)
            assert server.wait(first.job_id, timeout=120).status == "done"
            assert server.submit(hinted).cached
        submitted = [
            line for line in map(
                json.loads,
                (cache_dir / JOURNAL_NAME).read_text().splitlines(),
            )
            if line["kind"] == "submitted"
        ]
        assert len(submitted) == 2  # the run and the memo hit
        for line in submitted:
            assert GridSpec.from_dict(line["spec"]) == hinted
            assert "shard" not in line and "point_timeout" not in line


class TestMemoization:
    def test_identical_grid_is_answered_without_rerunning(
        self, tiny_soc_source, server, monkeypatch
    ):
        first = server.submit(grid(tiny_soc_source))
        server.wait(first.job_id, timeout=120)

        runs = []
        original = server.runner.run
        monkeypatch.setattr(
            server.runner, "run",
            lambda jobs: runs.append(len(jobs)) or original(jobs),
        )
        second = server.submit(grid(tiny_soc_source))
        assert second.cached
        assert second.status == "done"
        assert second.job_id != first.job_id
        assert runs == []  # the runner was never touched
        assert server.result_payload(second.job_id) == \
            server.result_payload(first.job_id)
        assert server.info()["memo_hits"] == 1

    def test_different_grid_is_not_memoized(self, tiny_soc_source, server):
        first = server.submit(grid(tiny_soc_source))
        server.wait(first.job_id, timeout=120)
        other = server.submit(grid(tiny_soc_source, widths=(4, 7)))
        assert not other.cached
        assert server.wait(other.job_id, timeout=120).status == "done"

    def test_memo_survives_across_clients_by_content(
        self, tiny_soc, tiny_soc_source, server, tmp_path
    ):
        """Equality is by job content, not source or object identity."""
        first = server.submit(grid(tiny_soc_source))
        server.wait(first.job_id, timeout=120)
        copy = tmp_path / "copy.soc"
        write_soc(tiny_soc, copy)
        rebuilt = GridSpec(
            socs=(str(copy),),
            points=tuple(OptimizeSpec(w, 2) for w in (4, 6)),
        )
        assert server.submit(rebuilt).cached


class TestFaultSurfacing:
    def test_failed_points_are_structured_not_fatal(
        self, tiny_soc_source, server
    ):
        bad_and_good = GridSpec(
            socs=(tiny_soc_source,),
            points=(
                OptimizeSpec(4, 2, enumerator="bogus"),
                OptimizeSpec(6, 2),
            ),
        )
        record = server.submit(bad_and_good)
        done = server.wait(record.job_id, timeout=120)
        assert done.status == "done"
        payload = server.result_payload(record.job_id)
        [failure] = payload["failures"]
        assert failure["error_type"] == "ConfigurationError"
        assert [point["total_width"] for point in payload["points"]] \
            == [6]
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
    def test_cancel_queued_job(self, tiny_soc_source):
        # A server whose dispatcher is busy on a slow job keeps the
        # next submission queued long enough to cancel it.
        with ExplorationServer(max_workers=1) as server:
            slow = server.submit(grid(tiny_soc_source, widths=(4, 5, 6, 7, 8)))
            victim = server.submit(grid(tiny_soc_source, widths=(9,)))
            cancelled = server.cancel(victim.job_id)
            final = server.wait(victim.job_id, timeout=120)
            if cancelled:
                assert final.status == "cancelled"
            else:  # the dispatcher won the race; it must have run it
                assert final.status in ("running", "done")
            server.wait(slow.job_id, timeout=300)

    def test_cancel_finished_job_returns_false(self, tiny_soc_source, server):
        record = server.submit(grid(tiny_soc_source, widths=(4,)))
        server.wait(record.job_id, timeout=120)
        assert server.cancel(record.job_id) is False

    def test_cancel_unknown_job_raises(self, server):
        with pytest.raises(ServiceError):
            server.cancel("job-7777")


class TestPersistentPool:
    def test_two_grids_share_one_pool(self, tiny_soc_source):
        with ExplorationServer(max_workers=2) as server:
            first = server.submit(grid(tiny_soc_source, widths=(4, 5)))
            server.wait(first.job_id, timeout=300)
            second = server.submit(grid(tiny_soc_source, widths=(6, 7)))
            server.wait(second.job_id, timeout=300)
            assert server.info()["pools_started"] == 1


class TestFailedGridsAreNotMemoized:
    def test_resubmission_of_failed_grid_re_executes(
        self, tiny_soc_source, server
    ):
        bad = grid(tiny_soc_source, widths=(4,), enumerator="bogus")
        first = server.submit(bad)
        server.wait(first.job_id, timeout=120)
        again = server.submit(bad)
        assert not again.cached  # transient failures must be retryable
        assert server.wait(again.job_id, timeout=120).status == "done"


class TestShutdownUnblocksWaiters:
    def test_queued_jobs_are_cancelled_on_shutdown(self, tiny_soc_source):
        import threading
        import time

        server = ExplorationServer(max_workers=1)
        # A grid slow enough (seconds on the big SOC) that shutdown
        # lands while it is still running.
        busy = server.submit(grid("p93791", widths=(16, 20, 24)))
        deadline = time.monotonic() + 60
        while server.status(busy.job_id)["status"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.005)
        queued = server.submit(grid(tiny_soc_source, widths=(8,)))
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
