"""Per-run metrics on a persistent runner, and the telemetry channel.

The regression this file pins down: ``BatchRunner`` used to keep its
execution counters (``jobs_sharded``, ``pools_started``, ...) as
plain attributes that were *never reset*, so on a persistent runner
the second ``run`` call reported the first call's work too.
Counters now live in a :class:`repro.obs.MetricsRegistry` and every
run publishes ``last_run_metrics`` — the snapshot *delta* for that
run alone — while the registry keeps the lifetime totals.
"""

from repro.engine.batch import (
    BatchJob,
    BatchRunner,
    FailedPoint,
    align_point_telemetry,
)
from repro.obs import MetricsSnapshot, TaskTelemetry


def two_tam_jobs(soc, *widths):
    """One two-TAM job per width."""
    return [BatchJob(soc, width, 2) for width in widths]


class TestPerRunSnapshots:
    def test_second_run_reports_only_its_own_work(self, d695):
        runner = BatchRunner(max_workers=1)
        runner.run(two_tam_jobs(d695, 8, 10))
        first = runner.last_run_metrics
        runner.run(two_tam_jobs(d695, 12))
        second = runner.last_run_metrics

        assert first.counter("sweep.points") == 2
        # The regression: this used to read 3 on a reused runner.
        assert second.counter("sweep.points") == 1
        # The registry still carries the lifetime totals.
        assert runner.metrics.counter("sweep.points").value == 3

    def test_partition_counters_ride_the_run_delta(self, d695):
        runner = BatchRunner(max_workers=1)
        runner.run(two_tam_jobs(d695, 12))
        delta = runner.last_run_metrics
        assert delta.counter("sweep.partitions_enumerated") > 0
        assert delta.counter("sweep.partitions_completed") > 0

    def test_legacy_counter_properties_stay_cumulative(self, d695):
        runner = BatchRunner(max_workers=1)
        runner.run(two_tam_jobs(d695, 8))
        runner.run(two_tam_jobs(d695, 8))
        # The read-only compatibility surface: lifetime totals, as
        # the CLI --stats block and existing tests expect.
        assert runner.pools_started == 0  # inline: no pool
        assert runner.jobs_sharded == 0

    def test_snapshot_delta_is_a_metrics_snapshot(self, d695):
        runner = BatchRunner(max_workers=1)
        runner.run(two_tam_jobs(d695, 8))
        assert isinstance(runner.last_run_metrics, MetricsSnapshot)
        # Serializes for events / info / warehouse.
        record = runner.last_run_metrics.to_dict()
        assert record["counters"]["sweep.points"] == 1


class TestPerJobTelemetry:
    def test_inline_run_fills_one_slot_per_job(self, d695):
        runner = BatchRunner(max_workers=1)
        runner.run(two_tam_jobs(d695, 8, 10))
        telemetry = runner.last_run_telemetry
        assert len(telemetry) == 2
        for entry in telemetry:
            assert isinstance(entry, TaskTelemetry)
            assert entry.metrics.counter("sweep.points") == 1

    def test_failed_jobs_drop_out_of_point_alignment(self, d695):
        runner = BatchRunner(max_workers=1, on_error="record")
        jobs = [
            BatchJob(d695, total_width=12, num_tams=2),
            # Infeasible: more TAMs than wires.
            BatchJob(d695, total_width=2, num_tams=5),
        ]
        results = runner.run(jobs)
        assert isinstance(results[1], FailedPoint)
        aligned = align_point_telemetry(
            results, runner.last_run_telemetry
        )
        # One entry per *successful* point — the warehouse's
        # points-row alignment contract.
        assert len(aligned) == 1

    def test_pool_run_ships_worker_telemetry_back(self, d695):
        with BatchRunner(max_workers=2, persistent=True) as runner:
            runner.run(two_tam_jobs(d695, 8, 10))
            telemetry = runner.last_run_telemetry
            assert len(telemetry) == 2
            for entry in telemetry:
                assert isinstance(entry, TaskTelemetry)
            # Worker deltas absorbed exactly once: the run total
            # equals the per-job sum, no double counting.
            assert runner.last_run_metrics.counter(
                "sweep.points"
            ) == 2
            assert runner.pools_started == 1

    def test_sharded_job_merges_shard_telemetry(self, d695):
        with BatchRunner(
            max_workers=2, shard=2, persistent=True
        ) as runner:
            runner.run([BatchJob(d695, total_width=12, num_tams=2)])
            assert runner.jobs_sharded == 1
            delta = runner.last_run_metrics
            assert delta.counter("shard.shards_planned") == 2
            assert delta.counter("shard.shards_run") == 2
            (merged,) = runner.last_run_telemetry
            assert isinstance(merged, TaskTelemetry)
