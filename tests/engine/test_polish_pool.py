"""The parallel exact polish: pool fan-out of ``polish_top_k``.

The serial polish loop never threads one candidate's solution into
the next solve, so the tasks are independent; the engine fans them
over the pool and the first-strict-minimum merge must reproduce the
serial answer bit for bit.
"""

import pytest

from repro.engine.batch import BatchJob, BatchRunner

POLISH_OPTIONS = {"polish_top_k": 4}


def polish_job(soc):
    return BatchJob(soc, 24, options=POLISH_OPTIONS)


def signature(point):
    return (
        point.testing_time,
        point.partition,
        point.num_tams,
        point.certificate.gap,
    )


class TestPolishFanOut:
    @pytest.fixture(scope="class")
    def inline_reference(self, d695):
        (point,) = BatchRunner(max_workers=1).run([polish_job(d695)])
        return signature(point)

    def test_pooled_polish_matches_inline(
        self, d695, inline_reference
    ):
        runner = BatchRunner(max_workers=4)
        (point,) = runner.run([polish_job(d695)], shard=4)
        assert signature(point) == inline_reference

    def test_polish_tasks_actually_fanned(self, d695):
        runner = BatchRunner(max_workers=4)
        runner.run([polish_job(d695)], shard=4)
        snapshot = runner.metrics.snapshot()
        assert snapshot.counter("engine.polish_tasks_fanned") == 4
        assert snapshot.counter("engine.polish_tasks_run") == 4

    def test_single_candidate_polish_stays_serial(self, d695):
        runner = BatchRunner(max_workers=4)
        runner.run([BatchJob(d695, 24)], shard=4)
        snapshot = runner.metrics.snapshot()
        assert snapshot.counter("engine.polish_tasks_fanned") == 0
