"""Unit and equivalence tests for the parallel batch-sweep engine."""

import pytest

import repro.soc.loader as loader
import repro.wrapper.pareto as pareto
from repro.analysis.certificates import certify
from repro.analysis.sweep import SweepPoint, sweep_widths
from repro.analysis.utilization import analyze_utilization
from repro.api import GridSpec
from repro.engine.batch import BatchJob, BatchRunner, FailedPoint
from repro.exceptions import ConfigurationError
from repro.optimize.co_optimize import co_optimize
from repro.wrapper.pareto import build_time_tables


def sequential_reference(soc, widths, num_tams):
    """The seed's code path: rebuild tables per width, no sharing."""
    points = []
    for width in widths:
        result = co_optimize(soc, width, num_tams=num_tams)
        tables = build_time_tables(soc, width)
        points.append(SweepPoint(
            total_width=width,
            num_tams=result.num_tams,
            partition=result.partition,
            testing_time=result.testing_time,
            certificate=certify(soc, result.final, tables),
            utilization=analyze_utilization(soc, result.final, tables),
        ))
    return points


class TestBatchJob:
    def test_freezes_count_iterables(self, tiny_soc):
        job = BatchJob(tiny_soc, 8, num_tams=range(1, 4))
        assert job.num_tams == (1, 2, 3)

    def test_keeps_int_and_none(self, tiny_soc):
        assert BatchJob(tiny_soc, 8, num_tams=2).num_tams == 2
        assert BatchJob(tiny_soc, 8).num_tams is None

    def test_rejects_bad_width(self, tiny_soc):
        with pytest.raises(ConfigurationError):
            BatchJob(tiny_soc, 0)

    def test_describe(self, tiny_soc):
        assert "tiny W=8 B=2" in BatchJob(tiny_soc, 8, 2).describe()
        assert "B=auto" in BatchJob(tiny_soc, 8).describe()
        assert "B in [1, 2]" in BatchJob(tiny_soc, 8, (1, 2)).describe()

    def test_freezes_option_mappings(self, tiny_soc):
        job = BatchJob(tiny_soc, 8, 2, options={"polish": False})
        assert job.options == (("polish", False),)
        assert job.options_dict() == {"polish": False}

    def test_options_reach_co_optimize(self, tiny_soc):
        unpolished = BatchRunner(max_workers=1).run([
            BatchJob(tiny_soc, 8, 2, options={"polish": False}),
        ])[0]
        polished = BatchRunner(max_workers=1).run([
            BatchJob(tiny_soc, 8, 2),
        ])[0]
        assert unpolished.testing_time >= polished.testing_time


class TestBatchRunner:
    def test_rejects_bad_configuration(self):
        with pytest.raises(ConfigurationError):
            BatchRunner(max_workers=0)

    def test_empty_batch(self):
        assert BatchRunner().run([]) == []

    def test_inline_results_in_job_order(self, tiny_soc):
        jobs = [BatchJob(tiny_soc, w, 2) for w in (8, 4, 6)]
        points = BatchRunner(max_workers=1).run(jobs)
        assert [p.total_width for p in points] == [8, 4, 6]

    def test_parallel_equals_inline(self, tiny_soc):
        jobs = [BatchJob(tiny_soc, w, 2) for w in (4, 6, 8)]
        inline = BatchRunner(max_workers=1).run(jobs)
        pooled = BatchRunner(max_workers=2).run(jobs)
        assert inline == pooled

    def test_run_grid_pairs_jobs_with_points(self, tiny_soc,
                                             monkeypatch):
        monkeypatch.setattr(loader, "load_source", lambda source: tiny_soc)
        grid = BatchRunner(max_workers=1).run_grid(
            GridSpec.from_axes(["tiny"], (4, 6), num_tams=2)
        )
        assert [(job.total_width, point.total_width)
                for job, point in grid] == [(4, 4), (6, 6)]

    def test_run_grid_accepts_one_shot_iterables(self, tiny_soc,
                                                 monkeypatch):
        monkeypatch.setattr(loader, "load_source", lambda source: tiny_soc)
        grid = BatchRunner(max_workers=1).run_grid(GridSpec.from_axes(
            iter(["tiny", "tiny"]), (w for w in (4, 6)), num_tams=2
        ))
        assert [job.total_width for job, _ in grid] == [4, 6, 4, 6]

    def test_cache_reused_across_runs(self, tiny_soc):
        runner = BatchRunner(max_workers=1)
        runner.run([BatchJob(tiny_soc, 6, 2)])
        cache = runner.cache_for(tiny_soc)
        assert cache.max_width == 6


#: Job options named after ``evaluate_point``'s own parameters.
PARAMETER_NAMED_OPTIONS = [
    {"sweep": 1}, {"tables": {}}, {"num_tams": 3}, {"dense": None},
]


class TestOptionsNeverBindToEvaluatePoint:
    """A job's options reach ``evaluate_point`` through its spec, so an
    option named after one of that function's parameters fails its
    point as an unknown option instead of binding to the parameter."""

    @staticmethod
    def assert_names_the_option(result, options):
        assert isinstance(result, FailedPoint)
        assert result.error_type == "ConfigurationError"
        [key] = options
        assert f"unknown option(s): {key}" in result.error_message

    @pytest.mark.parametrize("options", PARAMETER_NAMED_OPTIONS, ids=str)
    def test_inline(self, d695, options):
        [result] = BatchRunner(max_workers=1, on_error="record").run(
            [BatchJob(d695, 8, 2, options=options)]
        )
        self.assert_names_the_option(result, options)

    @pytest.mark.parametrize("options", PARAMETER_NAMED_OPTIONS, ids=str)
    def test_pool(self, d695, options):
        # Two jobs: a one-job grid shrinks the pool to one worker and
        # runs inline.
        runner = BatchRunner(max_workers=2, on_error="record")
        bad, good = runner.run([
            BatchJob(d695, 8, 2, options=options), BatchJob(d695, 8, 2),
        ])
        assert runner.pools_started == 1
        self.assert_names_the_option(bad, options)
        assert good.testing_time > 0


class TestSequentialEquivalence:
    """Cached/parallel sweeps reproduce the seed's rebuild-per-point
    results exactly — same times, certificates and utilization."""

    def test_inline_sweep_matches_seed_reference(self, d695):
        widths = (4, 8, 12)
        assert sweep_widths(d695, widths, num_tams=2) == \
            sequential_reference(d695, widths, 2)

    def test_parallel_sweep_matches_seed_reference(self, d695):
        widths = (4, 8, 12)
        runner = BatchRunner(max_workers=2)
        assert sweep_widths(d695, widths, num_tams=2, runner=runner) == \
            sequential_reference(d695, widths, 2)


class TestDesignCallBudget:
    """Acceptance criterion: a width sweep over 1..W on d695 performs
    exactly one ``design_wrapper`` call per (core, width) pair."""

    def test_width_sweep_is_linear_in_designs(self, d695, monkeypatch):
        calls = []
        original = pareto.design_wrapper

        def counting(core, width):
            calls.append((core.name, width))
            return original(core, width)

        monkeypatch.setattr(pareto, "design_wrapper", counting)
        max_width = 8
        points = sweep_widths(d695, range(1, max_width + 1))
        assert len(points) == max_width
        expected = {
            (core.name, width)
            for core in d695.cores
            for width in range(1, max_width + 1)
        }
        assert len(calls) == len(expected)  # one call per pair...
        assert set(calls) == expected       # ...covering every pair
