"""Integration tests: the full co-optimization stack end to end."""

import pytest

from repro.assign.core_assign import core_assign
from repro.optimize.co_optimize import co_optimize
from repro.optimize.exhaustive import exhaustive_optimize
from repro.schedule.session import build_schedule
from repro.soc.generator import random_soc
from repro.wrapper.pareto import build_time_tables


class TestEndToEnd:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_socs_heuristic_close_to_exhaustive(self, seed):
        soc = random_soc(f"fuzz{seed}", num_cores=6, seed=seed,
                         max_patterns=200, max_ios=60, max_chains=6,
                         max_chain_length=40)
        width = 12
        heuristic = co_optimize(soc, width, num_tams=range(1, 4))
        exhaustive = exhaustive_optimize(soc, width, num_tams=range(1, 4))
        assert heuristic.testing_time >= exhaustive.testing_time
        # The paper's claim: comparable testing times (within ~20%
        # on every instance it reports; allow modest slack on fuzz).
        assert heuristic.testing_time <= 1.30 * exhaustive.testing_time

    def test_schedule_materializes_from_pipeline(self, d695):
        result = co_optimize(d695, total_width=24, num_tams=range(1, 4))
        tables = build_time_tables(d695, 24)
        times = [
            [tables[c.name].time(w) for w in result.partition]
            for c in d695
        ]
        schedule = build_schedule(
            result.final, times, [c.name for c in d695]
        )
        assert schedule.makespan == result.testing_time
        assert "makespan" in schedule.gantt()

    def test_full_api_surface_importable(self):
        import repro
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_time_tables_shared_between_pipelines(self, d695):
        # Same tables -> heuristic bus times must be reproducible by
        # direct core_assign on the chosen partition.
        result = co_optimize(d695, total_width=16, num_tams=2,
                             polish=False)
        tables = build_time_tables(d695, 16)
        times = [
            [tables[c.name].time(w) for w in result.partition]
            for c in d695
        ]
        outcome = core_assign(times, result.partition)
        assert outcome.testing_time == result.testing_time


class TestPaperShapes:
    """Qualitative claims of the evaluation section, at test scale."""

    def test_more_tams_help_at_large_width(self, d695):
        # Table 3: at W=48+, the best architectures use B >= 4.
        b2 = co_optimize(d695, 48, num_tams=2).testing_time
        b_many = co_optimize(d695, 48, num_tams=range(1, 7)).testing_time
        assert b_many <= b2

    def test_heuristic_orders_of_magnitude_faster(self, d695):
        import time

        # Both sides share one set of tables, so only the searches are
        # timed, and each side keeps its best of three runs, so one
        # scheduling stall cannot decide the comparison.
        tables = build_time_tables(d695, 24)

        def best_of_three(run):
            seconds = []
            for _ in range(3):
                start = time.perf_counter()
                run()
                seconds.append(time.perf_counter() - start)
            return min(seconds)

        heuristic_time = best_of_three(lambda: co_optimize(
            d695, 24, num_tams=range(1, 4), polish=False, tables=tables,
        ))
        exhaustive_time = best_of_three(lambda: exhaustive_optimize(
            d695, 24, num_tams=range(1, 4), tables=tables,
        ))
        # The paper reports >= 10-100x; at this tiny scale the
        # heuristic must still be several times faster (about 10x).
        assert 3 * heuristic_time < exhaustive_time

    def test_pruning_efficiency_small(self, d695):
        # Table 1: only a small fraction of partitions is evaluated
        # to completion.
        result = co_optimize(d695, 32, num_tams=range(1, 6),
                             polish=False)
        total_unique = sum(s.num_unique for s in result.search.stats)
        total_completed = sum(
            s.num_completed for s in result.search.stats
        )
        assert total_completed < 0.35 * total_unique

    def test_anomaly_possible_but_consistent(self, d695):
        # The polish never worsens the heuristic result even when the
        # heuristic picked a different partition than the exhaustive
        # winner (the paper's documented anomaly).
        result = co_optimize(d695, 16, num_tams=range(1, 5))
        assert result.testing_time <= result.search.testing_time
