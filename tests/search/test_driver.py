"""Unit tests for the anytime search driver (islands, merge, polish)."""

import pytest

from repro.exceptions import ConfigurationError
from repro.search import (
    NUM_ISLANDS,
    island_plans,
    island_seed,
    merge_islands,
    run_island,
    search_optimize,
)


@pytest.fixture(scope="module")
def d695_tables(d695):
    from repro.wrapper.pareto import build_time_tables

    tables = build_time_tables(d695, 16)
    return {core.name: tables[core.name] for core in d695.cores}


def run(d695, d695_tables, **overrides):
    options = dict(
        num_tams=(1, 2, 3), strategy="sa", seed=11, eval_budget=800,
        core_order=[core.name for core in d695.cores],
    )
    options.update(overrides)
    return search_optimize(d695_tables, 16, **options)


class TestSeeding:
    def test_island_seeds_are_distinct_and_stable(self):
        seeds = [island_seed(7, index) for index in range(NUM_ISLANDS)]
        assert len(set(seeds)) == NUM_ISLANDS
        assert seeds == [
            island_seed(7, index) for index in range(NUM_ISLANDS)
        ]

    def test_plans_split_the_eval_budget_exactly(self):
        plans = island_plans(16, (1, 2, 3), "sa", 7, 1001, 0.0, 100)
        assert len(plans) == NUM_ISLANDS
        assert sum(plan.eval_budget for plan in plans) == 1001
        # The remainder lands on the lowest island indices, so the
        # split is a pure function of (budget, island count).
        budgets = [plan.eval_budget for plan in plans]
        assert budgets == sorted(budgets, reverse=True)


class TestDeterminism:
    def test_same_seed_is_bit_identical(self, d695, d695_tables):
        first = run(d695, d695_tables)
        second = run(d695, d695_tables)
        assert first.testing_time == second.testing_time
        assert first.partition == second.partition
        assert first.trajectory == second.trajectory
        assert [
            (island.evals, island.terminated_by, island.trajectory)
            for island in first.islands
        ] == [
            (island.evals, island.terminated_by, island.trajectory)
            for island in second.islands
        ]

    def test_both_strategies_run(self, d695, d695_tables):
        for strategy in ("sa", "ga"):
            result = run(d695, d695_tables, strategy=strategy)
            assert result.strategy == strategy
            assert result.certificate.evals > 0

    def test_unknown_strategy_is_rejected(self, d695, d695_tables):
        with pytest.raises(ConfigurationError):
            run(d695, d695_tables, strategy="tabu")


class TestBudgetContract:
    def test_eval_budget_is_respected(self, d695, d695_tables):
        result = run(d695, d695_tables, eval_budget=200)
        assert result.certificate.evals <= 200
        assert result.certificate.terminated_by in (
            "eval_budget", "target_gap"
        )

    def test_target_gap_stops_early_at_tight_bound(
        self, d695, d695_tables
    ):
        # At B=1 the range bound is exact, so target_gap=0 fires as
        # soon as an island scores the single-bus partition.
        result = run(d695, d695_tables, num_tams=(1,))
        assert result.certificate.terminated_by == "target_gap"
        assert result.certificate.is_provably_optimal
        assert result.certificate.evals < 100


class TestMerge:
    def test_merge_prefers_lowest_island_on_ties(
        self, d695, d695_tables
    ):
        result = run(d695, d695_tables)
        islands = result.islands
        best_time = min(
            island.best.testing_time for island in islands
        )
        winner = next(
            island for island in islands
            if island.best.testing_time == best_time
        )
        merged, _, _ = merge_islands(islands)
        assert merged.testing_time == winner.best.testing_time

    def test_merged_trajectory_is_strictly_decreasing(
        self, d695, d695_tables
    ):
        result = run(d695, d695_tables)
        times = [time for _, _, time in result.trajectory]
        assert times == sorted(times, reverse=True)
        assert len(set(times)) == len(times)

    def test_trajectory_ends_at_heuristic_incumbent_or_above(
        self, d695, d695_tables
    ):
        # The exact polish may improve past the trajectory's floor,
        # never the other way around.
        result = run(d695, d695_tables)
        assert result.testing_time <= result.trajectory[-1][2]


class TestRunIsland:
    def test_one_island_alone_is_reproducible(self, d695, d695_tables):
        plans = island_plans(16, (1, 2, 3), "ga", 5, 400, 0.0, 1)
        from repro.engine.kernel import build_dense_matrix

        matrix = build_dense_matrix(
            [d695_tables[core.name] for core in d695.cores], 16
        )
        first = run_island(matrix, plans[0])
        second = run_island(matrix, plans[0])
        assert first.best.testing_time == second.best.testing_time
        assert first.trajectory == second.trajectory
        assert first.evals == second.evals
        assert [k.widths for k in first.kept] == [
            k.widths for k in second.kept
        ]


class TestPolishSkip:
    """A candidate whose partition bound reaches the incumbent is not
    polished; the point stays what polishing every candidate gives."""

    def test_p93791_point_is_identical_without_its_slowest_solve(
        self, p93791, monkeypatch
    ):
        from repro.analysis.sweep import evaluate_point
        from repro.engine.cache import WrapperTableCache
        from repro.report.serialize import sweep_point_to_dict
        from repro.search import driver

        tables = WrapperTableCache(p93791).tables(32)
        solved = []
        original = driver.exact_assign

        def spy(times, widths, **options):
            solved.append(tuple(widths))
            return original(times, widths, **options)

        def point():
            solved.clear()
            return evaluate_point(
                p93791, 32, (1, 2, 3, 4), tables=tables, mode="search",
                search_strategy="ga", seed=7, eval_budget=250,
            )

        monkeypatch.setattr(driver, "exact_assign", spy)
        skipped = point()
        assert (11, 7, 7, 7) not in solved  # 941,968 nodes
        assert len(solved) == 5
        # With a bound of zero nothing is skipped: every candidate is
        # polished, the slow one among them.
        monkeypatch.setattr(
            driver, "partition_lower_bound", lambda times, widths: 0
        )
        every = point()
        assert (11, 7, 7, 7) in solved and len(solved) == 8
        assert skipped.testing_time == 2_458_186
        assert skipped.search.best == every.search.best
        assert sweep_point_to_dict(skipped) == sweep_point_to_dict(every)
