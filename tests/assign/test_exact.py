"""Unit tests for the exact branch-and-bound P_AW solver."""

import random
from itertools import product

import pytest

from repro.assign.core_assign import core_assign
from repro.assign.exact import exact_assign
from repro.engine.cache import WrapperTableCache
from repro.exceptions import ConfigurationError
from repro.optimize.co_optimize import co_optimize


def brute_force_makespan(times, num_buses):
    """Reference optimum by full enumeration (small instances only)."""
    best = float("inf")
    for assign in product(range(num_buses), repeat=len(times)):
        loads = [0] * num_buses
        for core, bus in enumerate(assign):
            loads[bus] += times[core][bus]
        best = min(best, max(loads))
    return best


class TestOptimality:
    def test_fig2_instance(self, fig2_times, fig2_widths):
        exact = exact_assign(fig2_times, fig2_widths)
        assert exact.optimal
        assert exact.result.testing_time == brute_force_makespan(
            fig2_times, 3
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_random(self, seed):
        rng = random.Random(seed)
        num_cores = rng.randint(3, 7)
        num_buses = rng.randint(2, 3)
        times = [
            [rng.randint(1, 60) for _ in range(num_buses)]
            for _ in range(num_cores)
        ]
        widths = sorted(
            rng.sample(range(1, 33), num_buses), reverse=True
        )
        exact = exact_assign(times, widths)
        assert exact.optimal
        assert exact.result.testing_time == brute_force_makespan(
            times, num_buses
        )

    def test_never_worse_than_heuristic(self, fig2_times, fig2_widths):
        heuristic = core_assign(fig2_times, fig2_widths)
        exact = exact_assign(fig2_times, fig2_widths)
        assert exact.result.testing_time <= heuristic.testing_time

    def test_result_flag_matches_optimal(self, fig2_times, fig2_widths):
        exact = exact_assign(fig2_times, fig2_widths)
        assert exact.result.optimal == exact.optimal

    def test_warm_start_accepted(self, fig2_times, fig2_widths):
        heuristic = core_assign(fig2_times, fig2_widths)
        exact = exact_assign(
            fig2_times, fig2_widths, incumbent=heuristic.result
        )
        assert exact.optimal
        assert exact.result.testing_time <= heuristic.testing_time


class TestSymmetryAndStructure:
    def test_identical_buses(self):
        times = [[7, 7], [5, 5], [4, 4], [4, 4]]
        exact = exact_assign(times, [8, 8])
        assert exact.optimal
        # Best split of {7,5,4,4}: {7,4} vs {5,4} -> makespan 11.
        assert exact.result.testing_time == 11

    def test_single_bus(self):
        times = [[3], [9], [5]]
        exact = exact_assign(times, [16])
        assert exact.result.testing_time == 17

    def test_one_core_per_bus_possible(self):
        times = [[10, 50], [50, 10]]
        exact = exact_assign(times, [16, 8])
        assert exact.result.testing_time == 10

    def test_equal_widths_with_different_columns(self):
        # Nothing ties equal widths to equal times in the public API:
        # the optimum puts core 1 on bus 0 and core 0 on bus 1.
        exact = exact_assign([[38, 22], [36, 18]], [4, 4])
        assert exact.optimal
        assert exact.result.testing_time == 36

    @pytest.mark.parametrize("seed", range(6))
    def test_repeated_widths_arbitrary_columns(self, seed):
        rng = random.Random(seed)
        for _ in range(30):
            widths = rng.choice(([4, 4], [4, 4, 8]))
            times = [
                [rng.randint(1, 60) for _ in widths]
                for _ in range(rng.randint(2, 7))
            ]
            exact = exact_assign(times, widths)
            assert exact.optimal
            assert exact.result.testing_time == brute_force_makespan(
                times, len(widths)
            ), (times, widths)


class TestBudgets:
    def test_node_limit_degrades_gracefully(self, fig2_times, fig2_widths):
        exact = exact_assign(fig2_times, fig2_widths, node_limit=1)
        assert not exact.optimal
        # Still returns the heuristic-quality incumbent.
        heuristic = core_assign(fig2_times, fig2_widths)
        assert exact.result.testing_time <= heuristic.testing_time

    def test_nodes_counted(self, fig2_times, fig2_widths):
        exact = exact_assign(fig2_times, fig2_widths)
        assert exact.nodes_explored >= 1

    def test_invalid_budgets(self, fig2_times, fig2_widths):
        with pytest.raises(ConfigurationError):
            exact_assign(fig2_times, fig2_widths, node_limit=0)


class TestP93791NodeBudgets:
    """Exact-mode p93791 points prove within pinned node budgets.

    Node counts do not depend on the host; seconds do.  Only the node
    budget decides.
    """

    @pytest.mark.parametrize("width, node_limit, partition, optimum", [
        (32, 250_000, (5, 6, 6, 6, 9), 2_446_378),
        (28, 500_000, (4, 4, 4, 4, 5, 7), 2_789_735),
    ])
    def test_exact_point_proves(
        self, p93791, width, node_limit, partition, optimum
    ):
        result = co_optimize(p93791, width, exact_node_limit=node_limit)
        assert result.final_optimal
        assert result.partition == partition
        assert result.testing_time == optimum

    def test_twin_cores_cut_the_w24_polish(self, p93791):
        # At width 6 the memory cores mem10, mem12 and mem13 share one
        # row, adjacent in the search order.  Without the twin-core
        # rule this solve takes 255,491 nodes.
        widths = (6, 6, 6, 6)
        tables = WrapperTableCache(p93791).table_list(max(widths))
        times = [[table.time(width) for width in widths] for table in tables]
        rows = {core.name: row for core, row in zip(p93791.cores, times)}
        assert rows["mem10"] == rows["mem12"] == rows["mem13"]
        exact = exact_assign(times, widths)
        assert exact.optimal
        assert exact.result.testing_time == 3_273_510
        assert exact.nodes_explored <= 112_563
