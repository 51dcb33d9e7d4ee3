"""Unit tests for top-k / stratified retention in Partition_evaluate."""

import pytest

from repro.exceptions import ConfigurationError
from repro.partition.evaluate import _TopK, partition_evaluate
from repro.tam.assignment import evaluate_assignment
from repro.wrapper.pareto import build_time_tables


@pytest.fixture
def tiny_tables(tiny_soc):
    tables = build_time_tables(tiny_soc, max_width=16)
    return [tables[core.name] for core in tiny_soc]


def _result(widths, times):
    """An AssignmentResult with everything on bus 0 for given widths."""
    matrix = [[time] * len(widths) for time in times]
    return evaluate_assignment(matrix, widths, [0] * len(times))


class TestTopK:
    def test_keeps_capacity(self):
        top = _TopK(2)
        for widths, time in (((3,), 30), ((4,), 10), ((5,), 20)):
            top.offer(_result(widths, [time]))
        kept = [entry.testing_time for entry in top.entries]
        assert kept == [10, 20]

    def test_threshold_none_until_full(self):
        top = _TopK(2)
        assert top.threshold() is None
        top.offer(_result((4,), [10]))
        assert top.threshold() is None
        top.offer(_result((5,), [20]))
        assert top.threshold() == 20

    def test_duplicate_partition_replaced_not_duplicated(self):
        top = _TopK(3)
        top.offer(_result((4, 8), [10, 10]))
        top.offer(_result((8, 4), [5, 4]))   # same canonical partition
        assert len(top.entries) == 1
        assert top.entries[0].testing_time == 9

    def test_duplicate_worse_ignored(self):
        top = _TopK(3)
        top.offer(_result((4, 8), [2, 2]))
        top.offer(_result((4, 8), [9, 9]))
        assert len(top.entries) == 1
        assert top.entries[0].testing_time == 4


class TestKeepTopSweep:
    def test_runners_up_distinct_and_ordered(self, tiny_tables):
        result = partition_evaluate(
            tiny_tables, 10, range(1, 4), keep_top=4
        )
        entries = (result.best,) + result.runners_up
        times = [entry.testing_time for entry in entries]
        assert times == sorted(times)
        keys = {tuple(sorted(entry.widths)) for entry in entries}
        assert len(keys) == len(entries)

    def test_keep_top_one_has_no_runners(self, tiny_tables):
        result = partition_evaluate(tiny_tables, 10, range(1, 4))
        assert result.runners_up == ()

    def test_best_unchanged_by_keep_top(self, tiny_tables):
        k1 = partition_evaluate(tiny_tables, 10, range(1, 4), keep_top=1)
        k5 = partition_evaluate(tiny_tables, 10, range(1, 4), keep_top=5)
        assert k1.testing_time == k5.testing_time

    def test_invalid_keep_top(self, tiny_tables):
        with pytest.raises(ConfigurationError):
            partition_evaluate(tiny_tables, 10, 2, keep_top=0)


class TestStratified:
    def test_one_candidate_per_tam_count(self, tiny_tables):
        result = partition_evaluate(
            tiny_tables, 10, range(1, 4), stratify_by_tam_count=True
        )
        entries = (result.best,) + result.runners_up
        counts = sorted(len(entry.widths) for entry in entries)
        assert counts == [1, 2, 3]

    def test_best_matches_unstratified(self, tiny_tables):
        plain = partition_evaluate(tiny_tables, 10, range(1, 4))
        stratified = partition_evaluate(
            tiny_tables, 10, range(1, 4), stratify_by_tam_count=True
        )
        assert stratified.testing_time == plain.testing_time

    def test_stratified_completes_more(self, tiny_tables):
        plain = partition_evaluate(tiny_tables, 12, range(1, 5))
        stratified = partition_evaluate(
            tiny_tables, 12, range(1, 5), stratify_by_tam_count=True
        )
        assert (
            sum(s.num_completed for s in stratified.stats)
            >= sum(s.num_completed for s in plain.stats)
        )


class TestCoOptimizePolishVariants:
    def test_top_k_never_worse(self, tiny_soc):
        from repro.optimize.co_optimize import co_optimize
        base = co_optimize(tiny_soc, 8, num_tams=range(1, 4))
        topk = co_optimize(tiny_soc, 8, num_tams=range(1, 4),
                           polish_top_k=3)
        assert topk.testing_time <= base.testing_time

    def test_per_b_never_worse(self, tiny_soc):
        from repro.optimize.co_optimize import co_optimize
        base = co_optimize(tiny_soc, 8, num_tams=range(1, 4))
        per_b = co_optimize(tiny_soc, 8, num_tams=range(1, 4),
                            polish_per_tam_count=True)
        assert per_b.testing_time <= base.testing_time

    def test_per_b_fixes_d695_w40_anomaly(self, d695):
        from repro.optimize.co_optimize import co_optimize
        base = co_optimize(d695, 40, num_tams=range(1, 11))
        per_b = co_optimize(d695, 40, num_tams=range(1, 11),
                            polish_per_tam_count=True)
        # The documented anomaly: the paper's method lands on a B=5
        # partition (19034 cycles on our data); polishing the best
        # partition of every B recovers the better B=3 architecture.
        assert per_b.testing_time < base.testing_time

    def test_invalid_polish_top_k(self, tiny_soc):
        from repro.exceptions import ConfigurationError
        from repro.optimize.co_optimize import co_optimize
        with pytest.raises(ConfigurationError):
            co_optimize(tiny_soc, 8, num_tams=2, polish_top_k=0)
