"""Differential suite: the sharded sweep is bit-identical to serial.

The acceptance contract of :mod:`repro.partition.shard`: for every
shard count, prune mode, and keep-top setting, the merged result
matches :func:`repro.partition.evaluate.partition_evaluate` on the
*observable* fields — best time, best partition and assignment, the
runners-up in order, and every ``PartitionStats`` count that equality
compares.  ``num_lb_pruned`` is telemetry that equality ignores: the
merge sums the skips the shards actually made
(:class:`TestSkipTelemetry`).
"""

import pytest

from repro.engine.cache import WrapperTableCache
from repro.engine.kernel import KernelWorkspace, build_dense_matrix
from repro.exceptions import ConfigurationError
from repro.partition.evaluate import PartitionStats, partition_evaluate
from repro.partition.shard import (
    ShardCompletion,
    ShardOutcome,
    ShardPlan,
    kept_times,
    merge_shard_outcomes,
    plan_shards,
    sharded_partition_evaluate,
    sweep_shard,
)
from repro.tam.assignment import AssignmentResult

SHARD_COUNTS = (1, 2, 8)


def tables_for(soc, width):
    return WrapperTableCache(soc).table_list(width)


def assert_identical(serial, sharded, context):
    assert sharded.total_width == serial.total_width, context
    assert sharded.best == serial.best, context
    assert sharded.runners_up == serial.runners_up, context
    assert sharded.stats == serial.stats, context


def in_order_outcomes(matrix, plan, width, keep_top=1, seeded=True):
    """Score ``plan``'s shards in order, each seeded (or blind)."""
    outcomes = []
    for index, spans in enumerate(plan.shards):
        earlier = kept_times(outcomes, keep_top) if seeded else ()
        outcomes.append(sweep_shard(
            matrix, spans, index, width,
            keep_top=keep_top, earlier=earlier,
        ))
    return outcomes


class TestDifferentialD695:
    """d695 across prune modes, keep-top, shard counts, and seeds."""

    # "lb" is the prune=True sweep again, checked on its lower-bound
    # skip: both sides skip, and only partitions the abort would end.
    @pytest.mark.parametrize("prune,check_skips", [
        pytest.param(True, False, id="True"),
        pytest.param(True, True, id="lb"),
        pytest.param(False, False, id="False"),
    ])
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_npaw_sweep(self, d695, prune, check_skips, num_shards):
        tables = tables_for(d695, 24)
        counts = tuple(range(1, 11))
        serial = partition_evaluate(tables, 24, counts, prune=prune)
        sharded = sharded_partition_evaluate(
            tables, 24, counts, num_shards, prune=prune,
        )
        assert_identical(serial, sharded, (prune, num_shards))
        if not prune:
            assert serial.num_lb_pruned == sharded.num_lb_pruned == 0
        if check_skips:
            assert serial.num_lb_pruned > 0
            assert sharded.num_lb_pruned > 0
            for stats in serial.stats + sharded.stats:
                assert stats.num_lb_pruned <= (
                    stats.num_enumerated - stats.num_completed
                ), stats

    @pytest.mark.parametrize("keep_top", [1, 3])
    @pytest.mark.parametrize("seeded", [True, False],
                             ids=["seeded", "blind"])
    def test_top_k_and_seed_ablation(self, d695, keep_top, seeded):
        # Without seeds every shard runs blind (loosest possible
        # thresholds): more work, same merged result.
        tables = tables_for(d695, 16)
        serial = partition_evaluate(
            tables, 16, (1, 2, 3, 4), keep_top=keep_top,
        )
        matrix = build_dense_matrix(tables, 16)
        plan = plan_shards(16, (1, 2, 3, 4), 8)
        sharded = merge_shard_outcomes(plan, in_order_outcomes(
            matrix, plan, 16, keep_top=keep_top, seeded=seeded,
        ), keep_top=keep_top)
        assert_identical(serial, sharded, (keep_top, seeded))

    def test_single_count_and_initial_best(self, d695):
        tables = tables_for(d695, 20)
        serial = partition_evaluate(tables, 20, 3, prune=True)
        sharded = sharded_partition_evaluate(
            tables, 20, 3, 4, prune=True,
        )
        assert_identical(serial, sharded, "single count")

    @pytest.mark.parametrize("keep_top", [3, 4])
    @pytest.mark.parametrize("num_shards", [2, 5])
    def test_repeated_counts_keep_top_matches_serial(
        self, d695, keep_top, num_shards
    ):
        # A repeated TAM count completes the same partitions twice.
        # Pooling a seed's times with the shard's own top-k would
        # count such a partition twice and abort partitions the
        # serial sweep keeps.
        tables = tables_for(d695, 10)
        counts = (2, 2, 3)
        serial = partition_evaluate(
            tables, 10, counts, keep_top=keep_top,
        )
        sharded = sharded_partition_evaluate(
            tables, 10, counts, num_shards, keep_top=keep_top,
        )
        assert_identical(serial, sharded, (keep_top, num_shards))

    @pytest.mark.parametrize("prune", [True, False])
    def test_duplicate_tam_counts(self, d695, prune):
        tables = tables_for(d695, 12)
        counts = (2, 2, 3)
        serial = partition_evaluate(tables, 12, counts, prune=prune)
        sharded = sharded_partition_evaluate(
            tables, 12, counts, 5, prune=prune,
        )
        assert_identical(serial, sharded, ("duplicate counts", prune))

    def test_unpruned_outcomes_stay_bounded(self, d695):
        # prune=False completes every partition; shards must report
        # only their final top-k, not the whole space.
        tables = tables_for(d695, 20)
        matrix = build_dense_matrix(tables, 20)
        plan = plan_shards(20, (1, 2, 3, 4, 5), 4)
        keep_top = 3
        outcomes = [
            sweep_shard(
                matrix, spans, index, 20,
                keep_top=keep_top, prune=False,
            )
            for index, spans in enumerate(plan.shards)
        ]
        for outcome in outcomes:
            assert len(outcome.completions) <= keep_top
        merged = merge_shard_outcomes(
            plan, outcomes, keep_top=keep_top, prune=False,
        )
        serial = partition_evaluate(
            tables, 20, (1, 2, 3, 4, 5),
            prune=False, keep_top=keep_top,
        )
        assert_identical(serial, merged, "bounded unpruned")

    def test_counts_beyond_width_match_serial_rows(self, d695):
        tables = tables_for(d695, 4)
        counts = (2, 4, 9)  # 9 > W: serial emits an empty stats row
        serial = partition_evaluate(tables, 4, counts)
        sharded = sharded_partition_evaluate(tables, 4, counts, 3)
        assert_identical(serial, sharded, "count > width")

    def test_unbeatable_initial_best_raises_like_serial(self, d695):
        # Every count exceeds W: neither sweep has a partition to
        # return.
        tables = tables_for(d695, 8)
        with pytest.raises(ConfigurationError, match="exceeds"):
            partition_evaluate(tables, 8, (9, 10))
        with pytest.raises(ConfigurationError, match="exceeds"):
            sharded_partition_evaluate(tables, 8, (9, 10), 4)

    @pytest.mark.parametrize("bad_prune", ["abort", "none", 2, "lb"])
    def test_invalid_prune_rejected_like_serial(self, d695, bad_prune):
        # A job must fail or succeed identically at every shard
        # setting — including on the CLI's prune *names*, which are
        # not engine prune values, and the retired "lb" mode.
        tables = tables_for(d695, 8)
        with pytest.raises(ConfigurationError):
            partition_evaluate(tables, 8, 2, prune=bad_prune)
        with pytest.raises(ConfigurationError):
            sharded_partition_evaluate(
                tables, 8, 2, 4, prune=bad_prune,
            )


class TestDifferentialP93791:
    """The hot SOC: the configuration the ISSUE pins, and P_NPAW."""

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_w32_b5(self, p93791, num_shards):
        tables = tables_for(p93791, 32)
        serial = partition_evaluate(tables, 32, 5, prune=True)
        sharded = sharded_partition_evaluate(
            tables, 32, 5, num_shards, prune=True,
        )
        assert_identical(serial, sharded, num_shards)

    def test_w32_npaw_lb(self, p93791):
        tables = tables_for(p93791, 32)
        counts = tuple(range(1, 11))
        serial = partition_evaluate(tables, 32, counts, prune=True)
        sharded = sharded_partition_evaluate(
            tables, 32, counts, 8, prune=True,
        )
        assert_identical(serial, sharded, "npaw")
        # Both sweeps actually skipped partitions on the bound.
        assert serial.num_lb_pruned > 0
        assert sharded.num_lb_pruned > 0


class TestSkipTelemetry:
    """``num_lb_pruned``: counted by the shards, summed by the merge."""

    def test_stats_equality_ignores_lb_pruned(self):
        counted = PartitionStats(
            num_tams=3, num_unique=10, num_enumerated=10,
            num_completed=4, num_lb_pruned=5,
        )
        uncounted = PartitionStats(
            num_tams=3, num_unique=10, num_enumerated=10,
            num_completed=4,
        )
        assert counted == uncounted
        assert hash(counted) == hash(uncounted)
        assert counted != PartitionStats(
            num_tams=3, num_unique=10, num_enumerated=10,
            num_completed=5, num_lb_pruned=5,
        )

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_merge_sums_the_shards_own_tallies(self, d695, num_shards):
        tables = tables_for(d695, 32)
        counts = tuple(range(1, 11))
        outcomes = []

        def scorer(plan):
            workspace = KernelWorkspace()
            for index, spans in enumerate(plan.shards):
                outcomes.append(sweep_shard(
                    matrix, spans, index, 32,
                    earlier=kept_times(outcomes),
                    workspace=workspace,
                ))
            return outcomes

        matrix = build_dense_matrix(tables, 32)
        merged = sharded_partition_evaluate(
            None, 32, counts, num_shards, dense=matrix, scorer=scorer,
        )
        assert len(outcomes) == num_shards
        for index, stats in enumerate(merged.stats):
            tallied = sum(
                skipped
                for outcome in outcomes
                for count_index, skipped in outcome.lb_pruned
                if count_index == index
            )
            assert stats.num_lb_pruned == tallied, stats
            # A skip under a shard's looser threshold is a partition
            # the serial sweep would have aborted.
            assert stats.num_lb_pruned <= (
                stats.num_enumerated - stats.num_completed
            ), stats
        assert merged.num_lb_pruned > 0


class TestSeedIsRead:
    """The seed is read, not just shipped.

    No answer depends on the seed, so only work can show it: shards
    scored in order, each seeded with the kept times of the shards
    before it, complete exactly the serial sweep's partitions, and
    blind shards complete more.
    """

    @pytest.mark.parametrize("seeded", [True, False],
                             ids=["seeded", "blind"])
    def test_in_order_shards_do_serial_work(self, d695, seeded):
        tables = tables_for(d695, 32)
        counts = tuple(range(1, 11))
        serial = partition_evaluate(tables, 32, counts)
        serial_completed = sum(
            stats.num_completed for stats in serial.stats
        )
        assert serial_completed == 17
        matrix = build_dense_matrix(tables, 32)
        plan = plan_shards(32, counts, 8)
        recorded = sum(
            len(outcome.completions)
            for outcome in in_order_outcomes(
                matrix, plan, 32, seeded=seeded,
            )
        )
        if seeded:
            assert recorded == serial_completed
        else:
            assert recorded > serial_completed


class TestMergeProtocol:
    """Order-independence and plan shapes, on a small instance."""

    def test_plan_covers_every_rank_exactly_once(self):
        plan = plan_shards(12, (1, 2, 3, 4, 9), 4)
        from repro.partition.count import count_partitions
        seen = {}
        for shard in plan.shards:
            for span in shard:
                for rank in range(span.start, span.stop):
                    key = (span.count_index, rank)
                    assert key not in seen
                    seen[key] = True
        expected = sum(
            count_partitions(12, count) for count in (1, 2, 3, 4, 9)
            if count <= 12
        )
        assert len(seen) == expected

    def test_plan_caps_shards_at_enumeration_size(self):
        plan = plan_shards(4, (4,), 99)  # p(4,4) == 1
        assert plan.num_shards == 1

    def test_outcomes_merge_identically_in_any_execution_order(
        self, d695
    ):
        # Score the shards in reverse (worst-case interleaving: no
        # shard finishes before a later one, so none is seeded) — the
        # merge must still reproduce the serial result exactly.
        tables = tables_for(d695, 16)
        matrix = build_dense_matrix(tables, 16)
        counts = (1, 2, 3, 4)
        plan = plan_shards(16, counts, 8)
        outcomes = [
            sweep_shard(matrix, spans, index, 16, prune=True)
            for index, spans in reversed(
                list(enumerate(plan.shards))
            )
        ]
        merged = merge_shard_outcomes(plan, outcomes, prune=True)
        serial = partition_evaluate(tables, 16, counts, prune=True)
        assert_identical(serial, merged, "reverse execution")

    def test_merge_rejects_missing_outcomes(self, d695):
        tables = tables_for(d695, 12)
        matrix = build_dense_matrix(tables, 12)
        plan = plan_shards(12, (2, 3), 4)
        outcomes = [
            sweep_shard(matrix, spans, index, 12)
            for index, spans in enumerate(plan.shards)
        ]
        with pytest.raises(ConfigurationError):
            merge_shard_outcomes(plan, outcomes[:-1])

    def test_kept_times_are_the_best_distinct_partitions(self):
        def completion(widths, time):
            result = AssignmentResult(
                widths=widths, assignment=(0,),
                bus_times=(time,) + (0,) * (len(widths) - 1),
                testing_time=time,
            )
            return ShardCompletion(count_index=0, rank=0, result=result)

        def outcome(index, *completions):
            return ShardOutcome(
                shard_index=index, completions=completions,
                elapsed_seconds=0.0, lb_pruned=(),
            )

        outcomes = [
            outcome(0, completion((2, 6), 30), completion((3, 5), 20)),
            outcome(1, completion((5, 3), 20), completion((4, 4), 25)),
            outcome(2),
        ]
        assert kept_times([]) == ()
        assert kept_times(outcomes) == (20,)
        # (3, 5) and (5, 3) are one partition: its time counts once.
        assert kept_times(outcomes, keep_top=2) == (20, 25)
        assert kept_times(outcomes, keep_top=4) == (20, 25, 30)
        # The order the shards finished in does not matter.
        assert kept_times(reversed(outcomes), keep_top=2) == (20, 25)

    def test_plan_validates_inputs(self):
        with pytest.raises(ConfigurationError):
            plan_shards(8, (), 2)
        with pytest.raises(ConfigurationError):
            plan_shards(8, (0,), 2)
        with pytest.raises(ConfigurationError):
            plan_shards(8, (2,), 0)

    def test_plan_is_serial_order(self):
        plan = plan_shards(10, (2, 3), 3)
        flat = [
            (span.count_index, span.start, span.stop)
            for shard in plan.shards for span in shard
        ]
        assert flat == sorted(flat)
        assert isinstance(plan, ShardPlan)
