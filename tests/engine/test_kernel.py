"""Differential tests: the dense sweep kernel vs a ``core_assign`` oracle.

The kernel's contract is *bit-identity*: on any input, every
observable of the sweep — testing time, winning partition, assignment
vector, bus times, abort behavior, runners-up, per-B statistics —
matches a per-partition sweep that builds each partition's N×B times
afresh and runs :func:`~repro.assign.core_assign.core_assign` under
the paper's abort alone (:func:`oracle_partition_evaluate` below).
Randomized SOCs from :mod:`repro.soc.generator` drive the comparison.
"""

import itertools

import pytest

from repro.assign.core_assign import (
    CoreAssignOutcome,
    core_assign,
    reference_buses,
)
from repro.engine.kernel import (
    DenseTimeMatrix,
    KernelWorkspace,
    build_dense_matrix,
    sweep_assign,
)
from repro.exceptions import ConfigurationError
from repro.partition.count import count_partitions
from repro.partition.enumerate import unique_partitions
from repro.partition.evaluate import (
    _ENUMERATORS,
    PartitionSearchResult,
    PartitionStats,
    _TopK,
    partition_evaluate,
)
from repro.soc.generator import random_soc
from repro.wrapper.pareto import build_time_tables


def tables_for(soc, width):
    tables = build_time_tables(soc, width)
    return [tables[core.name] for core in soc.cores]


def kernel_assign(matrix, widths, best_known=None, workspace=None):
    """:func:`sweep_assign` as a ``core_assign``-shaped outcome."""
    result = sweep_assign(matrix, widths, best_known, workspace)
    if result is None:
        return CoreAssignOutcome(
            completed=False, testing_time=best_known, result=None
        )
    return CoreAssignOutcome(
        completed=True, testing_time=result.testing_time, result=result
    )


def oracle_partition_evaluate(
    tables, total_width, num_tams, enumerator="unique", prune=True,
    keep_top=1, stratify_by_tam_count=False,
):
    """The sweep without the kernel: ``core_assign`` per partition.

    Fresh N×B times for every partition, the paper's best-known-time
    abort as the only pruning (no lower-bound skip), and the same
    top-k tracking as :func:`partition_evaluate`.
    """
    counts = [num_tams] if isinstance(num_tams, int) else list(num_tams)
    global_top = _TopK(keep_top)
    trackers = []
    stats = []
    for count in counts:
        tracker = (
            _TopK(keep_top) if stratify_by_tam_count
            else global_top
        )
        trackers.append(tracker)
        enumerated = completed = 0
        if count <= total_width:
            for widths in _ENUMERATORS[enumerator](total_width, count):
                enumerated += 1
                times = [
                    [table.time(width) for width in widths]
                    for table in tables
                ]
                outcome = core_assign(
                    times, widths,
                    best_known=tracker.threshold() if prune else None,
                )
                if outcome.completed:
                    completed += 1
                    tracker.offer(outcome.result)
        stats.append(PartitionStats(
            num_tams=count,
            num_unique=(
                count_partitions(total_width, count)
                if count <= total_width else 0
            ),
            num_enumerated=enumerated,
            num_completed=completed,
        ))
    entries = sorted(
        (entry for tracker in trackers for entry in tracker.entries),
        key=lambda result: result.testing_time,
    ) if stratify_by_tam_count else list(global_top.entries)
    return PartitionSearchResult(
        total_width=total_width,
        best=entries[0],
        stats=tuple(stats),
        elapsed_seconds=0.0,
        runners_up=tuple(entries[1:]),
    )


def search_key(result):
    """Every observable of a PartitionSearchResult, hashable."""
    return (
        result.testing_time,
        result.best_partition,
        result.best.assignment,
        result.best.bus_times,
        tuple(
            (s.num_tams, s.num_unique, s.num_enumerated, s.num_completed)
            for s in result.stats
        ),
        tuple(
            (r.testing_time, r.widths, r.assignment)
            for r in result.runners_up
        ),
    )


class TestDenseMatrix:
    def test_matches_table_lookups(self, tiny_soc):
        tables = tables_for(tiny_soc, 12)
        matrix = build_dense_matrix(tables, 12)
        for index, table in enumerate(tables):
            for width in range(1, 13):
                assert matrix.time(index, width) == table.time(width)

    def test_columns_match_and_are_memoized(self, tiny_soc):
        tables = tables_for(tiny_soc, 10)
        matrix = build_dense_matrix(tables, 10)
        column = matrix.column(7)
        assert column == tuple(t.time(7) for t in tables)
        assert matrix.column(7) is column

    def test_dense_row_matches_times(self, tiny_soc):
        tables = tables_for(tiny_soc, 10)
        for table in tables:
            assert table.dense_row(8) == [
                table.time(w) for w in range(1, 9)
            ]

    def test_rejects_narrow_tables(self, tiny_soc):
        tables = tables_for(tiny_soc, 8)
        with pytest.raises(ConfigurationError):
            build_dense_matrix(tables, 9)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            DenseTimeMatrix([1, 2, 3], 2, 2)

    def test_lower_bound_is_admissible(self, tiny_soc):
        tables = tables_for(tiny_soc, 12)
        matrix = build_dense_matrix(tables, 12)
        for count in (1, 2, 3):
            for widths in unique_partitions(12, count):
                bound = matrix.lower_bound(widths)
                outcome = kernel_assign(matrix, widths)
                assert bound <= outcome.testing_time


class TestKernelAssignDifferential:
    """sweep_assign == core_assign, core by core, abort by abort."""

    WIDTH_SETS = [
        (1,), (7,), (3, 4), (2, 2, 3), (1, 2, 4), (32, 16, 8),
        (8, 16, 32), (4, 4, 4), (5, 1, 3, 2), (1, 1, 1, 1, 3),
    ]

    @pytest.mark.parametrize("seed", range(6))
    def test_completion_identical(self, seed):
        soc = random_soc(f"kern{seed}", 3 + seed, seed)
        tables = tables_for(soc, 64)
        matrix = build_dense_matrix(tables, 64)
        for widths in self.WIDTH_SETS:
            times = [[t.time(w) for w in widths] for t in tables]
            legacy = core_assign(times, list(widths))
            kernel = kernel_assign(matrix, widths)
            assert legacy == kernel, widths

    @pytest.mark.parametrize("seed", range(6))
    def test_abort_thresholds_identical(self, seed):
        soc = random_soc(f"abort{seed}", 4 + seed % 4, 100 + seed)
        tables = tables_for(soc, 16)
        matrix = build_dense_matrix(tables, 16)
        workspace = KernelWorkspace()
        for widths in ((4, 5, 7), (16,), (1, 3, 5, 7), (8, 8)):
            full = core_assign(
                [[t.time(w) for w in widths] for t in tables],
                list(widths),
            ).testing_time
            # Sweep thresholds around the true value: below, at, and
            # above it, including the degenerate 0.
            for best_known in (0, 1, full - 1, full, full + 1, 10 ** 12):
                times = [[t.time(w) for w in widths] for t in tables]
                legacy = core_assign(times, list(widths), best_known)
                kernel = kernel_assign(
                    matrix, widths, best_known, workspace
                )
                assert legacy == kernel, (widths, best_known)
                # Completion iff the final time beats the incumbent.
                assert kernel.completed == (full < best_known)

    def test_ties_break_identically(self):
        # A constructed all-ties instance: every core identical, so
        # the Line 13-16 tie-breaks decide everything.
        core_times = [[100, 100, 100]] * 4

        class Flat:
            def __init__(self):
                self.max_width = 4
                self.core = type("C", (), {"name": "flat"})()

            def dense_row(self, max_width):
                return [100] * max_width

        tables = [Flat() for _ in range(4)]
        matrix = build_dense_matrix(tables, 4)
        for widths in ((1, 2, 4), (2, 2, 2), (4, 2, 1)):
            legacy = core_assign(core_times, list(widths))
            kernel = kernel_assign(matrix, widths[:3])
            assert legacy.result.assignment == kernel.result.assignment


class TestPartitionEvaluateDifferential:
    """Full-sweep bit-identity against the oracle, across modes and SOCs."""

    @pytest.mark.parametrize("seed", range(5))
    def test_sweeps_identical(self, seed):
        soc = random_soc(f"sweep{seed}", 3 + seed % 5, 10 + seed)
        tables = tables_for(soc, 14)
        for total_width, counts in ((9, 3), (14, range(1, 5))):
            for enum, keep_top, stratify, prune in itertools.product(
                ("unique", "increment"), (1, 3), (False, True),
                (True, False),
            ):
                kwargs = dict(
                    enumerator=enum, keep_top=keep_top,
                    stratify_by_tam_count=stratify, prune=prune,
                )
                oracle = oracle_partition_evaluate(
                    tables, total_width, counts, **kwargs,
                )
                kernel = partition_evaluate(
                    tables, total_width, counts, **kwargs,
                )
                assert search_key(oracle) == search_key(kernel), kwargs

    @pytest.mark.parametrize("seed", range(5))
    def test_lb_pruning_changes_nothing_observable(self, seed):
        soc = random_soc(f"lb{seed}", 4 + seed % 4, 20 + seed)
        tables = tables_for(soc, 13)
        plain = oracle_partition_evaluate(tables, 13, range(1, 5))
        pruned = partition_evaluate(tables, 13, range(1, 5))
        assert search_key(plain) == search_key(pruned)
        # Every lb-pruned partition is enumerated but not completed.
        for stats in pruned.stats:
            assert stats.num_lb_pruned <= (
                stats.num_enumerated - stats.num_completed
            )

    def test_lb_pruning_fires(self, p21241):
        tables = tables_for(p21241, 24)
        pruned = partition_evaluate(tables, 24, range(1, 7))
        assert pruned.num_lb_pruned > 0

    def test_rejects_unknown_prune_mode(self, tiny_soc):
        tables = tables_for(tiny_soc, 8)
        with pytest.raises(ConfigurationError, match="prune"):
            partition_evaluate(tables, 8, 2, prune="maybe")

    def test_dense_matrix_can_be_supplied(self, tiny_soc):
        tables = tables_for(tiny_soc, 10)
        matrix = build_dense_matrix(tables, 10)
        direct = partition_evaluate(tables, 8, 2)
        supplied = partition_evaluate(tables, 8, 2, dense=matrix)
        assert search_key(direct) == search_key(supplied)

    def test_dense_matrix_shape_checked(self, tiny_soc):
        tables = tables_for(tiny_soc, 10)
        matrix = build_dense_matrix(tables, 6)
        with pytest.raises(ConfigurationError, match="dense matrix"):
            partition_evaluate(tables, 8, 2, dense=matrix)


class TestEnginePathDefaults:
    def test_evaluate_point_defaults_to_lb_kernel(self, tiny_soc):
        # prune=True (the kernel with its lower-bound skip) is the
        # default on every surface, the engine entry point included.
        from repro.analysis.sweep import evaluate_point

        default = evaluate_point(tiny_soc, 8, num_tams=2)
        explicit = evaluate_point(tiny_soc, 8, num_tams=2, prune=True)
        assert default == explicit


class TestReferenceBuses:
    def test_matches_bruteforce(self):
        for widths in itertools.chain(
            itertools.product((1, 2, 3), repeat=3),
            [(32, 16, 8), (5,), (2, 2), (1, 4, 2, 4, 1)],
        ):
            references = reference_buses(widths)
            for bus, width in enumerate(widths):
                narrower = [
                    b for b in range(len(widths))
                    if widths[b] < width
                ]
                if not narrower:
                    assert references[bus] == -1
                else:
                    expected = max(
                        narrower, key=lambda b: (widths[b], -b)
                    )
                    assert references[bus] == expected
