"""Rank machinery behind the sharded sweep: slices and subtree counts."""

import pytest

from repro.exceptions import ConfigurationError
from repro.partition.count import count_partitions, count_partitions_min
from repro.partition.enumerate import partitions_slice, unique_partitions

CASES = [(5, 2), (8, 4), (12, 3), (16, 5), (20, 7)]


class TestPartitionsSlice:
    @pytest.mark.parametrize("total,parts", CASES)
    def test_slices_concatenate_to_full_enumeration(
        self, total, parts
    ):
        full = list(unique_partitions(total, parts))
        size = count_partitions(total, parts)
        for num_slices in (1, 2, 3, size):
            bounds = [
                index * size // num_slices
                for index in range(num_slices + 1)
            ]
            glued = [
                widths
                for lo, hi in zip(bounds, bounds[1:])
                for widths in partitions_slice(total, parts, lo, hi)
            ]
            assert glued == full, num_slices

    def test_arbitrary_interior_slice(self):
        full = list(unique_partitions(20, 4))
        assert list(partitions_slice(20, 4, 7, 19)) == full[7:19]

    def test_empty_slice(self):
        assert list(partitions_slice(10, 3, 4, 4)) == []

    def test_out_of_range_slices_raise(self):
        size = count_partitions(10, 3)
        with pytest.raises(ConfigurationError):
            list(partitions_slice(10, 3, 0, size + 1))
        with pytest.raises(ConfigurationError):
            list(partitions_slice(10, 3, -1, 2))
        with pytest.raises(ConfigurationError):
            list(partitions_slice(10, 3, 3, 2))


class TestBoundedCounts:
    def test_min_count_reduction(self):
        # parts >= m  ⟺  ordinary partitions of the reduced total
        assert count_partitions_min(12, 3, 2) == count_partitions(9, 3)
        assert count_partitions_min(6, 3, 3) == 0
        with pytest.raises(ConfigurationError):
            count_partitions_min(6, 3, 0)
