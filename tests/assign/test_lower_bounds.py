"""Unit tests for P_AW lower bounds."""

from itertools import product

from repro.assign.lower_bounds import paw_lower_bound


def test_paw_lower_bound_valid():
    times = [[7, 9], [4, 3], [6, 2], [5, 5]]
    bound = paw_lower_bound(times)
    best = min(
        max(
            sum(times[i][m] for i, mm in enumerate(assign) if mm == m)
            for m in range(2)
        )
        for assign in product(range(2), repeat=4)
    )
    assert bound <= best


def test_bounds_consistent_with_exact():
    from repro.assign.exact import exact_assign
    times = [[12, 20], [8, 15], [25, 40], [9, 9]]
    exact = exact_assign(times, [16, 8])
    assert paw_lower_bound(times) <= exact.result.testing_time
