"""Differential test: the exact P_AW solver against its frozen predecessor.

:class:`OracleSearch` is the branch-and-bound ``repro.assign.exact``
ran before its per-node rules were reworked, kept as it was together
with the two bounds it pruned with (:func:`partial_lower_bound`,
:func:`placement_lower_bound`).  The rework may cut only subtrees with
no leaf strictly better than the incumbent, or subtrees that repeat,
with buses permuted, one already searched.  On width-consistent input
(equal widths share a time column, as every ``TimeTable``-derived
instance does) the oracle's symmetry rule is sound too, and the two
solvers must pass through the same incumbents:

* wherever the oracle proves, the solver proves the same assignment;
* the solver never explores more nodes than the oracle;
* under a node cap the solver never ends on a worse incumbent.
"""

from __future__ import annotations

import random
import time as _time
from math import ceil
from typing import List, Optional, Sequence

import pytest

from repro.assign.core_assign import core_assign
from repro.assign.exact import exact_assign
from repro.assign.lower_bounds import paw_lower_bound
from repro.engine.cache import WrapperTableCache

#: The frozen oracle's wall-clock budget: generous, so that only the
#: node budget decides where its search stops (the solver has no clock).
NO_CLOCK = 3600.0


def partial_lower_bound(
    loads: Sequence[int],
    remaining_min_sum: int,
) -> int:
    """Bound for a partial assignment inside branch-and-bound.

    ``loads`` are the current bus times; every still-unassigned core
    will add at least its own minimum time (summed in
    ``remaining_min_sum``) to the total work.
    """
    num_buses = len(loads)
    area = ceil((sum(loads) + remaining_min_sum) / num_buses)
    return max(max(loads), area)


def placement_lower_bound(
    loads: Sequence[int],
    remaining: Sequence[int],
    times: Sequence[Sequence[int]],
) -> int:
    """Per-core placement bound: each remaining core must land somewhere.

    For every unassigned core the cheapest completed-bus time it can
    achieve is ``min_j (loads[j] + times[core][j])``; the makespan is
    at least the largest of these.
    """
    bound = max(loads) if loads else 0
    for core in remaining:
        best = min(
            loads[bus] + times[core][bus] for bus in range(len(loads))
        )
        if best > bound:
            bound = best
    return bound


class OracleSearch:
    """The predecessor's search state, unchanged (see module doc)."""

    def __init__(
        self,
        times: Sequence[Sequence[int]],
        widths: Sequence[int],
        node_limit: int,
        time_limit: float,
    ) -> None:
        self.times = times
        self.widths = widths
        self.num_cores = len(times)
        self.num_buses = len(widths)
        self.node_limit = node_limit
        self.time_limit = time_limit
        self.deadline = _time.monotonic() + time_limit
        self.nodes = 0
        self.exhausted = False

        # Hardest cores first: decreasing minimum time, then
        # decreasing maximum time.
        self.order = sorted(
            range(self.num_cores),
            key=lambda i: (min(times[i]), max(times[i])),
            reverse=True,
        )
        # suffix_min_sum[k]: total of per-core minimum times for
        # cores order[k:], for the area bound.
        self.suffix_min_sum = [0] * (self.num_cores + 1)
        for k in range(self.num_cores - 1, -1, -1):
            core = self.order[k]
            self.suffix_min_sum[k] = (
                self.suffix_min_sum[k + 1] + min(times[core])
            )

        self.best_time = float("inf")
        self.best_assignment: Optional[List[int]] = None
        self.global_lower_bound = paw_lower_bound(times)

    def seed(self, assignment: Sequence[int], testing_time: int) -> None:
        """Install a warm-start incumbent."""
        if testing_time < self.best_time:
            self.best_time = testing_time
            self.best_assignment = list(assignment)

    def run(self) -> None:
        assignment = [0] * self.num_cores
        loads = [0] * self.num_buses
        self._dfs(0, assignment, loads)

    def _dfs(
        self, depth: int, assignment: List[int], loads: List[int]
    ) -> None:
        if self.exhausted:
            return
        self.nodes += 1
        if self.nodes >= self.node_limit:
            self.exhausted = True
            return
        if self.nodes % 4096 == 0 and _time.monotonic() > self.deadline:
            self.exhausted = True
            return

        if depth == self.num_cores:
            makespan = max(loads)
            if makespan < self.best_time:
                self.best_time = makespan
                self.best_assignment = list(assignment)
            return

        # Prune on bounds (strictly-better semantics).
        area = partial_lower_bound(loads, self.suffix_min_sum[depth])
        if area >= self.best_time:
            return
        placement = placement_lower_bound(
            loads, self.order[depth:], self.times
        )
        if placement >= self.best_time:
            return
        if self.best_time <= self.global_lower_bound:
            # Incumbent already provably optimal; cut everything.
            return

        core = self.order[depth]
        row = self.times[core]

        # Symmetry breaking: among buses in identical (width, load)
        # states the core only tries the first.
        candidates = []
        seen_states = set()
        for bus in range(self.num_buses):
            state = (self.widths[bus], loads[bus])
            if state in seen_states:
                continue
            seen_states.add(state)
            new_load = loads[bus] + row[bus]
            if new_load < self.best_time:
                candidates.append((new_load, bus))
        candidates.sort()

        for new_load, bus in candidates:
            if new_load >= self.best_time:
                break  # sorted: the rest are no better
            loads[bus] = new_load
            assignment[core] = bus
            self._dfs(depth + 1, assignment, loads)
            loads[bus] = new_load - row[bus]
            if self.exhausted:
                return


def oracle_assign(
    times: Sequence[Sequence[int]],
    widths: Sequence[int],
    node_limit: int,
) -> OracleSearch:
    """The predecessor's ``exact_assign``: the finished search state."""
    search = OracleSearch(times, widths, node_limit, NO_CLOCK)
    heuristic = core_assign(times, widths)
    search.seed(heuristic.result.assignment, heuristic.testing_time)
    search.run()
    return search


def random_instance(rng: random.Random):
    """A width-consistent P_AW instance with the structures the rules key on.

    Times fall (weakly) with width, equal widths share a column, and
    the draw mixes in equal-width groups, two distinct widths on one
    flat step of every core's staircase (so they share a column), and
    cores repeated with the same row (twins).
    """
    distinct = sorted(rng.sample(range(1, 17), rng.randint(1, 3)))
    widths = [rng.choice(distinct) for _ in range(rng.randint(2, 5))]
    flat = len(distinct) > 1 and rng.random() < 0.3
    top = rng.choice((12, 40, 400))
    rows = []
    for _ in range(rng.randint(2, 12)):
        if rows and rng.random() < 0.25:
            rows.append(list(rows[rng.randrange(len(rows))]))
            continue
        staircase = {}
        time = rng.randint(1, top)
        for width in distinct:
            staircase[width] = time
            time = max(1, time - rng.randint(0, top // 3))
        if flat:
            staircase[distinct[1]] = staircase[distinct[0]]
        rows.append([staircase[width] for width in widths])
    return rows, widths


@pytest.mark.parametrize("seed", range(8))
def test_matches_oracle_on_random_instances(seed):
    rng = random.Random(seed)
    for _ in range(150):
        times, widths = random_instance(rng)
        node_limit = rng.choice((rng.randint(1, 80), 2_000_000))
        oracle = oracle_assign(times, widths, node_limit)
        exact = exact_assign(times, widths, node_limit=node_limit)
        case = (times, widths, node_limit)
        assert exact.nodes_explored <= oracle.nodes, case
        if oracle.exhausted:
            assert exact.result.testing_time <= oracle.best_time, case
        else:
            assert exact.optimal, case
            assert exact.result.assignment == tuple(
                oracle.best_assignment
            ), case


#: The p93791 polish solves behind perfbench's polish-bound inputs
#: (W=16, 24, 48): the partition each point polishes, the oracle's node
#: count, and the oracle's assignment.
P93791_POLISH = {
    "W16": ((4, 4, 4, 4), 175_137, [
        3, 1, 0, 2, 2, 3, 0, 0, 3, 3, 1, 1, 2, 3, 0, 3,
        0, 2, 2, 2, 3, 2, 0, 3, 2, 1, 2, 1, 0, 1, 2, 1,
    ]),
    "W24": ((6, 6, 6, 6), 255_524, [
        2, 1, 0, 2, 2, 3, 2, 0, 3, 3, 1, 1, 3, 0, 1, 2,
        3, 2, 2, 2, 1, 3, 2, 1, 2, 2, 1, 2, 0, 0, 0, 0,
    ]),
    "W48": ((4, 6, 7, 7, 7, 8, 9), 175_005, [
        3, 5, 1, 4, 1, 3, 6, 2, 4, 5, 5, 6, 0, 3, 0, 4,
        1, 3, 0, 2, 2, 4, 0, 1, 2, 0, 1, 0, 3, 3, 1, 4,
    ]),
}


@pytest.fixture(scope="module")
def p93791_tables(p93791):
    return WrapperTableCache(p93791).table_list(48)


def polish_times(tables, widths):
    return [[table.time(width) for width in widths] for table in tables]


@pytest.mark.parametrize("name", sorted(P93791_POLISH))
def test_p93791_polish_partitions(name, p93791_tables):
    widths, oracle_nodes, assignment = P93791_POLISH[name]
    exact = exact_assign(polish_times(p93791_tables, widths), widths)
    assert exact.optimal
    assert list(exact.result.assignment) == assignment
    assert exact.nodes_explored <= oracle_nodes


def test_p93791_pins_are_the_oracles(p93791_tables):
    """The pinned W=16 entry is what the oracle itself returns."""
    widths, oracle_nodes, assignment = P93791_POLISH["W16"]
    oracle = oracle_assign(
        polish_times(p93791_tables, widths), widths, 2_000_000
    )
    assert not oracle.exhausted
    assert oracle.nodes == oracle_nodes
    assert oracle.best_assignment == assignment


def test_partial_bound_empty_remaining():
    assert partial_lower_bound([10, 4], 0) == 10


def test_partial_bound_area():
    # loads 2+2, remaining min sum 8 -> ceil(12/2) = 6
    assert partial_lower_bound([2, 2], 8) == 6


def test_placement_bound_dominant_core():
    loads = [5, 0]
    times = [[100, 200], [1, 1]]
    bound = placement_lower_bound(loads, [0], times)
    assert bound == 105  # core 0 must land somewhere


def test_placement_bound_no_remaining():
    assert placement_lower_bound([3, 7], [], [[1, 1]]) == 7
