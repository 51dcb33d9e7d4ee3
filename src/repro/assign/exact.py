"""Exact solver for problem P_AW — dedicated branch-and-bound.

Plays the role of the ILP model of [8] in the paper's methodology:
the exhaustive baseline runs it once per width partition, and the
co-optimization pipeline runs it once, on the partition chosen by
``Partition_evaluate``, as the final optimization step.

The problem is makespan minimization on unrelated machines
(R||Cmax): core ``i`` on bus ``j`` costs ``times[i][j]``.  The DFS
warm-starts from ``Core_assign`` (or a caller-provided incumbent),
branches cores by ``(min, max)`` time descending and children by
``(new_load, bus)``, and admits a child only while all its loads
stay below the incumbent.  Buses with identical time columns form a *class*
(equal widths, or widths on a flat step of every core's staircase).
Five rules cut the tree:

1. *Area* — the assigned work (a running total) plus each remaining
   core's minimum time, spread over all buses, must beat the
   incumbent.
2. *Rectangle* — the paper's packing view: a core on a w-bit bus
   fills a w×T rectangle.  Below capacity ``C = best - 1`` bus ``j``
   offers ``w_j·(C - load_j)`` of area, or none if the smallest
   remaining time on ``j`` no longer fits, and the remaining cores
   need ``Σ min_j w_j·T_cj``.  For mixed widths neither this nor
   rule 1 implies the other.
3. *Placement* — every core after the next must fit on some bus
   below the incumbent (the next one is the child filter).  With one
   class no later core can bind; otherwise a screen on each bus's
   largest remaining time skips the per-core loop when none can.
4. *Bus classes* — a core tries only the first bus of each
   ``(class, load)`` state; the others root the same subtree with
   buses permuted.
5. *Twin cores* — a core with the same row as the previous core,
   which sits on bus ``X``, skips each bus ``Y`` with
   ``(loads[Y] + row[Y], Y) < (loads[X], X)``: the swap sorted first
   one level up and was explored there.

Why no answer moves: rules 1-3, like the child filter and the static
bound, cut only subtrees with no leaf strictly better than the
incumbent, and rules 4-5 only subtrees that repeat, with buses
permuted, one the DFS already finished.  The incumbent changes only
at a strictly better leaf, so it always moves to the first improving
leaf of the one DFS order, whatever subset of the rules runs: every
proved answer is the same assignment, node counts only fall, and a
node-capped search stops further along the order, on an incumbent no
worse.  Only the node budget ends a search early: it returns the
incumbent with ``optimal=False`` — the paper notes some p21241 models
were "particularly intractable" — so a fixed input gives the same
answer on any host under any load.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from operator import add, eq, mul
from typing import Dict, List, Optional, Sequence, Tuple

from repro.assign.core_assign import core_assign
from repro.assign.lower_bounds import paw_lower_bound
from repro.exceptions import ConfigurationError
from repro.tam.assignment import AssignmentResult, evaluate_assignment

#: Default search budget; generous for the paper's instance sizes
#: (N <= 32, B <= 10) yet bounded so no single partition stalls a sweep.
DEFAULT_NODE_LIMIT = 2_000_000
#: Nothing in ``src/`` reads this: the solver has no clock.
#: ``perfbench/instrument.py`` still imports the name; the next
#: benchmark change drops that import, and this line with it.
DEFAULT_TIME_LIMIT = None


@dataclass(frozen=True)
class ExactResult:
    """Outcome of the branch-and-bound search."""

    result: AssignmentResult
    optimal: bool
    nodes_explored: int
    elapsed_seconds: float


class _Search:
    """Mutable state of one branch-and-bound run."""

    def __init__(
        self,
        times: Sequence[Sequence[int]],
        widths: Sequence[int],
        node_limit: int,
    ) -> None:
        self.widths = widths
        self.num_cores = num_cores = len(times)
        self.num_buses = num_buses = len(widths)
        self.node_limit = node_limit
        self.nodes = 0
        self.exhausted = False

        # Hardest cores first: decreasing minimum time, then
        # decreasing maximum time.
        self.order = sorted(
            range(num_cores),
            key=lambda i: (min(times[i]), max(times[i])),
            reverse=True,
        )
        rows = self.rows = [list(times[core]) for core in self.order]
        self.twin = [False] + list(map(eq, rows[1:], rows))
        # Rule 4: each bus lists the earlier buses of its class.
        classes: Dict[Tuple[int, ...], List[int]] = {}
        self.earlier = []
        for bus in range(num_buses):
            members = classes.setdefault(tuple(row[bus] for row in rows), [])
            self.earlier.append(list(members))
            members.append(bus)
        self.num_classes = len(classes)
        # Suffix aggregates over the cores order[depth:], indexed by
        # depth: rule 1's and rule 2's sums, and each bus's smallest
        # (rule 2) and largest (rule 3) time.
        min_sum, area_sum = [0], [0]
        bus_min, bus_max = [[float("inf")] * num_buses], [[0] * num_buses]
        for row in reversed(rows):
            min_sum.append(min_sum[-1] + min(row))
            area_sum.append(area_sum[-1] + min(map(mul, widths, row)))
            bus_min.append(list(map(min, bus_min[-1], row)))
            bus_max.append(list(map(max, bus_max[-1], row)))
        self.min_sum, self.area_sum, self.bus_min, self.bus_max = (
            suffix[::-1] for suffix in (min_sum, area_sum, bus_min, bus_max)
        )

        self.best_time = float("inf")
        self.best_assignment: Optional[List[int]] = None
        self.global_lower_bound = paw_lower_bound(times)

    def seed(self, assignment: Sequence[int], testing_time: int) -> None:
        """Install a warm-start incumbent."""
        if testing_time < self.best_time:
            self.best_time = testing_time
            self.best_assignment = list(assignment)

    # ------------------------------------------------------------------
    def run(self) -> None:
        self._dfs(0, [0] * self.num_cores, [0] * self.num_buses, 0, 0)

    def _pruned(self, depth: int, loads: List[int], work: int) -> bool:
        """Whether rules 1-3 prove no leaf below beats the incumbent."""
        best = self.best_time
        if best <= self.global_lower_bound:
            return True  # incumbent already provably optimal
        capacity = best - 1
        if work + self.min_sum[depth] > capacity * self.num_buses:
            return True
        usable = 0
        for width, load, smallest in zip(
            self.widths, loads, self.bus_min[depth]
        ):
            if capacity - load >= smallest:
                usable += width * (capacity - load)
        if usable < self.area_sum[depth]:
            return True
        later = depth + 1
        if self.num_classes == 1 or later == self.num_cores:
            return False
        if min(map(add, loads, self.bus_max[later])) < best:
            return False
        return any(
            min(map(add, loads, self.rows[k])) >= best
            for k in range(later, self.num_cores)
        )

    def _dfs(
        self, depth: int, assignment: List[int], loads: List[int],
        work: int, top: int,
    ) -> None:
        # ``work`` and ``top`` are the sum and the maximum of ``loads``.
        if self.exhausted:
            return
        self.nodes += 1
        if self.nodes >= self.node_limit:
            self.exhausted = True
            return

        if depth == self.num_cores:
            if top < self.best_time:
                self.best_time = top
                self.best_assignment = list(assignment)
            return
        if self._pruned(depth, loads, work):
            return

        core = self.order[depth]
        row = self.rows[depth]
        best = self.best_time
        twin_load = twin_bus = -1
        if self.twin[depth]:
            twin_bus = assignment[self.order[depth - 1]]
            twin_load = loads[twin_bus]

        candidates = []
        for bus, earlier in enumerate(self.earlier):
            load = loads[bus]
            new_load = load + row[bus]
            # Rule 5: keys below the twin's were tried one level up.
            if new_load >= best or new_load < twin_load or (
                new_load == twin_load and bus < twin_bus
            ):
                continue
            for other in earlier:  # rule 4
                if loads[other] == load:
                    break
            else:
                candidates.append((new_load, bus))
        candidates.sort()

        for new_load, bus in candidates:
            if new_load >= self.best_time or top >= self.best_time:
                break  # sorted, or a load already reached the incumbent
            loads[bus] = new_load
            assignment[core] = bus
            self._dfs(
                depth + 1, assignment, loads, work + row[bus],
                new_load if new_load > top else top,
            )
            loads[bus] = new_load - row[bus]
            if self.exhausted:
                return


def exact_assign(
    times: Sequence[Sequence[int]],
    widths: Sequence[int],
    incumbent: Optional[AssignmentResult] = None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> ExactResult:
    """Solve P_AW exactly (within the node budget) for fixed bus widths.

    Parameters
    ----------
    times / widths:
        As for :func:`repro.assign.core_assign.core_assign`.
    incumbent:
        Optional warm-start assignment (e.g. from the heuristic); the
        solver also always runs ``Core_assign`` itself, so passing one
        only helps when it beats the heuristic.
    node_limit:
        Search budget.  On exhaustion the best-found assignment is
        returned with ``optimal=False``.

    Returns
    -------
    :class:`ExactResult` — the assignment, an optimality flag, and
    search statistics.
    """
    if node_limit < 1:
        raise ConfigurationError(f"node_limit must be >= 1: {node_limit}")

    start = _time.monotonic()
    # Runs first: it validates the input the search's tables index.
    heuristic = core_assign(times, widths)
    assert heuristic.result is not None  # no best_known => completes
    search = _Search(times, widths, node_limit)
    search.seed(heuristic.result.assignment, heuristic.testing_time)
    if incumbent is not None:
        search.seed(incumbent.assignment, incumbent.testing_time)

    search.run()
    elapsed = _time.monotonic() - start

    assert search.best_assignment is not None
    result = evaluate_assignment(
        times,
        widths,
        search.best_assignment,
        optimal=not search.exhausted,
    )
    return ExactResult(
        result=result,
        optimal=not search.exhausted,
        nodes_explored=search.nodes,
        elapsed_seconds=elapsed,
    )
