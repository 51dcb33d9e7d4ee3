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
Six rules cut the tree:

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
   class no later core can bind, and rule 6 runs instead; nor can one
   whose row the next core's row dominates (where it fits nowhere, the
   next core has no child).  A screen on the others' largest time per
   bus skips the per-core loop when none can bind.
4. *Bus classes* — a core tries only the first bus of each
   ``(class, load)`` state; the others root the same subtree with
   buses permuted.
5. *Twin cores* — a core with the same row as the previous core,
   which sits on bus ``X``, skips each bus ``Y`` with
   ``(loads[Y] + row[Y], Y) < (loads[X], X)``: the swap sorted first
   one level up and was explored there.
6. *Subset sums* — with one class P_AW is multi-way number
   partitioning.  The remaining cores are the fixed suffix
   ``order[depth:]``, so bus ``j`` takes at most the largest subset
   sum of their times that fits its room ``C - load_j``; a node is
   cut once the rooms' total waste exceeds rule 1's slack
   ``B·C - work - Σ remaining``.  Consecutive subset sums are never
   further apart than the largest item, so the rule runs only while
   the slack is below the largest remaining time, and reads each
   bus's bitset only over ``[room - slack, room]``.  The suffixes'
   bitsets are built once per solve, bottom-up, and only for
   suffixes whose total fits one room, which bounds their memory.

A node is a few integer operations in the common case: each depth's
constants are built once per solve, ``Σ w_j·load_j`` rides down the
DFS so rule 2 is O(1) whenever ``C - top`` fits every bus's smallest
remaining time, and only children below the incumbent are built.  No
rule reads a different value, so no node moves.

Why no answer moves: rules 1-3 and 6, like the child filter and the
static bound, cut only subtrees with no leaf strictly better than the
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
from operator import add, gt, mul
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


class _Exhausted(Exception):
    """The node budget ran out: unwinds the whole DFS at once."""


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
        order = sorted(
            range(num_cores),
            key=lambda i: (min(times[i]), max(times[i])),
            reverse=True,
        )
        rows = self.rows = [list(times[core]) for core in order]
        # Rule 4: each bus lists the earlier buses of its class.
        classes: Dict[Tuple[int, ...], List[int]] = {}
        self.earlier = []
        for bus in range(num_buses):
            members = classes.setdefault(tuple(row[bus] for row in rows), [])
            self.earlier.append(list(members))
            members.append(bus)
        self.num_classes = len(classes)
        # Suffix aggregates over the cores order[depth:], by depth:
        # rule 1's and rule 2's sums and each bus's smallest time.
        min_sum, area_sum, bus_min = [0], [0], [[float("inf")] * num_buses]
        for row in reversed(rows):
            min_sum.append(min_sum[-1] + min(row))
            area_sum.append(area_sum[-1] + min(map(mul, widths, row)))
            bus_min.append(list(map(min, bus_min[-1], row)))
        self.min_sum, area_sum, bus_min = (
            suffix[::-1] for suffix in (min_sum, area_sum, bus_min)
        )
        # Each depth's constants, in the order the DFS reads them; rule
        # 3 checks only the later rows this row does not dominate.
        self.levels = []
        for depth, row in enumerate(rows):
            binding = [
                later for later in rows[depth + 1:]
                if any(map(gt, later, row))
            ]
            self.levels.append((
                self.min_sum[depth], bus_min[depth], max(bus_min[depth]),
                area_sum[depth], binding,
                [max(column) for column in zip(*binding)],
                order[depth], row, list(map(mul, widths, row)),
                order[depth - 1] if depth and row == rows[depth - 1]
                else None,
            ))

        # Rule 6's subset sums of the cores order[depth:], by depth.
        self.subset_sums = {num_cores: b"\x01"}

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
        levels, earlier, widths = self.levels, self.earlier, self.widths
        num_cores, num_buses = self.num_cores, self.num_buses
        buses, total_width = range(num_buses), sum(widths)
        node_limit, floor = self.node_limit, self.global_lower_bound
        one_class, rooms_waste = self.num_classes == 1, self._rooms_waste
        loads, assignment = [0] * num_buses, [0] * num_cores
        nodes, best, best_assignment = 0, self.best_time, self.best_assignment

        def visit(depth: int, work: int, wload: int, top: int) -> None:
            # ``work``, ``wload`` and ``top``: the sum, the width-weighted
            # sum and the maximum of ``loads``.
            nonlocal nodes, best, best_assignment
            nodes += 1
            if nodes >= node_limit:
                raise _Exhausted
            if depth == num_cores:
                if top < best:
                    best, best_assignment = top, assignment[:]
                return
            if best <= floor:
                return  # incumbent already provably optimal
            (min_sum, bus_min, largest_min, area_sum, binding, screen,
             core, row, wrow, twin) = levels[depth]
            capacity = best - 1
            slack = capacity * num_buses - work - min_sum
            if slack < 0:
                return  # rule 1
            if capacity - top >= largest_min:
                usable = capacity * total_width - wload
            else:
                usable = 0
                for width, load, smallest in zip(widths, loads, bus_min):
                    if capacity - load >= smallest:
                        usable += width * (capacity - load)
            if usable < area_sum:
                return  # rule 2
            if one_class:
                if rooms_waste(depth, loads, capacity, slack):
                    return  # rule 6
            elif binding and min(map(add, loads, screen)) >= best:
                for later in binding:  # rule 3
                    if min(map(add, loads, later)) >= best:
                        return

            candidates = []
            for bus in buses:
                new_load = loads[bus] + row[bus]
                if new_load < best:
                    candidates.append((new_load, bus))
            candidates.sort()
            twin_load = twin_bus = -1
            if twin is not None:
                twin_bus = assignment[twin]
                twin_load = loads[twin_bus]
            for new_load, bus in candidates:
                if new_load >= best or top >= best:
                    break  # sorted, or a load already reached the incumbent
                # Rule 5: keys below the twin's were tried one level up.
                if new_load < twin_load or (
                    new_load == twin_load and bus < twin_bus
                ):
                    continue
                load = loads[bus]
                for other in earlier[bus]:  # rule 4
                    if loads[other] == load:
                        break
                else:
                    loads[bus] = new_load
                    assignment[core] = bus
                    visit(
                        depth + 1, work + row[bus], wload + wrow[bus],
                        new_load if new_load > top else top,
                    )
                    loads[bus] = load

        try:
            visit(0, 0, 0, 0)
        except _Exhausted:
            self.exhausted = True
        finally:
            # ``visit`` refers to itself: breaking the cycle frees the
            # tables (rule 6's bitsets) now, not at a full collection.
            del visit
        self.nodes = nodes
        self.best_time, self.best_assignment = best, best_assignment

    def _rooms_waste(
        self, depth: int, loads: List[int], capacity: int, slack: int,
    ) -> bool:
        """Rule 6: whether the buses' rooms waste more than ``slack``."""
        if slack >= self.rows[depth][0] or self.min_sum[depth] > capacity:
            return False
        sums = self._subset_sums(depth)
        for load in loads:
            # The largest subset sum in [room - slack, room], read from
            # the bytes of that window only.
            room = capacity - load
            low = max(room - slack, 0)
            base = low & ~7
            window = int.from_bytes(sums[base >> 3:(room >> 3) + 1], "little")
            top = base + (window & ((2 << (room - base)) - 1)).bit_length() - 1
            if top < low:
                return True
            slack -= room - top
        return False

    def _subset_sums(self, depth: int) -> bytes:
        """Rule 6's bitset of ``order[depth:]``: bit ``s`` is set when
        some of those cores' times sum to ``s``."""
        levels = self.subset_sums
        if depth not in levels:
            built = self.num_cores + 1 - len(levels)
            bits = int.from_bytes(levels[built], "little")
            for k in range(built - 1, depth - 1, -1):
                bits |= bits << self.rows[k][0]
                levels[k] = bits.to_bytes((bits.bit_length() + 7) // 8, "little")
        return levels[depth]


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
