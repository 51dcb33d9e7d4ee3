"""The dense time-matrix sweep kernel — how ``Partition_evaluate`` scores.

A direct sweep would build a fresh N×B Python list-of-lists for
*every* width partition and run ``Core_assign`` as an
allocation-heavy pure-Python loop.  This module removes both costs
while staying **bit-identical** to :func:`repro.assign.core_assign.
core_assign` (asserted by the differential suite in
``tests/engine/test_kernel.py``, whose per-partition ``core_assign``
sweep is the oracle):

* :class:`DenseTimeMatrix` — every core's monotone time staircase
  exported once (:meth:`~repro.wrapper.pareto.TimeTable.dense_row`)
  into one flat width-indexed array.  Partitions share widths, so the
  per-width *columns* the assignment loop reads are memoized: each is
  materialized exactly once per sweep, with its max/sum aggregates.
* :func:`sweep_assign` — the Fig. 1 heuristic rewritten over those
  columns: single-scan bus and core picks, precomputed per-bus
  tie-break reference, swap-pop core removal, O(1) abort check, and a
  reusable :class:`KernelWorkspace` so the per-partition loop
  allocates nothing but the final result (only built on completion,
  which pruning makes rare).
* :meth:`DenseTimeMatrix.lower_bound` — an admissible O(1) partition
  bound (:func:`repro.assign.lower_bounds.column_lower_bound` on the
  widest column's cached aggregates).  A partition whose bound
  already meets the incumbent cannot complete under the Lines 18-20
  abort, so ``partition_evaluate`` (``prune=True``) skips
  ``Core_assign`` entirely without changing any observable outcome.

Pool workers build the same matrix from the parent's own tables
(:mod:`repro.engine.shm`), so both sides of the pool sweep identical
columns.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.assign.core_assign import reference_buses
from repro.assign.lower_bounds import column_lower_bound
from repro.exceptions import ConfigurationError
from repro.obs import span as _obs_span
from repro.tam.assignment import AssignmentResult
from repro.wrapper.pareto import TimeTable


class DenseTimeMatrix:
    """N cores × W widths testing times, flat and column-memoized.

    ``flat[i * total_width + (w - 1)]`` is core ``i``'s best testing
    time on a width-``w`` bus.  Rows are monotone non-increasing (the
    :class:`~repro.wrapper.pareto.TimeTable` staircase), which is what
    makes the widest-column lower bound admissible.

    The backing store is any flat int sequence, normally an
    ``array('q')``.  Hot loops never touch it directly: they read the
    memoized per-width column tuples.
    """

    __slots__ = (
        "num_cores", "total_width", "_flat", "_columns", "_stats",
        "_orders", "_contexts",
    )

    def __init__(
        self,
        flat: Union["array[int]", Sequence[int]],
        num_cores: int,
        total_width: int,
    ) -> None:
        if num_cores < 1:
            raise ConfigurationError(
                f"num_cores must be >= 1, got {num_cores}"
            )
        if total_width < 1:
            raise ConfigurationError(
                f"total_width must be >= 1, got {total_width}"
            )
        if len(flat) != num_cores * total_width:
            raise ConfigurationError(
                f"flat matrix has {len(flat)} entries, expected "
                f"{num_cores} x {total_width}"
            )
        self.num_cores = num_cores
        self.total_width = total_width
        self._flat = flat
        #: width → column tuple (one entry per core), built on demand.
        self._columns: Dict[int, Tuple[int, ...]] = {}
        #: width → (max, sum) of the column, for the O(1) lower bound.
        self._stats: Dict[int, Tuple[int, int]] = {}
        #: (width, reference width) → core pick order, memoized — the
        #: Line 13-16 selection collapses to "first unassigned core in
        #: this order", O(1) amortized per step.
        self._orders: Dict[Tuple[int, Optional[int]], Tuple[int, ...]] = {}
        #: (width, reference width) → (column, pick order), the fused
        #: per-bus lookup the sweep loop performs once per bus.
        self._contexts: Dict[
            Tuple[int, Optional[int]],
            Tuple[Tuple[int, ...], Tuple[int, ...]],
        ] = {}

    def time(self, core: int, width: int) -> int:
        """Core ``core``'s (0-based) testing time at ``width``."""
        if not 1 <= width <= self.total_width:
            raise ConfigurationError(
                f"width {width} outside matrix range 1..{self.total_width}"
            )
        return self._flat[core * self.total_width + width - 1]

    def column(self, width: int) -> Tuple[int, ...]:
        """All cores' times at ``width``; materialized exactly once."""
        col = self._columns.get(width)
        if col is None:
            if not 1 <= width <= self.total_width:
                raise ConfigurationError(
                    f"width {width} outside matrix range "
                    f"1..{self.total_width}"
                )
            stride = self.total_width
            flat = self._flat
            col = tuple(
                flat[core * stride + width - 1]
                for core in range(self.num_cores)
            )
            self._columns[width] = col
        return col

    def column_stats(self, width: int) -> Tuple[int, int]:
        """(max, sum) of :meth:`column`, cached alongside it."""
        stats = self._stats.get(width)
        if stats is None:
            col = self.column(width)
            stats = (max(col), sum(col))
            self._stats[width] = stats
        return stats

    def lower_bound(self, widths: Sequence[int]) -> int:
        """Admissible P_AW bound for one partition, O(B) amortized.

        Every core's best time under ``widths`` is its time on the
        widest bus (rows are monotone), so the unrelated-machines
        bound needs only that column's cached aggregates.
        """
        return self.lower_bound_for_max(max(widths), len(widths))

    def lower_bound_for_max(self, max_part: int, num_buses: int) -> int:
        """:meth:`lower_bound` of any partition with this widest bus.

        The bound depends on a partition only through its largest
        part and its bus count — and it is monotone non-increasing in
        the largest part (wider columns are elementwise faster).
        """
        max_time, total = self.column_stats(max_part)
        return column_lower_bound(max_time, total, num_buses)

    def pick_order(
        self, width: int, reference_width: Optional[int] = None
    ) -> Tuple[int, ...]:
        """Core indices in Line 13-16 preference order for one bus.

        Descending time on the width-``width`` bus, ties by descending
        time on the reference bus (the widest strictly narrower one),
        then ascending core index — exactly ``core_assign``'s ``_pick_core``
        ordering, so the next core to assign is always the first not-
        yet-assigned entry.  Memoized per (width, reference) pair;
        partitions share widths, so the sweep sorts each pair once.
        """
        key = (width, reference_width)
        order = self._orders.get(key)
        if order is None:
            col = self.column(width)
            if reference_width is None:
                order = sorted(
                    range(self.num_cores),
                    key=lambda core: (-col[core], core),
                )
            else:
                ref = self.column(reference_width)
                order = sorted(
                    range(self.num_cores),
                    key=lambda core: (-col[core], -ref[core], core),
                )
            order = tuple(order)
            self._orders[key] = order
        return order

    def bus_context(
        self, width: int, reference_width: Optional[int]
    ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """(column, pick order) for one bus, one dict probe when warm."""
        key = (width, reference_width)
        context = self._contexts.get(key)
        if context is None:
            context = (
                self.column(width),
                self.pick_order(width, reference_width),
            )
            self._contexts[key] = context
        return context

    def times_for(self, widths: Sequence[int]) -> List[List[int]]:
        """Row-major N×B times for ``widths`` (``core_assign``'s layout)."""
        cols = [self.column(width) for width in widths]
        return [
            [col[core] for col in cols]
            for core in range(self.num_cores)
        ]


def build_dense_matrix(
    tables: Sequence[TimeTable], total_width: int
) -> DenseTimeMatrix:
    """Assemble the N×W matrix from per-core tables, once per sweep."""
    if not tables:
        raise ConfigurationError("need at least one core time table")
    # One coarse span per sweep; the kernel's inner assignment loop
    # stays instrumentation-free (RPR001's telemetry discipline).
    with _obs_span(
        "build_dense_matrix", cores=len(tables), W=total_width
    ):
        flat = array("q")
        for table in tables:
            if table.max_width < total_width:
                raise ConfigurationError(
                    f"time table for {table.core.name!r} covers "
                    f"widths up to {table.max_width} < total width "
                    f"{total_width}"
                )
            flat.extend(table.dense_row(total_width))
        return DenseTimeMatrix(flat, len(tables), total_width)


class KernelWorkspace:
    """Reusable scratch arrays for :func:`sweep_assign`.

    One workspace per sweep keeps the inner loop allocation-free: the
    loads / assignment / cursor lists are grown once and reset in
    place per partition, and the assigned-core marks are generation-
    stamped so resetting them costs nothing at all.
    """

    __slots__ = ("_loads", "_assignment", "_cursors", "_stamps",
                 "_generation")

    def __init__(self) -> None:
        self._loads: List[int] = []
        self._assignment: List[int] = []
        self._cursors: List[int] = []
        self._stamps: List[int] = []
        self._generation = 0


def sweep_assign(
    matrix: DenseTimeMatrix,
    widths: Sequence[int],
    best_known: Optional[int] = None,
    workspace: Optional[KernelWorkspace] = None,
) -> Optional[AssignmentResult]:
    """``Core_assign`` over dense columns; ``None`` when aborted.

    Produces exactly the result of :func:`repro.assign.core_assign.
    core_assign` on ``matrix.times_for(widths)`` on completion, and
    aborts exactly when that would have — a run completes iff its
    final time beats ``best_known``.  An aborted partition returns
    ``None`` instead of allocating an outcome object: under heavy
    pruning almost every partition aborts, so the fast path
    allocates nothing.  The abort itself may fire *earlier* than
    Lines 18-20: alongside the per-bus load check the loop maintains
    an admissible partial area bound (assigned work so far plus every
    remaining core's floor, cf. the area rule of the exact solver in
    :mod:`repro.assign.exact`), which dooms most partitions steps
    before a single bus physically crosses the incumbent.
    """
    num_buses = len(widths)
    if num_buses == 0:
        raise ConfigurationError("need at least one bus")
    num_cores = matrix.num_cores
    # Per-bus (column, Line 13-16 pick order), fused and memoized on
    # the matrix across partitions sharing the (width, reference)
    # pair; the reference widths fall out of the same single pass
    # that detects sorted input.
    cols = []
    orders = []
    previous_first = -1
    run_first = 0
    is_sorted = True
    for j, width in enumerate(widths):
        if j and width != widths[j - 1]:
            if width < widths[j - 1]:
                is_sorted = False
                break
            previous_first = run_first
            run_first = j
        column, order = matrix.bus_context(
            width,
            widths[previous_first] if previous_first >= 0 else None,
        )
        cols.append(column)
        orders.append(order)
    if not is_sorted:
        references = reference_buses(widths)
        cols = []
        orders = []
        for j, width in enumerate(widths):
            reference = references[j]
            column, order = matrix.bus_context(
                width,
                widths[reference] if reference >= 0 else None,
            )
            cols.append(column)
            orders.append(order)

    if workspace is None:
        workspace = KernelWorkspace()
    loads = workspace._loads
    if len(loads) < num_buses:
        loads.extend([0] * (num_buses - len(loads)))
    cursors = workspace._cursors
    if len(cursors) < num_buses:
        cursors.extend([0] * (num_buses - len(cursors)))
    for bus in range(num_buses):
        loads[bus] = 0
        cursors[bus] = 0
    assignment = workspace._assignment
    stamps = workspace._stamps
    if len(assignment) < num_cores:
        grow = num_cores - len(assignment)
        assignment.extend([0] * grow)
        stamps.extend([0] * grow)
    workspace._generation += 1
    generation = workspace._generation

    # Partial area bound state: ``projected`` is assigned work plus
    # the floor (widest-column time) of every unassigned core — a
    # lower bound on the final total work, so the final makespan is
    # at least ceil(projected / B).  ``projected > area_limit`` is
    # that test without the division.
    floors = None
    projected = 0
    area_limit = 0
    if best_known is not None:
        widest = max(widths)
        floors = matrix.column(widest)
        projected = matrix.column_stats(widest)[1]
        area_limit = (best_known - 1) * num_buses

    remaining = num_cores
    while remaining:
        # Lines 10-12: min-load bus, ties to the widest, then lowest
        # index — a single scan.
        bus = 0
        best_load = loads[0]
        best_width = widths[0]
        for j in range(1, num_buses):
            load = loads[j]
            if load < best_load or (
                load == best_load and widths[j] > best_width
            ):
                bus = j
                best_load = load
                best_width = widths[j]

        # Lines 13-16: first unassigned core in this bus's preference
        # order.  Cursors only ever advance — cores assigned earlier
        # stay stamped for the whole partition — so the skips
        # amortize to O(N) per partition, not per step.
        order = orders[bus]
        cursor = cursors[bus]
        core = order[cursor]
        while stamps[core] == generation:
            cursor += 1
            core = order[cursor]
        cursors[bus] = cursor
        stamps[core] = generation

        assignment[core] = bus
        best_time = cols[bus][core]
        load = loads[bus] + best_time
        loads[bus] = load
        if floors is not None:
            # Lines 18-20 (only this bus's load changed, and every
            # load was below the incumbent before — O(1)), plus the
            # partial area bound, which cannot misfire: it bounds the
            # final time from below, and core_assign's abort fires on
            # every run whose final time reaches the incumbent.
            projected += best_time - floors[core]
            if load >= best_known or projected > area_limit:
                return None
        remaining -= 1

    bus_times = tuple(loads[:num_buses])
    return AssignmentResult(
        widths=tuple(widths),
        assignment=tuple(assignment[:num_cores]),
        bus_times=bus_times,
        testing_time=max(bus_times),
    )
