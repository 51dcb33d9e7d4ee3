"""The anytime search driver: seeded islands, deterministic merge.

One search run is a fixed number of *islands* (:data:`NUM_ISLANDS`,
independent of how many pool workers execute them — the determinism
anchor), each an isolated strategy run over its own
``random.Random(island_seed(seed, index))``.  Islands score
candidates on the dense time matrix, record every strict incumbent
drop in a local trajectory, and optionally publish improvements to a
shared :class:`~repro.engine.shm.IncumbentBoard` slot so the parent
can observe live convergence.  Publication is **write-only**: unlike
the sharded exact sweep (whose forward-only reads are outcome-
neutral), SA acceptance and GA replacement are threshold-sensitive,
so an island never reads another island's incumbent — that is what
makes a fixed-seed run bit-identical across 1..N workers.

Budget contract (the anytime guarantee): an island stops the moment
its incumbent meets ``target_gap`` against the admissible range
bound, or its share of ``eval_budget`` is spent.  Both are counts,
not clocks, so a fixed-seed search returns the same answer on any
host under any load.

The merge is pure arithmetic: best island by
``(testing_time, island_index)``, trajectories interleaved by
``(eval_index, island_index)`` and reduced to strict running-minimum
drops.  Re-running the islands in any order — or any worker
placement — reproduces the identical :class:`SearchResult`.
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api.specs import resolved_tam_counts
from repro.assign.exact import exact_assign
from repro.engine.kernel import (
    DenseTimeMatrix,
    KernelWorkspace,
    build_dense_matrix,
    sweep_assign,
)
from repro.exceptions import ConfigurationError
from repro.search.certificate import SearchCertificate, range_lower_bound
from repro.search.strategies import STRATEGIES, Partition
from repro.tam.assignment import AssignmentResult
from repro.wrapper.pareto import TimeTable

#: Islands per search run.  A *result-defining* constant: per-island
#: seeds and eval shares derive from it, so it is fixed here rather
#: than scaled to the worker count.
NUM_ISLANDS = 4

#: Distinct best partitions each island retains for the final exact
#: polish — the paper's wrong-partition anomaly applies verbatim to
#: the heuristic-scored search (the heuristically best partition is
#: not always the exactly best one), so the polish needs diversity.
KEEP_TOP = 8

#: Node budget for the final exact polish (per candidate).
POLISH_NODE_LIMIT = 2_000_000


def island_seed(seed: int, island_index: int) -> int:
    """The island's private RNG seed, derived, collision-free.

    A fixed affine mix keeps the derivation independent of Python's
    hash randomization (``PYTHONHASHSEED`` must never move a search
    result).
    """
    return (seed * 1_000_003 + island_index * 7_919 + 1) % (1 << 63)


@dataclass(frozen=True)
class IslandPlan:
    """Everything one island run needs, picklable for pool dispatch."""

    island_index: int
    strategy: str
    seed: int
    total_width: int
    tam_counts: Tuple[int, ...]
    eval_budget: int
    target_gap: float
    bound: int

    def __post_init__(self) -> None:
        if self.eval_budget < 1:
            raise ConfigurationError(
                f"island eval_budget must be >= 1, got "
                f"{self.eval_budget}"
            )


@dataclass(frozen=True)
class IslandResult:
    """One island's outcome; the merge's unit of account.

    ``trajectory`` holds ``(eval_index, testing_time)`` pairs, one
    per strict improvement, ``eval_index`` counting this island's
    evaluations from 1.  ``kept`` is the island's :data:`KEEP_TOP`
    best *distinct* partitions (heuristic score ascending) — the
    candidate pool for the final exact polish.
    """

    island_index: int
    best: AssignmentResult
    evals: int
    trajectory: Tuple[Tuple[int, int], ...]
    terminated_by: str
    elapsed_seconds: float
    kept: Tuple[AssignmentResult, ...] = ()


@dataclass(frozen=True)
class SearchResult:
    """A finished anytime search: incumbent, certificate, provenance."""

    total_width: int
    tam_counts: Tuple[int, ...]
    strategy: str
    seed: int
    best: AssignmentResult
    certificate: SearchCertificate
    islands: Tuple[IslandResult, ...]
    #: Merged strict-improvement trail:
    #: ``(eval_index, island_index, testing_time)`` triples in
    #: interleave order — what the service streams as ``incumbent``
    #: events.
    trajectory: Tuple[Tuple[int, int, int], ...]

    @property
    def testing_time(self) -> int:
        return self.best.testing_time

    @property
    def partition(self) -> Tuple[int, ...]:
        return self.best.widths

    @property
    def num_tams(self) -> int:
        return len(self.best.widths)

    @property
    def gap(self) -> float:
        return self.certificate.gap


class _Terminated(Exception):
    """Control-flow signal: the anytime budget contract fired."""


class _IslandEvaluator:
    """Scores candidates, tracks the incumbent, enforces the budget.

    The strategy calls this as a plain function; termination is
    raised *after* the triggering evaluation is fully recorded, so
    the trajectory and eval count are exact regardless of which
    clause fired.
    """

    def __init__(
        self,
        matrix: DenseTimeMatrix,
        plan: IslandPlan,
        publish: Optional[Callable[[int], None]],
    ) -> None:
        self._matrix = matrix
        self._plan = plan
        self._publish = publish
        self._workspace = KernelWorkspace()
        # Incumbent meeting this time has gap <= target_gap.
        self._target_time = plan.bound * (1.0 + plan.target_gap)
        self.evals = 0
        self.best: Optional[AssignmentResult] = None
        self.trajectory: List[Tuple[int, int]] = []
        self.terminated_by = "eval_budget"
        #: The KEEP_TOP best distinct partitions, (time, widths) asc.
        self.kept: List[AssignmentResult] = []

    def _offer(self, result: AssignmentResult) -> None:
        """Keep ``result`` if it improves the top-K distinct set."""
        kept = self.kept
        key = result.widths  # sweep candidates are already canonical
        for index, entry in enumerate(kept):
            if entry.widths == key:
                if result.testing_time < entry.testing_time:
                    del kept[index]
                    break
                return
        else:
            if len(kept) == KEEP_TOP and (
                result.testing_time, key
            ) >= (kept[-1].testing_time, kept[-1].widths):
                return
        position = 0
        while position < len(kept) and (
            kept[position].testing_time, kept[position].widths
        ) <= (result.testing_time, key):
            position += 1
        kept.insert(position, result)
        del kept[KEEP_TOP:]

    def __call__(self, widths: Partition) -> int:
        result = sweep_assign(
            self._matrix, widths, best_known=None,
            workspace=self._workspace,
        )
        assert result is not None  # no best_known => always completes
        self.evals += 1
        time = result.testing_time
        self._offer(result)
        if self.best is None or time < self.best.testing_time:
            self.best = result
            self.trajectory.append((self.evals, time))
            if self._publish is not None:
                self._publish(time)
        if self.best.testing_time <= self._target_time:
            self.terminated_by = "target_gap"
            raise _Terminated()
        if self.evals >= self._plan.eval_budget:
            self.terminated_by = "eval_budget"
            raise _Terminated()
        return time


def run_island(
    matrix: DenseTimeMatrix,
    plan: IslandPlan,
    publish: Optional[Callable[[int], None]] = None,
) -> IslandResult:
    """Execute one island to budget exhaustion; pure in (plan, seed).

    ``publish`` (when given) receives each strict improvement's
    testing time — the :class:`~repro.engine.shm.IncumbentBoard`
    hook.  It must not feed anything back; see the module docstring.
    """
    try:
        strategy = STRATEGIES[plan.strategy]
    except KeyError:
        raise ConfigurationError(
            f"unknown search strategy {plan.strategy!r}; "
            f"choose from {sorted(STRATEGIES)}"
        ) from None
    start = _time.monotonic()
    rng = random.Random(island_seed(plan.seed, plan.island_index))
    evaluator = _IslandEvaluator(matrix, plan, publish)
    try:
        strategy(rng, evaluator, plan.total_width, plan.tam_counts)
    except _Terminated:
        pass
    assert evaluator.best is not None  # first eval always records
    return IslandResult(
        island_index=plan.island_index,
        best=evaluator.best,
        evals=evaluator.evals,
        trajectory=tuple(evaluator.trajectory),
        terminated_by=evaluator.terminated_by,
        elapsed_seconds=_time.monotonic() - start,
        kept=tuple(evaluator.kept),
    )


def polish_candidates(
    matrix: DenseTimeMatrix,
    islands: Sequence[IslandResult],
    incumbent: AssignmentResult,
    bound: int,
) -> AssignmentResult:
    """Exact branch-and-bound polish over the pooled kept partitions.

    The paper's wrong-partition anomaly carries over to the search
    tier: the partition with the best *heuristic* score is not always
    the one with the best *exact* assignment.  So instead of polishing
    only the merged incumbent, the :data:`KEEP_TOP` best distinct
    partitions pooled across all islands each get an exact
    ``P_AW`` solve, warm-started from their heuristic assignment.
    Deterministic: candidates are deduped and ordered by
    ``(heuristic time, widths)``, and the loop stops early once the
    incumbent meets the admissible ``bound`` (nothing can beat it).
    """
    pooled: Dict[Tuple[int, ...], AssignmentResult] = {}
    ordered = sorted(islands, key=lambda result: result.island_index)
    for island in ordered:
        for candidate in island.kept + (island.best,):
            held = pooled.get(candidate.widths)
            if (
                held is None
                or candidate.testing_time < held.testing_time
            ):
                pooled[candidate.widths] = candidate
    candidates = sorted(
        pooled.values(),
        key=lambda result: (result.testing_time, result.widths),
    )[:KEEP_TOP]
    best = incumbent
    for candidate in candidates:
        if best.testing_time <= bound:
            break
        exact = exact_assign(
            matrix.times_for(candidate.widths),
            candidate.widths,
            incumbent=candidate,
            node_limit=POLISH_NODE_LIMIT,
        )
        if exact.result.testing_time < best.testing_time:
            best = exact.result
    return best


def merge_islands(
    islands: Sequence[IslandResult],
) -> Tuple[
    AssignmentResult, Tuple[Tuple[int, int, int], ...], str
]:
    """Deterministic reduction of island outcomes.

    Returns the global best (ties to the lowest island index), the
    merged strict-improvement trajectory, and the aggregate
    termination clause.  Pure data arithmetic — callable on replayed
    or cached island results and guaranteed to reproduce the parent's
    answer.
    """
    if not islands:
        raise ConfigurationError("no island results to merge")
    ordered = sorted(islands, key=lambda result: result.island_index)
    best_island = min(
        ordered,
        key=lambda result: (
            result.best.testing_time, result.island_index
        ),
    )
    events = sorted(
        (eval_index, result.island_index, time)
        for result in ordered
        for eval_index, time in result.trajectory
    )
    merged: List[Tuple[int, int, int]] = []
    incumbent: Optional[int] = None
    for eval_index, island_index, time in events:
        if incumbent is None or time < incumbent:
            incumbent = time
            merged.append((eval_index, island_index, time))
    terminated_by = (
        "target_gap"
        if any(result.terminated_by == "target_gap" for result in ordered)
        else "eval_budget"
    )
    return best_island.best, tuple(merged), terminated_by


def island_plans(
    total_width: int,
    tam_counts: Sequence[int],
    strategy: str,
    seed: int,
    eval_budget: int,
    target_gap: float,
    bound: int,
) -> Tuple[IslandPlan, ...]:
    """The fixed island decomposition of one search run.

    ``eval_budget`` is split evenly (every island gets at least one
    evaluation); the remainder goes to the lowest-indexed islands so
    the split is deterministic and exhaustive.
    """
    share, remainder = divmod(eval_budget, NUM_ISLANDS)
    return tuple(
        IslandPlan(
            island_index=index,
            strategy=strategy,
            seed=seed,
            total_width=total_width,
            tam_counts=tuple(tam_counts),
            eval_budget=max(1, share + (1 if index < remainder else 0)),
            target_gap=target_gap,
            bound=bound,
        )
        for index in range(NUM_ISLANDS)
    )


#: The pool-dispatch seam: the batch engine installs a callable that
#: fans the plans out to workers and returns their
#: :class:`IslandResult` s (any order); ``None`` runs them inline.
IslandsRunner = Callable[[Sequence[IslandPlan]], List[IslandResult]]


def search_optimize(
    tables: Optional[Dict[str, TimeTable]],
    total_width: int,
    num_tams: Union[int, Sequence[int], None] = None,
    strategy: str = "sa",
    seed: int = 0,
    eval_budget: int = 20000,
    target_gap: float = 0.0,
    matrix: Optional[DenseTimeMatrix] = None,
    floor_bound: int = 0,
    islands_runner: Optional[IslandsRunner] = None,
    core_order: Optional[Sequence[str]] = None,
) -> SearchResult:
    """Run one anytime search over (partition, assignment) space.

    Parameters mirror the ``mode="search"`` options of
    :class:`repro.api.specs.OptimizeSpec`; ``tables`` (keyed by core
    name, iterated in ``core_order`` — the SOC's core order — when
    given) or a pre-built ``matrix`` supply the scoring kernel, and
    ``floor_bound`` lets the caller raise the certificate bound with
    an instance-wide admissible bound.  ``islands_runner`` is the
    pool seam; inline execution is the semantic reference it must
    match bit-for-bit.
    """
    if matrix is None:
        if tables is None:
            raise ConfigurationError(
                "search_optimize needs tables or a dense matrix"
            )
        if core_order is not None:
            table_list = [tables[name] for name in core_order]
        else:
            table_list = list(tables.values())
        matrix = build_dense_matrix(table_list, total_width)
    counts = resolved_tam_counts(total_width, num_tams)
    feasible = tuple(
        count for count in counts if count <= total_width
    )
    if not feasible:
        raise ConfigurationError(
            f"no feasible TAM count in {list(counts)} for "
            f"W={total_width}"
        )
    if strategy not in STRATEGIES:
        raise ConfigurationError(
            f"unknown search strategy {strategy!r}; "
            f"choose from {sorted(STRATEGIES)}"
        )
    start = _time.monotonic()
    bound = range_lower_bound(
        matrix, total_width, feasible, floor=floor_bound
    )
    plans = island_plans(
        total_width, feasible, strategy, seed, eval_budget, target_gap,
        bound,
    )
    if islands_runner is not None:
        islands = islands_runner(plans)
    else:
        islands = [run_island(matrix, plan) for plan in plans]
    best, trajectory, terminated_by = merge_islands(islands)
    best = polish_candidates(matrix, islands, best, bound)
    certificate = SearchCertificate(
        testing_time=best.testing_time,
        bound=bound,
        evals=sum(result.evals for result in islands),
        improvements=len(trajectory),
        elapsed_seconds=_time.monotonic() - start,
        terminated_by=terminated_by,
    )
    return SearchResult(
        total_width=total_width,
        tam_counts=feasible,
        strategy=strategy,
        seed=seed,
        best=best,
        certificate=certificate,
        islands=tuple(
            sorted(islands, key=lambda result: result.island_index)
        ),
        trajectory=trajectory,
    )
