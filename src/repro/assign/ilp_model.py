"""The paper's ILP formulation of P_AW (Section 3.2), verbatim.

Variables: binary ``x_ij = 1`` iff core ``i`` is assigned to bus ``j``,
plus continuous ``tau`` (the SOC testing time).

    minimize  tau
    s.t.      sum_i  T(i, w_j) * x_ij  <=  tau      for every bus j
              sum_j  x_ij               =  1        for every core i

The paper measures the model's complexity as N*B variables and N+B
constraints; :func:`build_paw_model` reproduces exactly that count
(plus the single ``tau``).

This path runs on the from-scratch solver in :mod:`repro.ilp` and is
intentionally the *slow but literal* formulation — the production
pipelines use :func:`repro.assign.exact.exact_assign`, and the test
suite checks the two agree.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence, Tuple

from repro.exceptions import InfeasibleError
from repro.tam.assignment import AssignmentResult, evaluate_assignment

# repro.ilp needs numpy and scipy (the optional ``ilp`` extra), so it
# is imported where a model is built or solved: ``import repro``
# works without them.
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ilp.model import Model
    from repro.ilp.solution import Solution


def build_paw_model(
    times: Sequence[Sequence[int]], widths: Sequence[int]
) -> Model:
    """Build the P_AW ILP for the given times matrix and bus widths."""
    from repro.ilp.model import Model

    num_cores = len(times)
    num_buses = len(widths)
    model = Model(name=f"paw_{num_cores}x{num_buses}")

    assign_vars = [
        [
            model.add_binary(f"x_{core}_{bus}")
            for bus in range(num_buses)
        ]
        for core in range(num_cores)
    ]
    # tau needs no upper bound; the bus constraints pin it from below.
    tau = model.add_continuous("tau", lower=0.0)

    for bus in range(num_buses):
        load = sum(
            (times[core][bus] * assign_vars[core][bus]
             for core in range(num_cores)),
            start=tau * 0,
        )
        model.add_constraint(load - tau, "<=", 0.0, name=f"bus_{bus}")
    for core in range(num_cores):
        total = sum(
            (assign_vars[core][bus] for bus in range(num_buses)),
            start=tau * 0,
        )
        model.add_constraint(total, "==", 1.0, name=f"core_{core}")

    model.minimize(tau)
    return model


def extract_assignment(
    solution: Solution,
    num_cores: int,
    num_buses: int,
) -> List[int]:
    """Recover the 0-based assignment vector from a solved model."""
    assignment = []
    for core in range(num_cores):
        chosen = [
            bus for bus in range(num_buses)
            if solution.values.get(f"x_{core}_{bus}", 0.0) > 0.5
        ]
        if len(chosen) != 1:
            raise InfeasibleError(
                f"core {core} assigned to {len(chosen)} buses in the "
                "ILP solution"
            )
        assignment.append(chosen[0])
    return assignment


def solve_paw_ilp(
    times: Sequence[Sequence[int]],
    widths: Sequence[int],
    node_limit: int = 200_000,
) -> Tuple[AssignmentResult, Solution]:
    """Solve P_AW through the literal ILP formulation.

    Returns the assignment plus the raw :class:`Solution` (so callers
    can inspect node counts and status).  Raises
    :class:`~repro.exceptions.InfeasibleError` when no integer
    solution was found — which for this model can only mean the node
    budget was exhausted, since a feasible assignment always exists.
    """
    from repro.ilp.branch_and_bound import BranchAndBound
    from repro.ilp.solution import SolveStatus

    model = build_paw_model(times, widths)
    solution = BranchAndBound(model, node_limit=node_limit).solve()
    if not solution.is_feasible:
        raise InfeasibleError(
            f"ILP terminated without a solution: {solution.status.value}"
        )
    assignment = extract_assignment(solution, len(times), len(widths))
    result = evaluate_assignment(
        times,
        widths,
        assignment,
        optimal=solution.status is SolveStatus.OPTIMAL,
    )
    return result, solution
