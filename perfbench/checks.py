"""Output checks, computed in the benchmark's own code.

Every returned point is checked against four rules:

* its bus widths sum to the TAM budget W;
* each core sits on exactly one bus;
* the makespan recomputed from the returned assignment and
  ``TimeTable.time`` equals the reported testing time T;
* T respects the lower bound max(max_i T_i(W), sum_i min_w w*T_i(w) / W).

Points of fixed inputs must also match the committed reference table
(``reference.json``): T, partition, proof status of the final exact
solve, and a digest of the whole serialized point.  The reference
was computed by an inline ``evaluate_point`` (``make_reference.py``),
so a digest match is a bit-identity check against the inline result.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Tuple

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference.json")


def input_key(soc_name: str, width: int, options: Dict[str, Any]) -> str:
    """The reference-table key of one fixed input."""
    mode = options.get("mode", "exact")
    return f"{soc_name}/W{width}/{mode}"


def load_reference() -> Dict[str, Dict[str, Any]]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)["inputs"]


def buses_of(point: Any) -> List[Tuple[int, List[str]]]:
    """The returned assignment: (bus width, core names) per bus."""
    return [
        (bus.width, [core.core_name for core in bus.cores])
        for bus in point.utilization.buses
    ]


def point_digest(point: Any) -> str:
    """SHA-256 over the serialized point and its assignment."""
    from repro.report.serialize import sweep_point_to_dict

    record = {"point": sweep_point_to_dict(point), "buses": buses_of(point)}
    text = json.dumps(record, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def lower_bound_terms(soc: Any, tables: Dict[str, Any], width: int
                      ) -> Tuple[int, int]:
    """(max_i T_i(W), sum_i min_{w<=W} w*T_i(w)) for budget ``width``."""
    bottleneck = max(tables[core.name].time(width) for core in soc.cores)
    area = sum(
        min(w * tables[core.name].time(w) for w in range(1, width + 1))
        for core in soc.cores
    )
    return bottleneck, area


def bound_problems(testing_time: int, width: int,
                   terms: Tuple[int, int]) -> List[str]:
    bottleneck, area = terms
    if testing_time < bottleneck or testing_time * width < area:
        return [
            f"T={testing_time} is below the lower bound "
            f"max({bottleneck}, {area}/{width})"
        ]
    return []


def point_problems(
    soc: Any,
    tables: Dict[str, Any],
    width: int,
    point: Any,
    terms: Optional[Tuple[int, int]] = None,
) -> List[str]:
    """Every rule a returned ``SweepPoint`` breaks (empty when sound)."""
    problems = []
    partition = list(point.partition)
    buses = buses_of(point)
    if sum(partition) != width:
        problems.append(f"widths {partition} do not sum to W={width}")
    if sorted(w for w, _ in buses) != sorted(partition):
        problems.append("assignment buses do not match the partition")
    if len(partition) != point.num_tams:
        problems.append(f"{len(partition)} buses but B={point.num_tams}")
    seen: Dict[str, int] = {}
    for _, names in buses:
        for name in names:
            seen[name] = seen.get(name, 0) + 1
    for core in soc.cores:
        if seen.get(core.name, 0) != 1:
            problems.append(
                f"core {core.name} sits on {seen.get(core.name, 0)} buses"
            )
    unknown = set(seen) - {core.name for core in soc.cores}
    if unknown:
        problems.append(f"unknown cores {sorted(unknown)}")
    else:
        makespan = max(
            (sum(tables[name].time(w) for name in names)
             for w, names in buses),
            default=0,
        )
        if makespan != point.testing_time:
            problems.append(
                f"recomputed makespan {makespan} != T={point.testing_time}"
            )
    if terms is None:
        terms = lower_bound_terms(soc, tables, width)
    problems += bound_problems(point.testing_time, width, terms)
    return problems


def reference_problems(point: Any, reference: Dict[str, Any],
                       proof: Optional[str]) -> List[str]:
    """Mismatches of a fixed input's point against the reference table."""
    problems = []
    if point.testing_time != reference["T"]:
        problems.append(
            f"T={point.testing_time} != reference {reference['T']}"
        )
    if list(point.partition) != reference["partition"]:
        problems.append(
            f"partition {list(point.partition)} != reference "
            f"{reference['partition']}"
        )
    if proof != reference["proof"]:
        problems.append(f"proof {proof} != reference {reference['proof']}")
    if point_digest(point) != reference["digest"]:
        problems.append("serialized point differs from the inline reference")
    return problems


def ilp_problems(tables: Dict[str, Any], soc: Any, point: Any
                 ) -> Tuple[List[str], bool]:
    """Re-solve P_AW on the returned partition with the paper-literal
    ILP; returns (problems, conclusive)."""
    from repro.assign.ilp_model import solve_paw_ilp

    widths = tuple(point.utilization.widths)
    times = [[tables[core.name].time(w) for w in widths]
             for core in soc.cores]
    result, _ = solve_paw_ilp(times, widths)
    if not result.optimal:
        return [], False
    if result.testing_time != point.testing_time:
        return [
            f"ILP optimum {result.testing_time} != T={point.testing_time} "
            f"on partition {list(widths)}"
        ], True
    return [], True


def self_test() -> List[str]:
    """Feed the checks corrupted points; returns the ones not rejected.

    Takes well under a second: one d695 point at W=16, B=2, four
    corruptions of it (wrong T, widths not summing to W, a core on
    two buses, T below the lower bound).
    """
    import dataclasses

    from repro.analysis.sweep import evaluate_point
    from repro.soc.loader import load_source
    from repro.wrapper.pareto import build_time_tables

    soc = load_source("d695")
    width = 16
    tables = build_time_tables(soc, width)
    point = evaluate_point(soc, width, num_tams=2, tables=tables)
    missed = []
    if point_problems(soc, tables, width, point):
        missed.append("the sound point was rejected")
    utilization = point.utilization
    buses = utilization.buses

    wrong_t = dataclasses.replace(point, testing_time=point.testing_time + 1)
    shrunk_bus = dataclasses.replace(buses[0], width=buses[0].width - 1)
    short_widths = dataclasses.replace(
        point,
        partition=(point.partition[0] - 1,) + tuple(point.partition[1:]),
        utilization=dataclasses.replace(
            utilization,
            widths=(utilization.widths[0] - 1,) + utilization.widths[1:],
            buses=(shrunk_bus,) + buses[1:],
        ),
    )
    doubled = dataclasses.replace(
        point,
        utilization=dataclasses.replace(utilization, buses=(
            buses[0],
            dataclasses.replace(
                buses[1], cores=buses[1].cores + (buses[0].cores[0],)
            ),
        ) + buses[2:]),
    )
    terms = lower_bound_terms(soc, tables, width)
    below = max(terms[0], -(-terms[1] // width)) - 1
    too_fast = dataclasses.replace(point, testing_time=below)
    cases = [
        ("wrong T", wrong_t, "recomputed makespan"),
        ("widths not summing to W", short_widths, "do not sum to W"),
        ("core on two buses", doubled, "sits on 2 buses"),
        ("T below the lower bound", too_fast, "below the lower bound"),
    ]
    for label, corrupted, expected in cases:
        problems = point_problems(soc, tables, width, corrupted)
        if not any(expected in problem for problem in problems):
            missed.append(label)
    return missed
