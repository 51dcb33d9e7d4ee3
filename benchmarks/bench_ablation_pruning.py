"""Ablation — what each design choice in the paper's method buys.

Not a table in the paper, but DESIGN.md calls out three design
choices worth quantifying on d695:

1. *Early abort* (Lines 18-20 of Core_assign): disabling it must not
   change the answer but must evaluate many more partitions to
   completion.
2. *Enumerator*: the paper's ``Increment`` odometer vs the canonical
   duplicate-free enumeration — same best result, strictly more
   partitions enumerated by the odometer.
3. *Final exact polish*: never hurts, and measurably helps on at
   least some width.
4. *Core_assign vs exact assignment* (Section 2's claim that the
   heuristic runs orders of magnitude faster than the ILP): timed
   head-to-head on a fixed partition.
"""

import time

from repro.assign.core_assign import core_assign
from repro.assign.exact import exact_assign
from repro.optimize.co_optimize import co_optimize
from repro.partition.evaluate import partition_evaluate
from repro.report.tables import TextTable
from repro.wrapper.pareto import build_time_tables

WIDTH = 32
TAM_COUNTS = range(1, 6)


def _tables(soc, width=WIDTH):
    tables = build_time_tables(soc, width)
    return [tables[core.name] for core in soc.cores]


def test_ablation_early_abort(benchmark, d695, report):
    table_list = _tables(d695)

    pruned = benchmark.pedantic(
        partition_evaluate,
        args=(table_list, WIDTH, TAM_COUNTS),
        kwargs={"prune": True},
        rounds=1, iterations=1,
    )
    unpruned = partition_evaluate(
        table_list, WIDTH, TAM_COUNTS, prune=False
    )

    rendered = TextTable(
        ["variant", "completed evaluations", "best T (cycles)"],
        title="Ablation 1. Early abort in Core_assign (d695, W=32).",
    )
    for label, result in (("with abort", pruned),
                          ("without abort", unpruned)):
        rendered.add_row([
            label,
            sum(s.num_completed for s in result.stats),
            result.testing_time,
        ])
    report("ablation_early_abort", rendered.render())

    assert pruned.testing_time == unpruned.testing_time
    assert (
        sum(s.num_completed for s in pruned.stats)
        < 0.5 * sum(s.num_completed for s in unpruned.stats)
    )


def test_ablation_enumerator(benchmark, d695, report):
    table_list = _tables(d695)

    unique = benchmark.pedantic(
        partition_evaluate,
        args=(table_list, WIDTH, TAM_COUNTS),
        kwargs={"enumerator": "unique"},
        rounds=1, iterations=1,
    )
    odometer = partition_evaluate(
        table_list, WIDTH, TAM_COUNTS, enumerator="increment"
    )

    rendered = TextTable(
        ["enumerator", "partitions enumerated", "best T (cycles)"],
        title="Ablation 2. Partition enumerator (d695, W=32).",
    )
    for label, result in (("unique (ours)", unique),
                          ("Increment odometer (paper)", odometer)):
        rendered.add_row([
            label,
            sum(s.num_enumerated for s in result.stats),
            result.testing_time,
        ])
    report("ablation_enumerator", rendered.render())

    assert unique.testing_time == odometer.testing_time
    assert (
        sum(s.num_enumerated for s in unique.stats)
        <= sum(s.num_enumerated for s in odometer.stats)
    )


def test_ablation_final_polish(benchmark, d695, report):
    widths = (16, 24, 32, 40)
    rendered = TextTable(
        ["W", "heuristic T", "polished T", "gain %"],
        title="Ablation 3. Final exact optimization step (d695).",
    )
    gains = []

    def run():
        rendered.rows.clear()
        gains.clear()
        for width in widths:
            result = co_optimize(d695, width, num_tams=TAM_COUNTS)
            heuristic_t = result.search.testing_time
            polished_t = result.testing_time
            gain = (heuristic_t - polished_t) / heuristic_t * 100
            gains.append(gain)
            rendered.add_row([
                width, heuristic_t, polished_t, round(gain, 2),
            ])
        return gains

    benchmark.pedantic(run, rounds=1, iterations=1)
    report("ablation_final_polish", rendered.render())

    assert all(gain >= -1e-9 for gain in gains)


def test_ablation_core_assign_vs_exact_speed(benchmark, p93791, report):
    """Section 2's claim: the heuristic is orders of magnitude faster."""
    tables = _tables(p93791, width=64)
    widths = [9, 16, 39]
    times = [[t.time(w) for w in widths] for t in tables]

    def heuristic_many(repeats=200):
        for _ in range(repeats):
            core_assign(times, widths)

    start = time.monotonic()
    heuristic_many()
    heuristic_per_call = (time.monotonic() - start) / 200

    start = time.monotonic()
    exact = exact_assign(times, widths)
    exact_elapsed = time.monotonic() - start

    benchmark.pedantic(core_assign, args=(times, widths),
                       rounds=5, iterations=20)

    rendered = TextTable(
        ["solver", "seconds per call", "T (cycles)"],
        title="Ablation 4. Core_assign vs exact assignment "
              "(p93791 stand-in, 9+16+39).",
    )
    outcome = core_assign(times, widths)
    rendered.add_row([
        "Core_assign (heuristic)", f"{heuristic_per_call:.6f}",
        outcome.testing_time,
    ])
    rendered.add_row([
        "branch-and-bound (exact)", f"{exact_elapsed:.6f}",
        exact.result.testing_time,
    ])
    report("ablation_assign_speed", rendered.render())

    assert exact.result.testing_time <= outcome.testing_time
    # "Core_assign executes two orders of magnitude faster" — require
    # at least 10x here to stay robust.
    assert heuristic_per_call * 10 <= max(exact_elapsed, 1e-6)
