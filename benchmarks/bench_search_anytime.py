"""Anytime search vs exhaustive enumeration on the largest SOC.

The search tier's economic claim, quantified on p93791 at W=32 over
B ∈ 1..4 and archived in ``BENCH_search_anytime.json``:

* **time-to-within-5%** — a seeded search reaches a testing time
  within 5% of the exhaustive optimum in far less wall-clock than the
  exhaustive enumeration's total runtime (the headline ``speedup``);
* **certificate soundness** — every search result reports an
  incumbent at or above its admissible bound and a non-negative gap,
  at every budget on the ladder;
* **determinism** — re-running the winning budget with the same seed
  reproduces the result bit for bit.

Measurement protocol: the wrapper time tables are built once and
shared by both sides, so the comparison is optimizer vs optimizer,
not cache-cold vs cache-warm.  The exhaustive baseline is the
[8]-style enumeration (every partition solved exactly); the search
ladder runs one ``evaluate_point(mode="search")`` per eval budget,
inline, and the time-to-within-5% sample is the full wall-clock of
the *smallest* budget whose answer lands within 5% — charging the
search for its exact polish, not just its heuristic loop.

Not wired into CI's smoke job (the exhaustive baseline alone runs
minutes); the CI ``search-smoke`` job asserts the gap-0 contract on
d695 instead, where the bound is tight and the proof is instant.
"""

import time
from pathlib import Path

from common import append_history, bench_record

from repro.analysis.sweep import evaluate_point
from repro.optimize.exhaustive import exhaustive_optimize
from repro.report.experiments import rows_to_table
from repro.wrapper.pareto import build_time_tables

BENCH_JSON = Path(__file__).resolve().parent.parent / (
    "BENCH_search_anytime.json"
)

WIDTH = 32
TAM_COUNTS = (1, 2, 3, 4)
SEED = 7
STRATEGY = "ga"
#: Ascending eval budgets; the smallest one within 5% of optimum is
#: the time-to-within-5% sample.
BUDGET_LADDER = (250, 1000, 4000)
TARGET = 0.05


def _search(soc, tables, eval_budget):
    start = time.perf_counter()
    point = evaluate_point(
        soc, WIDTH, num_tams=TAM_COUNTS, tables=tables,
        mode="search", search_strategy=STRATEGY, seed=SEED,
        eval_budget=eval_budget,
    )
    return time.perf_counter() - start, point


def test_search_reaches_5pct_faster_than_exhaustive(report, p93791):
    tables_start = time.perf_counter()
    tables = build_time_tables(p93791, WIDTH)
    tables_s = time.perf_counter() - tables_start

    exhaustive_start = time.perf_counter()
    exhaustive = exhaustive_optimize(
        p93791, WIDTH, num_tams=TAM_COUNTS, tables=tables,
    )
    exhaustive_s = time.perf_counter() - exhaustive_start
    optimum = exhaustive.best.testing_time

    rows = []
    winner = None
    for eval_budget in BUDGET_LADDER:
        elapsed, point = _search(p93791, tables, eval_budget)
        certificate = point.search.certificate
        # Certificate soundness at every budget.
        assert certificate.testing_time == point.testing_time
        assert certificate.testing_time >= certificate.bound
        assert certificate.gap >= 0.0
        vs_optimum = point.testing_time / optimum - 1.0
        assert vs_optimum >= -1e-12, "beat the exhaustive optimum?"
        rows.append({
            "eval_budget": eval_budget,
            "T": point.testing_time,
            "B": point.num_tams,
            "vs_optimum": round(vs_optimum, 4),
            "cert_gap": round(certificate.gap, 4),
            "terminated_by": certificate.terminated_by,
            "search_s": round(elapsed, 2),
        })
        if winner is None and vs_optimum <= TARGET:
            winner = (eval_budget, elapsed, point)

    assert winner is not None, (
        f"no budget on {BUDGET_LADDER} landed within {TARGET:.0%} "
        f"of the exhaustive optimum {optimum}"
    )
    eval_budget, to_within_s, point = winner
    speedup = exhaustive_s / to_within_s
    assert to_within_s < exhaustive_s, (
        f"search needed {to_within_s:.1f}s to get within {TARGET:.0%} "
        f"— no faster than the {exhaustive_s:.1f}s exhaustive run"
    )

    # Same seed, same budget: bit-identical replay.
    _, replay = _search(p93791, tables, eval_budget)
    assert replay.testing_time == point.testing_time
    assert replay.partition == point.partition
    assert replay.search.trajectory == point.search.trajectory

    report(
        "search_anytime",
        rows_to_table(
            rows,
            ["eval_budget", "T", "B", "vs_optimum", "cert_gap",
             "terminated_by", "search_s"],
            title=(
                f"Anytime {STRATEGY.upper()} (seed {SEED}) vs "
                f"exhaustive on p93791 W={WIDTH} B∈{{1..4}}: "
                f"optimum {optimum} in {exhaustive_s:.1f}s; within "
                f"{TARGET:.0%} after {to_within_s:.1f}s "
                f"({speedup:.1f}x)."
            ),
        ),
    )
    append_history(BENCH_JSON, bench_record(
        "bench_search_anytime",
        config={
            "soc": "p93791", "W": WIDTH, "B": list(TAM_COUNTS),
            "strategy": STRATEGY, "seed": SEED,
            "budget_ladder": list(BUDGET_LADDER), "target": TARGET,
        },
        samples=rows + [{
            "kind": "baseline",
            "optimum": optimum,
            "exhaustive_s": round(exhaustive_s, 2),
            "tables_s": round(tables_s, 2),
            "all_exact": exhaustive.all_exact,
            "time_to_within_5pct_s": round(to_within_s, 2),
            "winning_eval_budget": eval_budget,
        }],
        speedup=round(speedup, 2),
    ))
    print(f"[appended to {BENCH_JSON}]")
