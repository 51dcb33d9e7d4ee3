"""Dense sweep kernel vs a per-partition ``core_assign`` sweep.

Two claims, quantified on d695 and p93791 and archived as the first
entries of the ``BENCH_*.json`` perf trajectory:

* **speed** — ``partition_evaluate`` (the dense kernel with its
  outcome-identical lower-bound skip) runs the p93791 W=32 P_NPAW
  sweep at least 5× faster than :func:`core_assign_sweep`, the
  per-partition baseline the kernel replaced, with the identical
  best testing time, winning partition and assignment;
* **fidelity** — the kernel's ``PartitionStats`` (``num_enumerated``,
  ``num_completed``, efficiency) match the baseline's exactly on
  every Table-1 configuration (p21241, W=44..64, B=4,5), so the
  paper's pruning-efficiency protocol is untouched.

The timing table also lands in ``results/sweep_kernel.txt``; the
machine-readable record is *appended* to ``BENCH_sweep_kernel.json``
at the repository root in the shared history schema of
``benchmarks/common.py`` (refreshed by the CI perf-smoke step), and
the telemetry-overhead gate below holds the traced sweep to within
5% of the recorded headline speedup.
"""

import time
from pathlib import Path

from common import append_history, bench_record, load_bench

from repro.assign.core_assign import core_assign
from repro.engine.cache import WrapperTableCache
from repro.partition.count import count_partitions
from repro.partition.enumerate import unique_partitions
from repro.partition.evaluate import (
    PartitionSearchResult,
    PartitionStats,
    partition_evaluate,
)
from repro.report.experiments import rows_to_table

BENCH_JSON = Path(__file__).resolve().parent.parent / (
    "BENCH_sweep_kernel.json"
)

#: The acceptance sweep: the paper's P_NPAW protocol, B = 1..10.
NPAW_COUNTS = range(1, 11)

#: (soc fixture name, W, required kernel speedup).  Only p93791
#: W=32 carries a hard floor — d695 is small enough that fixed
#: per-sweep costs dominate and the margin is left soft.
SWEEPS = (
    ("d695", 24, None),
    ("d695", 32, None),
    ("p93791", 32, 5.0),
)

TABLE1_WIDTHS = (44, 48, 52, 56, 60, 64)
TABLE1_COUNTS = (4, 5)


def _best_of(runs, fn):
    """Best wall-clock of ``runs`` calls; returns (seconds, result)."""
    best_seconds = None
    result = None
    for _ in range(runs):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
    return best_seconds, result


def core_assign_sweep(tables, width, counts):
    """The per-partition sweep the kernel replaced (the baseline).

    Fresh N×B times and one ``core_assign`` per unique partition,
    under the paper's best-known-time abort alone (no lower-bound
    skip) — the same best result and ``PartitionStats`` as
    ``partition_evaluate`` at its defaults.
    """
    best = None
    stats = []
    for count in [counts] if isinstance(counts, int) else counts:
        enumerated = completed = 0
        for widths in unique_partitions(width, count) \
                if count <= width else ():
            enumerated += 1
            times = [[t.time(w) for w in widths] for t in tables]
            outcome = core_assign(
                times, widths,
                best_known=best.testing_time if best else None,
            )
            if outcome.completed:
                completed += 1
                best = outcome.result
        stats.append(PartitionStats(
            num_tams=count,
            num_unique=count_partitions(width, count)
            if count <= width else 0,
            num_enumerated=enumerated,
            num_completed=completed,
        ))
    return PartitionSearchResult(
        total_width=width, best=best, stats=tuple(stats),
        elapsed_seconds=0.0,
    )


def run_kernel_speed_rows(socs):
    """Baseline vs kernel timings, one row per sweep."""
    rows = []
    for soc, width, floor in socs:
        tables = WrapperTableCache(soc).table_list(width)

        # Best-of-N damps shared-runner noise: a transient slowdown
        # must hit every kernel run *and* spare every baseline run to
        # move the ratio the wrong way.
        baseline_s, baseline = _best_of(3, lambda: core_assign_sweep(
            tables, width, NPAW_COUNTS))
        kernel_s, kernel = _best_of(5, lambda: partition_evaluate(
            tables, width, NPAW_COUNTS))

        assert kernel.testing_time == baseline.testing_time
        assert kernel.best_partition == baseline.best_partition
        assert kernel.best.assignment == baseline.best.assignment

        speedup = baseline_s / kernel_s
        if floor is not None:
            assert speedup >= floor, (
                f"{soc.name} W={width}: kernel speedup "
                f"{speedup:.1f}x below the {floor}x floor "
                f"(baseline {baseline_s:.3f}s, kernel {kernel_s:.3f}s)"
            )
        rows.append({
            "soc": soc.name,
            "W": width,
            "T": baseline.testing_time,
            "partition": "+".join(map(str, baseline.best_partition)),
            "baseline_s": round(baseline_s, 4),
            "kernel_s": round(kernel_s, 4),
            "speedup": round(speedup, 2),
            "lb_pruned": kernel.num_lb_pruned,
        })
    return rows


def test_sweep_kernel_speed_and_fidelity(
    benchmark, report, d695, p93791, p21241
):
    sweeps = [
        ({"d695": d695, "p93791": p93791}[name], width, floor)
        for name, width, floor in SWEEPS
    ]
    rows = benchmark.pedantic(
        run_kernel_speed_rows, args=(sweeps,), rounds=1, iterations=1
    )
    report(
        "sweep_kernel",
        rows_to_table(
            rows,
            ["soc", "W", "T", "partition", "baseline_s", "kernel_s",
             "speedup", "lb_pruned"],
            title="Dense sweep kernel vs per-partition core_assign "
                  "sweep (P_NPAW, B=1..10).",
        ),
    )

    # Fidelity on the Table-1 protocol: the kernel's statistics,
    # lower-bound skip included, equal the baseline's on every cell.
    tables = WrapperTableCache(p21241).table_list(max(TABLE1_WIDTHS))
    for width in TABLE1_WIDTHS:
        for count in TABLE1_COUNTS:
            baseline = core_assign_sweep(
                tables, width, count
            ).stats_for(count)
            kernel = partition_evaluate(
                tables, width, count
            ).stats_for(count)
            assert kernel.num_completed == baseline.num_completed, (
                width, count,
            )
            assert kernel.num_enumerated == baseline.num_enumerated
            assert kernel.efficiency == baseline.efficiency

    headline = next(
        (
            row["speedup"] for row in rows
            if row["soc"] == "p93791" and row["W"] == 32
        ),
        None,
    )
    append_history(BENCH_JSON, bench_record(
        "bench_sweep_kernel",
        config={
            "npaw_counts": [NPAW_COUNTS.start, NPAW_COUNTS.stop],
            "sweeps": [
                [name, width] for name, width, _ in SWEEPS
            ],
        },
        samples=rows,
        speedup=headline,
    ))
    print(f"[appended to {BENCH_JSON}]")


def _baseline_speedup():
    """The recorded p93791 W=32 headline speedup, or ``None``.

    Reads both the shared schema-2 record shape and the original
    schema-1 layout (which stored the rows as ``points``), so the
    overhead gate below works against any committed baseline.
    """
    doc = load_bench(BENCH_JSON)
    if doc is None:
        return None
    if doc.get("schema") == 2:
        return (doc.get("latest") or {}).get("speedup")
    for point in doc.get("points", []):
        if point.get("soc") == "p93791" and point.get("W") == 32:
            return point.get("speedup")
    return None


def test_sweep_kernel_telemetry_overhead(p93791):
    """Telemetry must be free when off and near-free when on.

    Off: the disabled tracer hands out the no-op singleton, cheap
    enough to sit in per-point code without a guard.  On: the traced
    p93791 W=32 sweep's speedup (baseline_s / kernel_s — a ratio of
    same-process timings, so it transfers across machines) must stay
    within 5% of the recorded ``BENCH_sweep_kernel.json`` baseline:
    spans are sampled at partition/shard granularity, never inside
    the kernel inner loop.
    """
    from repro.obs import NOOP_SPAN, TRACER, span as obs_span

    assert TRACER.span("probe", any_meta=1) is NOOP_SPAN
    calls = 100_000
    start = time.perf_counter()
    for _ in range(calls):
        with obs_span("probe"):
            pass
    per_call = (time.perf_counter() - start) / calls
    assert per_call < 5e-6, (
        f"disabled span costs {per_call * 1e9:.0f}ns/call — the "
        f"no-op fast path has regressed"
    )

    baseline = _baseline_speedup()
    assert baseline is not None, (
        "no recorded baseline in BENCH_sweep_kernel.json"
    )

    tables = WrapperTableCache(p93791).table_list(32)
    TRACER.enable()
    try:
        baseline_s, reference = _best_of(3, lambda: core_assign_sweep(
            tables, 32, NPAW_COUNTS))
        kernel_s, kernel = _best_of(5, lambda: partition_evaluate(
            tables, 32, NPAW_COUNTS))
    finally:
        TRACER.disable()
        TRACER.drain()

    assert kernel.testing_time == reference.testing_time
    speedup = baseline_s / kernel_s
    assert speedup >= 0.95 * baseline, (
        f"traced p93791 W=32 speedup {speedup:.2f}x regressed more "
        f"than 5% below the recorded {baseline:.2f}x baseline"
    )
