#!/usr/bin/env python3
"""End-to-end benchmark of the wrapper/TAM co-optimization system.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload polish-bound --seed 1 \\
        --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` is the
separate traced pass: an untraced phase and then a traced phase, each
of ``--seconds``, reporting per-layer metrics and the tracing overhead
(the traced phase's end-to-end numbers against the untraced one's).
The two phases run back to back: on a shared machine speed can drift
over minutes, so a ``--trace 0`` run made at another time would not be
a fair base.  Every run checks every answer (see ``checks.py``) and
exits non-zero on a wrong one.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it are the readable report.  The
full record of the run goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("polish-bound", "service-mix")


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="only feed the output check corrupted points")
    args = parser.parse_args(argv)
    if not args.selftest and (args.workload is None or args.seconds is None):
        parser.error("--workload and --seconds are required")
    return args


def _self_test() -> List[str]:
    """Corrupted points the output check accepted (empty when none)."""
    from perfbench import checks, workloads

    return checks.self_test() + workloads.guard_self_test()


def _host() -> Dict[str, Any]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def _report(title: str, rows: List[Tuple[str, float, str, Optional[int]]],
            notes: Dict[str, Any]) -> None:
    print(f"== {title}")
    print(f"   {'metric':34} {'value':>16} {'unit':8} samples")
    for name, value, unit, samples in rows:
        count = "" if samples is None else samples
        print(f"   {name:34} {value:16.6g} {unit:8} {count}")
    for key, value in notes.items():
        print(f"   {key}: {value}")


def _phase(workload: str, seed: int, seconds: float, recorder: Any,
           records_dir: str, trace: bool) -> Dict[str, Any]:
    from perfbench import workloads

    if os.path.isdir(records_dir):
        shutil.rmtree(records_dir)
    os.makedirs(records_dir)
    # Workers forked from now on write their records here.
    recorder.directory = records_dir
    if workload == "service-mix":
        workdir = os.path.join(os.path.dirname(records_dir), "service")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        return workloads.run_service(seed, seconds, recorder, records_dir,
                                     workdir, trace)
    return workloads.run_batch(workload, seed, seconds, recorder,
                               records_dir)


def _check(phase: Dict[str, Any], recorder: Any, seed: int
           ) -> Dict[str, Any]:
    from perfbench import workloads

    if phase["workload"] == "service-mix":
        return workloads.check_service(phase, phase["worker_solves"],
                                       recorder.solves, seed)
    return workloads.check_batch(
        phase, recorder.solves + phase["worker_solves"])


def _op_summary(op: Dict[str, Any]) -> Dict[str, Any]:
    """What the run record keeps of one operation."""
    summary = {key: op[key] for key in (
        "op", "kind", "key", "widths", "tams", "latency", "failed",
        "problems", "failures") if key in op}
    if "source" in op:
        summary["source"] = os.path.basename(op["source"])
    status = op.get("status") or {}
    if status.get("started_at") is not None:
        summary["queued_s"] = status["started_at"] - status["submitted_at"]
        summary["run_s"] = status["finished_at"] - status["started_at"]
    return summary


def run_one(workload: str, seed: int, seconds: float, trace: bool
            ) -> Tuple[Dict[str, Any], bool]:
    """One run of one workload; returns (final result, all correct)."""
    from perfbench import analysis, workloads
    from perfbench.instrument import Recorder, install_ledger, install_tracer

    host = _host()
    missed = _self_test()
    if missed:
        raise SystemExit(f"error: output check accepted: {missed}")
    out_dir = os.path.join(HERE, "out", f"{workload}-seed{seed}")
    os.makedirs(out_dir, exist_ok=True)
    recorder = Recorder(os.path.join(out_dir, "records"))
    install_ledger(recorder)
    phases = []
    if trace:
        phases.append(_phase(workload, seed, seconds, recorder,
                             os.path.join(out_dir, "records-untraced"),
                             False))
        install_tracer(recorder)
        traced = _phase(workload, seed, seconds, recorder,
                        os.path.join(out_dir, "records"), True)
        traced["local_spans"] = list(recorder.spans)
        phases.append(traced)
    else:
        phases.append(_phase(workload, seed, seconds, recorder,
                             os.path.join(out_dir, "records"), False))
    checked = [_check(phase, recorder, seed) for phase in phases]
    results = [workloads.e2e_metrics(phase) for phase in phases]
    problems = [p for verdict in checked for p in verdict["problems"]]
    last = phases[-1]
    metrics, details = results[-1]
    notes: Dict[str, Any] = dict(details)
    notes["host"] = dict(host, shm_fallbacks=last["shm_fallbacks"])
    notes["ilp_checked"] = checked[-1]["ilp_checked"]
    notes["ilp_inconclusive"] = checked[-1]["ilp_inconclusive"]
    solves = recorder.solves + last["worker_solves"]
    in_phase = [s for s in solves
                if last["loop_start"] <= s["end"] <= last["loop_end"]]
    notes["exact.time_capped"] = sum(
        1 for s in in_phase if s["outcome"] == "time_capped")
    notes["exact.node_capped"] = sum(
        1 for s in in_phase if s["outcome"] == "node_capped")
    rows = [(name, value, unit, samples)
            for name, (value, unit, samples) in metrics.items()]
    title = f"{workload} seed={seed} seconds={seconds:g} trace={int(trace)}"
    if trace:
        spans = [s for s in last["local_spans"] + last["worker_spans"]
                 if s["start"] >= last["phase_start"]
                 and s["end"] <= last["loop_end"]]
        inline = (workloads.inline_seconds(last)
                  if workload != "service-mix" else {})
        layer = analysis.layer_metrics(spans, last["ops"], last, inline)
        layer.update(analysis.overhead_metrics(results[0][0], metrics))
        layer["host.cpu_count"] = (host["cpu_count"] or 0, "count")
        layer["host.loadavg_1m"] = (host["loadavg_at_start"][0], "load")
        _report(title + " (traced phase)", rows, notes)
        _report("per-layer",
                [(n, v, u, None) for n, (v, u) in layer.items()], {})
        final_metrics = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in layer.items()}
        with open(os.path.join(out_dir, "spans.json"), "w",
                  encoding="utf-8") as handle:
            json.dump([{k: v for k, v in span.items()
                        if k not in ("children",)}
                       for span in spans], handle)
    else:
        _report(title, rows, notes)
        final_metrics = {name: {"value": value, "unit": unit}
                         for name, (value, unit, _) in metrics.items()}
    for problem in problems[:20]:
        print(f"   WRONG: {problem}")
    attempted = sum(len(phase["ops"]) for phase in phases)
    failed = sum(1 for phase in phases for op in phase["ops"]
                 if op["failed"])
    wrong = sum(1 for phase in phases for op in phase["ops"]
                if op["problems"])
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "host": notes["host"], "notes": notes,
              "metrics": final_metrics, "problems": problems,
              "e2e": {name: list(value) for name, value in metrics.items()},
              "ops": [_op_summary(op) for op in last["ops"]]}
    with open(os.path.join(out_dir, f"run-trace{int(trace)}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    result = {"correct": wrong == 0, "attempted": attempted,
              "failed": failed, "metrics": final_metrics}
    return result, wrong == 0


def main(argv: List[str]) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: the program's sources (src/repro) are not in this "
              "checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    if args.selftest:
        start = time.perf_counter()
        missed = _self_test()
        verdict = f"accepted {missed}" if missed else "every corruption rejected"
        print(f"checker self-test: {verdict} "
              f"({time.perf_counter() - start:.2f} s)")
        return 1 if missed else 0
    if args.workload == "all":
        # One process per workload, so each starts from a fresh import.
        import subprocess

        code = 0
        summary = {}
        for workload in WORKLOADS:
            completed = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT,
            )
            lines = completed.stdout.splitlines()
            print("\n".join(lines[:-1]))
            code = code or completed.returncode
            summary[workload] = (json.loads(lines[-1])
                                 if completed.returncode in (0, 1) and lines
                                 else None)
        print(json.dumps(summary))
        return code
    result, correct = run_one(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    _stop_resource_tracker()
    print(json.dumps(result))
    return 0 if correct else 1


def _stop_resource_tracker() -> None:
    """End the shared-memory tracker process the program's pool started,
    so no process of this run outlives it (a private multiprocessing
    call; skipped where the running Python lacks it)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
