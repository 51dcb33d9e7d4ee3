"""Per-layer metrics from the traced pass's spans.

A span's *self time* is its duration minus the part of that interval
its child spans cover.  Children are found in two ways:

* in the same thread, through the parent recorded when the span
  opened;
* across threads and processes, for a span with no parent in its own
  thread (a pool worker's task, the server's handling of a request,
  the dispatcher's run of a job): its parent is the innermost span of
  the same operation, in another thread, that was open when it began.

The operation of a span is, in order: the id its thread was tagged
with; the operation owning the service job it names; its parent's;
or, for pool-worker spans, the operation whose engine call was
running when it began (the batch caller and the service dispatcher
both run one engine call at a time).
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, Iterable, List, Tuple

from perfbench.instrument import LAYERS


def _median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _covered(start: float, end: float,
             intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def resolve(spans: List[Dict[str, Any]], ops: List[Dict[str, Any]],
            service: bool) -> None:
    """Fill in each span's ``op``, ``children`` and ``self`` fields."""
    by_id = {span["id"]: span for span in spans}
    job_op = {op["job_id"]: op["op"] for op in ops if op.get("job_id")}
    jobkey_job: Dict[Any, str] = {}
    key_job: Dict[str, str] = {}
    for span in spans:
        if span["name"] == "ExplorationServer.submit" and span["attrs"]:
            jobkey_job[span["attrs"]["jobkey"]] = span["attrs"]["job"]
            if not span["attrs"]["cached"]:
                key_job.setdefault(span["attrs"]["key"], span["attrs"]["job"])
    for span in spans:
        span["children"] = []
        attrs = span["attrs"]
        if span["op"] is None:
            job = attrs.get("job") or jobkey_job.get(attrs.get("jobkey")) \
                or key_job.get(attrs.get("key"))
            span["op"] = job_op.get(job)
    ordered = sorted(spans, key=lambda span: span["start"])
    for span in ordered:
        if span["op"] is None and span["parent"] in by_id:
            span["op"] = by_id[span["parent"]]["op"]
    if service:
        windows = [(s["start"], s["end"], s["op"]) for s in spans
                   if s["name"] == "BatchRunner.run_iter" and s["op"]]
    else:
        windows = [(op["start"], op["end"], op["op"]) for op in ops]
    windows.sort()
    for span in ordered:
        if span["op"] is None and span["parent"] not in by_id:
            for low, high, op in windows:
                if low <= span["start"] <= high:
                    span["op"] = op
                    break
        elif span["op"] is None:
            span["op"] = by_id[span["parent"]]["op"]
    by_op: Dict[str, List[Dict[str, Any]]] = {}
    for span in ordered:
        if span["op"] is not None:
            by_op.setdefault(span["op"], []).append(span)
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None and span["op"] is not None:
            thread = (span["pid"], span["tid"])
            hosts = [
                host for host in by_op[span["op"]]
                if (host["pid"], host["tid"]) != thread
                and host["start"] <= span["start"] < host["end"]
                and (host["start"], host["id"]) < (span["start"], span["id"])
            ]
            if hosts:
                parent = max(hosts, key=lambda host: host["start"])
        if parent is not None:
            parent["children"].append(span)
    for span in spans:
        span["self"] = (span["end"] - span["start"]) - _covered(
            span["start"], span["end"],
            [(child["start"], child["end"]) for child in span["children"]],
        )


def layer_metrics(spans: List[Dict[str, Any]], ops: List[Dict[str, Any]],
                  phase: Dict[str, Any],
                  inline: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced phase: name -> (value, unit)."""
    service = phase["workload"] == "service-mix"
    resolve(spans, ops, service)
    # Table, matrix and segment builds count wherever they happen, set-up
    # included (they should move setup_s); everything else counts only
    # inside the timed operations.
    timed = [span for span in spans if span["op"] is not None]

    def named(*names: str, among: List[Dict[str, Any]] = timed
              ) -> List[Dict[str, Any]]:
        return [span for span in among if span["name"] in names]

    def total(*names: str, among: List[Dict[str, Any]] = timed) -> float:
        return sum(span["end"] - span["start"]
                   for span in named(*names, among=among))

    metrics: Dict[str, Tuple[float, str]] = {}
    builds = [s for s in named("WrapperTableCache.ensure", among=spans)
              if s["attrs"].get("built")] + named("build_time_tables",
                                                  among=spans)
    metrics["wrapper.build_s"] = (
        sum(s["end"] - s["start"] for s in builds), "s")
    metrics["wrapper.builds"] = (len(builds), "count")
    metrics["kernel.matrix_build_s"] = (
        total("build_dense_matrix", among=spans), "s")
    metrics["shm.publish_s"] = (
        total("SegmentRegistry.publish", among=spans), "s")
    metrics["shm.fallbacks"] = (phase["shm_fallbacks"], "count")

    engine_name = "BatchRunner.run_iter" if service else "BatchRunner.run"
    calls: Dict[str, float] = {}
    for span in named(engine_name):
        if span["op"] is not None and span["op"] not in calls:
            calls[span["op"]] = span["end"] - span["start"]
    metrics["engine.call_s"] = (_median(calls.values()), "s")
    if service:
        overheads = [calls[op["op"]] - op["inline_s"] for op in ops
                     if op["kind"] == "fresh" and op["op"] in calls
                     and "inline_s" in op]
        info = phase["info"]
        runner = {
            "jobs_sharded": info.get("jobs_sharded", 0),
            "jobs_search_fanned": info.get("search", {}).get(
                "jobs_fanned", 0),
            "pool_restarts": info.get("health", {}).get("pool_restarts", 0),
        }
    else:
        overheads = [calls[op["op"]] - inline[op["key"]] for op in ops
                     if op["op"] in calls and op["key"] in inline]
        runner = phase["runner"]
    metrics["engine.overhead_s"] = (_median(overheads), "s")
    metrics["engine.jobs_sharded"] = (runner["jobs_sharded"], "count")
    metrics["engine.jobs_search_fanned"] = (
        runner["jobs_search_fanned"], "count")
    metrics["engine.pool_restarts"] = (runner["pool_restarts"], "count")

    sweeps = named("partition_evaluate", "sharded_partition_evaluate")
    enumerated = sum(s["attrs"].get("enumerated", 0) for s in sweeps)
    completed = sum(s["attrs"].get("completed", 0) for s in sweeps)
    metrics["partition.sweep_s"] = (
        sum(s["end"] - s["start"] for s in sweeps), "s")
    metrics["partition.enumerated"] = (enumerated, "count")
    metrics["partition.completed"] = (completed, "count")
    metrics["partition.lb_pruned"] = (
        sum(s["attrs"].get("lb_pruned", 0) for s in sweeps), "count")
    metrics["partition.completed_frac"] = (
        completed / enumerated if enumerated else 0.0, "ratio")
    shards = named("sweep_shard")
    sharded_wall = total("sharded_partition_evaluate")
    metrics["shard.tasks"] = (len(shards), "count")
    metrics["shard.merge_s"] = (total("merge_shard_outcomes"), "s")
    metrics["shard.work_ratio"] = (
        total("sweep_shard") / sharded_wall if sharded_wall else 0.0,
        "ratio")

    solves = named("exact_assign")
    solve_times = [s["end"] - s["start"] for s in solves]
    nodes = sum(s["attrs"].get("nodes", 0) for s in solves)
    metrics["exact.solves"] = (len(solves), "count")
    metrics["exact.solve_s"] = (sum(solve_times), "s")
    metrics["exact.solve_p50_s"] = (_median(solve_times), "s")
    metrics["exact.solve_max_s"] = (max(solve_times, default=0.0), "s")
    metrics["exact.nodes"] = (nodes, "count")
    metrics["exact.nodes_per_s"] = (
        nodes / sum(solve_times) if sum(solve_times) else 0.0, "1/s")
    for outcome in ("proved", "node_capped", "time_capped"):
        metrics[f"exact.{outcome}"] = (
            sum(1 for s in solves if s["attrs"].get("outcome") == outcome),
            "count")
    metrics["polish.s"] = (total("run_polish_task"), "s")
    metrics["polish.candidates"] = (len(named("run_polish_task")), "count")

    polishers = {s["id"] for s in named("polish_candidates")}
    metrics["search.islands_s"] = (total("run_island"), "s")
    metrics["search.evals"] = (
        sum(s["attrs"].get("evals", 0) for s in named("search_optimize")),
        "count")
    metrics["search.polish_s"] = (total("polish_candidates"), "s")
    metrics["search.polish_solves"] = (
        sum(1 for s in solves if s["parent"] in polishers), "count")
    metrics["analysis.certify_s"] = (
        sum(s["self"] for s in named("certify", "global_lower_bound")), "s")
    metrics["analysis.utilization_s"] = (total("analyze_utilization"), "s")
    metrics["serialize.s"] = (
        sum(s["self"] for s in named("sweep_point_to_dict", "grid_payload")),
        "s")
    metrics["serialize.bytes"] = (
        sum(s["attrs"].get("bytes", 0) for s in named("grid_payload")),
        "bytes")

    statuses = [op.get("status") or {} for op in ops] if service else []
    ran = [s for s in statuses
           if not s.get("cached") and s.get("started_at") is not None
           and s.get("finished_at") is not None]
    metrics["svc.submit_s"] = (
        _median(s["end"] - s["start"]
                for s in named("ExplorationServer.submit")), "s")
    metrics["svc.queue_wait_s"] = (
        _median(s["started_at"] - s["submitted_at"] for s in ran), "s")
    metrics["svc.run_s"] = (
        _median(s["finished_at"] - s["started_at"] for s in ran), "s")
    metrics["svc.result_s"] = (
        _median(s["end"] - s["start"]
                for s in named("ExplorationServer.result_payload")), "s")
    hits = sum(1 for s in statuses if s.get("cached"))
    metrics["svc.memo_hits"] = (hits, "count")
    metrics["svc.memo_hit_frac"] = (
        hits / len(statuses) if statuses else 0.0, "ratio")
    depth = 0
    for status in ran:
        at = status["submitted_at"]
        depth = max(depth, sum(
            1 for other in ran
            if other["submitted_at"] <= at < other["started_at"]))
    metrics["svc.queue_depth_max"] = (depth, "count")
    metrics["svc.rejected"] = (
        sum(1 for op in ops if op.get("error")
            and any(kind in op["error"] for kind in (
                "Overloaded", "QuotaExceeded", "Unauthorized"))), "count")
    outside = [1.0 - calls[op["op"]] / (op["end"] - op["sent"])
               for op in ops if service and op["kind"] == "fresh"
               and op["op"] in calls]
    metrics["svc.outside_engine_frac"] = (_median(outside), "ratio")
    appends = named("JobJournal.record_submitted", "JobJournal.record_terminal")
    metrics["journal.append_s"] = (
        _median(s["end"] - s["start"] for s in appends), "s")
    metrics["journal.appends"] = (len(appends), "count")
    metrics["store.load_s"] = (total("TableStore.load"), "s")
    metrics["store.save_s"] = (total("TableStore.save"), "s")
    metrics["memo.load_s"] = (total("GridMemo.load"), "s")
    metrics["memo.save_s"] = (total("GridMemo.save"), "s")
    metrics["warehouse.write_s"] = (
        _median(s["end"] - s["start"]
                for s in named("RunWarehouse.record_grid")), "s")
    metrics["ipc.ping_s"] = (_median(phase.get("ping_times", [])), "s")
    metrics["ipc.result_bytes"] = (
        _median(s["attrs"]["bytes"] for s in named("ServiceClient.call")
                if "bytes" in s["attrs"]), "bytes")

    busy = sum(span["self"] for span in timed)
    for layer in LAYERS:
        own = sum(span["self"] for span in timed if span["layer"] == layer)
        metrics[f"self.{layer}_s"] = (own, "s")
        metrics[f"share.{layer}"] = (own / busy if busy else 0.0, "ratio")
    metrics["trace.spans"] = (len(spans), "count")
    return metrics


def overhead_metrics(untraced: Dict[str, Tuple[float, str, int]],
                     traced: Dict[str, Tuple[float, str, int]]
                     ) -> Dict[str, Tuple[float, str]]:
    """Traced end-to-end numbers against untraced ones, in percent."""
    def pct(name: str, higher_is_better: bool) -> float:
        base, value = untraced[name][0], traced[name][0]
        if not base:
            return 0.0
        change = 100.0 * (value / base - 1.0)
        return -change if higher_is_better else change

    return {
        "trace.overhead_lat_p50_pct": (pct("lat_p50_s", False), "%"),
        "trace.overhead_lat_tail_pct": (pct("lat_tail_s", False), "%"),
        "trace.overhead_points_per_s_pct": (pct("points_per_s", True), "%"),
    }
