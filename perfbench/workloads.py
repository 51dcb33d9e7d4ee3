"""The two workloads: seeded inputs, the load loop, and the checks.

A phase sets the system up ``setups_per_run`` times (keeping the last
set-up), then drives load for ``seconds`` and returns every operation
it attempted.  Checking happens afterwards, outside timing, in
:func:`check_batch` and :func:`check_service`.

* ``polish-bound`` drives one persistent
  ``BatchRunner(max_workers=nproc)`` -- the ``repro-tam batch``
  engine at its default ``shard`` and ``share_tables`` -- with
  one-point ``run`` calls from one caller.  The caller runs the whole
  number of cycles over the inputs, each cycle in a seeded order,
  that comes nearest to ``seconds``; every input is therefore timed
  equally often.
* ``service-mix`` starts ``repro-tam serve --cache-dir <fresh dir>``
  as a subprocess and sends a seeded request schedule at a fixed rate
  over one ``ServiceClient`` connection (an open loop).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from perfbench import checks
from perfbench.instrument import Recorder

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(HERE, "config.json"), encoding="utf-8") as _handle:
    CONFIG: Dict[str, Any] = json.load(_handle)

NPROC = os.cpu_count() or 1


def read_records(directory: str) -> Tuple[List[Dict[str, Any]],
                                          List[Dict[str, Any]]]:
    """Solve records and spans written by exited worker processes."""
    solves: List[Dict[str, Any]] = []
    spans: List[Dict[str, Any]] = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("records-") and name.endswith(".json"):
            with open(os.path.join(directory, name), encoding="utf-8") as fh:
                data = json.load(fh)
            solves += data["solves"]
            spans += data["spans"]
    return solves, spans


def peak_rss_mb(pids: List[int]) -> Tuple[float, int]:
    """Sum of VmHWM (peak RSS) over ``pids``; (MB, processes read)."""
    total_kb = 0
    counted = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        counted += 1
                        break
        except OSError:
            continue
    return total_kb / 1024.0, counted


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (Linux /proc)."""
    found: List[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children",
                      encoding="ascii") as handle:
                found += [int(token) for token in handle.read().split()]
        except OSError:
            continue
    return found


# ----------------------------------------------------------------------
# Batch workload (polish-bound)
# ----------------------------------------------------------------------
def batch_inputs(name: str) -> List[Tuple[str, Any, Any]]:
    """(reference key, SOC, BatchJob) per fixed input of ``name``."""
    from repro.engine.batch import BatchJob
    from repro.soc.loader import load_source

    inputs = []
    socs: Dict[str, Any] = {}
    for entry in CONFIG["workloads"][name]["inputs"]:
        soc = socs.setdefault(entry["soc"], load_source(entry["soc"]))
        options = dict(entry.get("options", {}))
        job = BatchJob(soc=soc, total_width=entry["W"], options=options)
        key = checks.input_key(soc.name, entry["W"], options)
        inputs.append((key, soc, job))
    return inputs


def _batch_setup(inputs: List[Tuple[str, Any, Any]]) -> Any:
    """Runner and pool started, the fixed SOCs' tables built and
    published, and every worker attached: one ``B=1`` job per worker
    per SOC at that SOC's widest budget."""
    from repro.engine.batch import BatchJob, BatchRunner

    runner = BatchRunner(max_workers=NPROC, persistent=True)
    widest: Dict[str, Tuple[Any, int]] = {}
    for _, soc, job in inputs:
        held = widest.get(soc.name)
        if held is None or held[1] < job.total_width:
            widest[soc.name] = (soc, job.total_width)
    runner.run([
        BatchJob(soc=soc, total_width=width, num_tams=1)
        for soc, width in widest.values()
        for _ in range(NPROC)
    ])
    return runner


def run_batch(name: str, seed: int, seconds: float,
              recorder: Recorder, records_dir: str) -> Dict[str, Any]:
    """One batch phase: set-ups, then the closed loop."""
    inputs = batch_inputs(name)
    setups = []
    phase_start = time.perf_counter()
    runner = None
    for index in range(CONFIG["setups_per_run"]):
        start = time.perf_counter()
        runner = _batch_setup(inputs)
        setups.append(time.perf_counter() - start)
        if index + 1 < CONFIG["setups_per_run"]:
            runner.close()
    assert runner is not None
    rng = random.Random(seed)
    ops: List[Dict[str, Any]] = []
    loop_start = time.perf_counter()
    cycle = 0
    while True:
        order = list(range(len(inputs)))
        rng.shuffle(order)
        cycle += 1
        for index in order:
            key, soc, job = inputs[index]
            op_id = f"op{len(ops)}"
            result: Any = None
            error = None
            start = time.perf_counter()
            with recorder.operation(op_id):
                try:
                    result = runner.run([job])[0]
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            ops.append({
                "op": op_id, "key": key, "soc": soc, "job": job,
                "window": cycle,
                "start": start, "end": end, "latency": end - start,
                "result": result, "error": error,
            })
        # Stop at the whole number of cycles nearest to ``seconds``.
        elapsed = time.perf_counter() - loop_start
        if elapsed * (1.0 + 0.5 / cycle) >= seconds:
            break
    loop_end = time.perf_counter()
    metrics = runner.metrics.snapshot()
    pids = [os.getpid()] + child_pids(os.getpid())
    rss, processes = peak_rss_mb(pids)
    runner.close()
    solves, spans = read_records(records_dir)
    return {
        "workload": name, "ops": ops, "setups": setups,
        "phase_start": phase_start, "loop_start": loop_start,
        "loop_end": loop_end, "rss_mb": rss, "rss_processes": processes,
        "shm_fallbacks": metrics.counter("engine.shm_fallbacks"),
        "runner": {
            "jobs_sharded": metrics.counter("engine.jobs_sharded"),
            "jobs_search_fanned": metrics.counter(
                "engine.jobs_search_fanned"),
            "pool_restarts": metrics.counter("engine.pool_restarts"),
        },
        "worker_solves": solves, "worker_spans": spans,
    }


def _solves_in(solves: List[Dict[str, Any]], op: Dict[str, Any]
               ) -> List[Dict[str, Any]]:
    """Solves of one batch operation: tagged with its id in the calling
    thread, or run by a worker inside its time window."""
    return [
        solve for solve in solves
        if solve["op"] == op["op"]
        or (solve["op"] is None and solve["pid"] != os.getpid()
            and op["start"] <= solve["end"] <= op["end"])
    ]


def _proof(solves: List[Dict[str, Any]]) -> str:
    if not solves:
        return "none"
    for outcome in ("time_capped", "node_capped"):
        if any(solve["outcome"] == outcome for solve in solves):
            return outcome
    return "proved"


def check_batch(phase: Dict[str, Any], solves: List[Dict[str, Any]],
                reference: Optional[Dict[str, Dict[str, Any]]] = None
                ) -> Dict[str, Any]:
    """Check every returned point against ``reference`` (default: the
    committed table); returns the per-op verdicts."""
    from repro.engine.batch import FailedPoint
    from repro.wrapper.pareto import build_time_tables

    if reference is None:
        reference = checks.load_reference()
    tables: Dict[str, Any] = {}
    terms: Dict[Tuple[str, int], Tuple[int, int]] = {}
    ilp_done: Dict[str, List[str]] = {}
    problems_seen: List[str] = []
    ilp_inconclusive = 0
    for op in phase["ops"]:
        soc, job, point = op["soc"], op["job"], op["result"]
        op["points"] = 0
        wrong: List[str] = []
        failures: List[str] = []
        op["solves"] = _solves_in(solves, op)
        op["proof"] = _proof(op["solves"])
        if op["error"] is not None:
            failures.append(op["error"])
        elif isinstance(point, FailedPoint):
            failures.append(f"FailedPoint {point.error_type}")
        else:
            width = job.total_width
            if soc.name not in tables:
                widest = max(o["job"].total_width for o in phase["ops"]
                             if o["soc"].name == soc.name)
                tables[soc.name] = build_time_tables(soc, widest)
            if (soc.name, width) not in terms:
                terms[(soc.name, width)] = checks.lower_bound_terms(
                    soc, tables[soc.name], width)
            wrong += checks.point_problems(
                soc, tables[soc.name], width, point,
                terms[(soc.name, width)])
            entry = reference.get(op["key"])
            if entry is None:
                wrong.append(f"no reference for {op['key']}")
            else:
                op["t_ref"] = entry["best_known"]
            if op["proof"] == "time_capped":
                # A clock-cut solve returns an unproven incumbent that
                # depends on the host: a failure, not a wrong answer.
                # Only the structural rules above apply to it.
                failures.append("exact solve cut by the wall-clock guard")
            elif entry is not None:
                wrong += checks.reference_problems(point, entry, op["proof"])
            if soc.name == "d695" and op["proof"] != "time_capped":
                if op["key"] not in ilp_done:
                    found, conclusive = checks.ilp_problems(
                        tables[soc.name], soc, point)
                    ilp_done[op["key"]] = found
                    ilp_inconclusive += not conclusive
                wrong += ilp_done[op["key"]]
            op["points"] = 1
            op["gap"] = point.certificate.gap
            op["T"] = point.testing_time
        op["problems"] = wrong
        op["failures"] = failures
        op["failed"] = bool(wrong or failures)
        problems_seen += [f"{op['key']}: {p}" for p in wrong]
    return {"problems": problems_seen, "ilp_checked": len(ilp_done),
            "ilp_inconclusive": ilp_inconclusive}


def inline_seconds(phase: Dict[str, Any]) -> Dict[str, float]:
    """Inline ``evaluate_point`` time per distinct input, warm tables
    (the base of ``engine.overhead_s``); run outside any timed phase."""
    from repro.analysis.sweep import evaluate_point
    from repro.wrapper.pareto import build_time_tables

    seen: Dict[str, float] = {}
    tables: Dict[str, Any] = {}
    for op in phase["ops"]:
        if op["key"] in seen:
            continue
        soc, job = op["soc"], op["job"]
        widest = max(o["job"].total_width for o in phase["ops"]
                     if o["soc"].name == soc.name)
        if soc.name not in tables:
            tables[soc.name] = build_time_tables(soc, widest)
        start = time.perf_counter()
        evaluate_point(soc, job.total_width, num_tams=job.num_tams,
                       tables=tables[soc.name], **job.options_dict())
        seen[op["key"]] = time.perf_counter() - start
    return seen


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
def service_schedule(seed: int, seconds: float, soc_dir: str
                     ) -> Tuple[List[Tuple[str, Any]], List[Dict[str, Any]]]:
    """The seeded SOC files (name, Soc) and request schedule."""
    from repro.soc.generator import random_soc

    cfg = CONFIG["workloads"]["service-mix"]
    rng = random.Random(seed)
    socs = []
    for index in range(cfg["random_socs"]):
        cores = rng.randint(*cfg["random_soc_cores"])
        soc = random_soc(f"gen{index}", cores, seed=rng.randrange(2 ** 31))
        socs.append((os.path.join(soc_dir, f"gen{index}.soc"), soc))
    sources = ["d695"] + [path for path, _ in socs]
    count = max(1, int(seconds * cfg["rate_per_s"]))
    # Exact shares of each kind, in a seeded order: the mix itself does
    # not vary from seed to seed, only which grids it holds.  A repeat
    # needs a fresh grid due at least repeat_lag_s before it, so a
    # repeat drawn too early trades places with the next fresh request.
    kinds = ["search"] * round(count * cfg["mix"]["search"])
    kinds += ["repeat"] * round(count * cfg["mix"]["repeat"])
    kinds += ["fresh"] * (count - len(kinds))
    rng.shuffle(kinds)
    lag = round(cfg["repeat_lag_s"] * cfg["rate_per_s"])
    for index, kind in enumerate(kinds):
        if kind == "repeat" and \
                "fresh" not in kinds[:max(0, index - lag + 1)]:
            later = next((j for j in range(index + 1, len(kinds))
                          if kinds[j] == "fresh"), None)
            kinds[index] = "fresh"
            if later is not None:
                kinds[later] = "repeat"
    requests: List[Dict[str, Any]] = []
    seen = set()
    entering = list(sources)
    rng.shuffle(entering)
    fresh_count = kinds.count("fresh")
    fresh_done = 0
    active: List[str] = []
    grids: Dict[str, int] = {}
    tam_turns: List[int] = []
    low, high = cfg["fresh_widths"]
    for index, kind in enumerate(kinds):
        due = index / cfg["rate_per_s"]
        if kind == "repeat":
            earlier = [r for r in requests[:max(0, index - lag + 1)]
                       if r["kind"] == "fresh"]
            requests.append(dict(rng.choice(earlier), kind="repeat",
                                 due=due))
            continue
        if kind == "search":
            search_socs = cfg["search_socs"]
            searches = sum(1 for r in requests if r["kind"] == "search")
            requests.append({
                "kind": "search", "due": due,
                "source": search_socs[searches % len(search_socs)],
                "widths": [cfg["search_width"]],
                "tams": tuple(range(1, cfg["search_tams"] + 1)),
                "options": dict(cfg["search_options"],
                                seed=rng.randrange(10 ** 6)),
            })
            continue
        # Sources enter one at a time, at evenly spaced fresh grids, so
        # the cold table builds of first use are spread over the run
        # rather than crowded at its start.  Between entries a fresh
        # grid goes to the source in use with the fewest grids so far
        # (the earliest entered on a tie), so every source gets about
        # as many grids as any other.  TAM-count ranges take turns in
        # seeded order.  A source's first grid includes the widest
        # budget, so its tables are built cold once and never extended
        # afterwards.
        if len(active) < len(entering) and \
                len(active) * fresh_count <= fresh_done * len(entering):
            source = entering[len(active)]
            active.append(source)
        else:
            source = min(active, key=grids.__getitem__)
        grids[source] = grids.get(source, 0) + 1
        fresh_done += 1
        if not tam_turns:
            tam_turns = list(range(1, cfg["fresh_max_tams"] + 1))
            rng.shuffle(tam_turns)
        tams = tuple(range(1, tam_turns.pop() + 1))
        while True:
            widths = sorted(rng.sample(range(low, high + 1),
                                       cfg["fresh_widths_per_grid"]))
            if grids[source] == 1:
                widths[-1] = high
            if (source, tuple(widths), tams) not in seen \
                    and len(set(widths)) == len(widths):
                seen.add((source, tuple(widths), tams))
                break
        requests.append({"kind": "fresh", "due": due, "source": source,
                         "widths": widths, "tams": tams, "options": {}})
    return socs, requests


def _grid(request: Dict[str, Any]) -> Any:
    from repro.api.specs import GridSpec

    return GridSpec.from_axes([request["source"]], request["widths"],
                              num_tams=request["tams"],
                              options=request["options"] or None)


class _Server:
    """One ``repro-tam serve`` subprocess with a fresh cache dir."""

    def __init__(self, workdir: str, records_dir: str, trace: bool) -> None:
        from repro.service.client import ServiceClient

        self.cache_dir = os.path.join(workdir, "cache")
        port_file = os.path.join(workdir, "port")
        self.log = open(os.path.join(workdir, "server.log"), "w")
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve.py"), records_dir,
             "trace" if trace else "ledger", "serve", "--port", "0",
             "--port-file", port_file, "--cache-dir", self.cache_dir],
            stdout=subprocess.DEVNULL, stderr=self.log, cwd=ROOT,
        )
        deadline = time.monotonic() + 60
        while True:
            try:
                with open(port_file, encoding="ascii") as handle:
                    text = handle.read().strip()
                if text:
                    self.port = int(text)
                    break
            except OSError:
                pass
            if self.process.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("repro-tam serve did not start")
            time.sleep(0.005)
        self.client = ServiceClient(port=self.port, timeout=60.0)
        self.client.ping()

    def stop(self) -> None:
        """Ask the server to exit and wait until it and its children (pool
        workers, shared-memory tracker) have."""
        children = child_pids(self.process.pid)
        try:
            if hasattr(self, "client"):
                self.client.shutdown()
                self.client.close()
        except Exception:  # noqa: BLE001 - fall back to terminate
            self.process.terminate()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=30)
        self.log.close()
        deadline = time.monotonic() + 30
        for pid in children:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)


def run_service(seed: int, seconds: float, recorder: Recorder,
                records_dir: str, workdir: str, trace: bool
                ) -> Dict[str, Any]:
    """One service-mix phase: set-ups, then the open loop."""
    from repro.soc.itc02 import write_soc

    cfg = CONFIG["workloads"]["service-mix"]
    setups = []
    server: Optional[_Server] = None
    phase_start = time.perf_counter()
    for index in range(CONFIG["setups_per_run"]):
        run_dir = os.path.join(workdir, f"setup{index}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        start = time.perf_counter()
        socs, requests = service_schedule(seed, seconds, run_dir)
        for path, soc in socs:
            write_soc(soc, path)
        server = _Server(run_dir, records_dir, trace)
        setups.append(time.perf_counter() - start)
        if index + 1 < CONFIG["setups_per_run"]:
            server.stop()
    assert server is not None
    ping_times = []
    if trace:
        for _ in range(20):
            start = time.perf_counter()
            server.client.ping()
            ping_times.append(time.perf_counter() - start)
    # One connection: the load comes from one process, and a request
    # never overlaps the one before it, so a slow stretch of the host
    # stretches each request rather than piling them up.  A request
    # that finds the connection busy is sent late; its latency still
    # counts from its due time.
    client = server.client
    ops: List[Dict[str, Any]] = []
    loop_start = time.perf_counter() + 0.05
    for index, request in enumerate(requests):
        due = loop_start + request["due"]
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        op = dict(request, op=f"op{index}")
        op["sent"] = time.perf_counter()
        op["error"] = None
        with recorder.operation(op["op"]):
            try:
                job = client.submit_grid(_grid(request))
                op["job_id"] = job
                op["status"] = client.wait(job, timeout=cfg["wait_timeout_s"])
                op["payload"] = client.result(job)
            except Exception as exc:  # noqa: BLE001 - counted as failed
                op["error"] = f"{type(exc).__name__}: {exc}"
        op["end"] = time.perf_counter()
        op["latency"] = op["end"] - due
        op["late"] = op["sent"] - due
        ops.append(op)
    loop_end = time.perf_counter()
    info = server.client.ping()
    pids = [os.getpid(), server.process.pid] + child_pids(server.process.pid)
    rss, processes = peak_rss_mb(pids)
    server.stop()
    solves, spans = read_records(records_dir)
    return {
        "workload": "service-mix", "ops": ops, "setups": setups,
        "socs": socs, "phase_start": phase_start, "loop_start": loop_start,
        "loop_end": loop_end, "rss_mb": rss, "rss_processes": processes,
        "shm_fallbacks": info.get("shm_fallbacks", 0), "info": info,
        "ping_times": ping_times, "server_pid": server.process.pid,
        "worker_solves": solves, "worker_spans": spans,
    }


def check_service(phase: Dict[str, Any], solves: List[Dict[str, Any]],
                  local_solves: List[Dict[str, Any]], seed: int
                  ) -> Dict[str, Any]:
    """Check every answer against an inline ``evaluate_point``.

    ``solves`` are the server's solve records; ``local_solves`` is the
    live ledger of this process, which the inline references append to.
    """
    from repro.analysis.sweep import evaluate_point
    from repro.report.serialize import sweep_point_to_dict
    from repro.soc.loader import load_source
    from repro.wrapper.pareto import build_time_tables

    cfg = CONFIG["workloads"]["service-mix"]
    socs: Dict[str, Any] = {}
    tables: Dict[str, Any] = {}
    refs: Dict[Any, Dict[str, Any]] = {}
    problems_seen: List[str] = []
    server_solves = [s for s in solves if s["pid"] != os.getpid()]
    d695_exact: List[Any] = []

    def reference(source: str, width: int, tams: Any,
                  options: Dict[str, Any]) -> Dict[str, Any]:
        key = (source, width, tams, json.dumps(options, sort_keys=True))
        if key in refs:
            return refs[key]
        if source not in socs:
            socs[source] = load_source(source)
        soc = socs[source]
        if source not in tables:
            tables[source] = build_time_tables(
                soc, max(cfg["fresh_widths"][1], cfg["search_width"]))
        marker = len(local_solves)
        start = time.perf_counter()
        point = evaluate_point(soc, width, num_tams=tams,
                               tables=tables[source], **options)
        seconds = time.perf_counter() - start
        strong = evaluate_point(soc, width, num_tams=tams,
                                tables=tables[source],
                                polish_per_tam_count=True, polish_top_k=2)
        terms = checks.lower_bound_terms(soc, tables[source], width)
        problems = checks.point_problems(soc, tables[source], width, point,
                                         terms)
        capped = any(s["outcome"] == "time_capped"
                     for s in local_solves[marker:])
        refs[key] = {
            "record": dict(sweep_point_to_dict(point), soc=soc.name),
            "point": point, "soc": soc, "terms": terms,
            "problems": problems, "seconds": seconds, "capped": capped,
            "t_ref": min(point.testing_time, strong.testing_time),
        }
        if source == "d695" and not options and not capped:
            d695_exact.append(key)
        return refs[key]

    for op in phase["ops"]:
        wrong: List[str] = []
        failures: List[str] = []
        op["points"] = 0
        op["gaps"] = []
        op["ratios"] = []
        op["inline_s"] = 0.0
        if op["error"] is not None:
            failures.append(op["error"])
        else:
            status = op["status"]
            payload = op["payload"]
            if status.get("status") != "done":
                failures.append(f"job ended {status.get('status')}")
            for failure in payload.get("failures", []):
                failures.append(f"failed point {failure.get('error_type')}")
            records = payload.get("points", [])
            if len(records) != len(op["widths"]):
                wrong.append(
                    f"{len(records)} points for {len(op['widths'])} widths")
            started, finished = status.get("started_at"), status.get(
                "finished_at")
            server_capped = started is not None and finished is not None \
                and any(started <= solve["wall_end"] <= finished
                        and solve["outcome"] == "time_capped"
                        for solve in server_solves)
            for width, record in zip(op["widths"], records):
                ref = reference(op["source"], width, op["tams"],
                                op["options"])
                wrong += ref["problems"]
                # An answer cut by a guard depends on the host: a failure,
                # not a wrong answer, so it is not compared bit for bit.
                cut = []
                if server_capped:
                    cut.append("exact solve cut by the wall-clock guard")
                if ref["capped"]:
                    cut.append("inline reference solve cut by the clock")
                if any((side.get("search") or {}).get("terminated_by")
                       == "time_budget" for side in (record, ref["record"])):
                    cut.append("search stopped by its time budget")
                if cut:
                    failures += cut
                elif record != ref["record"]:
                    wrong.append(
                        f"W={width}: answer differs from inline evaluate_point")
                op["points"] += 1
                op["inline_s"] += ref["seconds"]
                op["gaps"].append(record.get("gap", 0.0))
                op["ratios"].append(record["testing_time"] / ref["t_ref"])
        op["problems"] = wrong
        op["failures"] = failures
        op["failed"] = bool(wrong or failures)
        problems_seen += [f"{op['op']}: {p}" for p in wrong]
    # The paper-literal ILP re-solves a few d695 answers per run.
    rng = random.Random(seed)
    chosen = rng.sample(d695_exact,
                        min(cfg["ilp_checks_per_run"], len(d695_exact)))
    inconclusive = 0
    for key in chosen:
        ref = refs[key]
        found, conclusive = checks.ilp_problems(
            tables[key[0]], ref["soc"], ref["point"])
        inconclusive += not conclusive
        if found:
            problems_seen += [f"ILP {key[:3]}: {p}" for p in found]
            for op in phase["ops"]:
                if op["source"] == key[0] and key[1] in op["widths"] \
                        and op["tams"] == key[2] and not op["options"]:
                    op["problems"] += found
                    op["failed"] = True
    return {"problems": problems_seen, "ilp_checked": len(chosen),
            "ilp_inconclusive": inconclusive}


def guard_self_test() -> List[str]:
    """Feed :func:`check_batch` and :func:`check_service` answers that
    differ from their references; returns the verdicts that went wrong.

    An answer cut by a guard (a time-capped exact solve, a search
    stopped by its time budget) must count as failed, not wrong; the
    same difference in an uncut answer, or a structural fault in a cut
    one, must count as wrong.  Built around one d695 point at W=16,
    B <= 2; takes about a second.
    """
    import dataclasses

    from repro.analysis.sweep import evaluate_point
    from repro.engine.batch import BatchJob
    from repro.report.serialize import sweep_point_to_dict
    from repro.soc.loader import load_source
    from repro.wrapper.pareto import build_time_tables

    soc = load_source("d695")
    width = 16
    point = evaluate_point(soc, width, num_tams=2,
                           tables=build_time_tables(soc, width))
    key = checks.input_key(soc.name, width, {})
    stale = {key: {"T": point.testing_time + 1,
                   "partition": list(point.partition), "proof": "proved",
                   "digest": checks.point_digest(point),
                   "best_known": point.testing_time}}
    job = BatchJob(soc=soc, total_width=width, num_tams=2)

    def batch_op(result: Any, outcome: str) -> Dict[str, Any]:
        op = {"op": "op0", "key": key, "soc": soc, "job": job,
              "result": result, "error": None, "start": 0.0, "end": 1.0}
        solves = [{"op": "op0", "pid": os.getpid(), "end": 0.5,
                   "outcome": outcome}]
        check_batch({"ops": [op]}, solves, stale)
        return op

    inline = evaluate_point(soc, width, num_tams=(1, 2),
                            tables=build_time_tables(soc, 32))
    differing = dict(sweep_point_to_dict(inline), soc=soc.name)
    differing["testing_time"] += 1

    def service_op(record: Dict[str, Any], outcome: str) -> Dict[str, Any]:
        op = {"op": "op0", "error": None, "source": "d695",
              "widths": [width], "tams": (1, 2), "options": {},
              "status": {"status": "done", "started_at": 10.0,
                         "finished_at": 20.0},
              "payload": {"points": [record], "failures": []}}
        solves = [{"pid": -1, "wall_end": 15.0, "outcome": outcome}]
        check_service({"ops": [op]}, solves, [], 0)
        return op

    wrong_t = dataclasses.replace(point, testing_time=point.testing_time - 1)
    budget_cut = dict(differing, search={"terminated_by": "time_budget"})
    cases = [
        ("uncut batch answer off its reference", "wrong",
         batch_op(point, "proved")),
        ("time-capped batch answer off its reference", "failed",
         batch_op(point, "time_capped")),
        ("time-capped batch answer with a wrong T", "wrong",
         batch_op(wrong_t, "time_capped")),
        ("uncut service answer off the inline one", "wrong",
         service_op(differing, "proved")),
        ("time-capped service answer off the inline one", "failed",
         service_op(differing, "time_capped")),
        ("budget-stopped search answer off the inline one", "failed",
         service_op(budget_cut, "proved")),
    ]
    missed = []
    for label, expected, op in cases:
        verdict = "wrong" if op["problems"] else (
            "failed" if op["failed"] else "passed")
        if verdict != expected:
            missed.append(f"{label}: {verdict}, expected {expected}")
    return missed


def summarize_latencies(values: List[float]) -> Tuple[float, str, int]:
    """(value, percentile label, samples) of the tail rule: the highest
    percentile with at least ten samples beyond it; the maximum when
    there are fewer than eleven samples."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 11:
        return ordered[-1], f"max (n={count} < 11)", count
    rank = count - 11
    return ordered[rank], f"p{100.0 * (rank + 1) / count:.1f}", count


def e2e_metrics(phase: Dict[str, Any]) -> Tuple[Dict[str, Any],
                                                Dict[str, Any]]:
    """The end-to-end metrics of one checked phase, plus details."""
    ops = phase["ops"]
    service = phase["workload"] == "service-mix"
    cfg = CONFIG["workloads"]["service-mix"]
    elapsed = max(op["end"] for op in ops) - phase["loop_start"]
    attempted = len(ops)
    failed = sum(1 for op in ops if op["failed"])
    good_points = sum(op["points"] for op in ops if not op["failed"])
    # A failed request counts as missing every latency limit.
    latencies = [float("inf") if op["failed"] else op["latency"]
                 for op in ops]
    # On a shared 2-vCPU host the speed of identical solves drifts by up
    # to 1.8x in stretches of 10-50 s, so a median over a few samples
    # jumps between its slow and fast levels.  The median and the tail
    # are therefore taken per window and averaged over the run's
    # windows.  A batch window is one cycle over the inputs: its median
    # is the middle call and its tail the slowest (the tail rule needs
    # eleven samples).  service-mix splits its schedule into
    # latency_windows consecutive windows.
    if service:
        windows = cfg["latency_windows"]
        chunks = [latencies[k * len(latencies) // windows:
                            (k + 1) * len(latencies) // windows]
                  for k in range(windows)]
    else:
        by_window: Dict[int, List[float]] = {}
        for op, latency in zip(ops, latencies):
            by_window.setdefault(op["window"], []).append(latency)
        chunks = list(by_window.values())
    tails = [summarize_latencies(chunk) for chunk in chunks]
    tail = statistics.fmean(value for value, _, _ in tails)
    label = f"{tails[0][1]} per window, mean of {len(chunks)} windows"
    samples = sum(count for _, _, count in tails)
    if tail == float("inf"):
        tail = elapsed
        label += " (censored: failed requests)"
    p50 = statistics.fmean(statistics.median(chunk) for chunk in chunks)
    if p50 == float("inf"):
        p50 = elapsed
    if service:
        gaps = [g for op in ops if not op["failed"] for g in op["gaps"]]
        ratios = [r for op in ops if not op["failed"] for r in op["ratios"]]
    else:
        gaps = [op["gap"] for op in ops if not op["failed"]]
        ratios = [op["T"] / op["t_ref"] for op in ops if not op["failed"]]
    points = sum(op["points"] for op in ops)
    metrics = {
        "setup_s": (statistics.median(phase["setups"]), "s",
                    len(phase["setups"])),
        "points_per_s": (good_points / elapsed, "1/s", good_points),
        "lat_p50_s": (p50, "s", attempted),
        "lat_tail_s": (tail, "s", samples),
        "ok_frac": (1.0 - failed / attempted, "ratio", attempted),
        "peak_rss_mb": (phase["rss_mb"], "MB", phase["rss_processes"]),
        "quality_ratio": (statistics.fmean(ratios) if ratios else 0.0,
                          "ratio", len(ratios)),
        "cert_gap_mean": (statistics.fmean(gaps) if gaps else 0.0,
                          "ratio", len(gaps)),
    }
    details: Dict[str, Any] = {
        "lat_tail_percentile": label,
        "fail_frac": failed / attempted,
        "quality_excess_pct": (100.0 * (statistics.fmean(ratios) - 1.0)
                               if ratios else 0.0),
        "attempted": attempted, "failed": failed, "points": points,
        "timed_s": elapsed,
    }
    if service:
        late = [op["late"] for op in ops]
        details["generator_late_p50_s"] = statistics.median(late)
        details["generator_late_max_s"] = max(late)
        limit = cfg["lat_tail_limit_s"]
        details["lat_tail_limit_s"] = limit
        details["lat_tail_limit_met"] = tail <= limit
        details["rate_per_s"] = cfg["rate_per_s"]
        details["kinds"] = {
            kind: sum(1 for op in ops if op["kind"] == kind)
            for kind in ("fresh", "repeat", "search")
        }
    return metrics, details
