"""Wrappers the benchmark installs around the program's public calls.

Nothing here edits the program.  Each wrapper is installed by
rebinding a public function or method: on its class, or in its
defining module and in every ``repro`` module that imported it by
name.  Installation happens before any runner, pool or server exists.
Pool workers are forked from the process that installed the wrappers,
so they inherit them.  Every process keeps its records in memory; a
forked worker or a server subprocess writes them once, when it exits,
to ``<directory>/records-<pid>.json``.

Two instruments share that plumbing:

* the solve ledger, on in every run: one record per ``exact_assign``
  outcome (proved, node-capped or time-capped), so a point behind a
  solve cut by the wall-clock guard counts as failed;
* the span tracer, on in the traced pass only: one span per wrapped
  call, with name, layer, start, end, parent span, process, thread,
  operation id and a few counts taken from the call's result.

Times are ``time.perf_counter()`` readings.  On Linux that clock is
``CLOCK_MONOTONIC``, shared by all processes, so spans from workers
and from the server line up with the benchmark's own.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (module, attribute, class or None, layer) of every traced call.
#: The layer names follow the program's module layout.
TRACED_CALLS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("repro.wrapper.pareto", "build_time_tables", None, "wrapper"),
    ("repro.engine.cache", "ensure", "WrapperTableCache", "wrapper"),
    ("repro.engine.kernel", "build_dense_matrix", None, "kernel"),
    ("repro.engine.shm", "publish", "SegmentRegistry", "shm"),
    ("repro.engine.shm", "attach", None, "shm"),
    ("repro.engine.batch", "run", "BatchRunner", "engine"),
    ("repro.engine.batch", "run_iter", "BatchRunner", "engine"),
    ("repro.partition.evaluate", "partition_evaluate", None, "partition"),
    ("repro.partition.shard", "sharded_partition_evaluate", None,
     "partition"),
    ("repro.partition.shard", "sweep_shard", None, "partition"),
    ("repro.partition.shard", "merge_shard_outcomes", None, "partition"),
    ("repro.assign.exact", "exact_assign", None, "assign"),
    ("repro.optimize.co_optimize", "co_optimize", None, "optimize"),
    ("repro.optimize.co_optimize", "run_polish_task", None, "optimize"),
    ("repro.search.driver", "search_optimize", None, "search"),
    ("repro.search.driver", "run_island", None, "search"),
    ("repro.search.driver", "polish_candidates", None, "search"),
    ("repro.analysis.certificates", "certify", None, "analysis"),
    ("repro.analysis.certificates", "global_lower_bound", None,
     "analysis"),
    ("repro.analysis.utilization", "analyze_utilization", None,
     "analysis"),
    ("repro.report.serialize", "sweep_point_to_dict", None, "report"),
    ("repro.service.server", "grid_payload", None, "report"),
    ("repro.service.server", "submit", "ExplorationServer", "service"),
    ("repro.service.server", "wait", "ExplorationServer", "service"),
    ("repro.service.server", "result_payload", "ExplorationServer",
     "service"),
    ("repro.service.journal", "record_submitted", "JobJournal",
     "journal"),
    ("repro.service.journal", "record_terminal", "JobJournal", "journal"),
    ("repro.service.store", "load", "TableStore", "store"),
    ("repro.service.store", "save", "TableStore", "store"),
    ("repro.service.store", "load", "GridMemo", "store"),
    ("repro.service.store", "save", "GridMemo", "store"),
    ("repro.obs.warehouse", "record_grid", "RunWarehouse", "warehouse"),
    ("repro.service.client", "call", "ServiceClient", "ipc"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for _, _, _, layer in TRACED_CALLS
))


def solve_outcome(nodes: int, node_limit: int, optimal: bool) -> str:
    """How one ``exact_assign`` run ended.

    ``exact_assign`` stops on exhaustion (proof), on its node budget or
    on its wall-clock guard, and reports only ``optimal`` and
    ``nodes_explored``; a non-optimal run that did not reach the node
    budget was cut by the clock.
    """
    if optimal:
        return "proved"
    if nodes >= node_limit:
        return "node_capped"
    return "time_capped"


class Recorder:
    """In-memory solve records and spans of one process."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.solves: List[Dict[str, Any]] = []
        self.spans: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        multiprocessing.util.register_after_fork(self, Recorder._forked)

    def _forked(self) -> None:
        # A pool worker starts empty and writes its own records when it
        # exits: multiprocessing runs after-fork hooks once it has
        # cleared the inherited finalizers, and runs finalizers at exit.
        self.solves = []
        self.spans = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        multiprocessing.util.Finalize(None, self.flush, exitpriority=10)

    def flush(self) -> None:
        """Write this process's records to the records directory."""
        if not self.solves and not self.spans:
            return
        path = os.path.join(
            self.directory, f"records-{os.getpid()}.json"
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"solves": self.solves, "spans": self.spans}, handle)

    # -- operation ids and the per-thread span stack -----------------
    @contextlib.contextmanager
    def operation(self, op: str) -> Iterator[None]:
        """Tag spans opened by this thread with operation id ``op``."""
        previous = getattr(self._local, "op", None)
        self._local.op = op
        try:
            yield
        finally:
            self._local.op = previous

    def current_op(self) -> Optional[str]:
        return getattr(self._local, "op", None)

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_span(self) -> Tuple[str, Optional[str], float]:
        stack = self._stack()
        span_id = f"{os.getpid()}:{next(self._ids)}"
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def close_span(
        self,
        opened: Tuple[str, Optional[str], float],
        name: str,
        layer: str,
        attrs: Dict[str, Any],
    ) -> None:
        end = time.perf_counter()
        span_id, parent, start = opened
        stack = self._stack()
        if span_id in stack:
            stack.remove(span_id)
        self.spans.append({
            "id": span_id, "parent": parent, "op": self.current_op(),
            "name": name, "layer": layer, "pid": os.getpid(),
            "tid": threading.get_ident(), "start": start, "end": end,
            "attrs": attrs,
        })


def _rebind(
    module_name: str,
    attr: str,
    class_name: Optional[str],
    make: Callable[[Callable[..., Any]], Callable[..., Any]],
) -> None:
    """Replace a public function or method by ``make(original)``."""
    module = sys.modules[module_name]
    if class_name is not None:
        owner = getattr(module, class_name)
        setattr(owner, attr, make(owner.__dict__[attr]))
        return
    original = getattr(module, attr)
    replacement = make(original)
    for name, loaded in list(sys.modules.items()):
        if not name.startswith("repro") or loaded is None:
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, replacement)


def _import_program() -> None:
    """Import every module whose calls get wrapped."""
    import importlib

    for module_name in dict.fromkeys(name for name, *_ in TRACED_CALLS):
        importlib.import_module(module_name)
    importlib.import_module("repro.analysis.sweep")
    importlib.import_module("repro.search")
    importlib.import_module("repro.service.ipc")
    importlib.import_module("repro.cli")


def exact_limits(args: Tuple[Any, ...], kwargs: Dict[str, Any]
                 ) -> Tuple[int, float]:
    """(node_limit, time_limit) of one ``exact_assign(times, widths,
    incumbent, node_limit, time_limit)`` call."""
    from repro.assign.exact import DEFAULT_NODE_LIMIT, DEFAULT_TIME_LIMIT

    node_limit = kwargs.get(
        "node_limit", args[3] if len(args) > 3 else DEFAULT_NODE_LIMIT)
    time_limit = kwargs.get(
        "time_limit", args[4] if len(args) > 4 else DEFAULT_TIME_LIMIT)
    return node_limit, time_limit


def install_ledger(recorder: Recorder) -> None:
    """Record every ``exact_assign`` outcome (all runs)."""
    _import_program()

    def make(original: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(original)
        def ledger(*args: Any, **kwargs: Any) -> Any:
            result = original(*args, **kwargs)
            node_limit, time_limit = exact_limits(args, kwargs)
            recorder.solves.append({
                "pid": os.getpid(),
                "op": recorder.current_op(),
                "end": time.perf_counter(),
                "wall_end": time.time(),
                "seconds": result.elapsed_seconds,
                "nodes": result.nodes_explored,
                "node_limit": node_limit,
                "time_limit": time_limit,
                "outcome": solve_outcome(
                    result.nodes_explored, node_limit, result.optimal
                ),
            })
            return result
        return ledger

    _rebind("repro.assign.exact", "exact_assign", None, make)


# -- result annotations for the traced calls -----------------------
def _stats_counts(result: Any) -> Dict[str, Any]:
    stats = getattr(result, "stats", ())
    return {
        "enumerated": sum(s.num_enumerated for s in stats),
        "completed": sum(s.num_completed for s in stats),
        "lb_pruned": sum(s.num_lb_pruned for s in stats),
    }


def _annotate(
    name: str, args: Tuple[Any, ...], kwargs: Dict[str, Any], result: Any,
    before: Any,
) -> Dict[str, Any]:
    """Counts and identifiers a span keeps from its call."""
    if name in ("partition_evaluate", "sharded_partition_evaluate"):
        return _stats_counts(result)
    if name == "exact_assign":
        node_limit, _ = exact_limits(args, kwargs)
        return {
            "nodes": result.nodes_explored,
            "outcome": solve_outcome(
                result.nodes_explored, node_limit, result.optimal
            ),
        }
    if name == "search_optimize":
        return {
            "evals": result.certificate.evals,
            "terminated_by": result.certificate.terminated_by,
        }
    if name == "WrapperTableCache.ensure":
        return {"built": before}
    if name in ("BatchRunner.run", "BatchRunner.run_iter"):
        jobs = args[1] if len(args) > 1 else kwargs.get("jobs")
        if not isinstance(jobs, (list, tuple)):
            return {}
        return {"jobkey": id(jobs[0]) if jobs else None,
                "jobs": len(jobs)}
    if name == "grid_payload":
        return {"jobkey": id(args[0][0]) if args[0] else None,
                "bytes": len(json.dumps(result))}
    if name == "ExplorationServer.submit":
        return {"job": result.job_id, "cached": bool(result.cached),
                "jobkey": id(result.jobs[0]), "key": result.key}
    if name in ("ExplorationServer.wait",
                "ExplorationServer.result_payload",
                "JobJournal.record_terminal"):
        return {"job": args[1] if len(args) > 1 else None}
    if name == "JobJournal.record_submitted":
        return {"job": getattr(args[1], "job_id", None)}
    if name == "RunWarehouse.record_grid":
        return {"job": kwargs.get("job_id")}
    if name in ("GridMemo.load", "GridMemo.save"):
        return {"key": args[1]}
    if name == "ServiceClient.call":
        request = args[1]
        attrs = {"request": request.get("op")}
        if request.get("op") == "result":
            attrs["bytes"] = len(json.dumps(result))
        if request.get("op") == "submit":
            attrs["job"] = result.get("job")
        return attrs
    return {}


def _before(name: str, args: Tuple[Any, ...], kwargs: Dict[str, Any]) -> Any:
    """State a span needs from before its call runs."""
    if name == "WrapperTableCache.ensure":
        width = args[1] if len(args) > 1 else kwargs["max_width"]
        return args[0].max_width < width
    return None


def install_tracer(recorder: Recorder) -> None:
    """Wrap every call in :data:`TRACED_CALLS` with a timing span."""
    _import_program()
    for module_name, attr, class_name, layer in TRACED_CALLS:
        qualified = f"{class_name}.{attr}" if class_name else attr

        def make(
            original: Callable[..., Any], name: str = qualified,
            layer: str = layer,
        ) -> Callable[..., Any]:
            if inspect.isgeneratorfunction(original):
                @functools.wraps(original)
                def traced_iter(*args: Any, **kwargs: Any) -> Any:
                    opened = recorder.open_span()
                    attrs: Dict[str, Any] = {}
                    try:
                        attrs = _annotate(name, args, kwargs, None, None)
                        yield from original(*args, **kwargs)
                    finally:
                        recorder.close_span(opened, name, layer, attrs)
                return traced_iter

            @functools.wraps(original)
            def traced(*args: Any, **kwargs: Any) -> Any:
                before = _before(name, args, kwargs)
                opened = recorder.open_span()
                attrs: Dict[str, Any] = {}
                try:
                    result = original(*args, **kwargs)
                    attrs = _annotate(name, args, kwargs, result, before)
                    return result
                except Exception as error:
                    attrs = {"error": type(error).__name__}
                    raise
                finally:
                    recorder.close_span(opened, name, layer, attrs)
            return traced

        _rebind(module_name, attr, class_name, make)
