"""Command-line interface.

Installed as the ``repro-tam`` console script; ``python -m repro``
from a source checkout runs the identical entry point.  Subcommands::

    repro-tam cooptimize <file.soc | benchmark> -W 32 [--bmax 10]
    repro-tam search     <file.soc | benchmark> -W 32 [--strategy ga]
    repro-tam exhaustive <file.soc | benchmark> -W 32 -B 2
    repro-tam analyze    <file.soc | benchmark> -W 32
    repro-tam batch      <sources...> -W 16 24 32 [--jobs N]
    repro-tam serve      [--port 7293] [--jobs N] [--cache-dir DIR]
    repro-tam submit     <sources...> -W 16 24 32 [--port 7293]
    repro-tam report     [--cache-dir DIR] [--view table|pareto|...]
    repro-tam tail       <job-id> [--port 7293]
    repro-tam describe   <file.soc | benchmark>
    repro-tam lint       [paths...] [--format json] [--write-schema]

Every optimizing subcommand translates its arguments into the same
typed :class:`repro.api.GridSpec` / :class:`repro.api.OptimizeSpec`
through one shared translator (:mod:`repro.api.cli`), so the
surfaces resolve widths, TAM counts and knobs identically — and a
grid run via ``batch`` memo-hits the same grid sent via ``submit``.

Each positional SOC argument is either a path to a ``.soc`` file in
the dialect of :mod:`repro.soc.itc02`, or the name of an embedded
benchmark (``d695``, ``p21241``, ``p31108``, ``p93791``).

Batch sweeps
------------
``repro-tam batch`` evaluates the full SOCs × widths grid through
:class:`repro.engine.BatchRunner`: jobs fan out over a process pool
(``--jobs``, default one per CPU; ``--jobs 1`` forces inline
sequential execution) and each worker reuses its wrapper time tables
across the jobs it receives.  Every grid point is reported with its
testing time, optimality-certificate gap, and wire-cycle utilization;
``--json`` emits the same records as a JSON array.  Results are
identical to running ``cooptimize`` per point — only faster::

    repro-tam batch d695 p21241 p31108 p93791 -W 16 24 32 --jobs 4

``--cache-dir DIR`` additionally backs every wrapper-table cache with
the persistent :class:`repro.service.TableStore` on DIR, so a second
invocation over the same cores skips wrapper design entirely.

The exploration service
-----------------------
``repro-tam serve`` starts the resident job server of
:mod:`repro.service`: a persistent worker pool plus job queue behind
a line-oriented JSON socket, so interactive design-space exploration
stops paying pool startup and table construction per request::

    repro-tam serve --port 7293 --cache-dir ~/.cache/repro-tam &
    repro-tam submit d695 -W 16 24 32 --port 7293

``submit`` sends a batch-identical grid to a running server, waits
(unless ``--no-wait``), and renders the same table/JSON as ``batch``.

Multi-tenant serving: ``serve --auth`` requires every request (except
``ping``) to carry a bearer token registered in ``tokens.json``
(``--tokens-file`` overrides the path, default next to the table
store in ``--cache-dir``); clients pass ``--token`` on ``submit`` and
``tail`` and may request a ``--priority`` class no higher than their
registered one.  ``--max-queue`` bounds the admission queue — under
overload the server sheds the lowest-priority queued work first, and
when nothing cheaper can be shed it rejects with a typed
``overloaded`` error carrying a ``retry_after`` hint the client
honours transparently.

Observability
-------------
``repro-tam report`` renders the run warehouse — the SQLite store a
``--cache-dir`` grid run (batch or service) appends every finished
grid to — as per-campaign tables: the grid results themselves
(``--view table``, bit-identical to what the live run printed),
the width/time Pareto front, the result trend across runs, and the
span-derived phase breakdown.  ``repro-tam tail JOB_ID`` follows a
running job's per-point events live (the same v2 stream ``submit
--stream`` uses).  ``--log-level`` on ``serve``/``batch``/``submit``
turns on the library's stderr logging; ``REPRO_TRACE=1`` in the
environment enables span tracing (off by default, no-op cost).

Static analysis
---------------
``repro-tam lint`` runs the project-invariant linter of
:mod:`repro.analysis.lint` — determinism in the hot scoring paths,
shared-memory lifecycle, pool picklability, the golden spec-schema
lock, and wire-protocol discipline (``python -m repro.analysis`` is
the identical entry point).  CI gates on it; see DESIGN.md
§"Invariants & static analysis".
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import List, Optional

from repro.api.cli import (
    add_spec_arguments,
    grid_spec_from_args,
    spec_from_args,
)
from repro.engine import BatchRunner
from repro.engine.batch import align_point_telemetry
from repro.exceptions import ReproError
from repro.optimize.co_optimize import co_optimize
from repro.optimize.exhaustive import exhaustive_optimize
from repro.report.tables import TextTable
from repro.schedule.session import build_schedule
from repro.soc.complexity import test_complexity
from repro.soc.loader import load_source as _load

#: Shown on the main parser and every subcommand: the two entry
#: points are the same ``main`` and must never drift apart
#: (asserted by ``tests/test_cli_naming.py``).
ENTRY_POINT_EPILOG = (
    "Invoke as `repro-tam` (the installed console script) or "
    "`python -m repro` (from a source checkout) — the two entry "
    "points run the identical CLI."
)


def _add_log_level_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level", default=None,
        choices=["debug", "info", "warning", "error"],
        help="configure stderr logging at this level (the library "
             "is silent by default: NullHandler on the 'repro' "
             "logger)",
    )


def _configure_logging(args: argparse.Namespace) -> None:
    level = getattr(args, "log_level", None)
    if level:
        logging.basicConfig(
            level=getattr(logging, level.upper()),
            format="%(asctime)s %(name)s %(levelname)s %(message)s",
        )


def _cmd_describe(args: argparse.Namespace) -> int:
    soc = _load(args.soc)
    print(soc.describe())
    print(f"test complexity: {test_complexity(soc):.1f}")
    return 0


def _cmd_cooptimize(args: argparse.Namespace) -> int:
    soc = _load(args.soc)
    # The shared translator builds the same canonical OptimizeSpec a
    # batch/submit grid point would — one resolution rule for every
    # surface.
    result = co_optimize(soc, spec=spec_from_args(args, args.width))
    if args.json:
        from repro.report.serialize import co_optimization_to_dict, to_json
        print(to_json(co_optimization_to_dict(result)))
        return 0
    print(result.summary())
    print(f"assignment: {result.final.vector_notation()}")
    if args.gantt:
        tables = result.tables
        times = [
            [tables[c.name].time(w) for w in result.partition]
            for c in soc
        ]
        schedule = build_schedule(
            result.final, times, [c.name for c in soc]
        )
        print(schedule.gantt())
    if args.stats:
        table = TextTable(
            ["B", "unique", "enumerated", "lb_pruned", "completed",
             "efficiency"],
            title="Partition_evaluate pruning statistics",
        )
        for stats in result.search.stats:
            table.add_row([
                stats.num_tams,
                stats.num_unique,
                stats.num_enumerated,
                stats.num_lb_pruned,
                stats.num_completed,
                f"{stats.efficiency:.4f}",
            ])
        print(table.render())
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.analysis.sweep import evaluate_point
    from repro.api.cli import search_spec_from_args

    soc = _load(args.soc)
    spec = search_spec_from_args(args, args.width)
    point = evaluate_point(
        soc, spec.total_width, num_tams=spec.num_tams,
        **spec.engine_options(),
    )
    if args.json:
        from repro.report.serialize import sweep_point_to_dict, to_json
        print(to_json(dict(sweep_point_to_dict(point), soc=soc.name)))
        return 0
    search = point.search
    assert search is not None  # mode="search" always attaches one
    certificate = search.certificate
    print(
        f"{soc.name} W={spec.total_width}: "
        f"T={point.testing_time} at B={point.num_tams} "
        f"partition {'+'.join(map(str, point.partition))}"
    )
    proven = " (proven optimal)" if certificate.is_provably_optimal \
        else ""
    print(
        f"certificate: bound={certificate.bound} "
        f"gap={certificate.gap:.2%}{proven} — "
        f"{certificate.evals} evals, "
        f"{certificate.improvements} improvements, "
        f"terminated by {certificate.terminated_by} "
        f"({certificate.elapsed_seconds:.2f}s, "
        f"strategy {search.strategy}, seed {search.seed})"
    )
    if args.trajectory:
        for eval_index, island_index, testing_time in search.trajectory:
            gap = testing_time / certificate.bound - 1.0
            print(
                f"  eval {eval_index} island {island_index}: "
                f"T={testing_time} gap={gap:.2%}"
            )
    return 0


def _cmd_exhaustive(args: argparse.Namespace) -> int:
    soc = _load(args.soc)
    result = exhaustive_optimize(
        soc,
        total_width=args.width,
        num_tams=args.num_tams or args.bmax,
        total_time_limit=args.time_limit,
    )
    print(result.summary())
    print(f"assignment: {result.best.vector_notation()}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis.certificates import certify
    from repro.analysis.utilization import analyze_utilization

    soc = _load(args.soc)
    result = co_optimize(soc, spec=spec_from_args(args, args.width))

    print(result.summary())
    print(certify(soc, result.final, result.tables).describe())
    print(analyze_utilization(soc, result.final, result.tables).describe())
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.obs.report import grid_table
    from repro.service.server import grid_payload

    # One canonical GridSpec — the identical object `submit` sends to
    # a server, so a local batch and a remote submission of the same
    # arguments share one canonical content key.
    grid_spec = grid_spec_from_args(args)
    runner = BatchRunner(max_workers=args.jobs, cache_dir=args.cache_dir)
    grid = runner.run_grid(grid_spec)
    jobs = [job for job, _ in grid]
    results = [result for _, result in grid]
    # The one payload form of a grid's results: what a server answers
    # `submit` with, what the warehouse records, and what the table
    # and --json below render.
    payload = grid_payload(jobs, results)
    # Execution counters for --stats / --json: how the grid ran.
    runner_stats = {
        "jobs_sharded": runner.jobs_sharded,
        "pools_started": runner.pools_started,
    }
    if args.cache_dir:
        # A cached run is also a *recorded* run: append the grid
        # (results + telemetry) to the warehouse next to the table
        # store, under the same canonical key the service memo uses.
        from repro.api.specs import jobs_canonical_key
        from repro.obs.warehouse import warehouse_for

        warehouse = warehouse_for(args.cache_dir)
        assert warehouse is not None  # cache_dir is set
        warehouse.record_grid(
            jobs_canonical_key(jobs),
            payload,
            source="batch",
            metrics=(
                runner.last_run_metrics.to_dict()
                if runner.last_run_metrics is not None else None
            ),
            point_telemetry=align_point_telemetry(
                results, runner.last_run_telemetry
            ),
            run_spans=runner.last_run_spans,
        )

    if args.json:
        from repro.report.serialize import to_json
        print(to_json({
            "schema": 1, "kind": "batch", "points": payload["points"],
            "runner": runner_stats,
        }))
        return 0

    print(grid_table(payload["points"], title="batch sweep").render())
    if args.stats:
        print(
            f"runner: {runner_stats['jobs_sharded']} job(s) sharded, "
            f"{runner_stats['pools_started']} pool(s) started"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.service import ExplorationServer, IPCServer

    exploration = ExplorationServer(
        max_workers=args.jobs,
        cache_dir=args.cache_dir,
        max_records=args.max_records,
        require_auth=args.auth,
        tokens_path=args.tokens_file,
        max_queue_depth=args.max_queue,
    )
    server = IPCServer(exploration, host=args.host, port=args.port)
    host, port = server.address
    if args.port_file:
        # Published last thing before serving, and atomically: the
        # port goes to a temporary file beside the target, which is
        # then renamed into place, so a reader that sees the file
        # reads the whole port line and can connect.
        target = Path(args.port_file)
        staging = target.with_name(f".{target.name}.{os.getpid()}.tmp")
        staging.write_text(f"{port}\n")
        os.replace(staging, target)
    print(f"repro-tam service listening on {host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        server.stop()
    print("repro-tam service stopped", flush=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    # The same canonical GridSpec `batch` runs locally, submitted
    # over protocol v2 — so the server's (persisted) memo answers
    # either surface.
    grid_spec = grid_spec_from_args(args)
    with ServiceClient(
        host=args.host,
        port=args.port,
        token=args.token,
        priority=args.priority,
    ) as client:
        job_id = client.submit_grid(grid_spec)
        if args.no_wait:
            print(job_id)
            return 0
        if args.stream:
            # Per-point completion events, pushed as the grid runs —
            # the v2 `events` op instead of a blocking wait.  A
            # dropped connection resumes from the sequence cursor
            # (reconnect=True), so long grids survive transient
            # network hiccups without duplicating or losing points.
            # One formatter (`format_event_line`) with `tail`, so the
            # two surfaces narrate a grid identically.
            from repro.obs.report import format_event_line

            for event in client.events(
                job_id, timeout=args.timeout, reconnect=True,
            ):
                line, failed = format_event_line(event)
                print(
                    line,
                    file=sys.stderr if failed else sys.stdout,
                    flush=True,
                )
        else:
            record = client.wait(job_id, timeout=args.timeout)
            if record["status"] != "done":
                from repro.exceptions import ServiceError

                raise ServiceError(
                    f"job {job_id} ended as {record['status']}: "
                    f"{record.get('error', 'no result')}"
                )
        # The result payload carries the job's status snapshot too
        # (job id, cached flag), so one call serves the whole render.
        result = client.result(job_id)
    record = result

    if args.json:
        from repro.report.serialize import to_json
        print(to_json({
            "schema": 1,
            "kind": "batch",
            "job": job_id,
            "cached": record["cached"],
            "points": result["points"],
            "failures": result["failures"],
        }))
        return 0 if not result["failures"] else 1

    cached = " (cached)" if record["cached"] else ""
    from repro.obs.report import grid_table

    table = grid_table(
        result["points"], title=f"service grid {job_id}{cached}"
    )
    print(table.render())
    for failure in result["failures"]:
        print(
            f"FAILED {failure['soc']} W={failure['total_width']}: "
            f"{failure['error_type']}: {failure['error_message']}",
            file=sys.stderr,
        )
    return 0 if not result["failures"] else 1


def _cmd_report(args: argparse.Namespace) -> int:
    # Imported here (not from repro.obs's package root): the report
    # renderer builds *on* the engine/report layers, unlike the rest
    # of the obs package, which sits below them.
    from repro.exceptions import ConfigurationError
    from repro.obs.report import build_report, render_report
    from repro.obs.warehouse import RunWarehouse, warehouse_for

    if args.warehouse is not None:
        warehouse: Optional[RunWarehouse] = RunWarehouse(args.warehouse)
    else:
        warehouse = warehouse_for(args.cache_dir)
    if warehouse is None:
        raise ConfigurationError(
            "report needs --cache-dir DIR (the grid run's cache "
            "directory) or --warehouse FILE"
        )
    report = build_report(
        warehouse,
        view=args.view,
        campaign=args.campaign,
        run_id=args.run,
        limit=args.limit,
    )
    if args.format == "json":
        from repro.report.serialize import to_json
        print(to_json(report))
    else:
        print(render_report(report))
    return 0


def _cmd_tail(args: argparse.Namespace) -> int:
    from repro.obs.report import format_event_line
    from repro.service import ServiceClient

    # The same stream `submit --stream` renders, attachable from a
    # second terminal at any time; --from replays from an event
    # sequence number (0 = everything the server still holds).
    any_failed = False
    with ServiceClient(
        host=args.host, port=args.port, token=args.token,
    ) as client:
        for event in client.events(
            args.job,
            start=args.start,
            timeout=args.timeout,
            reconnect=True,
        ):
            line, failed = format_event_line(event)
            any_failed = any_failed or failed
            print(
                line,
                file=sys.stderr if failed else sys.stdout,
                flush=True,
            )
    return 1 if any_failed else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the linter pulls in ast/tokenize machinery no
    # optimizing subcommand needs.
    from repro.analysis.lint.cli import run_lint_command

    return run_lint_command(args)


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser.

    The grid/spec flags (``-W``, ``-B``, ``--bmax``, the optimize
    knobs) are registered by the *shared* translator in
    :mod:`repro.api.cli` on every subcommand that optimizes, so the
    surfaces cannot drift: one declaration, one resolution rule, one
    canonical :class:`repro.api.GridSpec` behind ``cooptimize``,
    ``analyze``, ``batch`` and ``submit`` alike.
    """
    parser = argparse.ArgumentParser(
        prog="repro-tam",
        description="Wrapper/TAM co-optimization "
                    "(Iyengar/Chakrabarty/Marinissen, DATE 2002)",
        epilog=ENTRY_POINT_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    describe = sub.add_parser(
        "describe", help="print SOC contents",
        epilog=ENTRY_POINT_EPILOG,
    )
    describe.add_argument("soc", help=".soc file or benchmark name")
    describe.set_defaults(func=_cmd_describe)

    coopt = sub.add_parser(
        "cooptimize", help="run the paper's two-step method (P_NPAW)",
        epilog=ENTRY_POINT_EPILOG,
    )
    coopt.add_argument("soc", help=".soc file or benchmark name")
    add_spec_arguments(coopt)
    coopt.add_argument("--gantt", action="store_true",
                       help="print the test-session Gantt chart")
    coopt.add_argument("--stats", action="store_true",
                       help="print partition-pruning statistics")
    coopt.add_argument("--json", action="store_true",
                       help="emit the result record as JSON")
    coopt.set_defaults(func=_cmd_cooptimize)

    search = sub.add_parser(
        "search",
        help="run the anytime metaheuristic tier (SA/GA islands "
             "with a gap-vs-bound certificate)",
        epilog=ENTRY_POINT_EPILOG,
    )
    search.add_argument("soc", help=".soc file or benchmark name")
    add_spec_arguments(search, knobs=False)
    from repro.api.cli import add_search_arguments
    add_search_arguments(search)
    search.add_argument("--trajectory", action="store_true",
                        help="print the merged incumbent-improvement "
                             "trail after the certificate")
    search.add_argument("--json", action="store_true",
                        help="emit the result record as JSON")
    search.set_defaults(func=_cmd_search)

    exhaustive = sub.add_parser(
        "exhaustive", help="run the [8]-style exhaustive baseline",
        epilog=ENTRY_POINT_EPILOG,
    )
    exhaustive.add_argument("soc", help=".soc file or benchmark name")
    add_spec_arguments(exhaustive, bmax_default=2, knobs=False)
    exhaustive.add_argument("--time-limit", type=float, default=600.0,
                            help="total wall-clock budget in seconds")
    exhaustive.set_defaults(func=_cmd_exhaustive)

    analyze = sub.add_parser(
        "analyze",
        help="optimize, then report utilization and the optimality "
             "certificate",
        epilog=ENTRY_POINT_EPILOG,
    )
    analyze.add_argument("soc", help=".soc file or benchmark name")
    add_spec_arguments(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    batch = sub.add_parser(
        "batch",
        help="sweep SOCs x widths in parallel via the batch engine",
        epilog=ENTRY_POINT_EPILOG,
    )
    batch.add_argument("socs", nargs="+",
                       help=".soc files and/or benchmark names")
    add_spec_arguments(batch, multi_width=True)
    batch.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: one per CPU; "
                            "1 = inline sequential)")
    batch.add_argument("--json", action="store_true",
                       help="emit the grid as a JSON record")
    batch.add_argument("--stats", action="store_true",
                       help="print execution counters (sharded jobs, "
                            "pools started) after the table")
    batch.add_argument("--cache-dir", default=None,
                       help="persist wrapper time tables in this "
                            "directory (warm runs skip wrapper design)")
    _add_log_level_argument(batch)
    batch.set_defaults(func=_cmd_batch)

    serve = sub.add_parser(
        "serve",
        help="run the resident exploration service (JSON IPC)",
        epilog=ENTRY_POINT_EPILOG,
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=7293,
                       help="TCP port (0 = let the OS pick; "
                            "default 7293)")
    serve.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: one per CPU; "
                            "1 = run grids inline)")
    serve.add_argument("--cache-dir", default=None,
                       help="persist wrapper time tables AND the "
                            "grid-result memo in this directory "
                            "across jobs and restarts")
    serve.add_argument("--max-records", type=int, default=None,
                       help="keep at most this many finished job "
                            "records in memory, evicting the oldest "
                            "(default: keep all)")
    serve.add_argument("--auth", action="store_true",
                       help="require bearer tokens: reject requests "
                            "whose token is not in the token file "
                            "(default: anonymous access)")
    serve.add_argument("--tokens-file", default=None,
                       help="token registry JSON (default: "
                            "tokens.json inside --cache-dir)")
    serve.add_argument("--max-queue", type=int, default=None,
                       help="bound the admission queue: beyond this "
                            "many queued jobs the server sheds "
                            "lower-priority work or rejects with a "
                            "retry-after hint (default: unbounded)")
    serve.add_argument("--port-file", default=None,
                       help="write the bound port to this file once "
                            "listening (for scripts and CI)")
    _add_log_level_argument(serve)
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit",
        help="submit a batch grid to a running service",
        epilog=ENTRY_POINT_EPILOG,
    )
    submit.add_argument("socs", nargs="+",
                        help=".soc files and/or benchmark names "
                             "(resolved server-side)")
    add_spec_arguments(submit, multi_width=True)
    submit.add_argument("--host", default="127.0.0.1",
                        help="service address (default 127.0.0.1)")
    submit.add_argument("--port", type=int, default=7293,
                        help="service port (default 7293)")
    submit.add_argument("--no-wait", action="store_true",
                        help="print the job id and return instead of "
                             "waiting for results")
    submit.add_argument("--stream", action="store_true",
                        help="stream per-point completion events "
                             "while the grid runs (protocol v2)")
    submit.add_argument("--timeout", type=float, default=None,
                        help="max seconds to wait for completion")
    submit.add_argument("--token", default=None,
                        help="bearer token for servers running with "
                             "--auth")
    submit.add_argument("--priority", default=None,
                        choices=["high", "normal", "low"],
                        help="scheduling class for this job (capped "
                             "at the client's registered class)")
    submit.add_argument("--json", action="store_true",
                        help="emit the grid as a JSON record")
    _add_log_level_argument(submit)
    submit.set_defaults(func=_cmd_submit)

    # The report/tail choices come from repro.obs.report, imported
    # lazily in the handlers; the literal tuple here keeps parser
    # construction free of the engine import chain.
    report = sub.add_parser(
        "report",
        help="render the run warehouse (results, Pareto, trend, "
             "phase breakdown) recorded by --cache-dir grid runs",
        epilog=ENTRY_POINT_EPILOG,
    )
    report.add_argument("--cache-dir", default=None,
                        help="the grid runs' cache directory (the "
                             "warehouse lives next to the table "
                             "store)")
    report.add_argument("--warehouse", default=None,
                        help="path to a warehouse.sqlite file "
                             "(overrides --cache-dir)")
    report.add_argument("--campaign", default=None,
                        help="canonical grid key, or any unambiguous "
                             "prefix (default: the newest run's)")
    report.add_argument("--run", type=int, default=None,
                        help="pin a specific warehouse run id")
    report.add_argument("--view", default="table",
                        choices=["table", "pareto", "trend",
                                 "phases", "runs"],
                        help="what to render (default: the grid "
                             "results table)")
    report.add_argument("--limit", type=int, default=20,
                        help="max rows for the runs view "
                             "(default 20)")
    report.add_argument("--format", default="text",
                        choices=["text", "json"],
                        help="output format (default text)")
    report.set_defaults(func=_cmd_report)

    tail = sub.add_parser(
        "tail",
        help="follow a running job's per-point events live",
        epilog=ENTRY_POINT_EPILOG,
    )
    tail.add_argument("job", help="job id (from submit --no-wait)")
    tail.add_argument("--host", default="127.0.0.1",
                      help="service address (default 127.0.0.1)")
    tail.add_argument("--port", type=int, default=7293,
                      help="service port (default 7293)")
    tail.add_argument("--from", dest="start", type=int, default=0,
                      help="replay from this event sequence number "
                           "(default 0: everything)")
    tail.add_argument("--timeout", type=float, default=None,
                      help="max seconds to wait for the job to "
                           "finish")
    tail.add_argument("--token", default=None,
                      help="bearer token for servers running with "
                           "--auth")
    tail.set_defaults(func=_cmd_tail)

    lint = sub.add_parser(
        "lint",
        help="run the project-invariant static analysis "
             "(determinism, shm lifecycle, spec-schema lock, ...)",
        epilog=ENTRY_POINT_EPILOG,
    )
    from repro.analysis.lint.cli import add_lint_arguments
    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args)
    if os.environ.get("REPRO_TRACE", "").strip() not in ("", "0"):
        # Span tracing is opt-in (the disabled tracer is a no-op
        # singleton); the flag propagates to pool workers via the
        # runner's initializer.
        from repro.obs import TRACER
        TRACER.enable()
    try:
        return args.func(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output was piped into a consumer that closed early
        # (e.g. `repro-tam describe ... | head`); exit quietly.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
