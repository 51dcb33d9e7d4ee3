"""Rendering for ``repro-tam report`` and ``repro-tam tail``.

The query/presentation half of the telemetry spine: turns warehouse
rows (:class:`~repro.obs.warehouse.RunWarehouse`) into the same
tables the live surfaces print, and event streams into the same
progress lines ``submit --stream`` shows.

The grid table here and the one ``repro-tam batch``/``submit``
render share :func:`grid_table_rows` — one formatter, so a table
reproduced from SQLite alone is bit-identical to the table the live
run printed.  That property is asserted by the obs tests and the CI
warehouse smoke.

This module builds *on* the report layer (unlike the rest of
``repro.obs``, which sits below it) and is therefore imported
explicitly by the CLI, never from ``repro.obs``'s package root.
"""

from __future__ import annotations

from datetime import datetime
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ValidationError
from repro.obs.warehouse import RunWarehouse
from repro.report.tables import TextTable

__all__ = [
    "BATCH_COLUMNS",
    "REPORT_VIEWS",
    "grid_table_rows",
    "grid_table",
    "format_event_line",
    "build_report",
    "render_report",
]

#: The columns of every grid-results table: ``repro-tam batch``,
#: ``submit`` and ``report``, and the batch benchmarks.
BATCH_COLUMNS: Tuple[str, ...] = (
    "soc", "W", "B", "partition", "T", "gap", "utilization",
)

#: The ``repro-tam report --view`` choices, in help order.
REPORT_VIEWS: Tuple[str, ...] = (
    "table", "pareto", "trend", "phases", "runs",
)


def grid_table_rows(
    points: Sequence[Dict[str, Any]]
) -> List[List[Any]]:
    """Serialized sweep points as ``BATCH_COLUMNS`` table cells.

    The one formatter behind the ``batch`` table, the ``submit``
    table, and the warehouse-backed ``report --view table`` — shared
    so the three render bit-identically from the same payload.
    """
    return [
        [
            point["soc"],
            point["total_width"],
            point["num_tams"],
            "+".join(map(str, point["partition"])),
            point["testing_time"],
            f"{point['gap']:.2%}",
            f"{point['utilization']:.1%}",
        ]
        for point in points
    ]


def grid_table(
    points: Sequence[Dict[str, Any]], title: str
) -> TextTable:
    """The standard grid-results table over serialized points."""
    table = TextTable(list(BATCH_COLUMNS), title=title)
    for row in grid_table_rows(points):
        table.add_row(row)
    return table


def format_event_line(event: Dict[str, Any]) -> Tuple[str, bool]:
    """One streamed :class:`~repro.api.JobEvent` as a progress line.

    Returns ``(line, failed)`` — shared by ``submit --stream`` and
    ``repro-tam tail`` so the two surfaces narrate a grid
    identically.
    """
    point = event.get("payload", {})
    position = f"[{event['index'] + 1}/{event['total']}]"
    if event.get("kind") == "failed":
        return (
            f"{position} FAILED {point.get('soc', '?')} "
            f"W={point.get('total_width', '?')}: "
            f"{point.get('error_type', '?')}",
            True,
        )
    if event.get("kind") == "incumbent":
        gap = point.get("gap")
        gap_text = "?" if gap is None else f"{gap:.2%}"
        return (
            f"{position} {point.get('soc', '?')} incumbent "
            f"T={point.get('time', '?')} gap={gap_text} "
            f"(island {point.get('island', '?')}, "
            f"eval {point.get('eval', '?')})",
            False,
        )
    return (
        f"{position} {point.get('soc', '?')} "
        f"W={point.get('total_width', '?')} "
        f"B={point.get('num_tams', '?')} "
        f"T={point.get('testing_time', '?')}",
        False,
    )


def _stamp(created_at: float) -> str:
    return datetime.fromtimestamp(created_at).strftime(
        "%Y-%m-%d %H:%M:%S"
    )


def _short(key: Optional[str]) -> str:
    return (key or "?")[:12]


def _pareto_front(
    points: Sequence[Dict[str, Any]]
) -> List[Dict[str, Any]]:
    """Points not dominated in (total_width, testing_time), per SOC."""
    front: List[Dict[str, Any]] = []
    for point in points:
        dominated = False
        for other in points:
            if other is point or other["soc"] != point["soc"]:
                continue
            if (
                other["total_width"] <= point["total_width"]
                and other["testing_time"] <= point["testing_time"]
                and (
                    other["total_width"] < point["total_width"]
                    or other["testing_time"] < point["testing_time"]
                )
            ):
                dominated = True
                break
        if not dominated:
            front.append(point)
    return sorted(
        front, key=lambda p: (p["soc"], p["total_width"])
    )


def build_report(
    warehouse: RunWarehouse,
    view: str = "table",
    campaign: Optional[str] = None,
    run_id: Optional[int] = None,
    limit: int = 20,
) -> Dict[str, Any]:
    """Assemble one report record from the warehouse.

    ``campaign`` is a canonical grid key (any unambiguous prefix);
    ``None`` means the campaign of the newest stored run.  ``run_id``
    pins a specific run for the per-run views (``table``, ``pareto``,
    ``phases``); otherwise the campaign's newest run is used.  The
    returned record serializes as the ``--format json`` output and
    feeds :func:`render_report` for the text form.
    """
    if view not in REPORT_VIEWS:
        raise ValidationError(
            f"view must be one of {REPORT_VIEWS}, got {view!r}"
        )
    report: Dict[str, Any] = {"schema": 1, "kind": "report", "view": view}
    if view == "runs":
        report["runs"] = warehouse.runs(limit=limit)
        return report
    if run_id is not None:
        runs = [
            run for run in warehouse.runs()
            if run["run_id"] == run_id
        ]
        if not runs:
            raise ValidationError(
                f"unknown warehouse run {run_id}"
            )
        run = runs[0]
        key = str(run["key"])
    else:
        if campaign is not None:
            key = warehouse.resolve_key(campaign)
        else:
            latest = warehouse.latest_run()
            if latest is None:
                raise ValidationError(
                    "the run warehouse is empty — run a grid with "
                    "--cache-dir first"
                )
            key = str(latest["key"])
        newest = warehouse.latest_run(key=key)
        assert newest is not None  # resolve_key proved runs exist
        run = newest
    report["campaign"] = key
    if view == "trend":
        report["trend"] = warehouse.trend(key)
        return report
    report["run"] = run
    if view == "phases":
        report["phases"] = warehouse.phase_breakdown(
            run_id=int(run["run_id"])
        )
        return report
    payload = warehouse.grid_payload(int(run["run_id"]))
    if view == "pareto":
        report["pareto"] = _pareto_front(payload["points"])
        return report
    report["points"] = payload["points"]
    report["failures"] = payload["failures"]
    return report


def render_report(report: Dict[str, Any]) -> str:
    """The text form of a :func:`build_report` record."""
    view = report["view"]
    if view == "runs":
        table = TextTable(
            ["run", "campaign", "source", "client", "job", "mode", "gap",
             "seed", "points", "failures", "recorded"],
            title="warehouse runs",
        )
        for run in report["runs"]:
            worst_gap = run.get("worst_gap")
            seeds = run.get("seeds") or []
            table.add_row([
                run["run_id"],
                _short(run["key"]),
                run["source"],
                run.get("client") or "-",
                run["job_id"] or "-",
                run.get("mode", "-"),
                "-" if worst_gap is None else f"{worst_gap:.2%}",
                ",".join(map(str, seeds)) or "-",
                run["num_points"],
                run["num_failures"],
                _stamp(run["created_at"]),
            ])
        return table.render()
    if view == "trend":
        table = TextTable(
            ["run", "recorded", "soc", "W", "B", "T"],
            title=f"campaign {_short(report['campaign'])} trend",
        )
        for row in report["trend"]:
            table.add_row([
                row["run_id"],
                _stamp(row["created_at"]),
                row["soc"],
                row["total_width"],
                row["num_tams"],
                row["testing_time"],
            ])
        return table.render()
    if view == "phases":
        table = TextTable(
            ["phase", "calls", "total_s", "max_s"],
            title=(
                f"campaign {_short(report['campaign'])} run "
                f"{report['run']['run_id']} phase breakdown"
            ),
        )
        for row in report["phases"]:
            table.add_row([
                row["path"],
                row["calls"],
                f"{row['total_s']:.4f}",
                f"{row['max_s']:.4f}",
            ])
        rendered = table.render()
        if not report["phases"]:
            rendered += (
                "\n(no spans recorded — run with tracing enabled:"
                " REPRO_TRACE=1 or serve/batch under --log-level"
                " debug)"
            )
        return rendered
    run = report["run"]
    if view == "pareto":
        table = grid_table(
            report["pareto"],
            title=(
                f"campaign {_short(report['campaign'])} run "
                f"{run['run_id']} Pareto front"
            ),
        )
        return table.render()
    table = grid_table(report["points"], title="batch sweep")
    lines = [table.render()]
    for failure in report.get("failures", []):
        lines.append(
            f"FAILED {failure['soc']} W={failure['total_width']}: "
            f"{failure['error_type']}: {failure['error_message']}"
        )
    return "\n".join(lines)
