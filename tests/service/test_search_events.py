"""The service's search surface: incumbent streaming and health.

A ``mode="search"`` grid point streams its convergence trail —
``incumbent`` events, one per strict improvement, before the point's
terminal event — and the server's ``info()`` exposes the search
counters the engine posted.
"""

import pytest

from repro.api.specs import GridSpec
from repro.obs.report import format_event_line
from repro.service.server import ExplorationServer

SEARCH_OPTIONS = {
    "mode": "search",
    "search_strategy": "ga",
    "seed": 7,
    "eval_budget": 1200,
}


def search_grid(widths=(16,)):
    return GridSpec.from_axes(
        socs=["d695"], widths=list(widths), num_tams=(1, 2, 3),
        options=SEARCH_OPTIONS,
    )


@pytest.fixture
def server():
    with ExplorationServer(max_workers=1) as srv:
        yield srv


class TestIncumbentStream:
    def test_trail_precedes_the_point_event(self, server):
        record = server.submit(search_grid())
        events = list(server.events(record.job_id, timeout=120))
        kinds = [event.kind for event in events]
        assert kinds[-1] == "point"
        incumbents = events[:-1]
        assert incumbents, "a search always improves at least once"
        assert all(
            event.kind == "incumbent" for event in incumbents
        )

    def test_seq_is_the_append_position(self, server):
        record = server.submit(search_grid())
        events = list(server.events(record.job_id, timeout=120))
        assert [event.seq for event in events] == list(
            range(len(events))
        )
        # The `from` cursor resumes mid-trail without duplication.
        resumed = list(
            server.events(record.job_id, start=1, timeout=120)
        )
        assert [event.seq for event in resumed] == [
            event.seq for event in events[1:]
        ]

    def test_payload_carries_the_convergence_record(self, server):
        record = server.submit(search_grid())
        events = list(server.events(record.job_id, timeout=120))
        trail = [
            event.payload for event in events
            if event.kind == "incumbent"
        ]
        times = [entry["time"] for entry in trail]
        assert times == sorted(times, reverse=True)
        for entry in trail:
            assert entry["soc"] == "d695"
            assert entry["gap"] == pytest.approx(
                entry["time"] / entry["bound"] - 1.0
            )
        # The terminal point matches the trail's floor or improves on
        # it (the exact polish may beat the heuristic incumbent).
        point = events[-1].payload
        assert point["testing_time"] <= times[-1]
        assert point["mode"] == "search"
        assert point["seed"] == 7

    def test_incumbent_line_rendering(self, server):
        record = server.submit(search_grid())
        events = list(server.events(record.job_id, timeout=120))
        line, failed = format_event_line(events[0].to_dict())
        assert not failed
        assert "incumbent" in line and "gap=" in line


class TestSearchHealth:
    def test_info_exposes_search_counters(self, server):
        record = server.submit(search_grid())
        server.wait(record.job_id, timeout=120)
        search = server.info()["search"]
        assert search["points"] == 1
        assert search["evals"] == 1200
        assert search["improvements"] >= 1
        # islands_run counts *fanned* islands; an inline server runs
        # them inside the point (the pooled count is asserted by the
        # engine's worker-identity tests).
        assert search["islands_run"] == 0
        assert search["last_gap"] >= 0.0

    def test_exact_grids_stream_without_incumbents(self, server):
        spec = GridSpec.from_axes(
            socs=["d695"], widths=[8], num_tams=2,
        )
        record = server.submit(spec)
        events = list(server.events(record.job_id, timeout=120))
        assert [event.kind for event in events] == ["point"]
        assert server.info()["search"]["points"] == 0
