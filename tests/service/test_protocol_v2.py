"""IPC protocol v2 and robustness: versioning, compat, streaming.

Covers the satellite checklist: malformed JSON lines, unknown ops,
unsupported protocol versions, a v1 client against the v2 server,
and a JobEvent streaming smoke test through ServiceClient.
"""

import json
import socket

import pytest

from repro.api import GridSpec, JobEvent
from repro.engine.batch import BatchJob, BatchRunner
from repro.exceptions import ServiceError
from repro.service.client import ServiceClient
from repro.service.ipc import IPCServer, handle_request
from repro.service.journal import JOURNAL_NAME
from repro.service.server import ExplorationServer


@pytest.fixture
def exploration():
    with ExplorationServer(max_workers=1) as server:
        yield server


@pytest.fixture
def ipc(exploration):
    server = IPCServer(exploration, port=0).start()
    yield server
    server.stop()


@pytest.fixture
def client(ipc):
    host, port = ipc.address
    with ServiceClient(host=host, port=port, timeout=120) as c:
        yield c


@pytest.fixture
def raw_socket(ipc):
    """A bare line-JSON connection, bypassing the typed client."""
    host, port = ipc.address
    sock = socket.create_connection((host, port), timeout=120)
    reader = sock.makefile("rb")
    yield sock, reader
    reader.close()
    sock.close()


def send_line(raw, text):
    sock, reader = raw
    sock.sendall(text.encode("utf-8") + b"\n")
    return json.loads(reader.readline())


class TestVersionNegotiation:
    def test_unsupported_version_is_an_error_response(self, exploration):
        response, stop = handle_request(
            exploration, {"v": 4, "op": "ping"}
        )
        assert not response["ok"]
        assert "unsupported protocol version" in response["error"]
        assert not stop

    def test_bool_version_is_rejected(self, exploration):
        response, _ = handle_request(
            exploration, {"v": True, "op": "ping"}
        )
        assert not response["ok"]

    def test_v2_responses_echo_the_version(self, exploration):
        response, _ = handle_request(exploration, {"v": 2, "op": "ping"})
        assert response["ok"] and response["v"] == 2

    def test_v1_responses_stay_untagged(self, exploration):
        response, _ = handle_request(exploration, {"op": "ping"})
        assert response["ok"] and "v" not in response


class TestRobustness:
    def test_malformed_json_line_keeps_connection_alive(self, raw_socket):
        response = send_line(raw_socket, "{this is not json")
        assert not response["ok"] and "bad request" in response["error"]
        assert send_line(raw_socket, '{"op":"ping"}')["pong"]

    def test_non_object_request_keeps_connection_alive(self, raw_socket):
        response = send_line(raw_socket, '["op", "ping"]')
        assert not response["ok"]
        assert send_line(raw_socket, '{"op":"ping"}')["pong"]

    def test_unknown_op_is_an_error_response(self, raw_socket):
        response = send_line(raw_socket, '{"op":"teleport"}')
        assert not response["ok"] and "unknown op" in response["error"]
        assert send_line(raw_socket, '{"op":"ping"}')["pong"]

    def test_unsupported_version_over_the_wire(self, raw_socket):
        response = send_line(raw_socket, '{"v": 99, "op":"ping"}')
        assert not response["ok"]
        assert "unsupported protocol version" in response["error"]
        assert send_line(raw_socket, '{"op":"ping"}')["pong"]

    def test_invalid_spec_is_rejected_at_the_boundary(self, raw_socket):
        request = {
            "v": 2, "op": "submit",
            "spec": {"schema": 1, "kind": "grid_spec", "socs": [],
                     "points": []},
        }
        response = send_line(raw_socket, json.dumps(request))
        assert not response["ok"]


class TestV1Compat:
    """A v1 client (plain dicts, no `v`) against the v2 server."""

    def test_v1_submit_still_runs_and_answers(self, raw_socket, d695):
        submit = send_line(raw_socket, json.dumps({
            "op": "submit", "socs": ["d695"], "widths": [8],
            "num_tams": 2,
        }))
        assert submit["ok"] and "v" not in submit
        job = submit["job"]
        done = send_line(raw_socket, json.dumps({
            "op": "wait", "job": job, "timeout": 300,
        }))
        assert done["status"] == "done"
        result = send_line(raw_socket, json.dumps({
            "op": "result", "job": job,
        }))
        assert result["ok"] and result["failures"] == []
        [point] = result["points"]
        [reference] = BatchRunner(max_workers=1).run(
            [BatchJob(d695, 8, 2)]
        )
        assert point["testing_time"] == reference.testing_time

    def test_v1_and_v2_submissions_share_one_memo(self, raw_socket):
        v1 = send_line(raw_socket, json.dumps({
            "op": "submit", "socs": ["d695"], "widths": [8],
            "num_tams": 2,
        }))
        send_line(raw_socket, json.dumps({
            "op": "wait", "job": v1["job"], "timeout": 300,
        }))
        grid = GridSpec.from_axes(["d695"], [8], num_tams=2)
        v2 = send_line(raw_socket, json.dumps({
            "v": 2, "op": "submit", "spec": grid.to_dict(),
        }))
        assert v2["ok"] and v2["cached"] and v2["v"] == 2

    @pytest.mark.parametrize("options", [
        pytest.param({"sweep_engine": "kernel"}, id="unknown-key"),
        pytest.param({"prune": "lb"}, id="wrong-type"),
        pytest.param({"polish": "yes"}, id="non-bool-polish"),
    ])
    def test_v1_bad_options_are_rejected_at_the_boundary(
        self, exploration, options
    ):
        response, _ = handle_request(exploration, {
            "op": "submit", "socs": ["d695"], "widths": [8],
            "num_tams": 2, "options": options,
        })
        assert not response["ok"] and "v" not in response
        assert exploration.info()["jobs"] == 0

    def test_v1_submit_is_journaled_and_replays(self, tmp_path):
        """A v1 grid survives a restart like a v2 one: its journal
        entry carries a spec, and a server restarted with the entry
        still open runs it again instead of marking it lost."""
        first_dir = tmp_path / "first"
        with ExplorationServer(
            max_workers=1, cache_dir=first_dir
        ) as server:
            submit, _ = handle_request(server, {
                "op": "submit", "socs": ["d695"], "widths": [8],
                "num_tams": 2,
            })
            assert submit["ok"] and "v" not in submit
            server.wait(submit["job"], timeout=300)
            expected = server.result_payload(submit["job"])
        [submitted] = [
            line for line in (
                first_dir / JOURNAL_NAME
            ).read_text().splitlines()
            if json.loads(line)["kind"] == "submitted"
        ]
        assert json.loads(submitted)["spec"] is not None
        # The crash: a fresh cache directory (no grid memo) whose
        # journal holds only the accepted, never-finished entry.
        reborn_dir = tmp_path / "reborn"
        reborn_dir.mkdir()
        (reborn_dir / JOURNAL_NAME).write_text(submitted + "\n")
        with ExplorationServer(
            max_workers=1, cache_dir=reborn_dir
        ) as reborn:
            health = reborn.info()["health"]
            assert health["journal_unreplayable"] == 0
            assert health["journal_replays"] == 1
            record = reborn.wait("job-0001", timeout=300)
            assert record.status == "done" and not record.cached
            assert reborn.result_payload("job-0001") == expected


class TestEventStreaming:
    def test_events_stream_one_line_per_point(self, client):
        job_id = client.submit_grid(
            GridSpec.from_axes(["d695"], [6, 8, 10], num_tams=2)
        )
        events = list(client.events(job_id, timeout=300))
        assert len(events) == 3
        assert [e["index"] for e in events] == [0, 1, 2]
        assert all(e["total"] == 3 for e in events)
        assert all(e["kind"] == "point" for e in events)
        assert all(e["payload"]["soc"] == "d695" for e in events)
        # Typed decoding round-trips each line.
        decoded = [JobEvent.from_dict(e) for e in events]
        assert [e.seq for e in decoded] == [0, 1, 2]
        # The connection still serves regular ops afterwards.
        assert client.ping()["pong"]

    def test_events_resume_from_cursor(self, client):
        job_id = client.submit_grid(
            GridSpec.from_axes(["d695"], [6, 8], num_tams=2)
        )
        list(client.events(job_id, timeout=300))  # run to completion
        tail = list(client.events(job_id, start=1, timeout=60))
        assert [e["index"] for e in tail] == [1]

    def test_failed_points_stream_as_failed_events(self, client):
        job_id = client.submit(
            ["d695"], widths=[8], num_tams=2,
            options={"enumerator": "bogus"},
        )
        [event] = list(client.events(job_id, timeout=300))
        assert event["kind"] == "failed"
        assert event["payload"]["error_type"] == "ConfigurationError"

    def test_events_for_unknown_job_raise(self, client):
        with pytest.raises(ServiceError):
            list(client.events("job-9999", timeout=10))

    def test_cursor_resumes_a_synthesized_stream(self, client):
        """Regression: `from` must work on memo-answered records too."""
        grid = GridSpec.from_axes(["d695"], [6, 8], num_tams=2)
        first = client.submit_grid(grid)
        list(client.events(first, timeout=300))
        cached = client.submit_grid(grid)
        assert client.status(cached)["cached"]
        tail = list(client.events(cached, start=1, timeout=60))
        assert [e["index"] for e in tail] == [1]

    def test_memo_hit_synthesizes_the_stream(self, client):
        grid = GridSpec.from_axes(["d695"], [8], num_tams=2)
        first = client.submit_grid(grid)
        list(client.events(first, timeout=300))
        second = client.submit_grid(grid)
        assert client.status(second)["cached"]
        [event] = list(client.events(second, timeout=60))
        assert event["kind"] == "point"
        assert event["job"] == second


class TestV2SubmitEndToEnd:
    def test_submit_grid_matches_inline_engine(self, client, d695):
        grid = GridSpec.from_axes(["d695"], [8, 12], num_tams=2)
        job_id = client.submit_grid(grid)
        record = client.wait(job_id, timeout=300)
        assert record["status"] == "done"
        result = client.result(job_id)
        reference = BatchRunner(max_workers=1).run(grid.jobs())
        by_width = {p["total_width"]: p for p in result["points"]}
        for point in reference:
            assert by_width[point.total_width]["testing_time"] == \
                point.testing_time
