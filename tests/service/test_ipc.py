"""Protocol tests: JSON IPC dispatch, socket server, Python client."""

import time

import pytest

from repro.engine.batch import BatchJob, BatchRunner
from repro.exceptions import ReproError, ServiceError
from repro.service.client import ServiceClient, run_grid_remotely
from repro.service.ipc import IPCServer, handle_request, spec_from_request
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


class TestJobsFromRequest:
    """The jobs of the spec a v1 ``submit`` request folds into."""

    def test_mirrors_batch_cli_grid(self):
        jobs = spec_from_request({
            "socs": ["d695"], "widths": [8, 12], "num_tams": 2,
        }).jobs()
        assert [(j.soc.name, j.total_width, j.num_tams) for j in jobs] \
            == [("d695", 8, 2), ("d695", 12, 2)]

    def test_bmax_expands_to_npaw_counts(self):
        jobs = spec_from_request({
            "socs": ["d695"], "widths": [8], "bmax": 3,
        }).jobs()
        assert jobs[0].num_tams == (1, 2, 3)

    def test_count_list_is_frozen(self):
        jobs = spec_from_request({
            "socs": ["d695"], "widths": [8], "num_tams": [1, 2],
        }).jobs()
        assert jobs[0].num_tams == (1, 2)

    def test_options_are_forwarded(self):
        jobs = spec_from_request({
            "socs": ["d695"], "widths": [8], "num_tams": 2,
            "options": {"polish": False},
        }).jobs()
        assert jobs[0].options_dict() == {"polish": False}

    @pytest.mark.parametrize("request_body", [
        {"widths": [8]},
        {"socs": ["d695"]},
        {"socs": [], "widths": [8]},
        {"socs": ["d695"], "widths": []},
        {"socs": ["no_such_soc"], "widths": [8]},
        {"socs": ["d695"], "widths": [8], "options": "polish"},
    ])
    def test_bad_requests_raise(self, request_body):
        with pytest.raises(ReproError):
            spec_from_request(request_body).jobs()


class TestDispatch:
    """handle_request drives the server without any sockets."""

    def test_ping(self, exploration):
        response, stop = handle_request(exploration, {"op": "ping"})
        assert response["ok"] and response["pong"] and not stop

    def test_unknown_op_is_an_error_response(self, exploration):
        response, stop = handle_request(exploration, {"op": "nope"})
        assert not response["ok"] and "unknown op" in response["error"]
        assert not stop

    def test_unknown_job_is_an_error_response(self, exploration):
        response, _ = handle_request(
            exploration, {"op": "status", "job": "job-1234"}
        )
        assert not response["ok"]

    def test_shutdown_op_signals_stop(self, exploration):
        response, stop = handle_request(exploration, {"op": "shutdown"})
        assert response["ok"] and stop


class TestClientRoundTrip:
    def test_submit_wait_result_matches_inline_engine(
        self, client, d695
    ):
        job_id = client.submit(["d695"], widths=[8, 12], num_tams=2)
        record = client.wait(job_id, timeout=300)
        assert record["status"] == "done"
        result = client.result(job_id)
        assert result["failures"] == []

        reference = BatchRunner(max_workers=1).run([
            BatchJob(d695, 8, 2), BatchJob(d695, 12, 2),
        ])
        by_width = {p["total_width"]: p for p in result["points"]}
        for point in reference:
            remote = by_width[point.total_width]
            assert remote["testing_time"] == point.testing_time
            assert tuple(remote["partition"]) == point.partition
            assert remote["soc"] == "d695"

    def test_second_identical_submission_is_cached(self, client):
        first = client.submit(["d695"], widths=[8], num_tams=2)
        client.wait(first, timeout=300)
        second = client.submit(["d695"], widths=[8], num_tams=2)
        status = client.status(second)
        assert status["cached"] and status["status"] == "done"
        assert client.result(second)["points"] == \
            client.result(first)["points"]

    def test_failures_are_reported_per_point(self, client):
        job_id = client.submit(
            ["d695"], widths=[8], num_tams=2,
            options={"enumerator": "bogus"},
        )
        client.wait(job_id, timeout=300)
        result = client.result(job_id)
        assert result["points"] == []
        [failure] = result["failures"]
        assert failure["error_type"] == "ConfigurationError"
        assert failure["soc"] == "d695"

    def test_server_side_errors_raise_service_error(self, client):
        with pytest.raises(ServiceError):
            client.status("job-9999")
        with pytest.raises(ServiceError):
            client.submit(["no_such_soc"], widths=[8])

    def test_run_grid_remotely_one_shot(self, client):
        result = run_grid_remotely(
            client, ["d695"], widths=[6], num_tams=2, timeout=300,
        )
        assert len(result["points"]) == 1

    def test_connection_refused_raises_service_error(self):
        with pytest.raises(ServiceError):
            ServiceClient(port=1, timeout=0.5)


class TestShutdownOp:
    def test_shutdown_stops_listener_and_service(self, tiny_soc):
        exploration = ExplorationServer(max_workers=1)
        ipc = IPCServer(exploration, port=0).start()
        host, port = ipc.address
        with ServiceClient(host=host, port=port, timeout=60) as client:
            client.shutdown()
        # A fresh connection must now fail: the listener is gone.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                probe = ServiceClient(host=host, port=port, timeout=0.2)
            except ServiceError:
                break
            probe.close()
            time.sleep(0.05)
        else:
            pytest.fail("listener still accepting after shutdown op")


class TestMalformedFieldTypes:
    """Bad field *types* get an error response, not a dead socket."""

    @pytest.mark.parametrize("request_body", [
        {"op": "submit", "socs": ["d695"], "widths": ["x"]},
        {"op": "submit", "socs": ["d695"], "widths": [8],
         "num_tams": "two"},
        {"op": "submit", "socs": ["d695"], "widths": [8],
         "num_tams": 2, "options": {"polish": ["unhashable"]}},
        {"op": "wait", "job": "job-0001", "timeout": "soon"},
    ])
    def test_error_response_keeps_connection_alive(
        self, client, request_body
    ):
        with pytest.raises(ServiceError):
            client.call(request_body)
        assert client.ping()["pong"]  # same connection still serves
