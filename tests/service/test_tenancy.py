"""Multi-tenant hardening: identity, quotas, priorities, overload.

The acceptance scenarios for the tenancy layer: two clients share one
server without observing each other's jobs; quota exhaustion and
overload answer with *typed* rejections (never a dropped connection);
priority is granted by the registry, not the request; and none of it
changes computed results — a fixed grid is bit-identical with auth,
quotas and concurrency caps enabled.
"""

import json
import socket as socketlib
import threading

import pytest

import repro.service.server as server_module
from repro.api import GridSpec
from repro.engine.batch import BatchRunner
from repro.exceptions import (
    ConfigurationError,
    OverloadedError,
    QuotaExceededError,
    ServiceRejectionError,
    UnauthorizedError,
)
from repro.service.client import ServiceClient
from repro.service.ipc import IPCServer
from repro.service.journal import JOURNAL_NAME, JobJournal, JournalEntry
from repro.service.server import ExplorationServer, grid_payload
from repro.service.tenancy import (
    ANONYMOUS_CLIENT,
    AdmissionQueue,
    ClientIdentity,
    QuotaPolicy,
    TokenRegistry,
)

TOKENS = {
    "clients": {
        "alice": {
            "token": "alice-secret",
            "priority": "high",
            "quota": {"max_queued_jobs": 4},
        },
        "bob": {"token": "bob-secret"},
    }
}


@pytest.fixture
def tokens_file(tmp_path):
    path = tmp_path / "tokens.json"
    path.write_text(json.dumps(TOKENS))
    return path


@pytest.fixture
def gated():
    """A 1-worker server whose dispatcher blocks until released.

    The gate holds the dispatcher *inside* its first grid, so any
    further submissions sit in the admission queue deterministically
    — no sleeps, no racing the drain loop.
    """
    server = ExplorationServer(max_workers=1)
    gate = threading.Event()
    original = server.runner.run_iter

    def hold(jobs, **kwargs):
        gate.wait(timeout=300)
        return original(jobs, **kwargs)

    server.runner.run_iter = hold
    yield server, gate
    gate.set()
    server.shutdown()


def grid(source, widths, **options):
    return GridSpec.from_axes(
        [source], widths, num_tams=2, options=options
    )


def wait_running(server, job_id):
    import time

    deadline = time.monotonic() + 60
    while server.status(job_id)["status"] != "running":
        assert time.monotonic() < deadline, "job never started"
        time.sleep(0.005)


class TestTokenRegistry:
    def test_load_and_authenticate(self, tokens_file):
        registry = TokenRegistry.load(tokens_file)
        assert len(registry) == 2
        alice = registry.authenticate("alice-secret")
        assert alice.client_id == "alice"
        assert alice.priority == "high"
        assert alice.quota.max_queued_jobs == 4
        bob = registry.authenticate("bob-secret")
        assert bob.priority == "normal"
        assert bob.quota.max_queued_jobs is None

    def test_unknown_and_missing_tokens_raise(self, tokens_file):
        registry = TokenRegistry.load(tokens_file)
        with pytest.raises(UnauthorizedError):
            registry.authenticate("wrong-secret")
        with pytest.raises(UnauthorizedError):
            registry.authenticate(None)
        with pytest.raises(UnauthorizedError):
            registry.authenticate("")

    def test_identity_for_is_name_lookup(self, tokens_file):
        registry = TokenRegistry.load(tokens_file)
        assert registry.identity_for("alice").priority == "high"
        assert registry.identity_for("nobody") is None

    @pytest.mark.parametrize("doc", [
        "[]",
        '{"clients": []}',
        '{"clients": {"a": {"token": ""}}}',
        '{"clients": {"a": {"token": "t", "speed": "fast"}}}',
        '{"clients": {"a": {"token": "t", "priority": "urgent"}}}',
        '{"clients": {"a": {"token": "t"}, "b": {"token": "t"}}}',
        '{"clients": {"a": {"token": "t", '
        '"quota": {"max_queued_jobs": 0}}}}',
    ])
    def test_malformed_registries_fail_hard(self, tmp_path, doc):
        path = tmp_path / "tokens.json"
        path.write_text(doc)
        with pytest.raises(ConfigurationError):
            TokenRegistry.load(path)

    def test_missing_file_fails_hard(self, tmp_path):
        with pytest.raises(ConfigurationError):
            TokenRegistry.load(tmp_path / "absent.json")


class TestQuotaAndIdentity:
    def test_quota_validation(self):
        with pytest.raises(ConfigurationError):
            QuotaPolicy(max_grid_size=0)
        with pytest.raises(ConfigurationError):
            QuotaPolicy.from_dict({"max_cpus": 4})
        policy = QuotaPolicy.from_dict({"max_grid_size": 9})
        assert policy.to_dict()["max_grid_size"] == 9

    def test_priority_may_drop_but_never_rise(self):
        normal = ClientIdentity("c")
        assert normal.effective_priority(None) == "normal"
        assert normal.effective_priority("low") == "low"
        with pytest.raises(UnauthorizedError):
            normal.effective_priority("high")
        high = ClientIdentity("vip", priority="high")
        assert high.effective_priority("high") == "high"
        assert high.effective_priority("normal") == "normal"

    def test_anonymous_is_unlimited_normal(self):
        assert ANONYMOUS_CLIENT.priority == "normal"
        assert ANONYMOUS_CLIENT.quota.max_queued_jobs is None


class TestAdmissionQueue:
    def test_weighted_fair_drain_ratio(self):
        queue = AdmissionQueue()
        for i in range(8):
            queue.push(f"h{i}", "high")
            queue.push(f"n{i}", "normal")
            queue.push(f"l{i}", "low")
        popped = [queue.pop(timeout=1) for _ in range(7)]
        by_class = {
            cls: sum(1 for job in popped if job.startswith(cls))
            for cls in "hnl"
        }
        # One full WRR cycle under backlog serves exactly 4:2:1.
        assert by_class == {"h": 4, "n": 2, "l": 1}

    def test_low_is_slowed_never_starved(self):
        queue = AdmissionQueue()
        for i in range(14):
            queue.push(f"h{i}", "high")
            queue.push(f"l{i}", "low")
        popped = [queue.pop(timeout=1) for _ in range(12)]
        assert any(job.startswith("l") for job in popped)

    def test_fifo_within_a_class(self):
        queue = AdmissionQueue()
        queue.push("a", "normal")
        queue.push("b", "normal")
        assert queue.pop(timeout=1) == "a"
        assert queue.pop(timeout=1) == "b"

    def test_shed_candidate_is_newest_of_worst_class(self):
        queue = AdmissionQueue(max_depth=4)
        queue.push("n1", "normal")
        queue.push("l1", "low")
        queue.push("l2", "low")
        assert queue.shed_candidate("high") == ("l2", "low")
        # An arrival never sheds its own class or better.
        assert queue.shed_candidate("low") is None
        queue.remove("l1", "low")
        queue.remove("l2", "low")
        assert queue.shed_candidate("low") is None  # only normal left

    def test_remove_and_depth_stay_exact(self):
        queue = AdmissionQueue(max_depth=2)
        queue.push("a", "normal")
        queue.push("b", "low")
        assert queue.is_full()
        assert queue.remove("b", "low")
        assert not queue.remove("b", "low")
        assert queue.depth() == 1 and not queue.is_full()

    def test_bad_depth_and_priority_rejected(self):
        with pytest.raises(ConfigurationError):
            AdmissionQueue(max_depth=0)
        with pytest.raises(ConfigurationError):
            AdmissionQueue().push("x", "urgent")


class TestPerClientAccounting:
    def test_two_clients_are_isolated(self, tiny_soc_source, gated):
        server, gate = gated
        alice = ClientIdentity("alice", priority="high")
        bob = ClientIdentity("bob")
        blocker = server.submit(grid(tiny_soc_source, (4,)))
        wait_running(server, blocker.job_id)
        a_job = server.submit(grid(tiny_soc_source, (5,)), client=alice)
        b_job = server.submit(grid(tiny_soc_source, (6,)), client=bob)
        clients = server.info()["clients"]
        assert clients["alice"]["queued"] == 1
        assert clients["bob"]["queued"] == 1
        assert clients["anonymous"]["running"] == 1
        assert server.record(a_job.job_id).client_id == "alice"
        assert server.record(b_job.job_id).client_id == "bob"
        gate.set()
        for job in (blocker, a_job, b_job):
            assert server.wait(
                job.job_id, timeout=300
            ).status == "done"
        clients = server.info()["clients"]
        for name in ("alice", "bob"):
            assert clients[name]["queued"] == 0
            assert clients[name]["running"] == 0
            assert clients[name]["done"] == 1
        # Results stay per-job: each client reads back its own grid.
        assert server.result_payload(a_job.job_id) != \
            server.result_payload(b_job.job_id)

    def test_queued_jobs_quota_exhaustion(self, tiny_soc_source, gated):
        server, gate = gated
        alice = ClientIdentity(
            "alice", quota=QuotaPolicy(max_queued_jobs=1)
        )
        bob = ClientIdentity("bob")
        blocker = server.submit(grid(tiny_soc_source, (4,)))
        wait_running(server, blocker.job_id)
        server.submit(grid(tiny_soc_source, (5,)), client=alice)
        with pytest.raises(QuotaExceededError):
            server.submit(grid(tiny_soc_source, (6,)), client=alice)
        # Bob is not collateral damage of Alice's ceiling.
        server.submit(grid(tiny_soc_source, (6,)), client=bob)
        clients = server.info()["clients"]
        assert clients["alice"]["rejected"]["over_quota"] == 1
        assert clients["bob"]["rejected"]["over_quota"] == 0

    def test_grid_size_quota(self, tiny_soc_source, gated):
        server, _ = gated
        small = ClientIdentity(
            "small", quota=QuotaPolicy(max_grid_size=2)
        )
        with pytest.raises(QuotaExceededError):
            server.submit(grid(tiny_soc_source, (4, 5, 6)), client=small)

    def test_priority_escalation_is_unauthorized(
        self, tiny_soc_source, gated
    ):
        server, _ = gated
        low = ClientIdentity("bot", priority="low")
        with pytest.raises(UnauthorizedError):
            server.submit(
                grid(tiny_soc_source, (4,)), client=low, priority="high"
            )
        clients = server.info()["clients"]
        assert clients["bot"]["rejected"]["unauthorized"] == 1


class TestOverload:
    def test_sheds_lowest_priority_then_rejects_typed(
        self, tiny_soc_source, monkeypatch
    ):
        server = ExplorationServer(max_workers=1, max_queue_depth=2)
        gate = threading.Event()
        original = server.runner.run_iter

        def hold(jobs, **kwargs):
            gate.wait(timeout=300)
            return original(jobs, **kwargs)

        monkeypatch.setattr(server.runner, "run_iter", hold)
        try:
            high = ClientIdentity("vip", priority="high")
            blocker = server.submit(grid(tiny_soc_source, (4,)))
            wait_running(server, blocker.job_id)
            low1 = server.submit(grid(tiny_soc_source, (5,)), priority="low")
            low2 = server.submit(grid(tiny_soc_source, (6,)), priority="low")
            # Full queue + a better arrival: the *newest* low job is
            # sacrificed, the high one takes its slot.
            vip_job = server.submit(grid(tiny_soc_source, (7,)), client=high)
            assert server.status(low2.job_id)["status"] == "shed"
            assert server.status(low1.job_id)["status"] == "queued"
            assert server.status(vip_job.job_id)["status"] == "queued"
            info = server.info()
            assert info["jobs_shed"] == 1
            assert info["clients"]["anonymous"]["shed"] == 1
            # Full queue + nothing strictly worse queued: a typed
            # overload rejection with a retry hint, never a drop.
            with pytest.raises(OverloadedError) as exc:
                server.submit(grid(tiny_soc_source, (8,)), priority="low")
            assert exc.value.code == "overloaded"
            assert exc.value.retry_after is not None
            assert exc.value.retry_after > 0
            rejected = server.info()["clients"]["anonymous"]
            assert rejected["rejected"]["overloaded"] == 1
            gate.set()
            assert server.wait(
                vip_job.job_id, timeout=300
            ).status == "done"
            assert server.wait(
                low1.job_id, timeout=300
            ).status == "done"
        finally:
            gate.set()
            server.shutdown()

    def test_retry_after_grows_with_the_streak(
        self, tiny_soc_source, monkeypatch
    ):
        server = ExplorationServer(max_workers=1, max_queue_depth=1)
        gate = threading.Event()
        original = server.runner.run_iter

        def hold(jobs, **kwargs):
            gate.wait(timeout=300)
            return original(jobs, **kwargs)

        monkeypatch.setattr(server.runner, "run_iter", hold)
        try:
            blocker = server.submit(grid(tiny_soc_source, (4,)))
            wait_running(server, blocker.job_id)
            server.submit(grid(tiny_soc_source, (5,)))
            hints = []
            for width in (6, 7, 8):
                with pytest.raises(OverloadedError) as exc:
                    server.submit(grid(tiny_soc_source, (width,)))
                hints.append(exc.value.retry_after)
            assert hints == sorted(hints)
            assert hints[-1] > hints[0]
        finally:
            gate.set()
            server.shutdown()


class TestBitIdentity:
    def test_results_identical_with_tenancy_enabled(self, tiny_soc_source):
        """Scheduling policy must never leak into result content."""
        spec = grid(tiny_soc_source, (4, 6))
        jobs = spec.jobs()
        reference = BatchRunner(max_workers=2).run(jobs)
        tenant = ClientIdentity(
            "alice", priority="high",
            quota=QuotaPolicy(
                max_queued_jobs=2, max_concurrent_points=1,
                max_grid_size=8,
            ),
        )
        with ExplorationServer(
            max_workers=2, max_queue_depth=4
        ) as server:
            record = server.submit(
                spec, client=tenant, priority="low"
            )
            assert server.wait(
                record.job_id, timeout=300
            ).status == "done"
            assert server.result_payload(record.job_id) == \
                grid_payload(jobs, reference)
            assert record.max_concurrent == 1


class TestIPCAuth:
    @pytest.fixture
    def authed(self, tokens_file):
        exploration = ExplorationServer(
            max_workers=1, require_auth=True,
            tokens_path=tokens_file,
        )
        server = IPCServer(exploration, port=0).start()
        yield server
        server.stop()
        exploration.shutdown()

    def test_ping_needs_no_token(self, authed):
        host, port = authed.address
        with ServiceClient(host=host, port=port, timeout=60) as c:
            response = c.ping()
            assert response["pong"] and response["auth"]

    def test_missing_and_wrong_tokens_rejected_typed(self, authed):
        host, port = authed.address
        with ServiceClient(host=host, port=port, timeout=60) as c:
            with pytest.raises(UnauthorizedError):
                c.submit(["d695"], widths=[6], num_tams=2)
            assert c.ping()["pong"]  # connection survived
        with ServiceClient(
            host=host, port=port, timeout=60, token="wrong",
        ) as c:
            with pytest.raises(UnauthorizedError):
                c.submit(["d695"], widths=[6], num_tams=2)

    def test_jobs_are_owner_scoped(self, authed):
        host, port = authed.address
        with ServiceClient(
            host=host, port=port, timeout=300, token="alice-secret",
        ) as alice:
            job = alice.submit(["d695"], widths=[6], num_tams=2)
            alice.wait(job, timeout=300)
            assert alice.result(job)["failures"] == []
            with ServiceClient(
                host=host, port=port, timeout=60, token="bob-secret",
            ) as bob:
                for call in (bob.status, bob.result, bob.cancel):
                    with pytest.raises(UnauthorizedError):
                        call(job)
            # The owner still sees it after the intruder bounced.
            assert alice.status(job)["status"] == "done"

    def test_rejections_carry_machine_readable_codes(self, authed):
        host, port = authed.address
        with ServiceClient(host=host, port=port, timeout=60) as c:
            with pytest.raises(ServiceRejectionError) as exc:
                c.call({"op": "status", "job": "job-0001"})
            assert exc.value.code == "unauthorized"


class TestReplayRestoresAccounting:
    def test_journaled_client_identity_survives_restart(
        self, tmp_path
    ):
        spec = GridSpec.from_axes(["d695"], (6,), num_tams=2)
        cache = tmp_path / "cache"
        cache.mkdir()
        journal = JobJournal(cache / JOURNAL_NAME)
        journal.record_submitted(JournalEntry(
            job_id="job-0042",
            key=spec.canonical_key(),
            spec=spec.to_dict(),
            client_id="alice",
            priority="high",
        ))
        journal.close()
        with ExplorationServer(
            max_workers=1, cache_dir=cache
        ) as server:
            record = server.record("job-0001")
            assert record.client_id == "alice"
            assert record.priority == "high"
            assert server.wait(
                "job-0001", timeout=300
            ).status == "done"
            account = server.info()["clients"]["alice"]
            assert account["submitted"] == 1
            assert account["done"] == 1
            assert account["queued"] == 0

    def test_replay_reattaches_to_current_registry_entry(
        self, tmp_path
    ):
        """Quota edits between restarts apply to recovered work."""
        tokens = tmp_path / "tokens.json"
        tokens.write_text(json.dumps({"clients": {"alice": {
            "token": "s3cret", "priority": "high",
            "quota": {"max_concurrent_points": 1},
        }}}))
        spec = GridSpec.from_axes(["d695"], (6, 8), num_tams=2)
        cache = tmp_path / "cache"
        cache.mkdir()
        journal = JobJournal(cache / JOURNAL_NAME)
        journal.record_submitted(JournalEntry(
            job_id="job-0001",
            key=spec.canonical_key(),
            spec=spec.to_dict(),
            client_id="alice",
            priority="high",
        ))
        journal.close()
        with ExplorationServer(
            max_workers=1, cache_dir=cache,
            require_auth=True, tokens_path=tokens,
        ) as server:
            record = server.record("job-0001")
            assert record.max_concurrent == 1  # today's registry
            assert server.wait(
                "job-0001", timeout=300
            ).status == "done"

    def test_demoted_priority_never_loses_recovered_work(
        self, tmp_path
    ):
        """A journaled priority above today's class is clamped."""
        tokens = tmp_path / "tokens.json"
        tokens.write_text(json.dumps({"clients": {"alice": {
            "token": "s3cret", "priority": "low",
        }}}))
        spec = GridSpec.from_axes(["d695"], (6,), num_tams=2)
        cache = tmp_path / "cache"
        cache.mkdir()
        journal = JobJournal(cache / JOURNAL_NAME)
        journal.record_submitted(JournalEntry(
            job_id="job-0001",
            key=spec.canonical_key(),
            spec=spec.to_dict(),
            client_id="alice",
            priority="high",  # granted by a *previous* registry
        ))
        journal.close()
        with ExplorationServer(
            max_workers=1, cache_dir=cache,
            require_auth=True, tokens_path=tokens,
        ) as server:
            record = server.record("job-0001")
            assert record.priority == "low"
            assert server.wait(
                "job-0001", timeout=300
            ).status == "done"


class TestAuthConfig:
    def test_require_auth_without_registry_source_fails(self):
        from repro.exceptions import ServiceError

        with pytest.raises(ServiceError):
            ExplorationServer(max_workers=1, require_auth=True)


class TestIPCGuards:
    """Transport robustness: line cap and read deadline."""

    @pytest.fixture
    def exploration(self):
        with ExplorationServer(max_workers=1) as server:
            yield server

    def test_oversized_request_gets_typed_error_then_close(
        self, exploration
    ):
        server = IPCServer(
            exploration, port=0, max_request_bytes=256,
        ).start()
        try:
            sock = socketlib.create_connection(
                server.address, timeout=30
            )
            try:
                sock.sendall(
                    b'{"op": "ping", "pad": "'
                    + b"x" * 1024 + b'"}\n'
                )
                stream = sock.makefile("rb")
                response = json.loads(stream.readline())
                assert not response["ok"]
                assert response["code"] == "oversized"
                # No way back to a line boundary: server hangs up.
                assert stream.readline() == b""
            finally:
                sock.close()
        finally:
            server.stop()
        metrics = exploration.runner.metrics.snapshot()
        assert metrics.counter("ipc.oversized_requests") == 1

    def test_in_bounds_requests_are_unaffected(self, exploration):
        server = IPCServer(
            exploration, port=0, max_request_bytes=256,
        ).start()
        try:
            host, port = server.address
            with ServiceClient(host=host, port=port, timeout=60) as c:
                assert c.ping()["pong"]
        finally:
            server.stop()

    def test_stalled_connection_gets_typed_error_then_close(
        self, exploration
    ):
        server = IPCServer(
            exploration, port=0, read_timeout=0.3,
        ).start()
        try:
            sock = socketlib.create_connection(
                server.address, timeout=30
            )
            try:
                # Send *part* of a line, then stall: never a newline.
                sock.sendall(b'{"op": "pi')
                stream = sock.makefile("rb")
                response = json.loads(stream.readline())
                assert not response["ok"]
                assert response["code"] == "stalled"
                assert stream.readline() == b""
            finally:
                sock.close()
        finally:
            server.stop()
        metrics = exploration.runner.metrics.snapshot()
        assert metrics.counter("ipc.stalled_connections") == 1

    def test_guards_with_fault_plan_stay_bit_identical(
        self, monkeypatch
    ):
        """Seeded chaos through the guarded transport: results hold."""
        from repro.engine.faults import FAULTS_ENV

        monkeypatch.delenv(FAULTS_ENV, raising=False)
        spec = GridSpec.from_axes(["d695"], (8, 12), num_tams=2)
        with ExplorationServer(max_workers=1) as baseline_server:
            record = baseline_server.submit(spec)
            baseline_server.wait(record.job_id, timeout=300)
            baseline = json.dumps(
                baseline_server.result_payload(record.job_id),
                sort_keys=True, default=str,
            )
        monkeypatch.setenv(FAULTS_ENV, "seed=3,ipc@1")
        with ExplorationServer(max_workers=1) as exploration:
            server = IPCServer(
                exploration, port=0,
                max_request_bytes=1 << 16, read_timeout=60,
            ).start()
            try:
                host, port = server.address
                with ServiceClient(
                    host=host, port=port, timeout=120
                ) as client:
                    job = client.submit_grid(spec)
                    events = list(client.events(
                        job, reconnect=True, timeout=120,
                    ))
                monkeypatch.delenv(FAULTS_ENV)
                with ServiceClient(
                    host=host, port=port, timeout=120
                ) as client:
                    payload = client.result(job)
            finally:
                server.stop()
        assert [event["index"] for event in events] == [0, 1]
        baseline_doc = json.loads(baseline)
        assert payload["points"] == baseline_doc["points"]
        assert payload["failures"] == baseline_doc["failures"]


class TestJournalCompaction:
    def test_compacts_only_past_the_threshold(self, tmp_path):
        spec = GridSpec.from_axes(["d695"], (6,), num_tams=2)
        journal = JobJournal(tmp_path / "journal.jsonl")
        for index in range(6):
            job_id = f"job-{index:04d}"
            journal.record_submitted(JournalEntry(
                job_id=job_id, key=f"k{index}",
                spec=spec.to_dict(),
            ))
            journal.record_terminal(job_id, "done")
        open_entries = journal.replay()
        assert open_entries == []
        assert journal.last_replay_lines == 12
        assert not journal.compact_if_needed(open_entries, 100)
        assert journal.compactions == 0
        assert journal.compact_if_needed(open_entries, 5)
        assert journal.compactions == 1
        # The rewritten file holds only still-open work: nothing.
        assert journal.replay() == []
        assert journal.last_replay_lines == 0

    def test_startup_compaction_is_counted_in_health(
        self, tmp_path, monkeypatch
    ):
        spec = GridSpec.from_axes(["d695"], (6,), num_tams=2)
        cache = tmp_path / "cache"
        with ExplorationServer(
            max_workers=1, cache_dir=cache
        ) as server:
            record = server.submit(spec)
            assert server.wait(
                record.job_id, timeout=300
            ).status == "done"
        # The journal now carries settled lines; a restart past the
        # (tiny) threshold rewrites it and reports having done so.
        monkeypatch.setattr(server_module, "JOURNAL_COMPACT_THRESHOLD", 1)
        with ExplorationServer(
            max_workers=1, cache_dir=cache
        ) as reborn:
            assert reborn.info()["health"][
                "journal_compactions"
            ] >= 1
