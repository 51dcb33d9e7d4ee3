"""Job-record retention bounds and the cross-restart grid memo."""

import pytest

from repro.api import GridSpec
from repro.engine.batch import BatchRunner
from repro.exceptions import ServiceError
from repro.service.ipc import spec_from_request
from repro.service.server import ExplorationServer
from repro.service.store import GridMemo
from repro.soc.itc02 import write_soc
from repro.soc.soc import Soc


def grid(widths=(8,), num_tams=2, source="d695"):
    return GridSpec.from_axes([source], widths, num_tams=num_tams)


class TestRecordRetention:
    def test_default_keeps_every_record(self, tiny_soc_source):
        with ExplorationServer(max_workers=1) as server:
            for width in (4, 5, 6):
                record = server.submit(
                    grid((width,), source=tiny_soc_source)
                )
                server.wait(record.job_id, timeout=120)
            info = server.info()
            assert info["jobs"] == 3
            assert info["records_evicted"] == 0

    def test_oldest_terminal_records_are_evicted(self, tiny_soc_source):
        with ExplorationServer(max_workers=1, max_records=2) as server:
            ids = []
            for width in (4, 5, 6, 7):
                record = server.submit(grid((width,), source=tiny_soc_source))
                server.wait(record.job_id, timeout=120)
                ids.append(record.job_id)
            # One more submission triggers eviction of the oldest.
            last = server.submit(grid((8,), source=tiny_soc_source))
            server.wait(last.job_id, timeout=120)
            info = server.info()
            assert info["records_evicted"] >= 2
            with pytest.raises(ServiceError):
                server.status(ids[0])
            # The newest records are still answerable.
            assert server.status(last.job_id)["status"] == "done"

    def test_eviction_drops_stale_memo_entries(self, tiny_soc_source):
        with ExplorationServer(max_workers=1, max_records=1) as server:
            first = server.submit(grid((4,), source=tiny_soc_source))
            server.wait(first.job_id, timeout=120)
            other = server.submit(grid((5,), source=tiny_soc_source))
            server.wait(other.job_id, timeout=120)
            third = server.submit(grid((6,), source=tiny_soc_source))
            server.wait(third.job_id, timeout=120)
            # The first grid's record was evicted; resubmitting it
            # must re-run (no dangling memo pointer), not crash.
            again = server.submit(grid((4,), source=tiny_soc_source))
            final = server.wait(again.job_id, timeout=120)
            assert final.status == "done"

    def test_no_eviction_while_under_the_bound(self, tiny_soc_source):
        """Regression: a generous bound must never evict anything."""
        with ExplorationServer(max_workers=1, max_records=10) as server:
            ids = []
            for width in (4, 5, 6):
                record = server.submit(grid((width,), source=tiny_soc_source))
                server.wait(record.job_id, timeout=120)
                ids.append(record.job_id)
            assert server.info()["records_evicted"] == 0
            for job_id in ids:
                assert server.status(job_id)["status"] == "done"

    def test_invalid_bound_rejected(self):
        with pytest.raises(ServiceError):
            ExplorationServer(
                runner=BatchRunner(max_workers=1), max_records=0,
            )


class TestPersistedMemo:
    def test_identical_grid_is_cached_across_restart(self, tmp_path):
        cache_dir = tmp_path / "cache"
        spec = grid(widths=(8, 12))
        with ExplorationServer(
            max_workers=1, cache_dir=cache_dir
        ) as server:
            record = server.submit(spec)
            done = server.wait(record.job_id, timeout=300)
            assert done.status == "done" and not done.cached
            payload_before = server.result_payload(record.job_id)
            assert len(GridMemo(cache_dir / "grid-memo")) == 1

        # A brand-new server process on the same cache directory.
        with ExplorationServer(
            max_workers=1, cache_dir=cache_dir
        ) as reborn:
            replay = reborn.submit(spec)
            assert replay.cached
            assert replay.status == "done"
            assert reborn.result_payload(replay.job_id) == \
                payload_before
            assert reborn.info()["memo_hits"] == 1
            # Events synthesize from the persisted payload.
            events = list(reborn.events(replay.job_id, timeout=30))
            assert len(events) == 2
            assert {event.kind for event in events} == {"point"}

    def test_restart_memo_answers_v1_style_job_lists(self, tmp_path):
        """The memo key is canonical content, not the wire format."""
        cache_dir = tmp_path / "cache"
        with ExplorationServer(
            max_workers=1, cache_dir=cache_dir
        ) as server:
            record = server.submit(grid())
            server.wait(record.job_id, timeout=300)
        with ExplorationServer(
            max_workers=1, cache_dir=cache_dir
        ) as reborn:
            replay = reborn.submit(spec_from_request(
                {"socs": ["d695"], "widths": [8], "num_tams": 2}
            ))
            assert replay.cached

    def test_memo_hits_carry_the_submitted_soc_names(
        self, tmp_path, d695
    ):
        """The memo matches SOCs by content; a structurally identical
        SOC under another name gets its own name back, from the
        in-process memo and from the persisted one alike."""
        cache_dir = tmp_path / "cache"
        twin = str(tmp_path / "twin.soc")
        write_soc(Soc(name="twin", cores=d695.cores), twin)
        with ExplorationServer(
            max_workers=1, cache_dir=cache_dir
        ) as server:
            record = server.submit(grid())
            server.wait(record.job_id, timeout=300)
            original = server.result_payload(record.job_id)
            hit = server.submit(grid(source=twin))
            assert hit.cached
            in_process = server.result_payload(hit.job_id)
        with ExplorationServer(
            max_workers=1, cache_dir=cache_dir
        ) as reborn:
            hit = reborn.submit(grid(source=twin))
            assert hit.cached
            persisted = reborn.result_payload(hit.job_id)
            [event] = reborn.events(hit.job_id, timeout=30)
        expected = [
            dict(point, soc="twin") for point in original["points"]
        ]
        assert in_process["points"] == persisted["points"] == expected
        assert event.payload["soc"] == "twin"
        # The source record keeps its own name.
        assert [point["soc"] for point in original["points"]] == ["d695"]

    def test_corrupt_memo_record_is_a_miss(self, tmp_path):
        cache_dir = tmp_path / "cache"
        with ExplorationServer(
            max_workers=1, cache_dir=cache_dir
        ) as server:
            record = server.submit(grid())
            server.wait(record.job_id, timeout=300)
        memo = GridMemo(cache_dir / "grid-memo")
        [entry] = memo.entries()
        entry.write_text("{not json")
        with ExplorationServer(
            max_workers=1, cache_dir=cache_dir
        ) as reborn:
            replay = reborn.submit(grid())
            assert not replay.cached  # corrupt entry ignored, re-run
            assert reborn.wait(
                replay.job_id, timeout=300
            ).status == "done"

    def test_without_cache_dir_nothing_is_persisted(self):
        with ExplorationServer(max_workers=1) as server:
            assert server.grid_memo is None
            assert not server.info()["persistent_memo"]


class TestGridMemoStore:
    def test_save_load_round_trip(self, tmp_path):
        memo = GridMemo(tmp_path)
        payload = {"points": [{"soc": "d695"}], "failures": []}
        assert memo.save("abc123", payload, num_jobs=1)
        assert memo.load("abc123") == payload

    def test_key_mismatch_is_a_miss(self, tmp_path):
        memo = GridMemo(tmp_path)
        memo.save("abc123", {"points": [], "failures": []}, num_jobs=0)
        # A record renamed to another key must not answer it.
        (tmp_path / "abc123.json").rename(tmp_path / "zzz999.json")
        assert memo.load("zzz999") is None

    def test_newer_schema_record_is_a_miss_but_survives(self, tmp_path):
        """A rolled-back build must not destroy a newer build's memo."""
        import json

        memo = GridMemo(tmp_path)
        (tmp_path / "abc123.json").write_text(json.dumps({
            "schema": 999, "kind": "grid_memo", "key": "abc123",
            "num_jobs": 1, "points": [], "failures": [],
        }))
        assert memo.load("abc123") is None
        assert (tmp_path / "abc123.json").exists()

    def test_clear_removes_entries(self, tmp_path):
        memo = GridMemo(tmp_path)
        memo.save("k1", {"points": [], "failures": []}, num_jobs=0)
        memo.save("k2", {"points": [], "failures": []}, num_jobs=0)
        assert len(memo) == 2
        assert memo.clear() == 2
        assert len(memo) == 0
