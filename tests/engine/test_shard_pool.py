"""Engine-level sharding: pool execution, transports, and counters."""

import dataclasses
import multiprocessing
import pickle

import pytest

from repro.engine.batch import BatchJob, BatchRunner
from repro.engine.shm import IncumbentBoard, SegmentRegistry
from repro.api.specs import GridSpec
from repro.soc.fingerprint import soc_fingerprint
from repro.wrapper.pareto import build_time_tables


class TestShardedPoolIdentity:
    def test_sharded_job_matches_inline_and_plain_pool(self, tiny_soc):
        jobs = [BatchJob(tiny_soc, 10, (1, 2, 3))]
        inline = BatchRunner(max_workers=1).run(jobs)
        plain = BatchRunner(max_workers=2, shard=None).run(jobs)
        sharded_runner = BatchRunner(max_workers=2, shard=4)
        sharded = sharded_runner.run(jobs)
        assert inline == plain == sharded
        assert sharded_runner.jobs_sharded == 1

    def test_shard_hint_via_grid_spec_runner(self, tiny_soc,
                                             monkeypatch):
        import repro.soc.loader as loader

        monkeypatch.setattr(
            loader, "load_source",
            lambda source: tiny_soc,
        )
        spec = GridSpec.from_axes(
            ["tiny"], [8, 10], num_tams=2, runner={"shard": 3},
        )
        runner = BatchRunner(max_workers=2)
        grid = runner.run_grid(spec)
        assert runner.jobs_sharded == len(grid) == 2
        reference = BatchRunner(max_workers=1).run(
            [BatchJob(tiny_soc, width, 2) for width in (8, 10)]
        )
        assert [result for _, result in grid] == reference

    def test_shard_hint_excluded_from_canonical_key(self, tiny_soc,
                                                    monkeypatch):
        import repro.soc.loader as loader

        monkeypatch.setattr(loader, "load_source",
                            lambda source: tiny_soc)
        plain = GridSpec.from_axes(["tiny"], [8], num_tams=2)
        hinted = GridSpec.from_axes(
            ["tiny"], [8], num_tams=2, runner={"shard": 16},
        )
        assert plain.canonical_key() == hinted.canonical_key()
        # ...but the hint survives serialization.
        assert GridSpec.from_dict(
            hinted.to_dict()
        ).runner_options() == {"shard": 16}

    def test_auto_policy_skips_small_and_crowded_grids(self, tiny_soc):
        runner = BatchRunner(max_workers=2, shard="auto")
        job = BatchJob(tiny_soc, 10, 2)
        # Small enumeration: p(10, 2) is far below the auto floor.
        assert runner._shard_count(job, None, 4, 1) == 0
        # Jobs >= workers: whole-job parallelism already saturates.
        assert runner._shard_count(job, None, 4, 4) == 0
        # Explicit override shards regardless of size.
        assert runner._shard_count(job, 3, 4, 4) == 3

    def test_non_shardable_options_fall_back(self, tiny_soc):
        runner = BatchRunner(max_workers=2, shard=4)
        stratified = BatchJob(
            tiny_soc, 10, (1, 2),
            options={"polish_per_tam_count": True, "polish_top_k": 2},
        )
        assert runner._shard_count(stratified, None, 2, 1) == 0
        increment = BatchJob(
            tiny_soc, 10, 2, options={"enumerator": "increment"},
        )
        assert runner._shard_count(increment, None, 2, 1) == 0
        # And the runs still succeed (served by whole-job dispatch).
        inline = BatchRunner(max_workers=1).run([stratified, increment])
        pooled = runner.run([stratified, increment])
        assert inline == pooled
        assert runner.jobs_sharded == 0

    def test_shard_validation(self, tiny_soc):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            BatchRunner(shard=-1)
        with pytest.raises(ConfigurationError):
            BatchRunner(shard="sideways")
        # The per-call override — the path an untrusted submitted
        # GridSpec runner hint arrives through — is validated too.
        runner = BatchRunner(max_workers=1)
        job = BatchJob(tiny_soc, 6, 2)
        with pytest.raises(ConfigurationError):
            runner.run([job], shard="garbage")
        with pytest.raises(ConfigurationError):
            runner.run([job], shard=-3)

    def test_single_unshardable_job_runs_inline(self, tiny_soc):
        # One job, no sharding: the old inline path (no pool spawn).
        runner = BatchRunner(max_workers=4, shard=None)
        results = runner.run([BatchJob(tiny_soc, 8, 2)])
        assert runner.pools_started == 0
        assert results == BatchRunner(max_workers=1).run(
            [BatchJob(tiny_soc, 8, 2)]
        )


class TestPooledColdBuilds:
    def test_cold_multi_soc_grid_builds_through_pool(
        self, tiny_soc, d695, p21241
    ):
        socs = [tiny_soc, d695, p21241]
        jobs = [BatchJob(soc, 12, 2) for soc in socs]
        serial = BatchRunner(max_workers=1).run(jobs)
        pooled_runner = BatchRunner(max_workers=2)
        pooled = pooled_runner.run(jobs)
        assert serial == pooled

    def test_sharded_cold_grid_finishes_on_pool_built_tables(
        self, tiny_soc, d695, p21241
    ):
        # Two or more cold SOCs build their tables on the pool; the
        # parent then merges, polishes and certifies each sharded job
        # on the tables that came back.
        jobs = [
            BatchJob(soc, 12, (1, 2)) for soc in (tiny_soc, d695, p21241)
        ]
        inline = BatchRunner(max_workers=1).run(jobs)
        runner = BatchRunner(max_workers=2, shard=2)
        assert runner.run(jobs) == inline
        assert runner.jobs_sharded == 3
        assert runner._caches == {}  # the parent built no tables

    def test_warm_parent_reuses_matrices_across_runs(self, tiny_soc):
        with BatchRunner(max_workers=2, persistent=True, shard=2) as runner:
            jobs = [BatchJob(tiny_soc, 10, 2)]
            first = runner.run(jobs)
            fingerprint = soc_fingerprint(tiny_soc)
            matrix = runner._matrices[fingerprint]
            assert runner.run(jobs) == first
            assert runner._matrices[fingerprint] is matrix

    def test_whole_point_grid_builds_no_parent_matrix(self, tiny_soc):
        # Only a fanned job reads a matrix in the parent; whole-point
        # jobs ship the tables and build their matrices on the workers.
        jobs = [BatchJob(tiny_soc, w, 2) for w in (8, 10)]
        with BatchRunner(max_workers=2, persistent=True) as runner:
            assert runner.run(jobs) == BatchRunner(max_workers=1).run(jobs)
            assert runner.pools_started == 1
            assert soc_fingerprint(tiny_soc) in runner._tables
            assert runner._matrices == {}


class TestRenamedCores:
    """One descriptor serves every SOC of the same structure."""

    @staticmethod
    def renamed(soc):
        # Same structure, so the same fingerprint, other core names.
        return dataclasses.replace(soc, name="tiny-renamed", cores=[
            dataclasses.replace(core, name=f"renamed_{core.name}")
            for core in soc.cores
        ])

    @pytest.mark.parametrize("shard", [None, 2])
    def test_pool_matches_inline_over_renamed_copy(self, tiny_soc, shard):
        copy = self.renamed(tiny_soc)
        assert soc_fingerprint(copy) == soc_fingerprint(tiny_soc)
        jobs = [BatchJob(soc, w, (1, 2)) for soc in (tiny_soc, copy)
                for w in (6, 8)]
        inline = BatchRunner(max_workers=1).run(jobs)
        runner = BatchRunner(max_workers=2, shard=shard)
        assert runner.run(jobs) == inline
        assert runner.jobs_sharded == (len(jobs) if shard else 0)

    def test_persistent_runner_serves_renamed_copy_later(self, tiny_soc):
        copy = self.renamed(tiny_soc)
        with BatchRunner(max_workers=2, persistent=True, shard=2) as runner:
            for soc in (tiny_soc, copy):
                jobs = [BatchJob(soc, w, 2) for w in (6, 8)]
                assert runner.run(jobs) == \
                    BatchRunner(max_workers=1).run(jobs)


class TestStaircaseTransport:
    def test_descriptor_carries_design_staircases(self, tiny_soc):
        tables = build_time_tables(tiny_soc, 10)
        table_list = [tables[c.name] for c in tiny_soc.cores]
        descriptor = SegmentRegistry().publish(
            "fp-stairs", table_list, 10
        )
        shipped = pickle.loads(descriptor.payload)
        assert [table.core.name for table in shipped] == \
            [core.name for core in tiny_soc.cores]
        for table, copy in zip(table_list, shipped):
            assert copy.staircase() == table.staircase()

    def test_worker_job_pays_zero_designs_with_staircases(
        self, tiny_soc, monkeypatch
    ):
        import repro.wrapper.pareto as pareto

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers inherit the patch only when forked")
        jobs = [BatchJob(tiny_soc, width, 2) for width in (6, 8)]
        inline = BatchRunner(max_workers=1).run(jobs)
        runner = BatchRunner(max_workers=2)
        runner.cache_for(tiny_soc).ensure(8)

        def exploding(core, width):
            raise AssertionError("Design_wrapper ran after the build")

        # Forked after the patch, the workers inherit it: once the
        # parent holds the tables, neither side runs a design.
        monkeypatch.setattr(pareto, "design_wrapper", exploding)
        assert runner.run(jobs) == inline


class TestIncumbentBoardShm:
    def test_round_trip_and_forward_only_reads(self):
        board = IncumbentBoard.create(3, keep_top=2)
        if board is None:
            pytest.skip("shared memory unavailable")
        try:
            board.publish(0, [7])
            board.publish(2, [1, 2])
            attached = IncumbentBoard.attach(board.descriptor())
            try:
                assert attached.earlier_times(0) == []
                assert attached.earlier_times(1) == [7]
                assert attached.earlier_times(2) == [7]
            finally:
                attached.close()
        finally:
            board.close()

    def test_attach_missing_board_returns_none(self):
        from repro.engine.shm import BoardDescriptor

        ghost = BoardDescriptor(
            shm_name="psm_no_such_board_repro",
            num_shards=2, keep_top=1,
        )
        assert IncumbentBoard.attach(ghost) is None
        assert IncumbentBoard.attach(None) is None

    def test_publish_shrinking_entry_resets_sentinel(self):
        board = IncumbentBoard.create(2, keep_top=3)
        if board is None:
            pytest.skip("shared memory unavailable")
        try:
            board.publish(0, [5, 6, 7])
            board.publish(0, [3])
            assert board.earlier_times(1) == [3]
        finally:
            board.close()


class TestFallbackCounter:
    def test_counter_reported_by_server_info(self, tiny_soc_source):
        from repro.service.server import ExplorationServer

        with ExplorationServer(max_workers=1) as server:
            record = server.submit(GridSpec.from_axes(
                [tiny_soc_source], [6], num_tams=2
            ))
            server.wait(record.job_id, timeout=60)
            info = server.info()
            assert "jobs_sharded" in info
