"""Engine-level sharding: pool execution, transports, and counters."""

import pytest

import repro.engine.shm as shm
from repro.engine.batch import BatchJob, BatchRunner, _run_job
from repro.engine.kernel import build_dense_matrix, dense_time_tables
from repro.engine.shm import (
    IncumbentBoard,
    SegmentRegistry,
    attach_design_steps,
    design_steps_blob,
    parse_design_steps,
)
from repro.api.specs import GridSpec
from repro.soc.fingerprint import soc_fingerprint
from repro.wrapper.pareto import build_time_tables


def _drop(fingerprint):
    shm._ATTACHED.pop(fingerprint, None)
    shm._DESIGN_STEPS.pop(fingerprint, None)


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

    def test_warm_parent_reuses_matrices_across_runs(self, tiny_soc):
        with BatchRunner(max_workers=2, persistent=True) as runner:
            jobs = [BatchJob(tiny_soc, 10, 2)]
            first = runner.run(jobs)
            assert runner.run(jobs) == first
            fingerprint = soc_fingerprint(tiny_soc)
            assert fingerprint in runner._matrices


class TestStaircaseTransport:
    def test_descriptor_carries_design_staircases(self, tiny_soc):
        tables = build_time_tables(tiny_soc, 10)
        table_list = [tables[c.name] for c in tiny_soc.cores]
        matrix = build_dense_matrix(table_list, 10)
        blob = design_steps_blob(table_list)
        try:
            descriptor = SegmentRegistry().publish(
                "fp-stairs", matrix, designs=blob
            )
            assert descriptor.design_payload == blob
            steps = attach_design_steps(descriptor)
            assert set(steps) == {c.name for c in tiny_soc.cores}
            assert attach_design_steps(descriptor) is steps  # parsed once
        finally:
            _drop("fp-stairs")

    def test_dense_tables_decode_designs_without_design_wrapper(
        self, tiny_soc, monkeypatch
    ):
        tables = build_time_tables(tiny_soc, 10)
        table_list = [tables[c.name] for c in tiny_soc.cores]
        matrix = build_dense_matrix(table_list, 10)
        steps = parse_design_steps(design_steps_blob(table_list))
        dense = dense_time_tables(
            tiny_soc.cores, matrix, design_steps=steps
        )

        import repro.engine.kernel as kernel_module

        def exploding(core, width):
            raise AssertionError(
                "design recovery must use the transported staircase"
            )

        monkeypatch.setattr(
            kernel_module, "design_wrapper", exploding
        )
        for core in tiny_soc.cores:
            for width in (1, 4, 10):
                assert dense[core.name].design(width) == \
                    tables[core.name].design(width)

    def test_worker_job_pays_zero_designs_with_staircases(
        self, tiny_soc, monkeypatch
    ):
        tables = build_time_tables(tiny_soc, 8)
        table_list = [tables[c.name] for c in tiny_soc.cores]
        matrix = build_dense_matrix(table_list, 8)
        try:
            descriptor = SegmentRegistry().publish(
                soc_fingerprint(tiny_soc), matrix,
                designs=design_steps_blob(table_list),
            )
            job = BatchJob(tiny_soc, 8, 2, options={"polish": False})
            reference = _run_job({}, job)

            import repro.engine.kernel as kernel_module
            import repro.wrapper.pareto as pareto

            def exploding(core, width):
                raise AssertionError("worker ran Design_wrapper")

            monkeypatch.setattr(pareto, "design_wrapper", exploding)
            monkeypatch.setattr(
                kernel_module, "design_wrapper", exploding
            )
            caches = {}
            point = _run_job(caches, job, descriptor=descriptor)
            assert point == reference
            assert caches == {}
        finally:
            _drop(soc_fingerprint(tiny_soc))

    def test_corrupt_blob_degrades_to_none(self):
        assert parse_design_steps(b"not json") is None
        assert parse_design_steps(b'{"schema": 99}') is None


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
    def test_counter_reported_by_server_info(self, tiny_soc):
        from repro.service.server import ExplorationServer

        with ExplorationServer(max_workers=1) as server:
            record = server.submit([BatchJob(tiny_soc, 6, 2)])
            server.wait(record.job_id, timeout=60)
            info = server.info()
            assert "jobs_sharded" in info
