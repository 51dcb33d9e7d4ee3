"""Round-trip tests for the pool's table transport."""

import multiprocessing.shared_memory
import pickle

import pytest

import repro.engine.shm as shm
from repro.engine.batch import BatchJob, BatchRunner
from repro.engine.kernel import build_dense_matrix
from repro.engine.shm import SegmentRegistry, attach
from repro.report.serialize import sweep_point_to_dict
from repro.soc.fingerprint import soc_fingerprint
from repro.soc.generator import random_soc
from repro.wrapper.pareto import build_time_tables


def _drop(fingerprint):
    """Forget a worker-cache entry so later tests start cold."""
    shm._ATTACHED.pop(fingerprint, None)


def tables_for(soc, width):
    tables = build_time_tables(soc, width)
    return [tables[core.name] for core in soc.cores]


def matrix_for(soc, width):
    return build_dense_matrix(tables_for(soc, width), width)


class TestSegmentRoundTrip:
    def test_publish_attach_round_trip(self, tiny_soc):
        # The descriptor crosses the pool's pickle channel whole.
        tables = tables_for(tiny_soc, 10)
        descriptor = SegmentRegistry().publish("fp-roundtrip", tables, 10)
        try:
            shipped = pickle.loads(pickle.dumps(descriptor))
            assert shipped == descriptor
            attached_tables, attached = attach(shipped)
            assert [table.core.name for table in attached_tables] == \
                [core.name for core in tiny_soc.cores]
            matrix = build_dense_matrix(tables, 10)
            for width in range(1, 11):
                assert attached.column(width) == matrix.column(width)
        finally:
            _drop("fp-roundtrip")

    def test_publish_reuses_wide_segments(self, tiny_soc):
        registry = SegmentRegistry()
        wide = registry.publish("fp-reuse", tables_for(tiny_soc, 12), 12)
        narrow = registry.publish("fp-reuse", tables_for(tiny_soc, 8), 8)
        assert narrow is wide  # covering descriptor served as-is
        wider = registry.publish("fp-reuse", tables_for(tiny_soc, 16), 16)
        assert wider is not wide
        assert wider.total_width == 16
        assert len(registry) == 1  # narrow descriptor was replaced
        registry.close()
        assert len(registry) == 0
        registry.close()  # idempotent

    def test_attach_caches_per_fingerprint(self, tiny_soc):
        descriptor = SegmentRegistry().publish(
            "fp-cache", tables_for(tiny_soc, 8), 8
        )
        try:
            first = attach(descriptor)
            assert attach(descriptor) is first
            # A fresh unpickled copy (the next task) hits the cache too.
            shipped = pickle.loads(pickle.dumps(descriptor))
            assert attach(shipped) is first
        finally:
            _drop("fp-cache")

    def test_superseded_attachment_is_evicted(self, tiny_soc):
        # A wider republish ships wider tables; the worker-side cache
        # must replace the stale entry instead of pinning every
        # generation until process exit.
        registry = SegmentRegistry()
        try:
            narrow = registry.publish(
                "fp-evict", tables_for(tiny_soc, 8), 8
            )
            stale = attach(narrow)
            wide = registry.publish(
                "fp-evict", tables_for(tiny_soc, 12), 12
            )
            fresh = attach(wide)
            assert fresh is not stale
            assert shm._ATTACHED["fp-evict"] is fresh
            tables, matrix = fresh
            assert matrix.total_width == 12
            assert all(table.max_width == 12 for table in tables)
            for width in range(1, 13):
                assert matrix.column(width) == \
                    matrix_for(tiny_soc, 12).column(width)
        finally:
            _drop("fp-evict")


class TestTableRoundTrip:
    """Tables that crossed a descriptor answer exactly like the parent's."""

    @pytest.mark.parametrize("seed", range(4))
    def test_times_and_designs_match(self, seed, monkeypatch):
        import repro.wrapper.pareto as pareto

        soc = random_soc(f"transport{seed}", 3 + seed, 30 + seed)
        width = 10 + 2 * seed
        real = build_time_tables(soc, width)
        descriptor = SegmentRegistry().publish(
            f"fp-tables{seed}", [real[c.name] for c in soc.cores], width
        )

        def exploding(core, width):
            raise AssertionError("attached tables ran Design_wrapper")

        monkeypatch.setattr(pareto, "design_wrapper", exploding)
        try:
            shipped, _ = attach(pickle.loads(pickle.dumps(descriptor)))
        finally:
            _drop(f"fp-tables{seed}")
        assert len(shipped) == len(soc.cores)
        for core, copy in zip(soc.cores, shipped):
            table = real[core.name]
            assert copy is not table
            assert copy.core == core
            assert copy.max_width == table.max_width == width
            assert copy.min_time == table.min_time
            for w in range(1, width + 1):
                assert copy.time(w) == table.time(w)
                assert copy.design(w) == table.design(w)


class TestPicklingFallback:
    def test_pool_results_identical_with_fallback_forced(
        self, tiny_soc, monkeypatch
    ):
        # No shared memory at all: every request for a segment is
        # recorded and refused.  Tables travel as descriptor bytes,
        # shards are seeded through their payloads and islands share
        # nothing, so no pooled run asks for a segment.
        requests = []

        class Refusing:
            def __init__(self, *args, **kwargs):
                requests.append((args, kwargs))
                raise OSError("no shared memory here")

        monkeypatch.setattr(
            multiprocessing.shared_memory, "SharedMemory", Refusing
        )
        jobs = [BatchJob(tiny_soc, w, 2) for w in (4, 6, 8)]
        inline = BatchRunner(max_workers=1).run(jobs)
        pooled = BatchRunner(max_workers=2, shard=None).run(jobs)
        assert pooled == inline
        sharded_runner = BatchRunner(max_workers=2, shard=4)
        assert sharded_runner.run(jobs) == inline
        assert sharded_runner.jobs_sharded == len(jobs)
        # One search job fans its islands over the pool.
        search = [BatchJob(tiny_soc, 8, (1, 2), options={
            "mode": "search", "seed": 3, "eval_budget": 200,
        })]
        search_runner = BatchRunner(max_workers=2)
        [fanned] = search_runner.run(search)
        [reference] = BatchRunner(max_workers=1).run(search)
        assert sweep_point_to_dict(fanned) == \
            sweep_point_to_dict(reference)
        assert search_runner.metrics.snapshot().counter(
            "engine.jobs_search_fanned"
        ) == 1
        # Nothing asks for a segment.
        assert requests == []


class TestWorkerDensePath:
    def test_pool_matches_inline_with_transport(self, tiny_soc):
        jobs = [BatchJob(tiny_soc, w, (1, 2, 3)) for w in (4, 6, 8)]
        inline = BatchRunner(max_workers=1).run(jobs)
        pooled = BatchRunner(max_workers=2).run(jobs)
        assert pooled == inline

    def test_matching_descriptor_used_without_table_builds(
        self, tiny_soc, monkeypatch
    ):
        import repro.wrapper.pareto as pareto
        from repro.engine.batch import _run_job

        descriptor = SegmentRegistry().publish(
            soc_fingerprint(tiny_soc), tables_for(tiny_soc, 8), 8
        )
        job = BatchJob(tiny_soc, 8, 2)
        reference = _run_job({}, job)

        def exploding(core, width):
            raise AssertionError("a pool job ran Design_wrapper")

        # The pool worker's whole path, polish and the final
        # utilization accounting included, runs on the shipped tables.
        monkeypatch.setattr(pareto, "design_wrapper", exploding)
        caches = {}
        try:
            point = _run_job(
                caches, job, descriptor=pickle.loads(pickle.dumps(descriptor))
            )
        finally:
            _drop(descriptor.fingerprint)
        assert point == reference
        assert caches == {}  # no private WrapperTableCache created
