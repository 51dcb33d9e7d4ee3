"""Round-trip tests for the pool's dense-matrix transport."""

import pickle

import repro.engine.shm as shm
from repro.engine.batch import BatchJob, BatchRunner
from repro.engine.kernel import build_dense_matrix
from repro.engine.shm import DenseDescriptor, SegmentRegistry, attach
from repro.soc.fingerprint import soc_fingerprint
from repro.wrapper.pareto import build_time_tables


def _drop(fingerprint):
    """Forget a worker-cache entry so later tests start cold."""
    shm._ATTACHED.pop(fingerprint, None)


def matrix_for(soc, width):
    tables = build_time_tables(soc, width)
    return build_dense_matrix(
        [tables[core.name] for core in soc.cores], width
    )


class TestSegmentRoundTrip:
    def test_publish_attach_round_trip(self, tiny_soc):
        # The descriptor crosses the pool's pickle channel whole.
        matrix = matrix_for(tiny_soc, 10)
        descriptor = SegmentRegistry().publish("fp-roundtrip", matrix)
        try:
            shipped = pickle.loads(pickle.dumps(descriptor))
            assert shipped == descriptor
            attached = attach(shipped)
            for width in range(1, 11):
                assert attached.column(width) == matrix.column(width)
        finally:
            _drop("fp-roundtrip")

    def test_publish_reuses_wide_segments(self, tiny_soc):
        registry = SegmentRegistry()
        wide = registry.publish("fp-reuse", matrix_for(tiny_soc, 12))
        narrow = registry.publish("fp-reuse", matrix_for(tiny_soc, 8))
        assert narrow is wide  # covering descriptor served as-is
        wider = registry.publish("fp-reuse", matrix_for(tiny_soc, 16))
        assert wider is not wide
        assert len(registry) == 1  # narrow descriptor was replaced
        # Newly available designs replace a design-less descriptor.
        designed = registry.publish(
            "fp-reuse", matrix_for(tiny_soc, 16), designs=b"{}"
        )
        assert designed is not wider
        assert designed.design_payload == b"{}"
        registry.close()
        assert len(registry) == 0
        registry.close()  # idempotent

    def test_attach_caches_per_fingerprint(self, tiny_soc):
        descriptor = SegmentRegistry().publish(
            "fp-cache", matrix_for(tiny_soc, 8)
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
        # A wider republish ships a wider matrix; the worker-side
        # cache must replace the stale one instead of pinning every
        # generation until process exit.
        registry = SegmentRegistry()
        try:
            narrow = registry.publish(
                "fp-evict", matrix_for(tiny_soc, 8)
            )
            stale = attach(narrow)
            wide = registry.publish(
                "fp-evict", matrix_for(tiny_soc, 12)
            )
            fresh = attach(wide)
            assert fresh is not stale
            assert shm._ATTACHED["fp-evict"] is fresh
            assert fresh.total_width == 12
            for width in range(1, 13):
                assert fresh.column(width) == \
                    matrix_for(tiny_soc, 12).column(width)
        finally:
            _drop("fp-evict")


class TestPicklingFallback:
    def test_pool_results_identical_with_fallback_forced(
        self, tiny_soc, monkeypatch
    ):
        # No shared memory at all: matrices travel as descriptor bytes
        # either way, and the incumbent board — the one remaining user
        # of shared memory — is simply absent, so shards run without
        # broadcast.
        requests = []

        class Exploding:
            def __init__(self, *args, **kwargs):
                requests.append(kwargs)
                raise OSError("no shared memory here")

        jobs = [BatchJob(tiny_soc, w, 2) for w in (4, 6, 8)]
        inline = BatchRunner(max_workers=1).run(jobs)
        monkeypatch.setattr(
            shm._shared_memory, "SharedMemory", Exploding
        )
        pooled = BatchRunner(max_workers=2, shard=None).run(jobs)
        assert pooled == inline
        assert requests == []  # whole-point jobs never ask for a segment
        sharded_runner = BatchRunner(max_workers=2, shard=4)
        assert sharded_runner.run(jobs) == inline
        assert sharded_runner.jobs_sharded == len(jobs)
        # Only the boards asked, and only to create.
        assert requests
        assert all(request.get("create") for request in requests)


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

        matrix = matrix_for(tiny_soc, 8)
        descriptor = DenseDescriptor(
            fingerprint=soc_fingerprint(tiny_soc),
            num_cores=matrix.num_cores,
            total_width=matrix.total_width,
            payload=matrix.to_bytes(),
        )
        job = BatchJob(tiny_soc, 8, 2, options={"polish": False})
        reference = _run_job({}, job)

        def exploding(core, width):
            raise AssertionError(
                "dense path must not build wrapper tables"
            )

        # Only the handful of designs for the final report may run —
        # count them instead of forbidding them outright.
        calls = []
        original = pareto.design_wrapper

        def counting(core, width):
            calls.append((core.name, width))
            return original(core, width)

        monkeypatch.setattr(pareto, "design_wrapper", exploding)
        import repro.engine.kernel as kernel_module
        monkeypatch.setattr(kernel_module, "design_wrapper", counting)
        caches = {}
        try:
            point = _run_job(caches, job, descriptor=descriptor)
        finally:
            _drop(descriptor.fingerprint)
        assert point == reference
        assert caches == {}  # no private WrapperTableCache created
        # Designs ran only for the final architecture's bus widths.
        assert len(calls) <= len(tiny_soc.cores) * len(point.partition)
