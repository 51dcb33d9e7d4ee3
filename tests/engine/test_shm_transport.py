"""Round-trip and fallback tests for the shared-memory transport."""

import pytest

import repro.engine.shm as shm
from repro.engine.batch import BatchJob, BatchRunner
from repro.engine.kernel import build_dense_matrix
from repro.engine.shm import DenseDescriptor, SegmentRegistry, attach
from repro.soc.fingerprint import soc_fingerprint
from repro.wrapper.pareto import build_time_tables


def _drop(fingerprint):
    """Release a worker-cache entry the way the eviction path does."""
    if fingerprint in shm._ATTACHED:
        shm._release_entry(fingerprint)


def matrix_for(soc, width):
    tables = build_time_tables(soc, width)
    return build_dense_matrix(
        [tables[core.name] for core in soc.cores], width
    )


class TestSegmentRoundTrip:
    def test_publish_attach_round_trip(self, tiny_soc):
        matrix = matrix_for(tiny_soc, 10)
        registry = SegmentRegistry()
        try:
            descriptor = registry.publish("fp-roundtrip", matrix)
            assert descriptor.shm_name is not None
            assert descriptor.payload is None
            attached = attach(descriptor)
            assert attached is not None
            for width in range(1, 11):
                assert attached.column(width) == matrix.column(width)
        finally:
            registry.close()
            _drop("fp-roundtrip")

    def test_publish_reuses_wide_segments(self, tiny_soc):
        registry = SegmentRegistry()
        try:
            wide = registry.publish("fp-reuse", matrix_for(tiny_soc, 12))
            narrow = registry.publish("fp-reuse", matrix_for(tiny_soc, 8))
            assert narrow is wide  # covering segment served as-is
            wider = registry.publish("fp-reuse", matrix_for(tiny_soc, 16))
            assert wider is not wide
            assert len(registry) == 1  # narrow segment was replaced
        finally:
            registry.close()

    def test_close_unlinks_everything(self, tiny_soc):
        registry = SegmentRegistry()
        descriptor = registry.publish(
            "fp-close", matrix_for(tiny_soc, 6)
        )
        registry.close()
        assert len(registry) == 0
        # The segment is gone; a fresh attach must fail gracefully.
        shm._ATTACHED.clear()
        assert attach(descriptor) is None

    def test_attach_unknown_segment_returns_none(self):
        descriptor = DenseDescriptor(
            fingerprint="fp-ghost", num_cores=2, total_width=2,
            shm_name="psm_does_not_exist_repro",
        )
        assert attach(descriptor) is None

    def test_attach_caches_per_fingerprint(self, tiny_soc):
        registry = SegmentRegistry()
        try:
            descriptor = registry.publish(
                "fp-cache", matrix_for(tiny_soc, 8)
            )
            first = attach(descriptor)
            assert attach(descriptor) is first
        finally:
            registry.close()
            _drop("fp-cache")

    def test_superseded_attachment_is_evicted(self, tiny_soc):
        # A wider republish changes the segment name; the worker-side
        # cache must drop (and unmap) the stale matrix instead of
        # pinning every generation until process exit.
        registry = SegmentRegistry()
        try:
            narrow = registry.publish(
                "fp-evict", matrix_for(tiny_soc, 8)
            )
            stale = attach(narrow)
            wide = registry.publish(
                "fp-evict", matrix_for(tiny_soc, 12)
            )
            assert wide.shm_name != narrow.shm_name
            fresh = attach(wide)
            assert fresh is not stale
            assert shm._ATTACHED["fp-evict"][0] == wide.shm_name
            assert fresh.total_width == 12
        finally:
            registry.close()
            _drop("fp-evict")


class TestPicklingFallback:
    def test_publish_falls_back_to_payload(self, tiny_soc, monkeypatch):
        # Force the shared-memory path to fail: the descriptor must
        # carry the raw bytes instead.
        class Exploding:
            def __init__(self, *args, **kwargs):
                raise OSError("no shared memory here")

        monkeypatch.setattr(
            shm._shared_memory, "SharedMemory", Exploding
        )
        matrix = matrix_for(tiny_soc, 9)
        registry = SegmentRegistry()
        descriptor = registry.publish("fp-fallback", matrix)
        assert descriptor.shm_name is None
        assert descriptor.payload is not None
        attached = attach(descriptor)
        assert attached is not None
        for width in range(1, 10):
            assert attached.column(width) == matrix.column(width)
        # The fallback descriptor is registered (segment-less) so a
        # second run reuses the packed bytes instead of re-packing.
        assert registry.publish("fp-fallback", matrix) is descriptor
        registry.close()  # no segment to unlink — must not raise
        # Payload-backed matrices are cached per worker too, so
        # repeated jobs share the column/order memos.
        assert attach(descriptor) is attached
        _drop("fp-fallback")

    def test_pool_results_identical_with_fallback_forced(
        self, tiny_soc, monkeypatch
    ):
        class Exploding:
            def __init__(self, *args, **kwargs):
                raise OSError("no shared memory here")

        jobs = [BatchJob(tiny_soc, w, 2) for w in (4, 6, 8)]
        inline = BatchRunner(max_workers=1).run(jobs)
        # Parent-side failure → payload descriptors ride the pickle
        # channel; workers still skip their private table builds.
        monkeypatch.setattr(
            shm._shared_memory, "SharedMemory", Exploding
        )
        pooled = BatchRunner(max_workers=2).run(jobs)
        assert pooled == inline


class TestWorkerDensePath:
    def test_pool_matches_inline_with_transport(self, tiny_soc):
        jobs = [BatchJob(tiny_soc, w, (1, 2, 3)) for w in (4, 6, 8)]
        inline = BatchRunner(max_workers=1).run(jobs)
        shared = BatchRunner(max_workers=2).run(jobs)
        private = BatchRunner(max_workers=2, share_tables=False).run(jobs)
        assert inline == shared == private

    def test_stale_descriptor_falls_back_to_cache(self, tiny_soc):
        # A descriptor for *different* SOC content must be ignored.
        from repro.engine.batch import _run_job_tracked

        matrix = matrix_for(tiny_soc, 8)
        descriptor = DenseDescriptor(
            fingerprint="not-this-soc",
            num_cores=matrix.num_cores,
            total_width=matrix.total_width,
            payload=matrix.to_bytes(),
        )
        job = BatchJob(tiny_soc, 6, 2)
        from_cache = _run_job_tracked({}, job)[0]
        via_descriptor = _run_job_tracked({}, job, descriptor=descriptor)[0]
        assert from_cache == via_descriptor

    def test_matching_descriptor_used_without_table_builds(
        self, tiny_soc, monkeypatch
    ):
        import repro.wrapper.pareto as pareto
        from repro.engine.batch import _run_job_tracked

        matrix = matrix_for(tiny_soc, 8)
        descriptor = DenseDescriptor(
            fingerprint=soc_fingerprint(tiny_soc),
            num_cores=matrix.num_cores,
            total_width=matrix.total_width,
            payload=matrix.to_bytes(),
        )
        job = BatchJob(tiny_soc, 8, 2, options={"polish": False})
        reference = _run_job_tracked({}, job)[0]

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
        point = _run_job_tracked(caches, job, descriptor=descriptor)[0]
        assert point == reference
        assert caches == {}  # no private WrapperTableCache created
        # Designs ran only for the final architecture's bus widths.
        assert len(calls) <= len(tiny_soc.cores) * len(point.partition)
