"""FaultPlan parsing, one-shot tokens, and hook semantics."""

import pytest

from repro.engine.faults import FAULTS_ENV, FaultPlan
from repro.exceptions import ConfigurationError


class TestParse:
    def test_full_plan_round_trips(self, tmp_path):
        state = tmp_path / "tokens"
        plan = FaultPlan.parse(
            f"seed=7,state={state},crash@2,slow@0=0.25,"
            f"ipc@3,corrupt"
        )
        assert plan.seed == 7
        assert plan.crash_points == frozenset({2})
        assert plan.slow_points == ((0, 0.25),)
        assert plan.ipc_drops == frozenset({3})
        assert plan.corrupt_writes is True
        assert plan.state_dir == str(state)
        assert state.is_dir()  # parse creates the token directory

    def test_empty_directives_are_skipped(self):
        plan = FaultPlan.parse("ipc@0,, ,ipc@2")
        assert plan.ipc_drops == frozenset({0, 2})

    @pytest.mark.parametrize("text", [
        "explode@1",            # unknown directive
        "crash@soon",           # non-integer point
        "slow@1=fast",          # non-numeric delay
        "slow@1=-0.5",          # negative delay
        "seed=lucky",           # non-integer seed
        "shm@1",                # retired: nothing uses shared memory
    ])
    def test_malformed_directives_refuse_to_run(self, text):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse(text)

    def test_crash_and_corrupt_require_token_state(self):
        # Without one-shot tokens these faults would re-fire on every
        # re-run and the plan could never converge.
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("crash@1")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("corrupt")

    def test_from_env(self, tmp_path):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({FAULTS_ENV: "  "}) is None
        plan = FaultPlan.from_env({FAULTS_ENV: "ipc@4"})
        assert plan is not None and plan.ipc_drops == frozenset({4})


class TestHooks:
    def test_crash_fires_exactly_once(self, tmp_path):
        text = f"state={tmp_path / 's'},crash@1"
        plan = FaultPlan.parse(text)
        assert plan.take_crash(0) is False
        assert plan.take_crash(1) is True
        # A re-parsed plan (the re-run after the crash) sees the
        # claimed token and lets the point through.
        assert FaultPlan.parse(text).take_crash(1) is False

    def test_slow_delay(self, tmp_path):
        plan = FaultPlan.parse(f"state={tmp_path / 's'},slow@2=0.125")
        assert plan.slow_delay(0) is None
        assert plan.slow_delay(2) == 0.125
        assert plan.slow_delay(2) is None  # one-shot under state=

    def test_ipc_drop_threshold_is_claimed_per_stream(self, tmp_path):
        plan = FaultPlan.parse(f"state={tmp_path / 's'},ipc@2")
        assert plan.take_ipc_drop() == 2
        assert plan.take_ipc_drop() is None
        assert plan.take_ipc_drop(stream_index=1) == 2

    def test_corrupt_write_fires_once(self, tmp_path):
        plan = FaultPlan.parse(f"state={tmp_path / 's'},corrupt")
        assert plan.take_corrupt_write() is True
        assert plan.take_corrupt_write() is False

    def test_fired_faults_are_counted(self):
        from repro.obs import REGISTRY

        before = REGISTRY.snapshot().counter("faults.injected")
        FaultPlan.parse("slow@0=0").slow_delay(0)
        after = REGISTRY.snapshot().counter("faults.injected")
        assert after == before + 1
