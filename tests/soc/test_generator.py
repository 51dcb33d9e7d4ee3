"""Unit tests for the synthetic SOC generator."""

import pytest

from repro.exceptions import ConfigurationError
from repro.soc.complexity import test_complexity as complexity_of
from repro.soc.generator import (
    CoreRanges,
    SocSpec,
    generate_soc,
    random_soc,
)

LOGIC = CoreRanges(
    patterns=(10, 500),
    functional_ios=(8, 120),
    scan_chains=(1, 8),
    scan_lengths=(4, 64),
)
MEMORY = CoreRanges(patterns=(100, 2000), functional_ios=(4, 40))


def _spec(**overrides):
    base = dict(
        name="synth",
        num_logic_cores=6,
        num_memory_cores=3,
        logic=LOGIC,
        memory=MEMORY,
        seed=7,
    )
    base.update(overrides)
    return SocSpec(**base)


class TestRangesValidation:
    def test_inverted_range_rejected(self):
        with pytest.raises(ConfigurationError):
            CoreRanges(patterns=(10, 5), functional_ios=(1, 2))

    def test_zero_patterns_rejected(self):
        with pytest.raises(ConfigurationError):
            CoreRanges(patterns=(0, 5), functional_ios=(1, 2))

    def test_zero_ios_rejected(self):
        with pytest.raises(ConfigurationError):
            CoreRanges(patterns=(1, 5), functional_ios=(0, 2))

    def test_has_scan(self):
        assert LOGIC.has_scan
        assert not MEMORY.has_scan


class TestSpecValidation:
    def test_memory_ranges_required(self):
        with pytest.raises(ConfigurationError):
            SocSpec(name="x", num_logic_cores=1, num_memory_cores=1,
                    logic=LOGIC, memory=None)

    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigurationError):
            SocSpec(name="x", num_logic_cores=0, num_memory_cores=0,
                    logic=LOGIC)

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            SocSpec(name="x", num_logic_cores=-1, num_memory_cores=0,
                    logic=LOGIC)


class TestGeneration:
    def test_core_counts(self):
        soc = generate_soc(_spec())
        assert len(soc.logic_cores) == 6
        assert len(soc.memory_cores) == 3

    def test_deterministic(self):
        assert generate_soc(_spec()) == generate_soc(_spec())

    def test_seed_changes_output(self):
        assert generate_soc(_spec()) != generate_soc(_spec(seed=8))

    def test_values_within_ranges(self):
        soc = generate_soc(_spec())
        for core in soc.logic_cores:
            assert LOGIC.patterns[0] <= core.num_patterns <= LOGIC.patterns[1]
            assert (LOGIC.functional_ios[0] <= core.total_terminals
                    <= LOGIC.functional_ios[1])
            assert (LOGIC.scan_chains[0] <= core.num_scan_chains
                    <= LOGIC.scan_chains[1])
            for length in core.scan_chain_lengths:
                assert LOGIC.scan_lengths[0] <= length <= LOGIC.scan_lengths[1]
        for core in soc.memory_cores:
            assert (MEMORY.patterns[0] <= core.num_patterns
                    <= MEMORY.patterns[1])
            assert not core.is_scan_testable

    def test_extremes_attained(self):
        soc = generate_soc(_spec())
        summary = soc.logic_range_summary()
        assert summary.patterns == LOGIC.patterns
        assert summary.functional_ios == LOGIC.functional_ios
        assert summary.scan_chains == LOGIC.scan_chains
        assert summary.scan_lengths == LOGIC.scan_lengths
        memory_summary = soc.memory_range_summary()
        assert memory_summary.patterns == MEMORY.patterns
        assert memory_summary.functional_ios == MEMORY.functional_ios

    def test_calibration_hits_target(self):
        spec = _spec(complexity_target=500.0)
        soc = generate_soc(spec)
        assert abs(complexity_of(soc) - 500.0) / 500.0 < 0.10
        # Calibration must not break the published ranges.
        assert soc.logic_range_summary().patterns == LOGIC.patterns

    def test_unreachable_target_clamps(self):
        spec = _spec(complexity_target=1e12)
        soc = generate_soc(spec)   # should not raise
        assert complexity_of(soc) < 1e12

    def test_logic_only_soc(self):
        spec = SocSpec(name="x", num_logic_cores=3, num_memory_cores=0,
                       logic=LOGIC, seed=1)
        soc = generate_soc(spec)
        assert len(soc) == 3
        assert not soc.memory_cores

    def test_logic_floor_budget_respected(self):
        budget = 5000
        soc = generate_soc(_spec(logic_floor_budget=budget))
        for core in soc.logic_cores:
            floor = core.num_patterns * (core.longest_scan_chain + 1)
            # Cores whose chains were already at the published minimum
            # cannot be capped further; every other core obeys.
            if core.longest_scan_chain > LOGIC.scan_lengths[0]:
                assert floor <= budget

    def test_logic_floor_budget_keeps_ranges(self):
        soc = generate_soc(_spec(logic_floor_budget=5000))
        summary = soc.logic_range_summary()
        assert summary.scan_lengths == LOGIC.scan_lengths
        assert summary.patterns == LOGIC.patterns

    def test_unreachable_floor_budget_rejected(self):
        # Even the min-pattern core cannot carry the max-length chain.
        with pytest.raises(ConfigurationError, match="unreachable"):
            _spec(logic_floor_budget=10)


class TestRandomSoc:
    def test_basic(self):
        soc = random_soc("fuzz", num_cores=8, seed=3)
        assert len(soc) == 8

    def test_deterministic_per_seed(self):
        assert random_soc("f", 5, seed=1) == random_soc("f", 5, seed=1)

    def test_single_core(self):
        soc = random_soc("one", num_cores=1, seed=2)
        assert len(soc) == 1

    def test_invalid_count(self):
        with pytest.raises(ConfigurationError):
            random_soc("bad", num_cores=0, seed=0)
