"""Unit tests for the cycle-accurate wrapper test simulator."""

from repro.soc.core import Core
from repro.wrapper.design import design_wrapper
from repro.wrapper.simulate import simulate_wrapper_test


def simulate(core, width):
    design = design_wrapper(core, width)
    return simulate_wrapper_test(design), design


class TestAgainstFormula:
    def test_scan_core(self, scan_core):
        for width in (1, 2, 3, 6):
            result, design = simulate(scan_core, width)
            assert result.matches(design.testing_time), (
                width, result.total_cycles, design.testing_time
            )

    def test_memory_core(self, memory_core):
        for width in (1, 4, 19, 64):
            result, design = simulate(memory_core, width)
            assert result.matches(design.testing_time)

    def test_combinational_core(self, combinational_core):
        for width in (1, 8, 40):
            result, design = simulate(combinational_core, width)
            assert result.matches(design.testing_time)

    def test_d695_cores(self, d695):
        for core in d695:
            result, design = simulate(core, 8)
            assert result.matches(design.testing_time), core.name

    def test_single_pattern(self):
        core = Core("one", num_patterns=1, num_inputs=3, num_outputs=2,
                    scan_chain_lengths=(5,))
        result, design = simulate(core, 2)
        assert result.matches(design.testing_time)

    def test_output_only_core(self):
        core = Core("out", num_patterns=7, num_inputs=0, num_outputs=9)
        result, design = simulate(core, 3)
        assert result.matches(design.testing_time)

    def test_input_only_core(self):
        core = Core("in", num_patterns=4, num_inputs=9, num_outputs=0)
        result, design = simulate(core, 2)
        assert result.matches(design.testing_time)


class TestConservation:
    def test_all_patterns_applied(self, scan_core):
        result, _ = simulate(scan_core, 3)
        assert result.patterns_applied == scan_core.num_patterns

    def test_stimulus_volume(self, scan_core):
        result, design = simulate(scan_core, 3)
        per_pattern = sum(
            chain.scan_in_length for chain in design.chains
            if not chain.is_empty
        )
        assert result.stimulus_bits_delivered == (
            per_pattern * scan_core.num_patterns
        )

    def test_response_volume(self, scan_core):
        result, design = simulate(scan_core, 3)
        per_pattern = sum(
            chain.scan_out_length for chain in design.chains
            if not chain.is_empty
        )
        assert result.response_bits_observed == (
            per_pattern * scan_core.num_patterns
        )

    def test_wide_bus_still_conserves(self, memory_core):
        result, design = simulate(memory_core, 64)
        assert result.response_bits_observed == (
            memory_core.num_output_cells * memory_core.num_patterns
        )
