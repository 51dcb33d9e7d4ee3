"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import pytest

from repro.soc.core import Core
from repro.soc.data import get_benchmark
from repro.soc.itc02 import write_soc
from repro.soc.soc import Soc


@pytest.fixture(scope="session")
def d695() -> Soc:
    """The d695 academic benchmark SOC."""
    return get_benchmark("d695")


@pytest.fixture(scope="session")
def p21241() -> Soc:
    return get_benchmark("p21241")


@pytest.fixture(scope="session")
def p31108() -> Soc:
    return get_benchmark("p31108")


@pytest.fixture(scope="session")
def p93791() -> Soc:
    return get_benchmark("p93791")


@pytest.fixture(scope="session")
def scan_core() -> Core:
    """A small scan-testable core with uneven chain lengths."""
    return Core(
        name="scan_core",
        num_patterns=10,
        num_inputs=6,
        num_outputs=4,
        num_bidirs=2,
        scan_chain_lengths=(12, 8, 8, 4),
    )


@pytest.fixture(scope="session")
def memory_core() -> Core:
    """A non-scan (memory-style) core."""
    return Core(
        name="memory_core",
        num_patterns=500,
        num_inputs=20,
        num_outputs=16,
    )


@pytest.fixture(scope="session")
def combinational_core() -> Core:
    """A combinational core: terminals only, no state."""
    return Core(
        name="comb_core",
        num_patterns=25,
        num_inputs=40,
        num_outputs=30,
    )


@pytest.fixture(scope="session")
def tiny_soc(scan_core, memory_core, combinational_core) -> Soc:
    """Three heterogeneous cores — enough for pipeline tests."""
    return Soc(name="tiny", cores=(scan_core, memory_core,
                                   combinational_core))


@pytest.fixture(scope="session")
def tiny_soc_source(tiny_soc, tmp_path_factory) -> str:
    """``tiny_soc`` as a ``.soc`` file: a source a ``GridSpec`` names.

    Written once per session; ``load_source`` reads it back equal to
    ``tiny_soc``, name included.
    """
    path = tmp_path_factory.mktemp("socs") / "tiny.soc"
    write_soc(tiny_soc, path)
    return str(path)


@pytest.fixture
def fig2_times():
    """The Fig. 2 worked example: 5 cores x 3 TAMs (widths 32/16/8)."""
    return [
        [50, 100, 200],
        [75, 95, 200],
        [90, 100, 150],
        [60, 75, 80],
        [120, 120, 125],
    ]


@pytest.fixture
def fig2_widths():
    return [32, 16, 8]
