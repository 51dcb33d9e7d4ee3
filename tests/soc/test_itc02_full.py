"""The original ITC'02 SOC Test Benchmarks format: reader, writer, tests.

No code path reads this format: :func:`repro.soc.loader.load_source`
reads the repository's own ``.soc`` dialect (:mod:`repro.soc.itc02`),
and the original Philips files are not redistributable (DESIGN.md
§4), so none is in the repository.  The reader lives here, beside
the tests that pin its grammar, until such a file is.

The ITC'02 benchmark suite (Marinissen, Iyengar & Chakrabarty, ITC
2002) distributes each SOC as a ``.soc`` file in a keyword style:

.. code-block:: text

    SocName d695
    TotalModules 11

    Module 0
        Level 0
        Inputs 32
        Outputs 32
        Bidirs 0
        TotalTests 0

    Module 4
        Level 1
        Inputs 36
        Outputs 39
        Bidirs 0
        ScanChains 4 : 54 53 52 52
        TotalTests 1
        Test 1
            TotalPatterns 105
            ScanUse 1
            TamUse 1

Grammar accepted here (tolerant superset of what the suite uses):

* ``SocName <name>`` — required, once;
* ``TotalModules <n>`` — optional; checked against the module count
  when present;
* ``Module <k>`` opens module ``k``; module 0 (or any module whose
  ``Level`` is 0) is the SOC itself and does not become a core;
* per-module: ``Level``, ``Inputs``, ``Outputs``, ``Bidirs``,
  ``ScanChains N [: l1 ... lN]``, ``TotalTests``;
* per-test (``Test <k>``): ``TotalPatterns``, ``ScanUse``, ``TamUse``;
  a module's pattern count is the sum over its TAM-using tests
  (``TamUse 0`` tests ride functional access and are skipped);
* unknown keywords are ignored (the suite has power/hierarchy
  extensions this model does not use);
* ``#`` and ``//`` start comments; indentation is free-form.

Modules with no TAM-tested patterns (e.g. the top module) are
dropped.  :func:`format_itc02_soc` writes the same style and
round-trips through :func:`parse_itc02_soc`.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

import pytest

from repro.exceptions import ParseError
from repro.soc.core import Core
from repro.soc.soc import Soc


_INT_FIELDS = {
    "level", "inputs", "outputs", "bidirs", "totaltests",
    "totalpatterns", "scanuse", "tamuse",
}


class _Module:
    """Mutable per-module state while parsing."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.level: Optional[int] = None
        self.inputs = 0
        self.outputs = 0
        self.bidirs = 0
        self.scan_chains: List[int] = []
        self.declared_tests: Optional[int] = None
        self.patterns = 0          # committed TAM-using patterns
        self.in_test = False
        # Open-test state; committed when the test block closes so
        # that TamUse may appear before or after TotalPatterns.
        self.pending_patterns = 0
        self.pending_tam_use = True

    def commit_test(self) -> None:
        """Fold the open test (if any) into the module totals."""
        if self.in_test and self.pending_tam_use:
            self.patterns += self.pending_patterns
        self.in_test = False
        self.pending_patterns = 0
        self.pending_tam_use = True

    def core_name(self) -> str:
        return f"Module{self.index}"

    def is_top(self) -> bool:
        return self.index == 0 or self.level == 0

    def to_core(self) -> Optional[Core]:
        if self.is_top() or self.patterns == 0:
            return None
        return Core(
            name=self.core_name(),
            num_patterns=self.patterns,
            num_inputs=self.inputs,
            num_outputs=self.outputs,
            num_bidirs=self.bidirs,
            scan_chain_lengths=tuple(self.scan_chains),
        )


def _strip_comment(line: str) -> str:
    for marker in ("#", "//"):
        position = line.find(marker)
        if position >= 0:
            line = line[:position]
    return line.strip()


def _int(token: str, line_number: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(
            f"expected integer for {what}, got {token!r}", line_number
        ) from None


def parse_itc02_soc(text: str) -> Soc:
    """Parse an ITC'02-format SOC description."""
    soc_name: Optional[str] = None
    declared_modules: Optional[int] = None
    modules: List[_Module] = []
    current: Optional[_Module] = None

    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        tokens = line.split()
        keyword = tokens[0].lower()

        if keyword == "socname":
            if soc_name is not None:
                raise ParseError("duplicate SocName", line_number)
            if len(tokens) != 2:
                raise ParseError("SocName takes one value", line_number)
            soc_name = tokens[1]
        elif keyword == "totalmodules":
            declared_modules = _int(tokens[1], line_number, "TotalModules")
        elif keyword == "module":
            if current is not None:
                current.commit_test()
            index = _int(tokens[1], line_number, "Module index")
            current = _Module(index)
            modules.append(current)
        elif keyword == "test":
            if current is None:
                raise ParseError("Test outside a Module", line_number)
            current.commit_test()
            current.in_test = True
        elif keyword == "scanchains":
            if current is None:
                raise ParseError("ScanChains outside a Module",
                                 line_number)
            count = _int(tokens[1], line_number, "scan chain count")
            if count == 0:
                current.scan_chains = []
                continue
            if len(tokens) < 3 or tokens[2] != ":":
                raise ParseError(
                    "ScanChains N must be followed by ': lengths'",
                    line_number,
                )
            lengths = [
                _int(token, line_number, "scan chain length")
                for token in tokens[3:]
            ]
            if len(lengths) != count:
                raise ParseError(
                    f"ScanChains declares {count} chains but lists "
                    f"{len(lengths)} lengths",
                    line_number,
                )
            current.scan_chains = lengths
        elif keyword in _INT_FIELDS:
            if current is None:
                raise ParseError(
                    f"{tokens[0]} outside a Module", line_number
                )
            value = _int(tokens[1], line_number, tokens[0])
            if keyword == "level":
                current.level = value
            elif keyword == "inputs":
                current.inputs = value
            elif keyword == "outputs":
                current.outputs = value
            elif keyword == "bidirs":
                current.bidirs = value
            elif keyword == "totaltests":
                current.declared_tests = value
            elif keyword == "tamuse":
                if current.in_test:
                    current.pending_tam_use = value != 0
            elif keyword == "totalpatterns":
                if not current.in_test:
                    raise ParseError(
                        "TotalPatterns outside a Test", line_number
                    )
                current.pending_patterns += value
            # ScanUse is accepted and ignored: the scan configuration
            # is already captured by ScanChains.
        else:
            # Tolerate suite extensions (power, hierarchy, ...).
            continue

    if current is not None:
        current.commit_test()
    if soc_name is None:
        raise ParseError("no SocName declaration found")
    if declared_modules is not None and declared_modules != len(modules):
        raise ParseError(
            f"TotalModules says {declared_modules}, file defines "
            f"{len(modules)}"
        )

    cores = [
        core
        for module in modules
        if (core := module.to_core()) is not None
    ]
    if not cores:
        raise ParseError(
            f"SOC {soc_name!r} has no TAM-testable modules"
        )
    return Soc(name=soc_name, cores=tuple(cores))


def load_itc02_soc(path: Union[str, Path]) -> Soc:
    """Load an ITC'02-format file from disk."""
    return parse_itc02_soc(Path(path).read_text())


def format_itc02_soc(soc: Soc) -> str:
    """Serialize ``soc`` in the ITC'02 style (module 0 = the SOC)."""
    lines = [
        f"SocName {soc.name}",
        f"TotalModules {len(soc.cores) + 1}",
        "",
        "Module 0",
        "    Level 0",
        "    Inputs 0",
        "    Outputs 0",
        "    Bidirs 0",
        "    TotalTests 0",
        "",
    ]
    for index, core in enumerate(soc.cores, start=1):
        lines.append(f"Module {index}")
        lines.append("    Level 1")
        lines.append(f"    Inputs {core.num_inputs}")
        lines.append(f"    Outputs {core.num_outputs}")
        lines.append(f"    Bidirs {core.num_bidirs}")
        if core.is_scan_testable:
            lengths = " ".join(str(n) for n in core.scan_chain_lengths)
            lines.append(
                f"    ScanChains {core.num_scan_chains} : {lengths}"
            )
        else:
            lines.append("    ScanChains 0")
        lines.append("    TotalTests 1")
        lines.append("    Test 1")
        lines.append(f"        TotalPatterns {core.num_patterns}")
        scan_use = 1 if core.is_scan_testable else 0
        lines.append(f"        ScanUse {scan_use}")
        lines.append("        TamUse 1")
        lines.append("")
    return "\n".join(lines)


def write_itc02_soc(soc: Soc, path: Union[str, Path]) -> None:
    """Write ``soc`` to ``path`` in the ITC'02 style."""
    Path(path).write_text(format_itc02_soc(soc))


SAMPLE = """
SocName demo
TotalModules 3

Module 0
    Level 0
    Inputs 10
    Outputs 20
    Bidirs 0
    TotalTests 0

Module 1
    Level 1
    Inputs 36
    Outputs 39
    Bidirs 2
    ScanChains 4 : 54 53 52 52
    TotalTests 1
    Test 1
        TotalPatterns 105
        ScanUse 1
        TamUse 1

Module 2
    Level 1
    Inputs 8
    Outputs 8
    Bidirs 0
    ScanChains 0
    TotalTests 2
    Test 1
        TotalPatterns 40
        ScanUse 0
        TamUse 1
    Test 2
        TotalPatterns 999
        ScanUse 0
        TamUse 0
"""


class TestParse:
    def test_top_module_excluded(self):
        soc = parse_itc02_soc(SAMPLE)
        assert soc.name == "demo"
        assert len(soc) == 2  # module 0 is the SOC itself

    def test_module_fields(self):
        soc = parse_itc02_soc(SAMPLE)
        module1 = soc.core_by_name("Module1")
        assert module1.num_patterns == 105
        assert module1.num_bidirs == 2
        assert module1.scan_chain_lengths == (54, 53, 52, 52)

    def test_non_tam_tests_skipped(self):
        soc = parse_itc02_soc(SAMPLE)
        module2 = soc.core_by_name("Module2")
        # Test 2 has TamUse 0 -> only the 40 TAM patterns count.
        assert module2.num_patterns == 40

    def test_multiple_tam_tests_summed(self):
        text = SAMPLE.replace("TamUse 0", "TamUse 1")
        soc = parse_itc02_soc(text)
        assert soc.core_by_name("Module2").num_patterns == 40 + 999

    def test_comments_tolerated(self):
        text = SAMPLE.replace(
            "SocName demo", "# header\nSocName demo  // trailing"
        )
        assert parse_itc02_soc(text).name == "demo"

    def test_unknown_keywords_ignored(self):
        text = SAMPLE.replace(
            "TotalTests 1", "PowerBudget 450\nTotalTests 1"
        )
        assert len(parse_itc02_soc(text)) == 2

    def test_missing_socname(self):
        with pytest.raises(ParseError, match="SocName"):
            parse_itc02_soc("Module 0\nLevel 0\n")

    def test_duplicate_socname(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_itc02_soc("SocName a\nSocName b\n")

    def test_totalmodules_mismatch(self):
        text = SAMPLE.replace("TotalModules 3", "TotalModules 7")
        with pytest.raises(ParseError, match="TotalModules"):
            parse_itc02_soc(text)

    def test_scanchains_length_mismatch(self):
        text = SAMPLE.replace(
            "ScanChains 4 : 54 53 52 52", "ScanChains 4 : 54 53"
        )
        with pytest.raises(ParseError, match="lists"):
            parse_itc02_soc(text)

    def test_scanchains_missing_colon(self):
        text = SAMPLE.replace(
            "ScanChains 4 : 54 53 52 52", "ScanChains 4 54 53 52 52"
        )
        with pytest.raises(ParseError, match="':"):
            parse_itc02_soc(text)

    def test_test_outside_module(self):
        with pytest.raises(ParseError, match="outside"):
            parse_itc02_soc("SocName s\nTest 1\n")

    def test_patterns_outside_test(self):
        with pytest.raises(ParseError, match="outside a Test"):
            parse_itc02_soc(
                "SocName s\nModule 1\nLevel 1\nInputs 1\nOutputs 1\n"
                "TotalPatterns 5\n"
            )

    def test_no_testable_modules(self):
        with pytest.raises(ParseError, match="no TAM-testable"):
            parse_itc02_soc("SocName s\nModule 0\nLevel 0\n")

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as excinfo:
            parse_itc02_soc("SocName s\nModule x\n")
        assert excinfo.value.line_number == 2


class TestWrite:
    def test_roundtrip_structure(self, d695):
        reparsed = parse_itc02_soc(format_itc02_soc(d695))
        assert reparsed.name == d695.name
        assert len(reparsed) == len(d695)
        # Names become ModuleK; everything else survives.
        for original, parsed in zip(d695.cores, reparsed.cores):
            assert parsed.num_patterns == original.num_patterns
            assert parsed.num_inputs == original.num_inputs
            assert parsed.num_outputs == original.num_outputs
            assert parsed.num_bidirs == original.num_bidirs
            assert parsed.scan_chain_lengths == \
                original.scan_chain_lengths

    def test_file_roundtrip(self, tmp_path, tiny_soc):
        path = tmp_path / "tiny_itc02.soc"
        write_itc02_soc(tiny_soc, path)
        reparsed = load_itc02_soc(path)
        assert len(reparsed) == len(tiny_soc)

    def test_equivalent_optimization_results(self, d695):
        # The round trip preserves everything the optimizer reads, so
        # results must be identical.
        from repro.optimize.co_optimize import co_optimize
        reparsed = parse_itc02_soc(format_itc02_soc(d695))
        original = co_optimize(d695, 16, num_tams=2)
        roundtrip = co_optimize(reparsed, 16, num_tams=2)
        assert original.testing_time == roundtrip.testing_time
        assert original.partition == roundtrip.partition
