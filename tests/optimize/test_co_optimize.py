"""Unit tests for the two-step co-optimization pipeline."""

import sys

import pytest

from repro.assign.exact import exact_assign
from repro.exceptions import ConfigurationError
from repro.optimize.co_optimize import co_optimize


class TestPipeline:
    def test_basic(self, tiny_soc):
        result = co_optimize(tiny_soc, total_width=8, num_tams=range(1, 4))
        assert result.soc_name == "tiny"
        assert sum(result.partition) == 8
        assert result.testing_time > 0

    def test_polish_never_hurts(self, tiny_soc):
        result = co_optimize(tiny_soc, total_width=8, num_tams=range(1, 4))
        assert result.testing_time <= result.search.testing_time

    def test_polish_skippable(self, tiny_soc):
        result = co_optimize(
            tiny_soc, total_width=8, num_tams=range(1, 4), polish=False
        )
        assert result.final == result.search.best
        assert not result.final_optimal

    def test_polish_keeps_partition(self, tiny_soc):
        result = co_optimize(tiny_soc, total_width=8, num_tams=range(1, 4))
        # The final step reoptimizes the assignment only.
        assert result.partition == result.search.best_partition

    def test_default_num_tams_caps_at_width(self, tiny_soc):
        result = co_optimize(tiny_soc, total_width=3)
        assert {s.num_tams for s in result.search.stats} == {1, 2, 3}

    def test_default_num_tams_caps_at_ten(self, tiny_soc):
        result = co_optimize(tiny_soc, total_width=12)
        assert max(s.num_tams for s in result.search.stats) == 10

    def test_single_tam_count(self, tiny_soc):
        result = co_optimize(tiny_soc, total_width=8, num_tams=2)
        assert result.num_tams == 2

    def test_summary_format(self, tiny_soc):
        result = co_optimize(tiny_soc, total_width=8, num_tams=2)
        text = result.summary()
        assert "tiny" in text and "W=8" in text and "T=" in text

    def test_invalid_width(self, tiny_soc):
        with pytest.raises(ConfigurationError):
            co_optimize(tiny_soc, total_width=0)

    def test_result_exposes_tables(self, tiny_soc):
        result = co_optimize(tiny_soc, total_width=8, num_tams=2)
        assert set(result.tables) == {c.name for c in tiny_soc.cores}
        assert all(t.max_width >= 8 for t in result.tables.values())

    def test_accepts_prebuilt_tables(self, tiny_soc):
        from repro.wrapper.pareto import build_time_tables

        shared = build_time_tables(tiny_soc, 8)
        result = co_optimize(
            tiny_soc, total_width=8, num_tams=2, tables=shared
        )
        baseline = co_optimize(tiny_soc, total_width=8, num_tams=2)
        assert result.tables is shared
        assert result.final == baseline.final

    def test_undersized_tables_rejected(self, tiny_soc):
        from repro.wrapper.pareto import build_time_tables

        small = build_time_tables(tiny_soc, 4)
        with pytest.raises(ConfigurationError):
            co_optimize(tiny_soc, total_width=8, num_tams=2, tables=small)


class TestMonotonicity:
    def test_testing_time_non_increasing_in_width(self, tiny_soc):
        times = [
            co_optimize(tiny_soc, total_width=w, num_tams=range(1, 4))
            .testing_time
            for w in (4, 8, 12, 16)
        ]
        assert all(a >= b for a, b in zip(times, times[1:]))


class TestD695:
    """Sanity anchors on the real benchmark (fast widths only)."""

    def test_w16_regime(self, d695):
        result = co_optimize(d695, total_width=16, num_tams=range(1, 5))
        # The paper reports 42644-45055 cycles for W=16 depending on
        # B; our data reproduces the same regime.
        assert 35_000 < result.testing_time < 55_000

    def test_improves_with_width(self, d695):
        t16 = co_optimize(d695, 16, num_tams=range(1, 4)).testing_time
        t32 = co_optimize(d695, 32, num_tams=range(1, 4)).testing_time
        assert t32 < t16
        # Paper: roughly 2x improvement from W=16 to W=32.
        assert t32 < 0.7 * t16


class TestPolishSkip:
    """A top-k polish skips a candidate whose partition bound reaches
    the best polished time, and the point stays what polishing every
    candidate returns."""

    @pytest.mark.parametrize("per_tam_count", [False, True])
    @pytest.mark.parametrize(
        "soc_name, width",
        [("d695", 12), ("d695", 40), ("p21241", 12), ("p21241", 20)],
    )
    def test_matches_polishing_every_candidate(
        self, soc_name, width, per_tam_count, request, monkeypatch
    ):
        soc = request.getfixturevalue(soc_name)
        module = sys.modules["repro.optimize.co_optimize"]
        polish, solved = module.run_polish_task, []

        def spy(times, candidate, node_limit):
            solved.append(candidate.widths)
            return polish(times, candidate, node_limit)

        monkeypatch.setattr(module, "run_polish_task", spy)
        result = co_optimize(
            soc, width, range(1, 5), polish_top_k=3,
            polish_per_tam_count=per_tam_count,
        )
        candidates = (result.search.best,) + result.search.runners_up
        if not per_tam_count:
            candidates = candidates[:3]
        best = None
        for candidate in candidates:
            times = [
                [result.tables[core.name].time(w) for w in candidate.widths]
                for core in soc.cores
            ]
            exact = exact_assign(times, candidate.widths, incumbent=candidate)
            if best is None or (
                exact.result.testing_time < best.result.testing_time
            ):
                best = exact
        assert len(solved) < len(candidates)  # the skip fired
        assert result.final == best.result
        assert result.final_optimal == best.optimal
