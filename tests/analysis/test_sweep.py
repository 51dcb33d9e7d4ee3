"""Unit tests for design-space sweeps."""

import pytest

from repro.analysis.certificates import certify
from repro.analysis.sweep import evaluate_point, sweep_tam_counts, sweep_widths
from repro.analysis.utilization import analyze_utilization
from repro.api import OptimizeSpec
from repro.exceptions import ConfigurationError
from repro.optimize.co_optimize import co_optimize
from repro.report.serialize import sweep_point_to_dict
from repro.wrapper.pareto import build_time_tables


class TestSweepWidths:
    def test_points_cover_requested_widths(self, tiny_soc):
        points = sweep_widths(tiny_soc, widths=(4, 8), num_tams=2)
        assert [p.total_width for p in points] == [4, 8]

    def test_testing_time_non_increasing(self, tiny_soc):
        points = sweep_widths(tiny_soc, widths=(4, 8, 12),
                              num_tams=range(1, 4))
        times = [p.testing_time for p in points]
        assert all(a >= b for a, b in zip(times, times[1:]))

    def test_points_carry_certificates(self, tiny_soc):
        for point in sweep_widths(tiny_soc, widths=(6,), num_tams=2):
            assert point.certificate.gap >= 0.0
            assert 0.0 < point.wire_efficiency <= 1.0

    def test_partition_sums_to_width(self, tiny_soc):
        for point in sweep_widths(tiny_soc, widths=(5, 9),
                                  num_tams=range(1, 3)):
            assert sum(point.partition) == point.total_width
            assert point.num_tams == len(point.partition)


class TestSweepTamCounts:
    def test_counts_covered(self, tiny_soc):
        points = sweep_tam_counts(tiny_soc, 8, tam_counts=(1, 2, 3))
        assert [p.num_tams for p in points] == [1, 2, 3]

    def test_oversized_counts_rejected(self, tiny_soc):
        # A count wider than the budget is a configuration error, not
        # a silently dropped point (matches the partition enumerator).
        with pytest.raises(ConfigurationError, match="cannot split"):
            sweep_tam_counts(tiny_soc, 2, tam_counts=(1, 2, 3, 4))

    def test_each_point_respects_count(self, tiny_soc):
        for point in sweep_tam_counts(tiny_soc, 8, tam_counts=(2,)):
            assert point.num_tams == 2


class TestTableReuse:
    """The sweep reuses the optimizer's tables — and loses nothing."""

    def test_annotations_identical_to_fresh_rebuild(self, tiny_soc):
        # The seed rebuilt tables for certificates/utilization; the
        # shared-table path must be byte-identical to that.
        point = evaluate_point(tiny_soc, 8, num_tams=2)
        result = co_optimize(tiny_soc, 8, num_tams=2)
        fresh = build_time_tables(tiny_soc, 8)
        rebuilt_certificate = certify(tiny_soc, result.final, fresh)
        rebuilt_utilization = analyze_utilization(
            tiny_soc, result.final, fresh
        )
        assert point.certificate == rebuilt_certificate
        assert repr(point.certificate) == repr(rebuilt_certificate)
        assert point.utilization == rebuilt_utilization
        assert repr(point.utilization) == repr(rebuilt_utilization)

    def test_evaluate_point_uses_optimizer_tables(
        self, tiny_soc, monkeypatch
    ):
        import repro.analysis.sweep as sweep_module

        seen = {}
        real_certify = sweep_module.certify

        def spying_certify(soc, result, tables=None):
            seen["tables"] = tables
            return real_certify(soc, result, tables)

        monkeypatch.setattr(sweep_module, "certify", spying_certify)
        shared = build_time_tables(tiny_soc, 8)
        evaluate_point(tiny_soc, 8, num_tams=2, tables=shared)
        assert seen["tables"] is shared


class TestParetoOnlySweep:
    """Adaptive width enumeration: sweep only Pareto breakpoints."""

    def test_swept_widths_are_the_breakpoint_union(self, tiny_soc):
        from repro.analysis.sweep import pareto_widths

        max_width = 10
        union = pareto_widths(tiny_soc, max_width)
        # Widths start at 2: a B=2 point needs a wire per bus.
        points = sweep_widths(
            tiny_soc, range(2, max_width + 1), num_tams=2,
            pareto_only=True,
        )
        expected = sorted(
            {w for w in union if 2 <= w <= max_width} | {max_width}
        )
        assert [p.total_width for p in points] == expected
        # On real cores the union is a strict subset of the dense grid.
        assert len(expected) < max_width - 1

    def test_results_match_dense_sweep_at_those_widths(self, tiny_soc):
        dense = {
            p.total_width: p
            for p in sweep_widths(tiny_soc, range(2, 11), num_tams=2)
        }
        adaptive = sweep_widths(
            tiny_soc, range(2, 11), num_tams=2, pareto_only=True,
        )
        for point in adaptive:
            assert point == dense[point.total_width]

    def test_top_budget_is_always_swept(self, tiny_soc):
        points = sweep_widths(
            tiny_soc, (4, 5, 6, 7), num_tams=2, pareto_only=True,
        )
        assert points[-1].total_width == 7

    def test_breakpoints_outside_the_range_are_skipped(self, tiny_soc):
        from repro.analysis.sweep import pareto_widths

        union = set(pareto_widths(tiny_soc, 9))
        points = sweep_widths(
            tiny_soc, (5, 6, 7, 8, 9), num_tams=2, pareto_only=True,
        )
        swept = {p.total_width for p in points}
        assert swept <= (union & set(range(5, 10))) | {9}

    def test_pareto_widths_match_table_breakpoints(self, tiny_soc):
        from repro.analysis.sweep import pareto_widths

        tables = build_time_tables(tiny_soc, 8)
        union = {
            w
            for table in tables.values()
            for w, _ in table.pareto_points()
        }
        assert pareto_widths(tiny_soc, 8, tables=tables) == sorted(union)

    def test_dense_and_adaptive_agree_with_pool_runner(self, tiny_soc):
        from repro.engine.batch import BatchRunner

        dense = {
            p.total_width: p
            for p in sweep_widths(tiny_soc, range(2, 9), num_tams=2)
        }
        runner = BatchRunner(max_workers=2)
        adaptive = sweep_widths(
            tiny_soc, range(2, 9), num_tams=2, runner=runner,
            pareto_only=True,
        )
        for point in adaptive:
            assert point == dense[point.total_width]


class TestOneOptionCheck:
    """Options are checked once, by ``OptimizeSpec.from_options``,
    whichever tier the point runs."""

    @pytest.mark.parametrize("mode", ["exact", "search"])
    def test_unknown_option_is_named(self, tiny_soc, mode):
        with pytest.raises(ConfigurationError, match="bogus_knob"):
            evaluate_point(
                tiny_soc, 8, num_tams=2, mode=mode, bogus_knob=1
            )
        with pytest.raises(ConfigurationError, match="bogus_knob"):
            co_optimize(tiny_soc, 8, num_tams=2, mode=mode, bogus_knob=1)

    @pytest.mark.parametrize("mode", ["exact", "search"])
    def test_mistyped_option_is_named(self, tiny_soc, mode):
        with pytest.raises(ConfigurationError, match="polish"):
            evaluate_point(tiny_soc, 8, num_tams=2, mode=mode, polish="no")

    def test_search_only_option_rejected_under_exact(self, tiny_soc):
        with pytest.raises(ConfigurationError, match="seed"):
            evaluate_point(tiny_soc, 8, num_tams=2, seed=3)

    def test_exact_tier_options_are_inert_under_search(self, d695):
        search = dict(mode="search", eval_budget=300, seed=5)
        plain = evaluate_point(d695, 16, num_tams=(1, 2, 3), **search)
        knobbed = evaluate_point(
            d695, 16, num_tams=(1, 2, 3), polish=False, prune=False,
            polish_top_k=3, exact_node_limit=10, **search,
        )
        # Everything but the search's wall-clock timings.
        assert sweep_point_to_dict(knobbed) == sweep_point_to_dict(plain)

    def test_co_optimize_takes_a_spec_or_options_not_both(self, tiny_soc):
        spec = OptimizeSpec(total_width=8, num_tams=2)
        with pytest.raises(ConfigurationError, match="spec"):
            co_optimize(tiny_soc, spec=spec, polish=False)
        with pytest.raises(ConfigurationError, match="spec"):
            co_optimize(tiny_soc, spec=spec, num_tams=3)

    def test_co_optimize_runs_only_the_exact_tier(self, tiny_soc):
        with pytest.raises(ConfigurationError, match="mode"):
            co_optimize(tiny_soc, 8, num_tams=2, mode="search")
