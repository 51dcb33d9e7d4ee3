"""Integration tests for the experiment drivers (fast configurations)."""

from repro.report.experiments import (
    FIG2_WIDTHS,
    run_fig2_example,
    run_npaw,
    run_paw_comparison,
    run_range_table,
    run_table1,
    rows_to_table,
)


class TestFig2:
    def test_reproduces_paper_exactly(self):
        result = run_fig2_example()
        assert result["assignment"] == "(2,3,2,1,1)"
        assert result["bus_times"] == (180, 200, 200)
        assert result["testing_time"] == 200

    def test_widths_constant(self):
        assert FIG2_WIDTHS == (32, 16, 8)


class TestRangeTable:
    def test_d695(self, d695):
        rows = run_range_table(d695)
        assert len(rows) == 2
        assert rows[0]["circuit"] == "Logic cores"

    def test_renders(self, d695):
        rows = run_range_table(d695)
        text = rows_to_table(
            rows, ["circuit", "cores", "patterns"], title="Table 4-ish"
        )
        assert "Logic cores" in text and "Table 4-ish" in text


class TestTable1:
    def test_small_configuration(self, d695):
        rows = run_table1(d695, widths=(20, 24), tam_counts=(3,))
        assert [row["W"] for row in rows] == [20, 24]
        for row in rows:
            assert row["Neval(B=3)"] <= row["P(W,3)"]
            assert 0 <= row["E(B=3)"] <= 1


class TestPawComparison:
    def test_small_configuration(self, tiny_soc):
        rows = run_paw_comparison(
            tiny_soc, num_tams=2, widths=(8, 12),
            exhaustive_total_time=30.0,
        )
        assert len(rows) == 2
        for row in rows:
            # Heuristic never beats a complete exact sweep.
            if row["old_complete"]:
                assert row["delta_pct"] >= -1e-9


class TestRowsToTable:
    def test_missing_keys_render_empty(self):
        text = rows_to_table([{"a": 1}], ["a", "b"])
        lines = text.splitlines()
        assert lines[-1].startswith("1")

    def test_title_passthrough(self):
        text = rows_to_table([{"a": 1}], ["a"], title="T")
        assert text.splitlines()[0] == "T"


class TestNpaw:
    def test_small_configuration(self, tiny_soc):
        rows = run_npaw(tiny_soc, widths=(8, 12), max_tams=3)
        assert len(rows) == 2
        for row in rows:
            assert sum(map(int, row["partition"].split("+"))) == row["W"]
            assert row["B"] <= 3

    def test_time_non_increasing_in_width(self, tiny_soc):
        rows = run_npaw(tiny_soc, widths=(6, 10, 14), max_tams=3)
        times = [row["T_new"] for row in rows]
        assert all(a >= b for a, b in zip(times, times[1:]))
