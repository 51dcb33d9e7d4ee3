"""Unit tests for JSON result serialization."""

import pytest

from repro.exceptions import ValidationError
from repro.report.serialize import (
    SCHEMA_VERSION,
    assignment_from_dict,
    assignment_to_dict,
    co_optimization_to_dict,
    exhaustive_to_dict,
    from_json,
    to_json,
)
from repro.tam.assignment import evaluate_assignment

TIMES = [[10, 20], [30, 15], [5, 50]]


def _assignment():
    return evaluate_assignment(TIMES, [8, 4], [0, 1, 0], optimal=True)


class TestAssignmentRoundTrip:
    def test_roundtrip(self):
        original = _assignment()
        rebuilt = assignment_from_dict(assignment_to_dict(original))
        assert rebuilt == original

    def test_json_roundtrip(self):
        original = _assignment()
        text = to_json(assignment_to_dict(original))
        rebuilt = assignment_from_dict(from_json(text))
        assert rebuilt == original

    def test_schema_stamped(self):
        assert assignment_to_dict(_assignment())["schema"] == SCHEMA_VERSION

    def test_unknown_schema_rejected(self):
        data = assignment_to_dict(_assignment())
        data["schema"] = 999
        with pytest.raises(ValidationError, match="schema"):
            assignment_from_dict(data)

    def test_wrong_kind_rejected(self):
        data = assignment_to_dict(_assignment())
        data["kind"] = "banana"
        with pytest.raises(ValidationError, match="kind"):
            assignment_from_dict(data)

    def test_missing_field_rejected(self):
        data = assignment_to_dict(_assignment())
        del data["bus_times"]
        with pytest.raises(ValidationError, match="missing"):
            assignment_from_dict(data)

    def test_tampered_times_rejected(self):
        # AssignmentResult validation fires on inconsistent data.
        data = assignment_to_dict(_assignment())
        data["testing_time"] = 1
        with pytest.raises(ValidationError):
            assignment_from_dict(data)


class TestPipelineRecords:
    def test_co_optimization_record(self, tiny_soc):
        from repro.optimize.co_optimize import co_optimize
        result = co_optimize(tiny_soc, 8, num_tams=range(1, 3))
        record = co_optimization_to_dict(result)
        assert record["soc"] == "tiny"
        assert record["total_width"] == 8
        assert record["final"]["testing_time"] == result.testing_time
        assert len(record["pruning"]) == 2
        for entry in record["pruning"]:
            # Skips are partitions that would have aborted.
            assert entry["lb_pruned"] <= (
                entry["enumerated"] - entry["completed"]
            )
        # Valid JSON end to end.
        assert from_json(to_json(record))["kind"] == "co_optimization"

    def test_co_optimization_record_reports_lb_pruning(self, p21241):
        from repro.optimize.co_optimize import co_optimize
        result = co_optimize(
            p21241, 24, num_tams=range(1, 7), polish=False
        )
        record = co_optimization_to_dict(result)
        assert sum(e["lb_pruned"] for e in record["pruning"]) > 0
        assert (sum(e["lb_pruned"] for e in record["pruning"])
                == result.search.num_lb_pruned)

    def test_exhaustive_record(self, tiny_soc):
        from repro.optimize.exhaustive import exhaustive_optimize
        result = exhaustive_optimize(tiny_soc, 8, num_tams=2)
        record = exhaustive_to_dict(result)
        assert record["complete"]
        assert record["best"]["testing_time"] == result.testing_time

    def test_from_json_rejects_non_object(self):
        with pytest.raises(ValidationError):
            from_json("[1, 2, 3]")


class TestTimeTableRoundTrip:
    def test_json_roundtrip_is_bit_identical(self, scan_core):
        import json

        from repro.report.serialize import (
            time_table_from_dict,
            time_table_to_dict,
        )
        from repro.wrapper.pareto import TimeTable

        original = TimeTable(scan_core, 9)
        record = json.loads(to_json(time_table_to_dict(original)))
        rebuilt = time_table_from_dict(record, scan_core)
        assert rebuilt._times == original._times
        assert rebuilt._designs == original._designs
        assert rebuilt.max_width == original.max_width

    def test_fingerprint_mismatch_rejected(self, scan_core, memory_core):
        from repro.report.serialize import (
            time_table_from_dict,
            time_table_to_dict,
        )
        from repro.wrapper.pareto import TimeTable

        record = time_table_to_dict(TimeTable(scan_core, 5))
        with pytest.raises(ValidationError, match="fingerprint"):
            time_table_from_dict(record, memory_core)

    def test_wrong_schema_and_kind_rejected(self, scan_core):
        from repro.report.serialize import (
            time_table_from_dict,
            time_table_to_dict,
        )
        from repro.wrapper.pareto import TimeTable

        record = time_table_to_dict(TimeTable(scan_core, 5))
        with pytest.raises(ValidationError):
            time_table_from_dict(dict(record, schema=99), scan_core)
        with pytest.raises(ValidationError):
            time_table_from_dict(dict(record, kind="nope"), scan_core)

    def test_missing_field_rejected(self, scan_core):
        from repro.report.serialize import (
            time_table_from_dict,
            time_table_to_dict,
        )
        from repro.wrapper.pareto import TimeTable

        record = time_table_to_dict(TimeTable(scan_core, 5))
        del record["steps"]
        with pytest.raises(ValidationError, match="missing"):
            time_table_from_dict(record, scan_core)


class TestFailedPointSerialization:
    def test_failed_point_record_fields(self, tiny_soc):
        from repro.engine.batch import BatchJob, FailedPoint
        from repro.report.serialize import failed_point_to_dict

        failure = FailedPoint(
            job=BatchJob(tiny_soc, 5, 2),
            error_type="ConfigurationError",
            error_message="boom",
            attempts=2,
        )
        record = failed_point_to_dict(failure)
        assert record["kind"] == "failed_point"
        assert record["soc"] == "tiny"
        assert record["total_width"] == 5
        assert record["attempts"] == 2
