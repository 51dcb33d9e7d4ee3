"""The RPR004 golden spec-schema lock: drift detection + regeneration."""

import copy
import json

from repro.analysis.lint import (
    check_drift,
    current_schema,
    golden_path,
    load_golden,
    write_golden,
)
from repro.analysis.lint.schema_lock import SchemaLockRule, _versions_bumped


class TestCurrentSchema:
    def test_locks_all_four_classes(self):
        classes = current_schema()["classes"]
        assert sorted(classes) == [
            "GridSpec", "JobEvent", "JobRequest", "OptimizeSpec",
        ]

    def test_carries_every_version_constant(self):
        schema = current_schema()
        assert schema["spec_schema_version"] == 4
        assert schema["protocol_version"] == 3
        assert schema["supported_protocol_versions"] == [1, 2, 3]

    def test_json_round_trip_is_lossless(self):
        schema = current_schema()
        assert json.loads(json.dumps(schema)) == schema


class TestCheckDrift:
    def test_identical_records_are_clean(self):
        schema = current_schema()
        assert check_drift(schema, copy.deepcopy(schema)) == []

    def test_added_field_detected(self):
        golden = current_schema()
        live = copy.deepcopy(golden)
        live["classes"]["GridSpec"]["fields"]["rogue"] = "int"
        problems = check_drift(live, golden)
        assert any("GridSpec.rogue was added" in p for p in problems)

    def test_removed_field_detected(self):
        golden = current_schema()
        live = copy.deepcopy(golden)
        name = next(iter(live["classes"]["JobEvent"]["fields"]))
        del live["classes"]["JobEvent"]["fields"][name]
        problems = check_drift(live, golden)
        assert any(f"JobEvent.{name} was removed" in p for p in problems)

    def test_retyped_field_detected(self):
        golden = current_schema()
        live = copy.deepcopy(golden)
        name = next(iter(live["classes"]["OptimizeSpec"]["fields"]))
        live["classes"]["OptimizeSpec"]["fields"][name] = "complex"
        problems = check_drift(live, golden)
        assert any("changed type" in p for p in problems)

    def test_option_default_change_detected(self):
        golden = current_schema()
        live = copy.deepcopy(golden)
        key = next(iter(live["option_defaults"]))
        live["option_defaults"][key] = "changed"
        problems = check_drift(live, golden)
        assert any("option_defaults" in p for p in problems)

    def test_version_move_alone_is_still_drift(self):
        golden = current_schema()
        live = copy.deepcopy(golden)
        live["spec_schema_version"] = golden["spec_schema_version"] + 1
        assert check_drift(live, golden)
        assert _versions_bumped(live, golden)

    def test_field_change_without_bump_is_not_a_bump(self):
        golden = current_schema()
        live = copy.deepcopy(golden)
        live["classes"]["GridSpec"]["fields"]["rogue"] = "int"
        assert not _versions_bumped(live, golden)


class TestGoldenArtifact:
    def test_committed_golden_matches_live_schema(self):
        assert check_drift(current_schema(), load_golden()) == []

    def test_regeneration_is_a_no_op_on_clean_tree(self, tmp_path):
        regenerated = write_golden(tmp_path / "spec_schema.json")
        assert regenerated.read_text() == golden_path().read_text()

    def test_load_golden_from_explicit_path(self, tmp_path):
        path = write_golden(tmp_path / "golden.json")
        assert load_golden(path) == load_golden()


class TestSchemaLockRule:
    def rule(self):
        return SchemaLockRule()

    def test_clean_tree_yields_nothing(self, tmp_path):
        assert list(self.rule().check_project(tmp_path)) == []

    def test_missing_golden_reported(self, tmp_path, monkeypatch):
        from repro.analysis.lint import schema_lock

        monkeypatch.setattr(
            schema_lock, "golden_path",
            lambda: tmp_path / "absent.json",
        )
        found = list(self.rule().check_project(tmp_path))
        assert len(found) == 1
        assert "missing" in found[0].message

    def test_unbumped_field_change_is_hard_error(
        self, tmp_path, monkeypatch
    ):
        from repro.analysis.lint import schema_lock

        stale = current_schema()
        del next(iter(stale["classes"].values()))["fields"][
            next(iter(next(iter(stale["classes"].values()))["fields"]))
        ]
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(stale))
        monkeypatch.setattr(schema_lock, "golden_path", lambda: path)
        found = list(self.rule().check_project(tmp_path))
        assert found
        assert all(
            "without a version bump" in v.message for v in found
        )

    def test_stale_after_bump_asks_for_regeneration(
        self, tmp_path, monkeypatch
    ):
        from repro.analysis.lint import schema_lock

        stale = current_schema()
        stale["spec_schema_version"] = 0
        path = tmp_path / "golden.json"
        path.write_text(json.dumps(stale))
        monkeypatch.setattr(schema_lock, "golden_path", lambda: path)
        found = list(self.rule().check_project(tmp_path))
        assert found
        assert all("regenerate" in v.message for v in found)

    def test_unreadable_golden_reported(self, tmp_path, monkeypatch):
        from repro.analysis.lint import schema_lock

        path = tmp_path / "golden.json"
        path.write_text("{not json")
        monkeypatch.setattr(schema_lock, "golden_path", lambda: path)
        found = list(self.rule().check_project(tmp_path))
        assert len(found) == 1
        assert "unreadable" in found[0].message
