"""JobJournal durability semantics: append, replay, compaction."""

import json

from repro.api import GridSpec
from repro.service.journal import JOURNAL_NAME, JobJournal, JournalEntry


def make_entry(job_id, key=None, spec=None, **kwargs):
    return JournalEntry(
        job_id=job_id,
        key=key or f"key-{job_id}",
        spec=spec if spec is not None else {"schema": 1},
        **kwargs,
    )


class TestAppendReplay:
    def test_open_entries_survive_terminals(self, tmp_path):
        journal = JobJournal(tmp_path / JOURNAL_NAME)
        journal.record_submitted(make_entry("job-1"))
        journal.record_submitted(make_entry("job-2"))
        journal.record_terminal("job-1", "done")
        journal.close()
        fresh = JobJournal(tmp_path / JOURNAL_NAME)
        open_entries = fresh.replay()
        assert [e.job_id for e in open_entries] == ["job-2"]

    def test_runner_hints_round_trip(self, tmp_path):
        """The hints ride in the journaled spec, not beside it."""
        hints = {"shard": "auto", "point_timeout": 2.5}
        spec = GridSpec.from_axes(["d695"], [8], runner=hints)
        journal = JobJournal(tmp_path / JOURNAL_NAME)
        journal.record_submitted(make_entry("job-1", spec=spec.to_dict()))
        journal.close()
        [entry] = JobJournal(tmp_path / JOURNAL_NAME).replay()
        assert GridSpec.from_dict(entry.spec).runner_options() == hints

    def test_replayed_counts_as_terminal(self, tmp_path):
        journal = JobJournal(tmp_path / JOURNAL_NAME)
        journal.record_submitted(make_entry("job-1"))
        journal.record_replayed("job-1", "job-7")
        journal.close()
        assert JobJournal(tmp_path / JOURNAL_NAME).replay() == []

    def test_missing_file_replays_empty(self, tmp_path):
        assert JobJournal(tmp_path / "absent.jsonl").replay() == []


class TestCrashArtifacts:
    def test_torn_tail_is_dropped_silently(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        journal = JobJournal(path)
        journal.record_submitted(make_entry("job-1"))
        journal.close()
        # Simulate dying mid-append: a final line without newline.
        with open(path, "ab") as handle:
            handle.write(b'{"kind": "subm')
        open_entries = JobJournal(path).replay()
        assert [e.job_id for e in open_entries] == ["job-1"]

    def test_corrupt_interior_line_is_skipped(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        journal = JobJournal(path)
        journal.record_submitted(make_entry("job-1"))
        journal.close()
        raw = path.read_bytes()
        path.write_bytes(b"not json at all\n" + raw)
        open_entries = JobJournal(path).replay()
        assert [e.job_id for e in open_entries] == ["job-1"]

    def test_unknown_kind_is_tolerated(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        path.write_text(
            json.dumps({"kind": "vibes", "job": "job-9"}) + "\n"
        )
        assert JobJournal(path).replay() == []


class TestCompaction:
    def test_compact_rewrites_to_open_entries_only(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        journal = JobJournal(path)
        for index in range(5):
            journal.record_submitted(make_entry(f"job-{index}"))
        for index in range(4):
            journal.record_terminal(f"job-{index}", "done")
        journal.compact(journal.replay())
        lines = [
            line for line in path.read_text().splitlines() if line
        ]
        assert len(lines) == 1
        assert json.loads(lines[0])["job"] == "job-4"
        # The journal stays appendable after compaction.
        journal.record_submitted(make_entry("job-5"))
        journal.close()
        assert len(JobJournal(path).replay()) == 2
