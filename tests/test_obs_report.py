"""Offline report aggregation: journal loading + folds."""

import json

import pytest

from repro.errors import ReproError
from repro.obs.report import aggregate, format_report, load_journal


def journal_lines():
    return [
        {"type": "batch", "schema": 2, "jobs": 2},
        {"status": "ok", "hash": "h-a", "label": "a", "wall": 0.5,
         "summary": {"total_cycles": 500}},
        {"status": "failed", "hash": "h-b", "label": "b", "wall": 0.1,
         "error": "boom"},
    ]


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


# ----------------------------------------------------------------------
# load_journal
# ----------------------------------------------------------------------
def test_classify_empty_file_is_empty_telemetry(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_journal(path) == []
    path.write_text("  \n\n  ")
    assert load_journal(path) == []


def test_classify_telemetry_and_metrics_and_profile(tmp_path):
    journal = write_jsonl(tmp_path / "run.jsonl", journal_lines())
    assert len(load_journal(journal)) == 3

    # An indented JSON object spans lines: not a journal.
    metrics = tmp_path / "m.json"
    metrics.write_text(json.dumps(
        {"metrics": {"sim_cycles_total": {"kind": "counter"}}}, indent=1))
    with pytest.raises(ReproError, match="is not a run journal line"):
        load_journal(metrics)

    # Host-profile snapshots are not report inputs any more.
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"profile": {"phases": {}}}))
    with pytest.raises(ReproError, match=f"{profile} holds no run-journal"):
        load_journal(profile)


def test_classify_truncated_json_object_rejected(tmp_path):
    path = tmp_path / "torn.json"
    path.write_text('{"profile": {"phases"')
    with pytest.raises(ReproError, match="is not a run journal line"):
        load_journal(path)


def test_classify_unknown_schema_object_rejected(tmp_path):
    # A JSON object that is not a journal line is rejected, naming the
    # file; so is a line with garbage.
    path = tmp_path / "unknown.json"
    path.write_text('{"weights": [1, 2, 3]}')
    with pytest.raises(ReproError, match=f"{path} holds no run-journal"):
        load_journal(path)

    path.write_text('{"weights": 1}\n[not, valid\n')
    with pytest.raises(ReproError, match="is not a run journal line"):
        load_journal(path)


def test_classify_non_object_telemetry_line_rejected(tmp_path):
    path = tmp_path / "list.jsonl"
    path.write_text('{"type": "batch", "jobs": 1}\n[1, 2, 3]\n')
    with pytest.raises(ReproError, match="must be objects"):
        load_journal(path)


def test_classify_unreadable_path_rejected(tmp_path):
    with pytest.raises(ReproError, match="cannot read"):
        load_journal(tmp_path / "missing.jsonl")


# ----------------------------------------------------------------------
# aggregate over a mixed directory
# ----------------------------------------------------------------------
def test_aggregate_mixed_directory(tmp_path):
    journal = write_jsonl(tmp_path / "run.jsonl", journal_lines())
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")

    report = aggregate([journal, empty])
    assert report["jobs_total"] == 2
    assert report["done"] == 1 and report["failed"] == 1
    assert report["simulated_cycles"] == 500
    assert report["failures"] == [
        {"label": "b", "status": "failed", "error": "boom"}]
    lines = {entry["path"]: entry["lines"] for entry in report["files"]}
    assert lines == {str(journal): 3, str(empty): 0}

    text = format_report(report)
    assert "FAILED  : b: boom" in text
    assert f"file    : {empty} (0 lines)" in text
