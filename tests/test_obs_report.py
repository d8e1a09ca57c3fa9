"""Offline report aggregation: file classification + mixed folds."""

import json

import pytest

from repro.errors import ReproError
from repro.obs.profile import PhaseProfiler
from repro.obs.report import aggregate, classify_file, format_report


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
# classify_file
# ----------------------------------------------------------------------
def test_classify_empty_file_is_empty_telemetry(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert classify_file(path) == ("journal", [])
    path.write_text("  \n\n  ")
    assert classify_file(path) == ("journal", [])


def test_classify_telemetry_and_metrics_and_profile(tmp_path):
    journal = write_jsonl(tmp_path / "run.jsonl", journal_lines())
    kind, records = classify_file(journal)
    assert kind == "journal" and len(records) == 3

    # An indented object without a "profile" key is neither kind.
    metrics = tmp_path / "m.json"
    metrics.write_text(json.dumps(
        {"metrics": {"sim_cycles_total": {"kind": "counter"}}}, indent=1))
    with pytest.raises(ReproError, match="neither a run journal nor a "
                                         "profile snapshot"):
        classify_file(metrics)

    profiler = PhaseProfiler(enabled=True)
    profiler.add("execute", 0.5)
    kind, doc = classify_file(profiler.save(tmp_path / "p.json"))
    assert kind == "profile" and "profile" in doc


def test_classify_truncated_json_object_rejected(tmp_path):
    path = tmp_path / "torn.json"
    path.write_text('{"profile": {"phases"')
    with pytest.raises(ReproError, match="neither a run journal"):
        classify_file(path)


def test_classify_unknown_schema_object_rejected(tmp_path):
    # A JSON object that is neither a profile snapshot nor a journal
    # line is rejected, naming the file; so is a line with garbage.
    path = tmp_path / "unknown.json"
    path.write_text('{"weights": [1, 2, 3]}')
    with pytest.raises(ReproError, match=f"{path} holds no run-journal"):
        classify_file(path)

    path.write_text('{"weights": 1}\n[not, valid\n')
    with pytest.raises(ReproError, match="neither"):
        classify_file(path)


def test_classify_non_object_telemetry_line_rejected(tmp_path):
    path = tmp_path / "list.jsonl"
    path.write_text('{"type": "batch", "jobs": 1}\n[1, 2, 3]\n')
    with pytest.raises(ReproError, match="must be objects"):
        classify_file(path)


def test_classify_unreadable_path_rejected(tmp_path):
    with pytest.raises(ReproError, match="cannot read"):
        classify_file(tmp_path / "missing.jsonl")


# ----------------------------------------------------------------------
# aggregate over a mixed directory
# ----------------------------------------------------------------------
def test_aggregate_mixed_directory(tmp_path):
    journal = write_jsonl(tmp_path / "run.jsonl", journal_lines())
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")

    profiler = PhaseProfiler(enabled=True)
    profiler.add("execute", 0.6)
    profiler.add("mem/l1", 0.2)
    profiler.end_kernel(cycles=2000, wall_seconds=1.0)
    profile = profiler.save(tmp_path / "profile.json")

    report = aggregate([journal, empty, profile])
    assert report["jobs_total"] == 2
    assert report["done"] == 1 and report["failed"] == 1
    assert report["simulated_cycles"] == 500
    assert report["failures"] == [
        {"label": "b", "status": "failed", "error": "boom"}]
    host = report["host_profile"]
    assert host["kernels"] == 1
    assert host["phases"][0]["phase"] == "execute"
    kinds = {entry["path"]: entry["kind"] for entry in report["files"]}
    assert kinds == {str(journal): "journal", str(empty): "journal",
                     str(profile): "profile"}

    text = format_report(report)
    assert "profile :" in text
    assert "execute" in text and "mem/l1" in text
    assert "FAILED  : b: boom" in text


def test_aggregate_two_profiles_merge(tmp_path):
    for i, sec in enumerate((0.25, 0.75)):
        p = PhaseProfiler(enabled=True)
        p.add("execute", sec)
        p.end_kernel(cycles=100, wall_seconds=sec)
        p.save(tmp_path / f"p{i}.json")
    report = aggregate(sorted(tmp_path.glob("p*.json")))
    host = report["host_profile"]
    assert host["kernels"] == 2
    assert host["sim_wall_seconds"] == pytest.approx(1.0)
    assert host["coverage"] == pytest.approx(1.0)
