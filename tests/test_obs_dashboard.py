"""Dashboard follower/renderer, report aggregation, tail/report CLI."""

import io
import json
import os
import threading
import time

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.obs.dashboard import BatchWatch, JSONLFollower, render, tail
from repro.obs.report import aggregate, format_report, load_journal


def write_jsonl(path, records):
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def job(status, name, time_, **extra):
    """One schema-2 journal job line."""
    return {"status": status, "hash": name * 3, "label": f"pr/g/{name}",
            "time": time_, "engine": "reference", **extra}


JOURNAL = [
    {"type": "batch", "schema": 2, "sim": 1, "jobs": 3, "time": 10.0},
    job("cached", "sw", 10.1, wall=0.0, summary={"total_cycles": 500}),
    job("ok", "vm", 11.0, wall=0.8, summary={"total_cycles": 1000}),
    job("failed", "wm", 11.5, wall=0.1, error="SimulationError: boom"),
]


# ----------------------------------------------------------------------
def test_follower_reads_incrementally(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text('{"kind": "submitted", "job": "a"}\n')
    follower = JSONLFollower(path)
    assert [r["kind"] for r in follower.poll()] == ["submitted"]
    assert follower.poll() == []  # nothing new

    with open(path, "a") as handle:
        handle.write('{"kind": "started", "job": "a"}\n{"kind": "fin')
    assert [r["kind"] for r in follower.poll()] == ["started"]
    with open(path, "a") as handle:  # complete the partial line
        handle.write('ished", "job": "a"}\n')
    assert [r["kind"] for r in follower.poll()] == ["finished"]
    assert follower.bad_lines == 0


def test_follower_handles_truncation_and_garbage(tmp_path):
    path = tmp_path / "run.jsonl"
    write_jsonl(path, JOURNAL)
    follower = JSONLFollower(path)
    assert len(follower.poll()) == 4
    path.write_text('not json\n{"type": "batch", "jobs": 1}\n')
    records = follower.poll()  # reset to top after shrink
    assert records == [{"type": "batch", "jobs": 1}]
    assert follower.bad_lines == 1


def test_follower_sees_a_replaced_file_from_the_top(tmp_path):
    """A longer file put in place of the followed one (a new run's
    journal) is read from its first line, not from the old offset."""
    path = tmp_path / "run.jsonl"
    write_jsonl(path, [{"i": i} for i in range(10)])
    follower = JSONLFollower(path)
    assert len(follower.poll()) == 10

    fresh = tmp_path / "fresh.jsonl"
    write_jsonl(fresh, [{"i": i} for i in range(25)])
    os.replace(fresh, path)
    assert [r["i"] for r in follower.poll()] == list(range(25))


def test_follower_missing_file(tmp_path):
    assert JSONLFollower(tmp_path / "absent.jsonl").poll() == []


# ----------------------------------------------------------------------
def test_batchwatch_snapshot():
    watch = BatchWatch()
    watch.update_all(JOURNAL)
    snap = watch.snapshot()
    assert snap["jobs_total"] == 3
    assert snap["done"] == 2 and snap["failed"] == 1
    assert snap["cached"] == 1 and snap["skipped"] == 0
    assert "running" not in snap
    assert snap["simulated_cycles"] == 1500
    assert snap["elapsed_seconds"] == pytest.approx(1.5)
    assert snap["finished"] is True
    assert snap["cache_hit_rate"] == pytest.approx(1 / 3, abs=1e-4)
    assert watch.failures[0]["label"] == "pr/g/wm"
    assert snap["last"] == [
        {"label": "pr/g/sw", "status": "cached", "wall": 0.0},
        {"label": "pr/g/vm", "status": "ok", "wall": 0.8},
        {"label": "pr/g/wm", "status": "failed",
         "error": "SimulationError: boom"},
    ]


def test_render_frame():
    watch = BatchWatch()
    watch.update_all(JOURNAL)
    frame = render(watch, clock=0.0)
    assert "3 total | 2 done | 1 failed | 1 cached" in frame
    assert "running" not in frame
    assert "100%  ETA done" in frame
    assert "1,500 simulated" in frame
    assert "pr/g/vm ok in 0.800s" in frame
    assert "pr/g/wm failed: SimulationError: boom" in frame


def test_tail_once_reads_static_file(tmp_path):
    path = tmp_path / "run.jsonl"
    write_jsonl(path, JOURNAL)
    out = io.StringIO()
    watch = tail(path, follow=False, out=out)
    assert watch.finished
    assert "3 total" in out.getvalue()


def test_tail_follows_growing_file(tmp_path):
    """The dashboard keeps up with a writer appending concurrently."""
    path = tmp_path / "run.jsonl"
    write_jsonl(path, JOURNAL[:1])

    def writer():
        for record in JOURNAL[1:]:
            time.sleep(0.02)
            with open(path, "a") as handle:
                handle.write(json.dumps(record) + "\n")

    thread = threading.Thread(target=writer)
    thread.start()
    out = io.StringIO()
    watch = tail(path, follow=True, interval=0.01, max_frames=500,
                 out=out, use_ansi=False)
    thread.join()
    # Exited because every announced job has a line.
    assert watch.finished
    assert watch.snapshot()["jobs_total"] == 3
    assert out.getvalue().count("batch journal") >= 2


def test_tail_stops_at_max_frames(tmp_path):
    path = tmp_path / "run.jsonl"
    write_jsonl(path, JOURNAL[:3])  # 2 of 3 announced jobs => not done
    watch = tail(path, follow=True, interval=0.001, max_frames=3,
                 out=io.StringIO(), use_ansi=False)
    assert not watch.finished


# ----------------------------------------------------------------------
def test_classify_file(tmp_path):
    journal = tmp_path / "run.jsonl"
    write_jsonl(journal, JOURNAL)
    assert len(load_journal(journal)) == len(JOURNAL)

    garbage = tmp_path / "garbage.txt"
    garbage.write_text("definitely not json\n")
    with pytest.raises(ReproError):
        load_journal(garbage)
    with pytest.raises(ReproError):
        load_journal(tmp_path / "missing.jsonl")


def test_aggregate_telemetry_and_metrics(tmp_path):
    journal = tmp_path / "run.jsonl"
    write_jsonl(journal, JOURNAL)

    report = aggregate([journal])
    assert report["jobs_total"] == 3
    assert report["failed"] == 1
    assert report["simulated_cycles"] == 1500
    assert [f["path"] for f in report["files"]] == [str(journal)]
    assert report["failures"] == [
        {"label": "pr/g/wm", "status": "failed",
         "error": "SimulationError: boom"}]

    text = format_report(report)
    assert "3 total" in text and "1 failed" in text
    assert "last    : pr/g/vm ok in 0.800s" in text


def test_aggregate_merges_two_sinks(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    write_jsonl(a, JOURNAL[:2])
    write_jsonl(b, JOURNAL[2:])
    report = aggregate([a, b])
    assert report["jobs_total"] == 3
    assert report["done"] == 2 and report["failed"] == 1


# ----------------------------------------------------------------------
def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cli_tail_once(capsys, tmp_path):
    path = tmp_path / "run.jsonl"
    write_jsonl(path, JOURNAL)
    code, out = run_cli(capsys, "tail", str(path), "--once", "--json")
    assert code == 1  # one failed job
    assert "batch journal" in out
    last = out.strip().splitlines()[-1]
    assert json.loads(last)["jobs_total"] == 3
    code, out = run_cli(capsys, "report", str(path), "--json")
    assert code == 1
    assert json.loads(out)["last"][-1]["error"] == "SimulationError: boom"


def test_cli_report(capsys, tmp_path):
    path = tmp_path / "run.jsonl"
    write_jsonl(path, [r for r in JOURNAL if r.get("status") != "failed"])
    code, out = run_cli(capsys, "report", str(path))
    assert code == 0
    assert "observability report" in out
    code, out = run_cli(capsys, "report", str(path), "--json")
    assert code == 0
    assert json.loads(out)["done"] == 2

    # An indented JSON object is not a journal.
    old = tmp_path / "metrics.json"
    old.write_text(json.dumps({"metrics": {}}, indent=1))
    assert main(["report", str(old)]) == 2
    assert "not a run journal line" in capsys.readouterr().err


# ------------------------------------------------- schema 1 / skipped
#: A journal line as schema 1 wrote it (here from a REPRO_DIGEST=1
#: run): no header, no type, no status; one line per finished or
#: cached job.
SCHEMA1_LINE = (
    '{"hash": "9f2c", "label": "pagerank/bio-human/vertex_map", '
    '"schema": 1, "sim": 1, "summary": {"digest_ledger": '
    '[[0, 0, 0, 0, "abcd", 2]], "iterations": 1, "stats": {}, '
    '"total_cycles": 700, "values_digest": "d"}, "time": 10.1}\n')


def test_batchwatch_counts_resumed_and_skipped():
    """A schema-1 line (a job an older build journaled, as it also
    logged jobs restored on resume) counts as done; a fail-fast
    journal's skipped lines end their jobs."""
    watch = BatchWatch()
    watch.update(json.loads(SCHEMA1_LINE))
    watch.update_all([
        job("failed", "wm", 10.5, wall=0.1,
            error="ScheduleError: unknown schedule"),
        job("skipped", "sw", 10.5, wall=0.0,
            error="skipped after an earlier failure (fail_fast)"),
    ])
    snap = watch.snapshot()
    assert snap["jobs_total"] == 3
    assert snap["done"] == 1
    assert snap["skipped"] == 1
    assert snap["failed"] == 1
    assert snap["simulated_cycles"] == 700
    assert snap["cache_hit_rate"] == 0.0


def test_schema1_journal_still_loads(capsys, tmp_path):
    """diff, tail --once and report all read a schema-1 journal and
    count its job as done."""
    path = tmp_path / "old.jsonl"
    path.write_text(SCHEMA1_LINE)
    code, out = run_cli(capsys, "tail", str(path), "--once", "--json")
    assert code == 0
    snap = json.loads(out.strip().splitlines()[-1])
    assert (snap["jobs_total"], snap["done"]) == (1, 1)
    code, out = run_cli(capsys, "report", str(path), "--json")
    assert code == 0
    assert json.loads(out)["done"] == 1
    code, out = run_cli(capsys, "diff", "--a", str(path), "--b", str(path),
                        "--json")
    assert code == 0
    assert json.loads(out)["compared"] == 1


def test_old_telemetry_file_exits_2(capsys, tmp_path):
    """A telemetry stream (the per-job record before the journal
    replaced it) holds no journal line: tail and report name it."""
    path = tmp_path / "events.jsonl"
    write_jsonl(path, [
        {"kind": "submitted", "job": "aaa", "label": "j1", "time": 0.0},
        {"kind": "finished", "job": "aaa", "label": "j1", "time": 1.0,
         "cycles": 100, "wall": 1.0},
    ])
    for argv in (["tail", str(path), "--once"], ["report", str(path)]):
        assert main(argv) == 2
        assert f"{path} holds no run-journal line" in capsys.readouterr().err


# ------------------------------------------------- crash-safe appends
def test_killed_writer_never_leaves_a_torn_line(tmp_path):
    """Regression: SIGKILL a process mid-stream; every line in the
    journal must still parse (single-write O_APPEND emission)."""
    import subprocess
    import sys
    from pathlib import Path

    path = tmp_path / "run.jsonl"
    repo_root = Path(__file__).resolve().parents[1]
    child = subprocess.Popen(
        [sys.executable, "-c", (
            "import sys\n"
            "from repro.runtime.journal import append_jsonl\n"
            "i = 0\n"
            "while True:\n"
            "    append_jsonl(sys.argv[1], {'seq': i, 'pad': 'x' * 200})\n"
            "    i += 1\n"
        ), str(path)],
        env=dict(os.environ, PYTHONPATH=str(repo_root / "src")),
    )
    try:
        deadline = time.time() + 60
        while time.time() < deadline:
            if path.exists() and path.stat().st_size > 20_000:
                break
            time.sleep(0.01)
        assert path.exists() and path.stat().st_size > 0
    finally:
        child.kill()  # SIGKILL: no cleanup, no flush handlers
        child.wait(timeout=60)

    follower = JSONLFollower(path)
    records = follower.poll()
    assert follower.bad_lines == 0  # no torn lines, ever
    assert records
    assert [r["seq"] for r in records] == list(range(len(records)))
    assert path.read_text().endswith("\n")
