"""Dashboard follower/renderer, report aggregation, tail/report CLI."""

import io
import json
import threading
import time

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.obs.dashboard import BatchWatch, JSONLFollower, render, tail
from repro.obs.report import aggregate, classify_file, format_report


def write_jsonl(path, records):
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


TELEMETRY = [
    {"kind": "submitted", "job": "aaa", "label": "pr/g/vm", "time": 10.0},
    {"kind": "submitted", "job": "bbb", "label": "pr/g/wm", "time": 10.0},
    {"kind": "submitted", "job": "ccc", "label": "pr/g/sw", "time": 10.0},
    {"kind": "cached", "job": "ccc", "label": "pr/g/sw", "time": 10.1,
     "cycles": 500},
    {"kind": "started", "job": "aaa", "label": "pr/g/vm", "time": 10.2},
    {"kind": "started", "job": "bbb", "label": "pr/g/wm", "time": 10.2},
    {"kind": "finished", "job": "aaa", "label": "pr/g/vm", "time": 11.0,
     "cycles": 1000, "wall": 0.8},
    {"kind": "failed", "job": "bbb", "label": "pr/g/wm", "time": 11.5,
     "error": "SimulationError: boom"},
    {"kind": "batch_summary", "time": 11.6,
     "cache": {"entries": 2, "hits": 1, "misses": 2, "stores": 1,
               "evictions": 0, "dir": "/tmp/c"}},
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
    path = tmp_path / "events.jsonl"
    write_jsonl(path, TELEMETRY[:4])
    follower = JSONLFollower(path)
    assert len(follower.poll()) == 4
    path.write_text('not json\n{"kind": "submitted", "job": "x"}\n')
    records = follower.poll()  # reset to top after shrink
    assert [r["kind"] for r in records] == ["submitted"]
    assert follower.bad_lines == 1


def test_follower_missing_file(tmp_path):
    assert JSONLFollower(tmp_path / "absent.jsonl").poll() == []


# ----------------------------------------------------------------------
def test_batchwatch_snapshot():
    watch = BatchWatch()
    watch.update_all(TELEMETRY)
    snap = watch.snapshot()
    assert snap["jobs_total"] == 3
    assert snap["done"] == 2 and snap["failed"] == 1
    assert snap["cached"] == 1 and snap["running"] == 0
    assert snap["simulated_cycles"] == 1500
    assert snap["finished"] is True
    assert snap["cache_hit_rate"] == pytest.approx(1 / 3, abs=1e-4)
    assert watch.failures[0]["label"] == "pr/g/wm"


def test_render_frame():
    watch = BatchWatch()
    watch.update_all(TELEMETRY)
    frame = render(watch, clock=0.0)
    assert "3 total" in frame
    assert "100%" in frame
    assert "1,500 simulated" in frame
    assert "pr/g/wm failed: SimulationError: boom" in frame
    assert "2 entries" in frame


def test_tail_once_reads_static_file(tmp_path):
    path = tmp_path / "events.jsonl"
    write_jsonl(path, TELEMETRY)
    out = io.StringIO()
    watch = tail(path, follow=False, out=out)
    assert watch.finished
    assert "3 total" in out.getvalue()


def test_tail_follows_growing_file(tmp_path):
    """The dashboard keeps up with a writer appending concurrently."""
    path = tmp_path / "events.jsonl"
    write_jsonl(path, TELEMETRY[:2])

    def writer():
        for record in TELEMETRY[2:]:
            time.sleep(0.02)
            with open(path, "a") as handle:
                handle.write(json.dumps(record) + "\n")

    thread = threading.Thread(target=writer)
    thread.start()
    out = io.StringIO()
    watch = tail(path, follow=True, interval=0.01, max_frames=500,
                 out=out, use_ansi=False)
    thread.join()
    # Exited because batch_summary arrived, having seen every record.
    assert watch.finished
    assert watch.snapshot()["jobs_total"] == 3
    assert out.getvalue().count("batch telemetry") >= 2


def test_tail_stops_at_max_frames(tmp_path):
    path = tmp_path / "events.jsonl"
    write_jsonl(path, TELEMETRY[:3])  # no batch_summary => never "done"
    watch = tail(path, follow=True, interval=0.001, max_frames=3,
                 out=io.StringIO(), use_ansi=False)
    assert not watch.finished


# ----------------------------------------------------------------------
def test_classify_file(tmp_path):
    events = tmp_path / "events.jsonl"
    write_jsonl(events, TELEMETRY)
    kind, records = classify_file(events)
    assert kind == "telemetry" and len(records) == len(TELEMETRY)

    garbage = tmp_path / "garbage.txt"
    garbage.write_text("definitely not json\n")
    with pytest.raises(ReproError):
        classify_file(garbage)
    with pytest.raises(ReproError):
        classify_file(tmp_path / "missing.jsonl")


def test_aggregate_telemetry_and_metrics(tmp_path):
    events = tmp_path / "events.jsonl"
    write_jsonl(events, TELEMETRY)

    report = aggregate([events])
    assert report["jobs_total"] == 3
    assert report["failed"] == 1
    assert report["simulated_cycles"] == 1500
    assert [f["kind"] for f in report["files"]] == ["telemetry"]
    assert report["failures"] == [
        {"label": "pr/g/wm", "error": "SimulationError: boom"}]

    text = format_report(report)
    assert "3 total" in text and "1 failed" in text


def test_aggregate_merges_two_sinks(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    write_jsonl(a, TELEMETRY[:4])
    write_jsonl(b, TELEMETRY[4:])
    report = aggregate([a, b])
    assert report["jobs_total"] == 3
    assert report["done"] == 2 and report["failed"] == 1


# ----------------------------------------------------------------------
def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cli_tail_once(capsys, tmp_path):
    path = tmp_path / "events.jsonl"
    write_jsonl(path, TELEMETRY)
    code, out = run_cli(capsys, "tail", str(path), "--once", "--json")
    assert code == 1  # one failed job
    assert "batch telemetry" in out
    last = out.strip().splitlines()[-1]
    assert json.loads(last)["jobs_total"] == 3


def test_cli_report(capsys, tmp_path):
    path = tmp_path / "events.jsonl"
    write_jsonl(path, [r for r in TELEMETRY if r["kind"] != "failed"])
    code, out = run_cli(capsys, "report", str(path))
    assert code == 0
    assert "observability report" in out
    code, out = run_cli(capsys, "report", str(path), "--json")
    assert code == 0
    assert json.loads(out)["done"] == 2

    # An indented object without a "profile" key is neither kind.
    old = tmp_path / "metrics.json"
    old.write_text(json.dumps({"metrics": {}}, indent=1))
    assert main(["report", str(old)]) == 2
    assert "profile snapshot" in capsys.readouterr().err


# ---------------------------------------------------- resumed/skipped
# A "resumed" event comes from a file written while the batch runtime
# still restored jobs from its journal; it still counts its job done.
RESUME_TELEMETRY = [
    {"kind": "submitted", "job": "aaa", "label": "pr/g/vm", "time": 10.0},
    {"kind": "submitted", "job": "bbb", "label": "pr/g/wm", "time": 10.0},
    {"kind": "submitted", "job": "ccc", "label": "pr/g/sw", "time": 10.0},
    {"kind": "resumed", "job": "aaa", "label": "pr/g/vm", "time": 10.1,
     "cycles": 700},
    {"kind": "started", "job": "bbb", "label": "pr/g/wm", "time": 10.2},
    {"kind": "failed", "job": "bbb", "label": "pr/g/wm", "time": 10.5,
     "error": "ScheduleError: unknown schedule"},
    {"kind": "skipped", "job": "ccc", "label": "pr/g/sw", "time": 10.5},
    {"kind": "batch_summary", "time": 10.6,
     "cache": {"entries": 1, "hits": 0, "misses": 1, "stores": 1,
               "evictions": 0, "quarantined": 2, "dir": "/tmp/c"}},
]


def test_batchwatch_counts_resumed_and_skipped():
    watch = BatchWatch()
    watch.update_all(RESUME_TELEMETRY)
    snap = watch.snapshot()
    assert snap["jobs_total"] == 3
    assert snap["done"] == 1  # the resumed job is terminal
    assert snap["skipped"] == 1
    assert snap["failed"] == 1
    assert snap["simulated_cycles"] == 700
    assert "resumed" not in snap and "retried" not in snap
    # One lookup (the started job), no cache hit.
    assert snap["cache_hit_rate"] == 0.0


def test_render_shows_skipped_quarantined():
    watch = BatchWatch()
    watch.update_all(RESUME_TELEMETRY)
    frame = render(watch, clock=0.0)
    assert "1 skipped" in frame
    assert "100%" in frame  # skipped jobs are finished, not pending
    assert "2 quarantined" in frame


def test_report_shows_skipped_and_quarantined(tmp_path):
    path = tmp_path / "events.jsonl"
    write_jsonl(path, RESUME_TELEMETRY)
    report = aggregate([path])
    assert report["done"] == 1
    assert report["skipped"] == 1
    text = format_report(report)
    assert "1 skipped" in text
    assert "2 quarantined" in text


# ------------------------------------------------- crash-safe appends
def test_killed_writer_never_leaves_a_torn_line(tmp_path):
    """Regression: SIGKILL a process mid-stream; every line in the
    sink must still parse (single-write O_APPEND emission)."""
    import os
    import signal
    import subprocess
    import sys
    from pathlib import Path

    path = tmp_path / "events.jsonl"
    repo_root = Path(__file__).resolve().parents[1]
    child = subprocess.Popen(
        [sys.executable, "-c", (
            "import sys\n"
            "from repro.runtime.telemetry import Telemetry\n"
            "t = Telemetry(sys.argv[1])\n"
            "i = 0\n"
            "while True:\n"
            "    t.emit('started', None, seq=i, pad='x' * 200)\n"
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


# -------------------------------------------------- legacy fleet events
#: Telemetry as the since-removed worker fleet wrote it.  Its worker and
#: lease event kinds are unknown to the dashboard now, so they fold like
#: any other unknown kind; the job events among them still count.
FLEET_TELEMETRY = [
    {"kind": "worker_joined", "job": "", "label": "", "time": 0.0,
     "worker": "w0", "addr": "127.0.0.1:50001"},
    {"kind": "worker_joined", "job": "", "label": "", "time": 0.1,
     "worker": "w1", "addr": "127.0.0.1:50002"},
    {"kind": "started", "job": "aaa", "label": "j1", "time": 0.2,
     "worker": "w0"},
    {"kind": "lease_result", "job": "aaa", "label": "j1", "time": 1.2,
     "worker": "w0", "status": "ok", "wall": 1.0},
    {"kind": "finished", "job": "aaa", "label": "j1", "time": 1.2,
     "cycles": 100, "wall": 1.0},
    {"kind": "started", "job": "bbb", "label": "j2", "time": 0.3,
     "worker": "w1"},
    {"kind": "lease_expired", "job": "bbb", "label": "j2", "time": 2.0,
     "worker": "w1", "reason": "expired"},
    {"kind": "lease_reclaimed", "job": "bbb", "label": "j2",
     "time": 2.0, "worker": "w1", "reason": "disconnect"},
    {"kind": "started", "job": "bbb", "label": "j2", "time": 2.1,
     "worker": "w0"},
    {"kind": "lease_result", "job": "bbb", "label": "j2", "time": 3.0,
     "worker": "w0", "status": "ok", "wall": 0.9},
    {"kind": "finished", "job": "bbb", "label": "j2", "time": 3.0,
     "cycles": 200, "wall": 0.9},
    {"kind": "lease_result", "job": "ccc", "label": "j3", "time": 3.1,
     "worker": "w1", "status": "stale", "wall": 0.1},
    {"kind": "worker_left", "job": "", "label": "", "time": 3.2,
     "worker": "w0", "jobs": 2},
]


def test_legacy_fleet_telemetry_folds_without_fleet_view(tmp_path,
                                                         capsys):
    watch = BatchWatch()
    watch.update_all(FLEET_TELEMETRY)
    snap = watch.snapshot()
    assert snap["jobs_total"] == 2
    assert snap["done"] == 2
    assert snap["failed"] == 0
    assert snap["simulated_cycles"] == 300
    assert "fleet   :" not in render(watch, clock=0.0)

    path = tmp_path / "events.jsonl"
    write_jsonl(path, FLEET_TELEMETRY)
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    assert "2 done" in out
    assert "fleet   :" not in out
    assert "w0" not in out
    assert "fleet" not in aggregate([path])
