"""Journal view: BatchWatch folds, the rendered frame, the tail CLI."""

import io
import json
import os
import threading
import time

import pytest

from repro.cli import main
from repro.obs.dashboard import BatchWatch, render, tail, watch_journals
from repro.runtime.journal import read_journal


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
    assert "FAILED  : pr/g/wm: SimulationError: boom" in frame
    assert "digests" not in frame and "unreadable" not in frame


def test_tail_once_reads_static_file(tmp_path):
    path = tmp_path / "run.jsonl"
    write_jsonl(path, JOURNAL)
    out = io.StringIO()
    watch = tail([path], follow=False, out=out)
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
    watch = tail([path], follow=True, interval=0.01, max_frames=500,
                 out=out, use_ansi=False)
    thread.join()
    # Exited because every announced job has a line.
    assert watch.finished
    assert watch.snapshot()["jobs_total"] == 3
    assert out.getvalue().count("batch journal") >= 2


def test_tail_stops_at_max_frames(tmp_path):
    path = tmp_path / "run.jsonl"
    write_jsonl(path, JOURNAL[:3])  # 2 of 3 announced jobs => not done
    watch = tail([path], follow=True, interval=0.001, max_frames=3,
                 out=io.StringIO(), use_ansi=False)
    assert not watch.finished


def test_tail_rereads_only_a_changed_journal(tmp_path, monkeypatch):
    """A poll that finds every journal as it was reads nothing."""
    import repro.obs.dashboard as dashboard

    path = tmp_path / "run.jsonl"
    write_jsonl(path, JOURNAL[:3])  # 2 of 3 announced jobs => not done
    reads = []
    monkeypatch.setattr(dashboard, "read_journal", lambda p: (
        reads.append(p), read_journal(p))[1])
    watch = tail([path], follow=True, interval=0.001, max_frames=5,
                 out=io.StringIO(), use_ansi=False)
    assert reads == [path] and watch.ended == 2


def test_tail_waits_for_a_line_to_end(tmp_path):
    """A line still being written counts once its newline lands."""
    path = tmp_path / "run.jsonl"
    write_jsonl(path, JOURNAL[:2])
    with open(path, "a") as handle:
        handle.write(json.dumps(JOURNAL[2])[:20])
    assert watch_journals([path]).ended == 1
    with open(path, "a") as handle:
        handle.write(json.dumps(JOURNAL[2])[20:] + "\n")
    watch = watch_journals([path])
    assert watch.ended == 2 and watch.unreadable == 0


def test_tail_rereads_a_shrunk_journal_and_counts_its_garbage(tmp_path):
    """A journal cut short and rewritten in place (garbage included)
    is re-read from its top; the garbage line is skipped and counted."""
    path = tmp_path / "run.jsonl"
    write_jsonl(path, JOURNAL[:3])  # 2 of 3 announced jobs => not done
    rewritten = (json.dumps({"type": "batch", "jobs": 1}) + "\nnot json\n"
                 + json.dumps(JOURNAL[2]) + "\n")

    def writer():
        time.sleep(0.05)
        path.write_text(rewritten)

    thread = threading.Thread(target=writer)
    thread.start()
    out = io.StringIO()
    watch = tail([path], follow=True, interval=0.01, max_frames=500,
                 out=out, use_ansi=False)
    thread.join()
    assert watch.finished
    snap = watch.snapshot()
    assert (snap["jobs_total"], snap["done"]) == (1, 1)
    assert snap["unreadable_lines"] == 1
    assert "1 unreadable line(s) skipped" in out.getvalue()


def test_tail_once_rejects_a_garbage_file(capsys, tmp_path):
    """A journal draws a frame; a file of plain text, alone or beside
    the journal, exits 2 naming it."""
    journal = tmp_path / "run.jsonl"
    write_jsonl(journal, JOURNAL)
    code, out = run_cli(capsys, "tail", str(journal), "--once")
    assert code == 1 and "3 total" in out

    garbage = tmp_path / "garbage.txt"
    garbage.write_text("definitely not json\n")
    for paths in ([garbage], [journal, garbage]):
        assert main(["tail", *map(str, paths), "--once"]) == 2
        assert (f"{garbage} holds no run-journal line"
                in capsys.readouterr().err)


def test_tail_of_a_missing_journal_exits_2(capsys, tmp_path):
    """``--once`` reads the files as they stand: a journal that is not
    there exits 2 naming it."""
    missing = tmp_path / "absent.jsonl"
    assert main(["tail", str(missing), "--once"]) == 2
    assert f"cannot read {missing}" in capsys.readouterr().err


def test_tail_waits_for_a_missing_journal(tmp_path):
    """Following, a journal not created yet reads as empty until the
    batch creates it, so ``tail`` may start before ``batch``."""
    path = tmp_path / "later.jsonl"

    def writer():
        time.sleep(0.05)
        write_jsonl(path, JOURNAL)

    thread = threading.Thread(target=writer)
    thread.start()
    out = io.StringIO()
    watch = tail([path], follow=True, interval=0.01, max_frames=500,
                 out=out, use_ansi=False)
    thread.join()
    assert watch.finished
    frames = out.getvalue().split("batch journal")[1:]
    assert "0 total" in frames[0] and "3 total" in frames[-1]


def test_tail_json_reports_counts_failures_and_last_jobs(capsys,
                                                        tmp_path):
    journal = tmp_path / "run.jsonl"
    write_jsonl(journal, JOURNAL)
    code, out = run_cli(capsys, "tail", str(journal), "--once", "--json")
    assert code == 1
    report = json.loads(out)
    assert report["jobs_total"] == 3
    assert report["failed"] == 1
    assert report["simulated_cycles"] == 1500
    assert report["failures"] == [
        {"label": "pr/g/wm", "status": "failed",
         "error": "SimulationError: boom"}]

    code, text = run_cli(capsys, "tail", str(journal), "--once")
    assert "3 total" in text and "1 failed" in text
    assert "last    : pr/g/vm ok in 0.800s" in text


def test_aggregate_merges_two_sinks(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    write_jsonl(a, JOURNAL[:2])
    write_jsonl(b, JOURNAL[2:])
    report = watch_journals([a, b]).snapshot()
    assert report["jobs_total"] == 3
    assert report["done"] == 2 and report["failed"] == 1


def test_aggregate_mixed_directory(capsys, tmp_path):
    """A journal and an empty file: the empty one adds nothing."""
    journal = tmp_path / "run.jsonl"
    write_jsonl(journal, JOURNAL)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")

    report = watch_journals([journal, empty]).snapshot()
    assert report["jobs_total"] == 3
    assert report["done"] == 2 and report["failed"] == 1
    assert report["simulated_cycles"] == 1500
    code, text = run_cli(capsys, "tail", str(journal), str(empty),
                         "--once")
    assert code == 1
    assert "FAILED  : pr/g/wm: SimulationError: boom" in text


# ----------------------------------------------------------------------
def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_cli_tail_once(capsys, tmp_path):
    """``--once`` draws one frame; with ``--json`` it prints one JSON
    document and no frame."""
    path = tmp_path / "run.jsonl"
    write_jsonl(path, JOURNAL)
    code, out = run_cli(capsys, "tail", str(path), "--once")
    assert code == 1  # one failed job
    assert out.count("batch journal") == 1
    code, out = run_cli(capsys, "tail", str(path), "--once", "--json")
    assert code == 1
    assert "batch journal" not in out
    assert json.loads(out)["last"][-1]["error"] == "SimulationError: boom"


def test_cli_report(capsys, tmp_path):
    """``tail --once`` prints the whole report: counts and journaled
    digest-ledger records; a file that is not a journal exits 2."""
    ledger = {"total_cycles": 500,
              "digest_ledger": [[0, 0, 0, 0, "aa", 1]] * 3}
    path = tmp_path / "run.jsonl"
    write_jsonl(path, [JOURNAL[0], job("ok", "vm", 11.0, wall=0.8,
                                       summary=ledger)])
    code, out = run_cli(capsys, "tail", str(path), "--once")
    assert code == 0
    assert "digests : 3 provenance ledger record(s)" in out
    code, out = run_cli(capsys, "tail", str(path), "--once", "--json")
    assert code == 0
    assert json.loads(out)["digest_records"] == 3

    # An indented JSON object is not a journal.
    old = tmp_path / "metrics.json"
    old.write_text(json.dumps({"metrics": {}}, indent=1))
    assert main(["tail", str(old), "--once"]) == 2
    assert f"{old} holds no run-journal line" in capsys.readouterr().err


@pytest.mark.parametrize("summary", [7, {"total_cycles": "x"}],
                         ids=["summary_not_an_object", "cycles_not_an_int"])
def test_tail_once_skips_a_mistyped_job_line(capsys, tmp_path, summary):
    """A job line whose fields have the wrong types is skipped and
    counted in the frame, not a traceback."""
    path = tmp_path / "run.jsonl"
    write_jsonl(path, JOURNAL[:2] + [job("ok", "bad", 10.5,
                                         summary=summary)])
    code, out = run_cli(capsys, "tail", str(path), "--once")
    assert code == 0
    assert "1 unreadable line(s) skipped" in out
    assert "3 total | 1 done" in out
    code, out = run_cli(capsys, "tail", str(path), "--once", "--json")
    assert json.loads(out)["unreadable_lines"] == 1


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
    """diff and tail --once both read a schema-1 journal; tail counts
    its job as done."""
    path = tmp_path / "old.jsonl"
    path.write_text(SCHEMA1_LINE)
    code, out = run_cli(capsys, "tail", str(path), "--once", "--json")
    assert code == 0
    snap = json.loads(out)
    assert (snap["jobs_total"], snap["done"]) == (1, 1)
    code, out = run_cli(capsys, "diff", "--a", str(path), "--b", str(path),
                        "--json")
    assert code == 0
    assert json.loads(out)["compared"] == 1


def test_old_telemetry_file_exits_2(capsys, tmp_path):
    """A telemetry stream (the per-job record before the journal
    replaced it) holds no journal line: tail names it."""
    path = tmp_path / "events.jsonl"
    write_jsonl(path, [
        {"kind": "submitted", "job": "aaa", "label": "j1", "time": 0.0},
        {"kind": "finished", "job": "aaa", "label": "j1", "time": 1.0,
         "cycles": 100, "wall": 1.0},
    ])
    for argv in (["tail", str(path), "--once"], ["tail", str(path)]):
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

    text = path.read_text()
    assert text.endswith("\n")  # no torn line, ever
    records = [json.loads(line) for line in text.splitlines()]
    assert records
    assert [r["seq"] for r in records] == list(range(len(records)))
