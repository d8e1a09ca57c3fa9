"""Run journal: a header per batch, one line per ended job; the
journal reader; interrupted batches.

The SIGINT round-trip at the bottom drives the real CLI in a
subprocess, interrupts it mid-batch, and proves that a rerun against
the same cache re-simulates nothing the interrupted run finished.
"""

import dataclasses
import io
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.graph import powerlaw_graph
from repro.obs.dashboard import render, tail
from repro.runtime import (AlgorithmSpec, BatchEngine, GraphSpec, JobOutcome,
                           JobSpec, ResultCache, RunJournal, append_jsonl)
from repro.runtime.journal import read_journal
from repro.sim import GPUConfig

SCHEDULES = ["vertex_map", "edge_map", "warp_map", "sparseweaver"]


def tiny_specs(n=4):
    algorithm = AlgorithmSpec.of("pagerank", iterations=1)
    graph = GraphSpec.inline(powerlaw_graph(100, 400, seed=1), name="pl")
    return [
        JobSpec(algorithm=algorithm, graph=graph, schedule=sched,
                config=GPUConfig.vortex_tiny(), max_iterations=1)
        for sched in SCHEDULES[:n]
    ]


def journal_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def job_lines(path):
    return [line for line in journal_lines(path)
            if line.get("type") != "batch"]


# ------------------------------------------------------------- basics
def test_record_writes_status_wall_and_engine(tmp_path):
    """One line per recorded outcome, each carrying its status, wall
    time and engine outside the engine-blind summary."""
    spec = tiny_specs(1)[0]
    outcome = BatchEngine(jobs=1).run([spec])[0]
    journal = RunJournal(tmp_path / "run.jsonl")
    journal.record(outcome)
    journal.record(JobOutcome(spec, "cached", outcome.summary))
    ok, cached = journal_lines(tmp_path / "run.jsonl")
    assert (ok["status"], cached["status"]) == ("ok", "cached")
    assert ok["hash"] == cached["hash"] == spec.content_hash()
    assert ok["summary"] == cached["summary"] == outcome.summary.to_dict()
    assert ok["wall"] == round(outcome.wall_seconds, 6) > 0
    assert ok["engine"] == "fast"  # a spec naming no engine runs fast
    assert "engine" not in ok["summary"] and "wall" not in ok["summary"]


def test_new_journal_starts_fresh(tmp_path):
    """A new journal replaces the old file with an empty one at a new
    inode, so a reader of the old run reads the new one from the
    top."""
    path = tmp_path / "run.jsonl"
    BatchEngine(jobs=1, journal=RunJournal(path)).run(tiny_specs(3))
    assert len(read_journal(path)[0]) == 4
    inode = path.stat().st_ino
    journal = RunJournal(path)
    assert path.read_text() == ""
    assert path.stat().st_ino != inode
    journal.start(25)
    assert read_journal(path) == ([journal_lines(path)[0]], 0)
    assert journal_lines(path)[0]["jobs"] == 25


def test_append_jsonl_is_single_complete_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    for i in range(20):
        append_jsonl(path, {"i": i})
    text = path.read_text()
    assert text.endswith("\n")
    assert [json.loads(l)["i"] for l in text.splitlines()] == list(
        range(20))


# ----------------------------------------------------- engine records
def test_engine_journals_each_finished_job(tmp_path):
    specs = tiny_specs(3)
    path = tmp_path / "run.jsonl"
    outcomes = BatchEngine(jobs=1, journal=RunJournal(path)).run(specs)
    assert [o.status for o in outcomes] == ["ok"] * 3
    header, *lines = journal_lines(path)
    assert (header["type"], header["schema"], header["jobs"]) == (
        "batch", 2, 3)
    assert [line["status"] for line in lines] == ["ok"] * 3
    assert [line["hash"] for line in lines] == [
        s.content_hash() for s in specs]
    assert [line["label"] for line in lines] == [s.label for s in specs]
    assert ([line["summary"]["total_cycles"] for line in lines]
            == [o.summary.total_cycles for o in outcomes])


def test_cached_hits_are_journaled_too(tmp_path):
    specs = tiny_specs(2)
    cache = ResultCache(tmp_path / "cache")
    BatchEngine(jobs=1, cache=cache).run(specs)

    path = tmp_path / "run.jsonl"
    outcomes = BatchEngine(jobs=1, cache=cache,
                           journal=RunJournal(path)).run(specs)
    assert [o.status for o in outcomes] == ["cached"] * 2
    assert ([(line["status"], line["hash"]) for line in job_lines(path)]
            == [("cached", s.content_hash()) for s in specs])


def test_tail_follows_a_fail_fast_journal_to_its_end(tmp_path):
    """Failed and skipped jobs get lines too, with their errors; tail
    stops once every announced job has one."""
    path = tmp_path / "run.jsonl"
    bad = dataclasses.replace(tiny_specs(1)[0], schedule="no_such_schedule")
    engine = BatchEngine(jobs=1, journal=RunJournal(path), fail_fast=True)
    thread = threading.Thread(target=engine.run,
                              args=([bad] + tiny_specs(3),))
    thread.start()
    out = io.StringIO()
    watch = tail([path], follow=True, interval=0.01, max_frames=3000,
                 out=out, use_ansi=False)
    thread.join()
    assert watch.finished
    snap = watch.snapshot()
    assert (snap["jobs_total"], snap["failed"], snap["skipped"]) == (4, 1, 3)
    assert "| 3 skipped" in out.getvalue()
    assert "FAILED  : " in render(watch)
    failed, *skipped = job_lines(path)
    assert failed["error"].startswith("ScheduleError:")
    assert "summary" not in failed
    assert all("fail_fast" in line["error"] for line in skipped)


# ------------------------------------------------------ the reader
def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


READER_LINES = [
    {"type": "batch", "schema": 2, "jobs": 2},
    {"status": "ok", "hash": "h-a", "label": "a", "wall": 0.5,
     "summary": {"total_cycles": 500, "digest_ledger": [
         [0, 0, 0, 0, "aa", 3], [-1, -1, -1, -1, "bb", 1]]}},
    {"status": "failed", "hash": "h-b", "label": "b", "wall": 0.1,
     "error": "boom"},
]


def test_read_journal_of_an_empty_file_is_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert read_journal(path) == ([], 0)
    path.write_text("  \n\n  ")
    assert read_journal(path) == ([], 0)


def test_read_journal_rejects_files_without_journal_lines(tmp_path):
    journal = write_jsonl(tmp_path / "run.jsonl", READER_LINES)
    assert read_journal(journal) == (READER_LINES, 0)

    # An indented JSON object spans lines: not a journal.
    metrics = tmp_path / "m.json"
    metrics.write_text(json.dumps(
        {"metrics": {"sim_cycles_total": {"kind": "counter"}}}, indent=1))
    with pytest.raises(ReproError, match=f"{metrics} holds no run-journal"):
        read_journal(metrics)

    # Host-profile snapshots are not journals either.
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"profile": {"phases": {}}}) + "\n")
    with pytest.raises(ReproError, match=f"{profile} holds no run-journal"):
        read_journal(profile)


def test_read_journal_ignores_an_unterminated_line(tmp_path):
    """Only newline-terminated lines count; a file holding nothing but
    a torn line has content and no journal line."""
    path = tmp_path / "torn.json"
    path.write_text('{"profile": {"phases"')
    with pytest.raises(ReproError, match="holds no run-journal line"):
        read_journal(path)
    write_jsonl(path, READER_LINES[:2])
    with open(path, "a") as handle:
        handle.write(json.dumps(READER_LINES[2]))
    assert read_journal(path) == (READER_LINES[:2], 0)


def test_read_journal_skips_and_counts_lines_of_other_shapes(tmp_path):
    """Objects that are not journal lines, and journal lines whose
    fields have the wrong types, are skipped and counted."""
    path = write_jsonl(tmp_path / "mixed.jsonl", READER_LINES + [
        {"weights": [1, 2, 3]},
        {"type": "batch", "jobs": "3"},
        {"status": "done", "hash": "h-c"},
        {"status": "ok", "hash": 7, "summary": {}},
        {"status": "ok", "hash": "h-d", "wall": "slow"},
        {"status": "ok", "hash": "h-e",
         "summary": {"total_cycles": 1, "digest_ledger": 3}},
        {"status": "ok", "hash": "h-f",
         "summary": {"total_cycles": 1, "digest_ledger": [[0, 1]]}},
        {"status": "ok", "hash": "h-g", "summary": {
            "total_cycles": 1, "digest_ledger": [[0, 0, 0, "w", "aa", 1]]}},
        {"status": "ok", "hash": "h-h", "summary": {
            "total_cycles": 1, "digest_ledger": [[0, 0, 0, 0, "aa", True]]}},
        {"status": "ok", "hash": "h-i", "summary": {
            "total_cycles": 1, "digest_ledger": [[0, 0, 0, 0, 5, 1]]}},
        {"status": "ok", "hash": "h-j", "summary": {
            "total_cycles": 1, "digest_ledger": [{"k": 0}]}},
    ])
    assert read_journal(path) == (READER_LINES, 11)


def test_read_journal_skips_and_counts_non_object_lines(tmp_path):
    path = tmp_path / "list.jsonl"
    path.write_text('{"type": "batch", "jobs": 1}\n[1, 2, 3]\nnot json\n')
    assert read_journal(path) == ([{"type": "batch", "jobs": 1}], 2)


def test_read_journal_names_a_missing_file(tmp_path):
    with pytest.raises(ReproError, match="cannot read"):
        read_journal(tmp_path / "missing.jsonl")


# ------------------------------------------------- SIGINT round trip
def test_sigint_then_rerun_resimulates_nothing(tmp_path):
    """Interrupt a real CLI batch mid-run; the rerun against the same
    cache hits every job the interrupted run finished and simulates
    only the remainder."""
    first_path = tmp_path / "first.jsonl"
    rerun_path = tmp_path / "rerun.jsonl"
    repo_root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(repo_root / "src"))
    argv = [sys.executable, "-m", "repro", "batch",
            "--algorithm", "pagerank", "--datasets", "bio-human",
            "--scale", "0.3", "--iterations", "2",
            "--cache-dir", str(tmp_path / "cache")]

    def jobs(path, status):
        if not path.exists():
            return set()
        return {e["hash"] for e in map(json.loads,
                                       path.read_text().splitlines())
                if e.get("status") == status}

    proc = subprocess.Popen(argv + ["--journal", str(first_path)],
                            env=env, cwd=repo_root,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    # Interrupt as soon as at least one job has finished.
    deadline = time.time() + 120
    while (time.time() < deadline and proc.poll() is None
           and not jobs(first_path, "ok")):
        time.sleep(0.05)
    if proc.poll() is None:
        time.sleep(0.2)  # let it get partway into the next job
        proc.send_signal(signal.SIGINT)
    proc.wait(timeout=120)
    assert proc.returncode in (0, 130)
    finished = jobs(first_path, "ok")
    assert finished, "nothing finished before SIGINT"

    rerun = subprocess.run(
        argv + ["--journal", str(rerun_path)],
        env=env, cwd=repo_root, capture_output=True, text=True,
        timeout=300)
    assert rerun.returncode == 0, rerun.stderr
    cached = jobs(rerun_path, "cached")
    simulated = jobs(rerun_path, "ok")
    from repro.sched import ALL_SCHEDULES

    assert cached == finished
    assert not (cached & simulated)
    assert len(cached) + len(simulated) == len(ALL_SCHEDULES)
