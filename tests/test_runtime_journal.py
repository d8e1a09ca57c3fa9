"""Run journal: a header per batch, one line per ended job;
interrupted batches.

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

from repro.graph import powerlaw_graph
from repro.obs.dashboard import JSONLFollower, tail
from repro.obs.report import aggregate, format_report
from repro.runtime import (AlgorithmSpec, BatchEngine, GraphSpec, JobOutcome,
                           JobSpec, ResultCache, RunJournal, append_jsonl)
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
    inode, so a follower of the old run reads the new one from the
    top."""
    path = tmp_path / "run.jsonl"
    BatchEngine(jobs=1, journal=RunJournal(path)).run(tiny_specs(3))
    follower = JSONLFollower(path)
    assert len(follower.poll()) == 4
    journal = RunJournal(path)
    assert path.read_text() == ""
    journal.start(25)
    assert follower.poll() == [journal_lines(path)[0]]
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
    watch = tail(path, follow=True, interval=0.01, max_frames=3000,
                 out=out, use_ansi=False)
    thread.join()
    assert watch.finished
    snap = watch.snapshot()
    assert (snap["jobs_total"], snap["failed"], snap["skipped"]) == (4, 1, 3)
    assert "| 3 skipped" in out.getvalue()
    assert "| 3 skipped" in format_report(aggregate([path]))
    failed, *skipped = job_lines(path)
    assert failed["error"].startswith("ScheduleError:")
    assert "summary" not in failed
    assert all("fail_fast" in line["error"] for line in skipped)


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
