"""Run journal: one line per finished job; interrupted batches.

The SIGINT round-trip at the bottom drives the real CLI in a
subprocess, interrupts it mid-batch, and proves that a rerun against
the same cache re-simulates nothing the interrupted run finished.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.graph import powerlaw_graph
from repro.runtime import (AlgorithmSpec, BatchEngine, GraphSpec, JobSpec,
                           ResultCache, RunJournal, append_jsonl)
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


# ------------------------------------------------------------- basics
def test_record_is_idempotent_per_hash(tmp_path):
    spec = tiny_specs(1)[0]
    summary = BatchEngine(jobs=1).run([spec])[0].summary
    journal = RunJournal(tmp_path / "run.jsonl")
    journal.record(spec, summary)
    journal.record(spec, summary)
    lines = (tmp_path / "run.jsonl").read_text().splitlines()
    assert len(lines) == 1


def test_new_journal_starts_fresh(tmp_path):
    spec = tiny_specs(1)[0]
    summary = BatchEngine(jobs=1).run([spec])[0].summary
    path = tmp_path / "run.jsonl"
    RunJournal(path).record(spec, summary)
    RunJournal(path)
    assert not path.exists()


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
    lines = journal_lines(path)
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
    assert ([line["hash"] for line in journal_lines(path)]
            == [s.content_hash() for s in specs])


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

    def events(path, kind):
        if not path.exists():
            return set()
        return {e["job"] for e in map(json.loads,
                                      path.read_text().splitlines())
                if e["kind"] == kind}

    proc = subprocess.Popen(argv + ["--telemetry", str(first_path)],
                            env=env, cwd=repo_root,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    # Interrupt as soon as at least one job has finished.
    deadline = time.time() + 120
    while (time.time() < deadline and proc.poll() is None
           and not events(first_path, "finished")):
        time.sleep(0.05)
    if proc.poll() is None:
        time.sleep(0.2)  # let it get partway into the next job
        proc.send_signal(signal.SIGINT)
    proc.wait(timeout=120)
    assert proc.returncode in (0, 130)
    finished = events(first_path, "finished")
    assert finished, "nothing finished before SIGINT"

    rerun = subprocess.run(
        argv + ["--telemetry", str(rerun_path)],
        env=env, cwd=repo_root, capture_output=True, text=True,
        timeout=300)
    assert rerun.returncode == 0, rerun.stderr
    cached = events(rerun_path, "cached")
    started = events(rerun_path, "started")
    from repro.sched import ALL_SCHEDULES

    assert cached == finished
    assert not (cached & started)
    assert len(cached) + len(started) == len(ALL_SCHEDULES)
