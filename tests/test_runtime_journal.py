"""Run journal: durable completions, torn tails, resume semantics.

The SIGINT round-trip at the bottom drives the real CLI in a
subprocess, interrupts it mid-batch, and proves the resumed run
re-simulates nothing the interrupted run already finished.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.graph import powerlaw_graph
from repro.runtime import (AlgorithmSpec, BatchEngine, GraphSpec, JobSpec,
                           RunJournal, RunSummary, Telemetry, append_jsonl)
from repro.runtime.journal import JOURNAL_SCHEMA
from repro.sim import SIMULATOR_VERSION, GPUConfig, KernelStats

SCHEDULES = ["vertex_map", "edge_map", "warp_map", "sparseweaver"]


def tiny_specs(n=4):
    algorithm = AlgorithmSpec.of("pagerank", iterations=1)
    graph = GraphSpec.inline(powerlaw_graph(100, 400, seed=1), name="pl")
    return [
        JobSpec(algorithm=algorithm, graph=graph, schedule=sched,
                config=GPUConfig.vortex_tiny(), max_iterations=1)
        for sched in SCHEDULES[:n]
    ]


# ------------------------------------------------------------- basics
def test_record_load_round_trip(tmp_path):
    specs = tiny_specs(2)
    outcomes = BatchEngine(jobs=1).run(specs)
    journal = RunJournal(tmp_path / "run.jsonl")
    for spec, outcome in zip(specs, outcomes):
        journal.record(spec, outcome.summary)
    assert len(journal) == 2
    assert specs[0] in journal

    again = RunJournal(tmp_path / "run.jsonl")
    assert again.load() == 2
    restored = again.summary_for(specs[0])
    assert restored is not None
    assert restored.from_cache
    assert restored.total_cycles == outcomes[0].summary.total_cycles
    assert again.hashes() == {s.content_hash() for s in specs}


def test_record_is_idempotent_per_hash(tmp_path):
    spec = tiny_specs(1)[0]
    summary = BatchEngine(jobs=1).run([spec])[0].summary
    journal = RunJournal(tmp_path / "run.jsonl")
    journal.record(spec, summary)
    journal.record(spec, summary)
    lines = (tmp_path / "run.jsonl").read_text().splitlines()
    assert len(lines) == 1


def test_torn_tail_line_is_skipped(tmp_path):
    spec = tiny_specs(1)[0]
    summary = BatchEngine(jobs=1).run([spec])[0].summary
    path = tmp_path / "run.jsonl"
    journal = RunJournal(path)
    journal.record(spec, summary)
    # Simulate a pre-atomic writer dying mid-append.
    with path.open("a") as handle:
        handle.write('{"schema": 1, "hash": "dead')
    again = RunJournal(path)
    assert again.load() == 1
    assert again.bad_lines == 1
    assert spec in again


def test_stale_simulator_version_lines_are_ignored(tmp_path):
    path = tmp_path / "run.jsonl"
    append_jsonl(path, {"schema": JOURNAL_SCHEMA, "sim": -1,
                        "hash": "abc", "summary": {}})
    journal = RunJournal(path)
    assert journal.load() == 0
    assert journal.stale_lines == 1


def test_rotate_compacts_duplicates_atomically(tmp_path):
    spec = tiny_specs(1)[0]
    summary = BatchEngine(jobs=1).run([spec])[0].summary
    path = tmp_path / "run.jsonl"
    journal = RunJournal(path)
    journal.record(spec, summary)
    # Duplicate + torn garbage, as repeated interrupt cycles leave.
    line = path.read_text()
    path.write_text(line + line + "{torn")
    journal = RunJournal(path)
    assert journal.load() == 1
    assert journal.rotate() == 1
    assert len(path.read_text().splitlines()) == 1
    assert RunJournal(path).load() == 1


def test_reset_truncates(tmp_path):
    spec = tiny_specs(1)[0]
    summary = BatchEngine(jobs=1).run([spec])[0].summary
    journal = RunJournal(tmp_path / "run.jsonl")
    journal.record(spec, summary)
    journal.reset()
    assert len(journal) == 0
    assert not (tmp_path / "run.jsonl").exists()
    stats = journal.stats()
    assert stats["entries"] == 0


def test_append_jsonl_is_single_complete_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    for i in range(20):
        append_jsonl(path, {"i": i})
    text = path.read_text()
    assert text.endswith("\n")
    assert [json.loads(l)["i"] for l in text.splitlines()] == list(
        range(20))


# ----------------------------------------------------- engine resume
def test_engine_journals_and_resumes(tmp_path):
    specs = tiny_specs(3)
    journal = RunJournal(tmp_path / "run.jsonl")
    first_tel = Telemetry()
    first = BatchEngine(jobs=1, telemetry=first_tel,
                        journal=journal).run(specs)
    assert [o.status for o in first] == ["ok"] * 3
    assert first_tel.count("started") == 3

    resumed_journal = RunJournal(tmp_path / "run.jsonl")
    resumed_journal.load()
    second_tel = Telemetry()
    second = BatchEngine(jobs=1, telemetry=second_tel,
                         journal=resumed_journal).run(specs)
    assert [o.status for o in second] == ["resumed"] * 3
    assert second_tel.count("started") == 0  # zero re-simulation
    assert second_tel.count("resumed") == 3
    assert ([o.summary.total_cycles for o in second]
            == [o.summary.total_cycles for o in first])


def test_cached_hits_are_journaled_too(tmp_path):
    from repro.runtime import ResultCache

    specs = tiny_specs(2)
    cache = ResultCache(tmp_path / "cache")
    BatchEngine(jobs=1, cache=cache).run(specs)

    journal = RunJournal(tmp_path / "run.jsonl")
    outcomes = BatchEngine(jobs=1, cache=cache, journal=journal).run(specs)
    assert [o.status for o in outcomes] == ["cached"] * 2
    # A later resume needs no cache at all.
    resumed_journal = RunJournal(tmp_path / "run.jsonl")
    assert resumed_journal.load() == 2
    resumed = BatchEngine(jobs=1, journal=resumed_journal).run(specs)
    assert [o.status for o in resumed] == ["resumed"] * 2


# ------------------------------------------------- SIGINT round trip
def test_sigint_then_resume_resimulates_nothing(tmp_path):
    """Interrupt a real CLI batch mid-run; the --resume rerun restores
    every journaled job and simulates only the remainder."""
    journal_path = tmp_path / "run.jsonl"
    telemetry_path = tmp_path / "resume-events.jsonl"
    repo_root = Path(__file__).resolve().parents[1]
    env = dict(os.environ,
               PYTHONPATH=str(repo_root / "src"),
               REPRO_JOBS="1")
    env.pop("REPRO_FAULTS", None)
    argv = [sys.executable, "-m", "repro", "batch",
            "--algorithm", "pagerank", "--datasets", "bio-human",
            "--scale", "0.3", "--iterations", "2", "--no-cache",
            "--journal", str(journal_path)]

    proc = subprocess.Popen(argv, env=env, cwd=repo_root,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    # Interrupt as soon as at least one completion is journaled.
    deadline = time.time() + 120
    while time.time() < deadline and proc.poll() is None:
        if journal_path.exists() and journal_path.stat().st_size > 0:
            break
        time.sleep(0.05)
    interrupted_hashes = set()
    if proc.poll() is None:
        time.sleep(0.2)  # let it get partway into the next job
        proc.send_signal(signal.SIGINT)
    proc.wait(timeout=120)
    assert proc.returncode in (0, 130)
    if journal_path.exists():
        for line in journal_path.read_text().splitlines():
            try:
                interrupted_hashes.add(json.loads(line)["hash"])
            except (ValueError, KeyError):
                pass
    assert interrupted_hashes, "nothing was journaled before SIGINT"

    resume = subprocess.run(
        argv + ["--resume", "--telemetry", str(telemetry_path)],
        env=env, cwd=repo_root, capture_output=True, text=True,
        timeout=300)
    assert resume.returncode == 0, resume.stderr
    assert "resume:" in resume.stdout
    events = [json.loads(line) for line in
              telemetry_path.read_text().splitlines()]
    resumed = {e["job"] for e in events if e["kind"] == "resumed"}
    started = {e["job"] for e in events if e["kind"] == "started"}
    # Everything journaled before the interrupt was restored, and no
    # restored job was simulated again.
    from repro.sched import ALL_SCHEDULES

    assert resumed == {h[:12] for h in interrupted_hashes}
    assert not (resumed & started)
    assert len(resumed) + len(started) == len(ALL_SCHEDULES)

    # A second resume restores everything: zero simulations.
    again_tel = tmp_path / "again-events.jsonl"
    again = subprocess.run(
        argv + ["--resume", "--telemetry", str(again_tel)],
        env=env, cwd=repo_root, capture_output=True, text=True,
        timeout=300)
    assert again.returncode == 0, again.stderr
    events = [json.loads(line) for line in
              again_tel.read_text().splitlines()]
    kinds = [e["kind"] for e in events]
    assert kinds.count("resumed") == len(ALL_SCHEDULES)
    assert kinds.count("started") == 0


# ----------------------------------------------- legacy record kinds
def _legacy_line(kind, job_hash):
    """A ``lease``, ``reclaim`` or ``skipped`` line exactly as the
    removed worker fleet and batch deadline appended them."""
    record = {"schema": JOURNAL_SCHEMA, "sim": SIMULATOR_VERSION,
              "type": kind, "hash": job_hash, "time": 1700000000.0}
    if kind == "lease":
        record.update(worker="w0", attempt=1, deadline=1700000030.0)
    elif kind == "reclaim":
        record.update(worker="w0", reason="expired")
    else:
        record.update(label="pr-job", reason="deadline")
    return record


def _append_torn_line(path):
    """What a pre-atomic writer killed mid-append leaves behind."""
    with path.open("a") as handle:
        handle.write('{"schema": 1, "type": "lease", "hash": "de')


_SPECS = tiny_specs(4)
_SUMMARY = RunSummary(total_cycles=1, iterations=1, stats=KernelStats(),
                      values_digest="d")

_LEASE_OPS = st.lists(
    st.tuples(st.sampled_from(["lease", "reclaim", "complete"]),
              st.integers(min_value=0, max_value=len(_SPECS) - 1)),
    max_size=40,
)


@given(ops=_LEASE_OPS, writers=st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_interleaved_lease_ledger_matches_model(ops, writers):
    """A fleet journal written by an older build: completions appended
    through several independent journal handles, interleaved with the
    raw lease/reclaim lines its coordinator wrote, load to exactly the
    completions a sequential model predicts.  Every lease and reclaim
    line counts as an unknown kind, never as bad."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        handles = [RunJournal(path) for _ in range(writers)]
        completed, unknown = set(), 0
        for i, (kind, job) in enumerate(ops):
            key = _SPECS[job].content_hash()
            if kind == "complete":
                # Round-robin the writers.
                handles[i % writers].record(_SPECS[job], _SUMMARY)
                completed.add(key)
            else:
                append_jsonl(path, _legacy_line(kind, key))
                unknown += 1

        loaded = RunJournal(path)
        assert loaded.load() == len(completed)
        assert loaded.hashes() == completed
        assert loaded.unknown_lines == unknown
        assert loaded.bad_lines == 0
        assert loaded.stale_lines == 0
        for spec in _SPECS:
            if spec.content_hash() in completed:
                restored = loaded.summary_for(spec)
                assert restored.total_cycles == _SUMMARY.total_cycles


@given(ops=_LEASE_OPS)
@settings(max_examples=30, deadline=None)
def test_lease_ledger_survives_torn_line_mid_lease(ops):
    """A writer killed mid-lease-append corrupts only the record that
    lands on the tear; every other record still loads.

    Regression: the torn prefix has no newline, so the next appended
    line concatenates onto it -- the loader must count one bad line
    and keep going, never buffer forever or drop the rest."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        journal = RunJournal(path)
        append_jsonl(path, _legacy_line("lease", _SPECS[0].content_hash()))
        # The tear: a lease append that died after the first bytes.
        _append_torn_line(path)
        completed, unknown = set(), 1
        for i, (kind, job) in enumerate(ops):
            key = _SPECS[job].content_hash()
            if kind == "complete":
                if _SPECS[job] in journal:
                    continue  # idempotent per handle: nothing appended
                journal.record(_SPECS[job], _SUMMARY)
            else:
                append_jsonl(path, _legacy_line(kind, key))
            if i == 0:
                continue  # glued onto the torn prefix, lost with it
            if kind == "complete":
                completed.add(key)
            else:
                unknown += 1

        loaded = RunJournal(path)
        assert loaded.load() == len(completed)
        assert loaded.hashes() == completed
        assert loaded.bad_lines == 1
        assert loaded.unknown_lines == unknown
        assert loaded.stale_lines == 0


_RESILIENT_OPS = st.lists(
    st.tuples(st.sampled_from(["lease", "reclaim", "reconnect", "skipped",
                               "complete"]),
              st.integers(min_value=0, max_value=len(_SPECS) - 1)),
    max_size=50,
)


@given(ops=_RESILIENT_OPS, writers=st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_resilient_ledger_with_reconnects_matches_model(ops, writers):
    """The fleet-journal property extended with the older build's
    resilience lines: reconnect-reason reclaims and deadline skips.  A
    reconnecting writer opens a fresh journal handle, which appends
    again completions its old handle already wrote.  The duplicates
    fold to one entry each, a skip never counts as a completion, and
    every legacy line counts as an unknown kind."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.jsonl"
        handles = [RunJournal(path) for _ in range(writers)]
        completed, appended, unknown = set(), 0, 0
        for i, (kind, job) in enumerate(ops):
            writer = i % writers
            key = _SPECS[job].content_hash()
            if kind == "complete":
                if _SPECS[job] not in handles[writer]:
                    appended += 1
                handles[writer].record(_SPECS[job], _SUMMARY)
                completed.add(key)
                continue
            if kind == "reconnect":
                record = _legacy_line("reclaim", key)
                record["reason"] = "reconnect"
                handles[writer] = RunJournal(path)
            else:
                record = _legacy_line(kind, key)
            append_jsonl(path, record)
            unknown += 1

        lines = path.read_text().splitlines() if path.exists() else []
        assert len(lines) == appended + unknown
        loaded = RunJournal(path)
        assert loaded.load() == len(completed)
        assert loaded.hashes() == completed
        assert loaded.unknown_lines == unknown
        assert loaded.bad_lines == 0
        assert loaded.stale_lines == 0


# ------------------------------------------- forward-compatible kinds
def test_unknown_record_kinds_are_counted_not_corruption(tmp_path):
    """A journal shared with a newer build may interleave record kinds
    this reader has never heard of; they must be skipped and counted —
    distinctly from torn lines — with every known record still loading."""
    path = tmp_path / "run.jsonl"
    spec_a, spec_b = tiny_specs(2)
    summaries = [o.summary for o in BatchEngine(jobs=1).run(
        [spec_a, spec_b])]

    journal = RunJournal(path)
    journal.record(spec_a, summaries[0])
    # A future build's record kind, interleaved mid-file.
    append_jsonl(path, {"schema": JOURNAL_SCHEMA,
                        "sim": SIMULATOR_VERSION,
                        "type": "digest-checkpoint",
                        "hash": "ab" * 32, "payload": [1, 2, 3]})
    append_jsonl(path, _legacy_line("lease", spec_b.content_hash()))
    append_jsonl(path, {"schema": JOURNAL_SCHEMA,
                        "sim": SIMULATOR_VERSION,
                        "type": "telemetry-index", "offset": 9})
    journal.record(spec_b, summaries[1])
    # And a torn tail from a writer killed mid-append.
    with path.open("a") as handle:
        handle.write('{"schema": 1, "type": "digest-che')

    loaded = RunJournal(path)
    assert loaded.load() == 2
    assert loaded.unknown_lines == 3
    assert loaded.bad_lines == 1
    assert loaded.stale_lines == 0
    assert loaded.hashes() == {spec_a.content_hash(),
                               spec_b.content_hash()}
    stats = loaded.stats()
    assert stats["unknown_lines"] == 3
    assert stats["bad_lines"] == 1


def test_unknown_kind_without_hash_is_not_bad(tmp_path):
    """Unknown kinds are skipped *before* any field access — a future
    record needs no 'hash'/'summary' fields to pass through safely."""
    path = tmp_path / "run.jsonl"
    append_jsonl(path, {"schema": JOURNAL_SCHEMA,
                        "sim": SIMULATOR_VERSION,
                        "type": "annotation", "note": "hello"})
    journal = RunJournal(path)
    assert journal.load() == 0
    assert journal.unknown_lines == 1
    assert journal.bad_lines == 0
