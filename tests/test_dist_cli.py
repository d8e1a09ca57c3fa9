"""CLI surface of the distributed fleet: serve, work, bench --dist.

The round trip drives real ``repro serve`` / ``repro work``
subprocesses over localhost TCP — the same path CI's chaos-fleet step
exercises with a kill in the middle.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def test_serve_and_work_round_trip(tmp_path):
    journal = tmp_path / "journal.jsonl"
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--algorithm", "pagerank", "--datasets", "bio-human",
         "--schedules", "vertex_map", "warp_map",
         "--scale", "0.2", "--iterations", "1",
         "--no-cache", "--journal", str(journal),
         "--bind", "127.0.0.1:0", "--json"],
        env=_env(), cwd=REPO_ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    banner = serve.stdout.readline()
    match = re.search(r"at (\S+);", banner)
    assert match, f"no address in serve banner: {banner!r}"
    address = match.group(1)

    # One lease each: the batch cannot finish (and the coordinator
    # exit) before both workers have connected and run a job.
    workers = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "work", address,
             "--id", f"cli-w{i}", "--connect-timeout", "60",
             "--max-jobs", "1"],
            env=_env(), cwd=REPO_ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        for i in range(2)
    ]
    out, err = serve.communicate(timeout=300)
    assert serve.returncode == 0, err

    payload = json.loads(out.strip().splitlines()[-1])
    assert [o["status"] for o in payload["outcomes"]] == ["ok", "ok"]
    assert all(o["cycles"] for o in payload["outcomes"])
    assert payload["fleet"]["batches_done"] == 1
    jobs_by_worker = {w: info["jobs_ok"]
                      for w, info in payload["fleet"]["workers"].items()}
    assert sum(jobs_by_worker.values()) == 2
    assert jobs_by_worker == {"cli-w0": 1, "cli-w1": 1}

    for proc in workers:
        wout, werr = proc.communicate(timeout=60)
        assert proc.returncode == 0, werr
        assert "drained" in wout
        assert "drained: 1 job(s) run" in wout
    # The journal holds both completions for a later --resume.
    lines = [json.loads(l) for l in journal.read_text().splitlines()]
    assert sum(1 for l in lines if "summary" in l) == 2


def test_bench_rejects_dist_with_jobs(capsys):
    code = main(["bench", "--smoke", "--figures", "fig10_pagerank",
                 "--dist", "127.0.0.1:1", "--jobs", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--jobs does not apply with --dist" in captured.err


def test_work_unreachable_coordinator_exits_2(capsys):
    code = main(["work", "127.0.0.1:1", "--connect-timeout", "0.2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "could not reach coordinator" in captured.err


def test_cache_stats_json(capsys, tmp_path):
    code = main(["cache", "stats", "--cache-dir", str(tmp_path),
                 "--json"])
    captured = capsys.readouterr()
    assert code == 0
    stats = json.loads(captured.out)
    assert stats["entries"] == 0
    assert {"hits", "misses", "stores"} <= set(stats)


def test_serve_max_runtime_sheds_then_resume_completes(tmp_path):
    journal = tmp_path / "journal.jsonl"
    base = [sys.executable, "-m", "repro", "serve",
            "--algorithm", "pagerank", "--datasets", "bio-human",
            "--schedules", "vertex_map", "warp_map",
            "--scale", "0.2", "--iterations", "1",
            "--no-cache", "--journal", str(journal),
            "--bind", "127.0.0.1:0", "--json"]
    # An exhausted runtime budget sheds every job as a journaled skip
    # (exit 1: the batch did not fully resolve) without needing any
    # worker at all.
    shed = subprocess.run(base + ["--max-runtime", "0"], env=_env(),
                          cwd=REPO_ROOT, capture_output=True,
                          text=True, timeout=120)
    assert shed.returncode == 1, shed.stderr
    payload = json.loads(shed.stdout.strip().splitlines()[-1])
    statuses = [o["status"] for o in payload["outcomes"]]
    assert statuses == ["skipped", "skipped"]
    assert all("deadline" in o["error"] for o in payload["outcomes"])
    assert payload["fleet"]["jobs_shed"] == 2
    lines = [json.loads(l) for l in journal.read_text().splitlines()]
    assert sum(1 for l in lines if l.get("type") == "skipped") == 2

    # The shed work was deferred, not lost: --resume + a worker
    # completes the remainder under a fresh budget.
    serve = subprocess.Popen(base + ["--resume"], env=_env(),
                             cwd=REPO_ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    match = None
    for _ in range(5):  # the resume banner precedes the address line
        banner = serve.stdout.readline()
        match = re.search(r"at (\S+);", banner)
        if match:
            break
    assert match, f"no address in serve banner: {banner!r}"
    worker = subprocess.Popen(
        [sys.executable, "-m", "repro", "work", match.group(1),
         "--id", "cli-resume-w0", "--connect-timeout", "60"],
        env=_env(), cwd=REPO_ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    out, err = serve.communicate(timeout=300)
    assert serve.returncode == 0, err
    worker.communicate(timeout=60)
    payload = json.loads(out.strip().splitlines()[-1])
    assert [o["status"] for o in payload["outcomes"]] == ["ok", "ok"]


def test_serve_sigterm_journals_outstanding_leases(tmp_path):
    import signal as signal_mod
    import socket
    import time

    from repro.dist import protocol
    from repro.dist.protocol import MessageStream
    from repro.sim import SIMULATOR_VERSION

    journal = tmp_path / "journal.jsonl"
    serve = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--algorithm", "pagerank", "--datasets", "bio-human",
         "--schedules", "vertex_map", "warp_map",
         "--scale", "0.2", "--iterations", "1",
         "--no-cache", "--journal", str(journal),
         "--lease-seconds", "60", "--bind", "127.0.0.1:0", "--json"],
        env=_env(), cwd=REPO_ROOT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    banner = serve.stdout.readline()
    match = re.search(r"at ([0-9.]+):(\d+);", banner)
    assert match, f"no address in serve banner: {banner!r}"
    host, port = match.group(1), int(match.group(2))

    # Hold one lease (never finishing it) so SIGTERM has an
    # *outstanding* lease to journal, not just queued work.
    sock = socket.create_connection((host, port), timeout=10.0)
    stream = MessageStream(sock)
    stream.send(protocol.hello("cli-holder", SIMULATOR_VERSION, 1))
    assert stream.recv()["type"] == "welcome"
    lease = None
    for _ in range(200):
        stream.send(protocol.request("cli-holder"))
        reply = stream.recv()
        if reply["type"] == "lease":
            lease = reply
            break
        time.sleep(0.02)
    assert lease is not None, "never got a lease to hold"

    serve.send_signal(signal_mod.SIGTERM)
    out, err = serve.communicate(timeout=120)
    stream.close()
    # Graceful degradation: the batch resolves (as skips), the process
    # exits through the normal reporting path, nothing is lost.
    assert serve.returncode == 1, err
    payload = json.loads(out.strip().splitlines()[-1])
    assert [o["status"] for o in payload["outcomes"]] == [
        "skipped", "skipped"]
    assert payload["fleet"]["shutdown"] == "sigterm"
    lines = [json.loads(l) for l in journal.read_text().splitlines()]
    skipped = [l for l in lines if l.get("type") == "skipped"]
    reclaims = [l for l in lines if l.get("type") == "reclaim"]
    assert len(skipped) == 2
    assert {l["reason"] for l in skipped} == {"sigterm"}
    # The held lease was reclaimed in the ledger before the exit.
    assert any(r["hash"] == lease["hash"] for r in reclaims)
