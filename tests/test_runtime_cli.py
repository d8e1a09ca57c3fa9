"""CLI smoke tests for the ``batch`` and ``cache`` subcommands."""

import json

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_batch_grid_cold_then_warm(capsys, tmp_path):
    argv = ["batch", "--algorithm", "pagerank", "--datasets",
            "bio-human", "--schedules", "vertex_map", "sparseweaver",
            "--scale", "0.2", "--iterations", "1", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--telemetry", str(tmp_path / "events.jsonl")]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert "vertex_map" in out and "sparseweaver" in out
    assert "2 submitted, 2 simulated, 0 cached" in out

    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert "2 submitted, 0 simulated, 2 cached" in out

    events = [json.loads(line) for line in
              (tmp_path / "events.jsonl").read_text().splitlines()]
    kinds = [e["kind"] for e in events]
    assert kinds.count("finished") == 2
    assert kinds.count("cached") == 2
    assert kinds.count("batch_summary") == 2


def test_batch_no_cache(capsys, tmp_path):
    code, out = run_cli(
        capsys, "batch", "--datasets", "bio-human", "--schedules",
        "vertex_map", "--scale", "0.2", "--iterations", "1",
        "--no-cache")
    assert code == 0
    assert "1 submitted, 1 simulated" in out
    assert "cache:" not in out


def test_batch_spec_file(capsys, tmp_path):
    spec_file = tmp_path / "grid.json"
    spec_file.write_text(json.dumps({"jobs": [
        {"algorithm": "pagerank", "params": {"iterations": 1},
         "dataset": "bio-human", "scale": 0.2,
         "schedule": "vertex_map", "max_iterations": 1},
        {"algorithm": "bfs", "params": {"source": 0},
         "dataset": "road-ca", "scale": 0.2,
         "schedule": "sparseweaver"},
    ]}))
    code, out = run_cli(
        capsys, "batch", "--spec-file", str(spec_file),
        "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    assert "bfs" in out and "road-ca" in out
    assert "2 submitted, 2 simulated" in out


def test_cache_stats_and_clear(capsys, tmp_path):
    cache_dir = tmp_path / "cache"
    code, _ = run_cli(
        capsys, "batch", "--datasets", "bio-human", "--schedules",
        "vertex_map", "--scale", "0.2", "--iterations", "1",
        "--cache-dir", str(cache_dir))
    assert code == 0

    code, out = run_cli(capsys, "cache", "stats", "--cache-dir",
                        str(cache_dir))
    assert code == 0
    assert "entries: 1" in out

    code, out = run_cli(capsys, "cache", "clear", "--cache-dir",
                        str(cache_dir))
    assert code == 0
    assert "removed 1" in out

    code, out = run_cli(capsys, "cache", "stats", "--cache-dir",
                        str(cache_dir))
    assert code == 0
    assert "entries: 0" in out


def test_cache_stats_json(capsys, tmp_path):
    code = main(["cache", "stats", "--cache-dir", str(tmp_path),
                 "--json"])
    captured = capsys.readouterr()
    assert code == 0
    stats = json.loads(captured.out)
    assert stats["entries"] == 0
    assert {"hits", "misses", "stores"} <= set(stats)


# ------------------------------------------------ robustness flags
def test_batch_failure_exits_nonzero_with_stderr_table(capsys,
                                                       tmp_path):
    code = main(["batch", "--datasets", "bio-human", "--schedules",
                 "vertex_map", "sparseweaver", "--scale", "0.2",
                 "--iterations", "1", "--no-cache",
                 "--faults", "fatal@0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "did not complete" in captured.err
    assert "injected fatal" in captured.err
    assert "1 failed" in captured.out  # summary still printed


def test_batch_fail_fast_skips_and_reports(capsys, tmp_path):
    code = main(["batch", "--datasets", "bio-human", "--schedules",
                 "vertex_map", "sparseweaver", "--scale", "0.2",
                 "--iterations", "1", "--no-cache", "--fail-fast",
                 "--faults", "fatal@0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "skipped" in captured.err
    assert "2 of 2 job(s) did not complete" in captured.err


def test_batch_transient_fault_retries_to_success(capsys, tmp_path):
    code = main(["batch", "--datasets", "bio-human", "--schedules",
                 "vertex_map", "--scale", "0.2", "--iterations", "1",
                 "--no-cache", "--faults", "transient@0"])
    captured = capsys.readouterr()
    assert code == 0
    assert "1 retried" in captured.out


def test_batch_journal_resume_round_trip(capsys, tmp_path):
    journal = tmp_path / "run.jsonl"
    argv = ["batch", "--datasets", "bio-human", "--schedules",
            "vertex_map", "sparseweaver", "--scale", "0.2",
            "--iterations", "1", "--no-cache",
            "--journal", str(journal)]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert "2 submitted, 2 simulated" in out
    assert journal.exists()

    code, out = run_cli(capsys, *argv, "--resume")
    assert code == 0
    assert "resume: 2 completed job(s) restored" in out
    assert "2 submitted, 0 simulated" in out
    assert "2 resumed" in out


def test_batch_resume_skips_legacy_journal_lines(capsys, tmp_path):
    """A journal written by an earlier version's worker fleet or batch
    deadline carries lease, reclaim and skipped lines.  Resuming from
    it restores every completion and names the lines it skipped."""
    journal = tmp_path / "run.jsonl"
    argv = ["batch", "--datasets", "bio-human", "--schedules",
            "vertex_map", "sparseweaver", "--scale", "0.2",
            "--iterations", "1", "--no-cache",
            "--journal", str(journal)]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    first, second = [json.loads(line)
                     for line in journal.read_text().splitlines()]
    era = {"schema": first["schema"], "sim": first["sim"],
           "time": 1700000000.0}
    lines = [
        dict(era, type="lease", hash=first["hash"], worker="box-1",
             attempt=1, deadline=1700000030.0),
        first,
        dict(era, type="skipped", hash=second["hash"],
             label=second["label"], reason="deadline"),
        dict(era, type="lease", hash=second["hash"], worker="box-2",
             attempt=1, deadline=1700000030.0),
        dict(era, type="reclaim", hash=second["hash"], worker="box-2",
             reason="expired"),
        second,
    ]
    journal.write_text("".join(json.dumps(line) + "\n" for line in lines))

    code, out = run_cli(capsys, *argv, "--resume")
    assert code == 0
    assert "resume: 2 completed job(s) restored" in out
    assert "(4 line(s) of unknown kind skipped)" in out
    assert "torn" not in out
    assert "2 submitted, 0 simulated" in out


def test_batch_journal_without_resume_starts_fresh(capsys, tmp_path):
    journal = tmp_path / "run.jsonl"
    argv = ["batch", "--datasets", "bio-human", "--schedules",
            "vertex_map", "--scale", "0.2", "--iterations", "1",
            "--no-cache", "--journal", str(journal)]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    code, out = run_cli(capsys, *argv)  # no --resume: fresh run
    assert code == 0
    assert "1 simulated" in out


def test_resume_without_journal_is_a_config_error(capsys, tmp_path):
    code = main(["batch", "--datasets", "bio-human", "--schedules",
                 "vertex_map", "--scale", "0.2", "--no-cache",
                 "--resume"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--resume requires --journal" in captured.err


def test_malformed_faults_plan_is_a_config_error(capsys):
    code = main(["batch", "--datasets", "bio-human", "--schedules",
                 "vertex_map", "--scale", "0.2", "--no-cache",
                 "--faults", "explode@0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown fault kind" in captured.err


def test_bench_keep_going_emits_surviving_figures(capsys, tmp_path):
    code = main(["bench", "--smoke", "--figures", "table1,fig13",
                 "--jobs", "1", "--no-cache", "--keep-going",
                 "--out", str(tmp_path / "results"),
                 "--faults", "fatal~1.0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "did not complete" in captured.err
    assert "figures skipped" in captured.err


def test_bench_journal_resume(capsys, tmp_path):
    journal = tmp_path / "run.jsonl"
    argv = ["bench", "--smoke", "--figures", "fig13", "--jobs", "1",
            "--no-cache", "--out", str(tmp_path / "results"),
            "--journal", str(journal),
            "--telemetry", str(tmp_path / "events.jsonl")]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert journal.exists() and journal.stat().st_size > 0

    code, out = run_cli(capsys, *argv, "--resume")
    assert code == 0
    assert "resume:" in out
    events = [json.loads(line) for line in
              (tmp_path / "events.jsonl").read_text().splitlines()]
    kinds = [e["kind"] for e in events]
    assert kinds.count("resumed") > 0
    # The resumed pass never started a worker.
    first_summary = kinds.index("batch_summary")
    assert "started" not in kinds[first_summary:]
