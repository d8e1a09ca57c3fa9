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


# ------------------------------------------------------ failures
def bad_schedule_spec_file(tmp_path):
    """Two jobs; the first fails inside the run (unknown schedule)."""
    spec_file = tmp_path / "grid.json"
    spec_file.write_text(json.dumps([
        {"algorithm": "pagerank", "params": {"iterations": 1},
         "dataset": "bio-human", "scale": 0.2,
         "schedule": "no_such_schedule", "max_iterations": 1},
        {"algorithm": "pagerank", "params": {"iterations": 1},
         "dataset": "bio-human", "scale": 0.2,
         "schedule": "vertex_map", "max_iterations": 1},
    ]))
    return str(spec_file)


def test_batch_failure_exits_nonzero_with_stderr_table(capsys,
                                                       tmp_path):
    code = main(["batch", "--spec-file", bad_schedule_spec_file(tmp_path),
                 "--no-cache"])
    captured = capsys.readouterr()
    assert code == 1
    assert "did not complete" in captured.err
    assert "no_such_schedule" in captured.err
    # Summary still printed; the failed job is not counted simulated.
    assert "2 submitted, 1 simulated, 0 cached, 1 failed" in captured.out


def test_batch_fail_fast_skips_and_reports(capsys, tmp_path):
    code = main(["batch", "--spec-file", bad_schedule_spec_file(tmp_path),
                 "--no-cache", "--jobs", "1", "--fail-fast"])
    captured = capsys.readouterr()
    assert code == 1
    assert "skipped" in captured.err
    assert "2 of 2 job(s) did not complete" in captured.err


def test_batch_journal_starts_fresh(capsys, tmp_path):
    journal = tmp_path / "run.jsonl"
    argv = ["batch", "--datasets", "bio-human", "--schedules",
            "vertex_map", "--scale", "0.2", "--iterations", "1",
            "--no-cache", "--journal", str(journal)]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert "1 simulated" in out
    assert len(journal.read_text().splitlines()) == 1


def test_bench_keep_going_emits_surviving_figures(capsys, tmp_path,
                                                  monkeypatch):
    import repro.runtime.engine as engine_mod

    def fail(spec):
        raise RuntimeError("job failed on purpose")

    monkeypatch.setattr(engine_mod, "_execute_spec", fail)
    code = main(["bench", "--smoke", "--figures", "table1,fig13",
                 "--jobs", "1", "--no-cache", "--keep-going",
                 "--out", str(tmp_path / "results")])
    captured = capsys.readouterr()
    assert code == 1
    assert "did not complete" in captured.err
    assert "figures skipped" in captured.err
    assert (tmp_path / "results" / "table1_schemes.txt").exists()
