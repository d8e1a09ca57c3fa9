"""CLI smoke tests for the ``batch`` and ``cache`` subcommands."""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def statuses(journal):
    """Each journal line's status (``batch`` for a header)."""
    return [line.get("status", line.get("type")) for line in
            map(json.loads, journal.read_text().splitlines())]


def test_batch_grid_cold_then_warm(capsys, tmp_path):
    argv = ["batch", "--algorithm", "pagerank", "--datasets",
            "bio-human", "--schedules", "vertex_map", "sparseweaver",
            "--scale", "0.2", "--iterations", "1", "--jobs", "1",
            "--cache-dir", str(tmp_path / "cache"),
            "--journal", str(tmp_path / "run.jsonl")]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert "vertex_map" in out and "sparseweaver" in out
    assert "2 submitted, 2 simulated, 0 cached" in out
    assert statuses(tmp_path / "run.jsonl") == ["batch", "ok", "ok"]

    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert "2 submitted, 0 simulated, 2 cached" in out
    assert "cache: 2 hits, 0 misses, 0 stores" in out
    assert statuses(tmp_path / "run.jsonl") == [
        "batch", "cached", "cached"]


def test_batch_no_cache(capsys, tmp_path):
    code, out = run_cli(
        capsys, "batch", "--datasets", "bio-human", "--schedules",
        "vertex_map", "--scale", "0.2", "--iterations", "1",
        "--no-cache")
    assert code == 0
    assert "1 submitted, 1 simulated" in out
    assert "cache:" not in out


def test_batch_runs_a_repeated_spec_once(capsys, tmp_path):
    journal = tmp_path / "run.jsonl"
    code, out = run_cli(
        capsys, "batch", "--datasets", "bio-human", "bio-human",
        "--schedules", "vertex_map", "--scale", "0.05", "--iterations",
        "1", "--no-cache", "--journal", str(journal))
    assert code == 0
    assert "1 submitted, 1 simulated" in out
    assert statuses(journal) == ["batch", "ok"]


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


def run_spec_file(capsys, tmp_path, data):
    """``batch --spec-file`` over ``data``; returns (exit code, stderr)."""
    spec_file = tmp_path / "grid.json"
    spec_file.write_text(json.dumps(data))
    code = main(["batch", "--spec-file", str(spec_file), "--no-cache"])
    return code, capsys.readouterr().err


GOOD_JOB = {"algorithm": "pagerank", "dataset": "bio-human",
            "scale": 0.05, "schedule": "vertex_map"}


def test_batch_spec_file_non_numeric_scale_exits_2(capsys, tmp_path):
    code, err = run_spec_file(capsys, tmp_path,
                              [GOOD_JOB, dict(GOOD_JOB, scale="abc")])
    assert code == 2
    assert err.startswith("error: job 1 in ") and "'abc'" in err


def test_batch_spec_file_job_without_algorithm_exits_2(capsys, tmp_path):
    job = {k: v for k, v in GOOD_JOB.items() if k != "algorithm"}
    code, err = run_spec_file(capsys, tmp_path, [GOOD_JOB, job])
    assert code == 2
    assert err.startswith("error: job 1 in ") and "'algorithm'" in err


def test_batch_spec_file_jobs_not_a_list_exits_2(capsys, tmp_path):
    code, err = run_spec_file(capsys, tmp_path, {"jobs": 5})
    assert code == 2
    assert err.startswith("error: ") and "list of job objects" in err


def test_batch_grid_with_zero_iterations_exits_2(capsys):
    code = main(["batch", "--datasets", "bio-human", "--schedules",
                 "vertex_map", "--scale", "0.05", "--iterations", "0",
                 "--no-cache"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ("error: pagerank/bio-human/vertex_map: "
                            "iterations must be at least 1\n")
    assert captured.out == ""  # nothing ran


def test_batch_spec_file_zero_iterations_param_exits_2(capsys, tmp_path):
    code, err = run_spec_file(capsys, tmp_path, [
        GOOD_JOB, dict(GOOD_JOB, params={"iterations": 0})])
    assert code == 2
    assert err == (f"error: job 1 in {tmp_path / 'grid.json'}: "
                   "iterations must be at least 1\n")


def test_batch_spec_file_non_integer_max_iterations_exits_2(capsys,
                                                           tmp_path):
    code, err = run_spec_file(capsys, tmp_path, [
        GOOD_JOB, dict(GOOD_JOB, max_iterations="x")])
    assert code == 2
    assert err == (f"error: job 1 in {tmp_path / 'grid.json'}: "
                   "max_iterations must be a positive integer or null, "
                   "got 'x'\n")


def test_batch_spec_file_unknown_schedule_exits_2(capsys, tmp_path):
    code, err = run_spec_file(capsys, tmp_path, [
        GOOD_JOB, dict(GOOD_JOB, schedule="nope")])
    assert code == 2
    assert err.startswith(f"error: job 1 in {tmp_path / 'grid.json'}: "
                          "unknown schedule 'nope'")


@pytest.mark.parametrize("field, what", [
    ({"schedule": 5}, "a name"), ({"schedule": ["x"]}, "a name"),
    ({"algorithm": 5}, "a name"), ({"algorithm": None}, "a name"),
    ({"symmetrize": "false"}, "true or false")])
def test_batch_spec_file_mistyped_field_exits_2(capsys, tmp_path, field,
                                                what):
    code, err = run_spec_file(capsys, tmp_path, [
        GOOD_JOB, dict(GOOD_JOB, **field)])
    key, value = next(iter(field.items()))
    assert code == 2
    assert err == (f"error: job 1 in {tmp_path / 'grid.json'}: "
                   f"{key} must be {what}, got {value!r}\n")


def test_batch_builds_each_algorithm_and_schedule_once(capsys, tmp_path,
                                                       monkeypatch):
    import repro.sched as sched_mod
    from repro.runtime import AlgorithmSpec

    built = []
    make_schedule = sched_mod.make_schedule
    monkeypatch.setattr(sched_mod, "make_schedule", lambda name, **kw: (
        built.append(name), make_schedule(name, **kw))[1])
    build = AlgorithmSpec.build
    monkeypatch.setattr(AlgorithmSpec, "build", lambda self: (
        built.append(self.name), build(self))[1])
    monkeypatch.setattr(
        "repro.runtime.engine.BatchEngine.run", lambda self, specs: [])
    code, _err = run_spec_file(capsys, tmp_path, [
        GOOD_JOB, dict(GOOD_JOB, scale=0.1), dict(GOOD_JOB, scale=0.2)])
    assert code == 0
    assert built == ["pagerank", "vertex_map"]


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
    assert set(stats) == {"dir", "entries", "bytes", "quarantined_entries",
                          "max_entries", "schema", "simulator_version"}


def test_cache_stats_shows_the_store_not_process_counters(capsys,
                                                          tmp_path):
    """A fresh process has looked nothing up: ``cache stats`` prints
    the quarantine a batch left on disk and no per-process counter."""
    cache_dir = tmp_path / "cache"
    argv = ["batch", "--datasets", "bio-human", "--schedules",
            "vertex_map", "--scale", "0.05", "--iterations", "1",
            "--cache-dir", str(cache_dir)]
    assert run_cli(capsys, *argv)[0] == 0
    sorted(cache_dir.glob("*.json"))[0].write_text("{torn")
    code, out = run_cli(capsys, *argv)
    assert code == 0 and out.rstrip().endswith(", 1 quarantined")

    code, out = run_cli(capsys, "cache", "stats", "--cache-dir",
                        str(cache_dir))
    assert code == 0
    keys = [line.split(":")[0].strip() for line in out.splitlines()]
    assert keys == ["dir", "entries", "bytes", "quarantined_entries",
                    "max_entries", "schema", "simulator_version"]
    assert "  quarantined_entries: 1" in out.splitlines()


# ------------------------------------------------------ failures
def bad_schedule_spec_file(tmp_path):
    """Two jobs; the first fails inside the run: its graph generator
    does not exist, which only building the graph finds out."""
    spec_file = tmp_path / "grid.json"
    spec_file.write_text(json.dumps([
        {"algorithm": "pagerank", "params": {"iterations": 1},
         "generator": "no_such_generator",
         "schedule": "vertex_map", "max_iterations": 1},
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
    assert "no_such_generator" in captured.err
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
    assert statuses(journal) == ["batch", "ok"]


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


def test_bench_and_batch_print_the_same_summary_block(capsys, tmp_path):
    """Both commands fold their outcomes into one block: job counts,
    simulated cycles, wall seconds and the cache line, quarantined
    entries included."""
    cache_dir = tmp_path / "cache"
    argv = ["batch", "--datasets", "bio-human", "--schedules",
            "vertex_map", "sparseweaver", "--scale", "0.2",
            "--iterations", "1", "--cache-dir", str(cache_dir)]
    assert run_cli(capsys, *argv)[0] == 0
    # A torn entry is quarantined and its job simulated again.
    sorted(cache_dir.glob("*.json"))[0].write_text("{torn")
    code, out = run_cli(capsys, *argv)
    assert code == 0
    lines = out[out.index("batch summary:"):].splitlines()
    assert lines[1] == "  jobs: 2 submitted, 1 simulated, 1 cached, 0 failed"
    assert lines[2].startswith("  simulated cycles: ")
    assert lines[3].startswith("  wall seconds: ")
    assert lines[4].startswith("  cache: 1 hits, 1 misses, 1 stores")
    assert lines[4].endswith(", 1 quarantined")

    code, out = run_cli(capsys, "bench", "--smoke", "--figures", "fig13",
                        "--jobs", "1", "--cache-dir", str(cache_dir),
                        "--out", str(tmp_path / "results"))
    assert code == 0
    bench = out[out.index("batch summary:"):].splitlines()
    assert bench[1] == "  jobs: 2 submitted, 2 simulated, 0 cached, 0 failed"
    assert [line.split(":")[0] for line in bench[2:]] == [
        "  simulated cycles", "  wall seconds", "  cache"]
