"""CLI smoke tests (in-process, capturing stdout)."""

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_run_command(capsys):
    code, out = run_cli(capsys, "run", "--dataset", "bio-human",
                        "--scale", "0.2", "--iterations", "1")
    assert code == 0
    assert "cycles:" in out
    assert "sparseweaver" in out


def test_run_with_schedule_and_algorithm(capsys):
    code, out = run_cli(capsys, "run", "--algorithm", "bfs",
                        "--dataset", "road-ca", "--schedule",
                        "vertex_map", "--scale", "0.2")
    assert code == 0
    assert "bfs on road-ca" in out


def test_compare_command(capsys):
    code, out = run_cli(capsys, "compare", "--dataset", "bio-human",
                        "--scale", "0.2", "--iterations", "1")
    assert code == 0
    for sched in ("vertex_map", "edge_map", "sparseweaver", "eghw"):
        assert sched in out
    assert "speedup over S_vm" in out


def test_datasets_command(capsys):
    code, out = run_cli(capsys, "datasets")
    assert code == 0
    assert "hollywood" in out
    assert "228985632" in out  # paper-scale edge count


def test_area_command(capsys):
    code, out = run_cli(capsys, "area", "--cores", "1")
    assert code == 0
    assert "105094" in out and "108203" in out


def test_weaver_command(capsys):
    code, out = run_cli(capsys, "weaver")
    assert code == 0
    assert "[0, 2, 2, 4]" in out
    assert "[2, 10, 11, 30]" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_bad_choice_rejected():
    with pytest.raises(SystemExit):
        main(["run", "--schedule", "quantum"])


def test_compare_extended(capsys):
    code, out = run_cli(capsys, "compare", "--dataset", "bio-human",
                        "--scale", "0.2", "--iterations", "1",
                        "--extended")
    assert code == 0
    for sched in ("twc", "twce", "strict", "split_vertex_map",
                  "hybrid_ell"):
        assert sched in out


# ----------------------------------------------------------------------
# --profile
# ----------------------------------------------------------------------
def test_run_profile_writes_artifacts(capsys, tmp_path):
    from repro.obs.profile import (disable_profiling, get_profiler,
                                   profiling_enabled)

    assert not profiling_enabled()
    try:
        code, out = run_cli(
            capsys, "run", "--dataset", "bio-human", "--scale", "0.2",
            "--iterations", "1",
            "--profile", str(tmp_path / "prof"),
            "--trace", str(tmp_path / "trace.json"))
    finally:
        get_profiler().clear()
        disable_profiling()
    assert code == 0
    assert "host profile:" in out
    assert "% phase coverage" in out
    assert (tmp_path / "prof" / "profile.json").exists()
    assert (tmp_path / "prof" / "flamegraph.collapsed").exists()
    import json

    doc = json.loads((tmp_path / "trace.json").read_text())
    cats = {e.get("cat") for e in doc["traceEvents"]}
    # Simulated-cycle rows and host-sampler rows share the file.
    assert "stall" in cats


def test_batch_profile_folds_worker_snapshots(capsys, tmp_path):
    from repro.obs.profile import (disable_profiling, get_profiler,
                                   profiling_enabled)

    assert not profiling_enabled()
    try:
        code, out = run_cli(
            capsys, "batch", "--datasets", "bio-human",
            "--schedules", "vertex_map", "--scale", "0.2",
            "--iterations", "1", "--jobs", "2", "--no-cache",
            "--profile", str(tmp_path / "prof"))
    finally:
        get_profiler().clear()
        disable_profiling()
    assert code == 0
    assert "host profile:" in out
    assert "execute" in out
    assert (tmp_path / "prof" / "profile.json").exists()


# ----------------------------------------------------------------------
# repro diff — provenance divergence localization
# ----------------------------------------------------------------------
def _diff_journal(path, label, ledger):
    """One completion record carrying a digest ledger, as the engine
    journals it (loader is schema-tolerant, so only the shape matters)."""
    import json

    with open(path, "a") as handle:
        handle.write(json.dumps({
            "hash": "ab" * 32, "label": label,
            "summary": {"total_cycles": 10, "iterations": 1,
                        "stats": {}, "values_digest": "d",
                        "digest_ledger": ledger},
        }) + "\n")


def test_diff_journals_clean_and_divergent(capsys, tmp_path):
    base = [[0, 0, 0, 0, "aaaa", 3], [0, -1, -1, -1, "bbbb", 5]]
    other = [[0, 0, 0, 0, "XXXX", 3], [0, -1, -1, -1, "YYYY", 5]]
    a, b, c = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
    _diff_journal(a, "job-1", base)
    _diff_journal(b, "job-1", base)
    _diff_journal(c, "job-1", other)

    code, out = run_cli(capsys, "diff", "--a", str(a), "--b", str(b))
    assert code == 0
    assert "ledgers identical" in out and "no divergences" in out

    code, out = run_cli(capsys, "diff", "--a", str(a), "--b", str(c))
    assert code == 1
    assert "FIRST DIVERGENCE: job-1 at kernel 0 interval 0 core 0 warp 0" in out
    assert "2 diverging record(s)" in out


def test_diff_json_output(capsys, tmp_path):
    import json

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _diff_journal(a, "job-1", [[0, 0, 0, 0, "aaaa", 3]])
    _diff_journal(b, "job-1", [[0, 0, 0, 0, "XXXX", 3]])
    code, out = run_cli(capsys, "diff", "--a", str(a), "--b", str(b),
                        "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["divergent"] == 1 and doc["compared"] == 1
    job = doc["jobs"][0]
    assert job["label"] == "job-1"
    assert job["first"]["coord"] == [0, 0, 0, 0]
    assert job["first"]["where"] == "kernel 0 interval 0 core 0 warp 0"
    assert job["first"]["a"] == "aaaa" and job["first"]["b"] == "XXXX"


def test_diff_error_exits(capsys, tmp_path):
    import json

    # Neither a file, a directory, nor key=value options.
    code, _out = run_cli(capsys, "diff", "--a", "nope-such-source",
                         "--b", "nope-such-source")
    assert code == 2

    # Engines must come from the registry.
    code, _out = run_cli(capsys, "diff", "--a", "engine=warp9",
                         "--b", "engine=reference")
    assert code == 2

    # Unknown live option names are rejected, not silently dropped.
    code, _out = run_cli(capsys, "diff", "--a", "alu_latncy=3",
                         "--b", "engine=reference")
    assert code == 2

    # No common labels between the two sides.
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _diff_journal(a, "job-1", [[0, 0, 0, 0, "aaaa", 1]])
    _diff_journal(b, "job-2", [[0, 0, 0, 0, "aaaa", 1]])
    assert run_cli(capsys, "diff", "--a", str(a), "--b", str(b))[0] == 2

    # Common labels but no ledgers on either side (REPRO_DIGEST off).
    c, d = tmp_path / "c.jsonl", tmp_path / "d.jsonl"
    for path in (c, d):
        with open(path, "a") as handle:
            handle.write(json.dumps({
                "hash": "cd" * 32, "label": "job-1",
                "summary": {"total_cycles": 10, "iterations": 1,
                            "stats": {}, "values_digest": "d"},
            }) + "\n")
    assert run_cli(capsys, "diff", "--a", str(c), "--b", str(d))[0] == 2


def test_diff_live_perturbation_localizes_and_replays(capsys, tmp_path):
    """The acceptance walkthrough end-to-end: an identical live pair
    diffs clean; a perturbed opcode latency produces a first-divergence
    coordinate and --replay writes the side-by-side Chrome trace."""
    import json

    from repro.obs.provenance import digests_enabled, disable_digests

    live = ("algorithm=pagerank,dataset=bio-human,schedule=sparseweaver,"
            "scale=0.2,iterations=1")
    assert not digests_enabled()
    try:
        code, out = run_cli(capsys, "diff", "--a", live, "--b", live,
                            "--interval", "512")
        assert code == 0
        assert "no divergences" in out

        trace = tmp_path / "replay.json"
        code, out = run_cli(capsys, "diff", "--a", live,
                            "--b", live + ",alu_latency=3",
                            "--interval", "512",
                            "--replay", str(trace))
    finally:
        disable_digests(clear=True)
    assert code == 1
    assert "FIRST DIVERGENCE" in out
    assert "kernel 0 interval 0" in out
    doc = json.loads(trace.read_text())
    names = {e["args"]["name"] for e in doc["traceEvents"]
             if e.get("name") == "process_name"}
    # Both sides' kernels land in one trace, labeled A: and B:.
    assert any(n.startswith("A:") for n in names)
    assert any(n.startswith("B:") for n in names)
