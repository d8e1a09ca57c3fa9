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
# run --trace
# ----------------------------------------------------------------------
def test_run_trace_writes_the_simulated_timeline(capsys, tmp_path):
    import json

    trace = tmp_path / "trace.json"
    code, out = run_cli(capsys, "run", "--dataset", "bio-human",
                        "--scale", "0.2", "--iterations", "1",
                        "--trace", str(trace))
    assert code == 0
    assert f"trace:      {trace}" in out
    events = json.loads(trace.read_text())["traceEvents"]
    assert isinstance(events, list)
    spans = [e for e in events if e["ph"] == "X"]
    # Only simulated-cycle rows: per-core processes, instruction and
    # stall spans.
    assert spans and all(e["pid"] >= 1000 for e in events)
    assert "stall" in {e["cat"] for e in spans}


# ----------------------------------------------------------------------
# repro diff — provenance divergence localization
# ----------------------------------------------------------------------
def _diff_journal(path, label, ledger, key=None, values="d"):
    """One completion record carrying a digest ledger, as the engine
    journals it (loader is schema-tolerant, so only the shape matters).
    The content hash defaults to one derived from the label."""
    import hashlib
    import json

    with open(path, "a") as handle:
        handle.write(json.dumps({
            "hash": key or hashlib.sha256(label.encode()).hexdigest(),
            "label": label,
            "summary": {"total_cycles": 10, "iterations": 1,
                        "stats": {}, "values_digest": values,
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


def test_diff_pairs_journals_by_content_hash(capsys, tmp_path):
    """Two jobs share a label (labels leave out config and scale); the
    first-journaled one diverges between the journals.  Pairing by
    label would keep only the last of each and miss it."""
    import json

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _diff_journal(a, "pagerank/hollywood/vertex_map",
                  [[0, 0, 0, 0, "aaaa", 3]], key="11" * 32)
    _diff_journal(b, "pagerank/hollywood/vertex_map",
                  [[0, 0, 0, 0, "XXXX", 3]], key="11" * 32)
    for path in (a, b):
        _diff_journal(path, "pagerank/hollywood/vertex_map",
                      [[0, 0, 0, 0, "bbbb", 3]], key="22" * 32)

    code, out = run_cli(capsys, "diff", "--a", str(a), "--b", str(b),
                        "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["compared"] == 2 and doc["divergent"] == 1
    diverging = [job for job in doc["jobs"] if job["divergences"]]
    assert [job["hash"] for job in diverging] == ["11" * 32]


def test_diff_live_side_pairs_by_content_hash(capsys, tmp_path):
    """A live side pairs with the stored job that has its content
    hash, even when it is not the last of the jobs sharing its label;
    with no such job, several label twins are an error naming them."""
    from repro.cli import _diff_live_spec
    from repro.obs.provenance import disable_digests, enable_digests
    from repro.runtime.engine import _execute_spec

    live = ("engine=fast,algorithm=pagerank,dataset=bio-human,"
            "schedule=vertex_map,scale=0.05,iterations=1")
    spec = _diff_live_spec(dict(kv.split("=") for kv in live.split(",")))
    enable_digests()
    try:
        summary = _execute_spec(spec)
    finally:
        disable_digests(clear=True)
    journal, twins = tmp_path / "journal.jsonl", tmp_path / "twins.jsonl"
    _diff_journal(journal, spec.label, summary["digest_ledger"],
                  key=spec.content_hash(), values=summary["values_digest"])
    for path in (journal, twins):
        for key in ("33" * 32, "44" * 32):
            _diff_journal(path, spec.label, [[0, 0, 0, 0, "XXXX", 3]],
                          key=key)

    try:
        code, out = run_cli(capsys, "diff", "--a", live,
                            "--b", str(journal))
        assert code == 0, out
        assert "no divergences" in out

        code = main(["diff", "--a", str(twins), "--b", live])
    finally:
        disable_digests(clear=True)
    err = capsys.readouterr().err
    assert code == 2
    assert "333333333333" in err and "444444444444" in err


def test_diff_compares_values_of_jobs_paired_by_hash(capsys, tmp_path):
    """Identical ledgers with one edited values digest are a divergence;
    two live sides pair by label, so their values are not compared."""
    import json

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    ledger = [[0, 0, 0, 0, "aaaa", 3]]
    for path, values in ((a, "v1"), (b, "v2")):
        _diff_journal(path, "job-1", ledger, key="55" * 32)
        _diff_journal(path, "job-2", ledger, key="66" * 32, values=values)

    code, out = run_cli(capsys, "diff", "--a", str(a), "--b", str(b))
    assert code == 1
    assert "values differ (a=v1, b=v2)" in out
    assert "FIRST DIVERGENCE: job-2 at its result values" in out

    code, out = run_cli(capsys, "diff", "--a", str(a), "--b", str(b),
                        "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["values_compared"] and doc["divergent"] == 1
    (job,) = [job for job in doc["jobs"] if job["divergences"]]
    assert job["hash"] == "66" * 32 and job["divergences"] == 1
    assert job["values"] == {"a": "v1", "b": "v2"}
    assert "first" not in job


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

    # No common jobs between the two sides.
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


def test_diff_replay_runs_each_side_on_its_engine(monkeypatch, tmp_path):
    """Both live sides name the fast engine, so the replay re-runs build
    a fast GPU each, not the default engine's."""
    import json
    from pathlib import Path

    from repro.cli import _diff_live_spec, _diff_replay
    from repro.sim.fast import FastGPU

    builds = []
    init = FastGPU.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FastGPU, "__init__", counting_init)
    opts = {"engine": "fast", "algorithm": "pagerank",
            "dataset": "bio-human", "schedule": "vertex_map",
            "scale": "0.05", "iterations": "1"}
    spec_a = _diff_live_spec(opts)
    spec_b = _diff_live_spec(dict(opts, alu_latency="3"))
    path = _diff_replay(tmp_path / "replay.json", spec_a, spec_b, 0)
    assert len(builds) == 2
    events = json.loads(Path(path).read_text())["traceEvents"]
    assert any(e["ph"] == "X" for e in events)
