"""The figure registry and its engine driver.

Covers the registry contract (every figure discoverable, grids
picklable/hashable, summaries well-formed), the determinism guarantees
(expansion order stable across runs and worker counts), parity with
the pre-registry serial runner (bit-identical cycles for fig10 and
table1), warm-cache incrementality (second run simulates nothing), and
the paper-shape checks (one per figure, failing non-smoke runs).
"""

import pickle
import tempfile

import pytest

from repro.figures import (Figure, FigureContext, expand_jobs,
                           figure_names, get_figure, list_figures,
                           resolve_figures, run_figure, run_figures,
                           run_figures_report)
from repro.errors import ReproError
from repro.runtime import JobSpec, ResultCache

SMOKE = FigureContext.smoke_context()

#: Figures cheap enough to execute end-to-end inside tier-1 tests.
FAST_FIGURES = ["fig02b", "fig13", "ablation_dt_bypass", "table1"]


# ----------------------------------------------------------------- registry

def test_registry_names_sorted_unique():
    names = figure_names()
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert [f.name for f in list_figures()] == names


def test_registry_covers_every_benchmark_family():
    """Every paper table and figure, calibration microbenchmark and
    ablation has a registered figure."""
    names = set(figure_names())
    expected = {
        "fig02a", "fig02b", "fig03", "fig04", "fig09",
        "fig10_pagerank", "fig10_bfs", "fig10_sssp", "fig10_cc",
        "fig11a", "fig11b", "fig12", "fig13", "fig14", "fig15",
        "fig16", "fig17", "fig18", "fig19",
        "table1", "table2", "table3", "table4", "table5",
        "paper_config", "robustness", "extended_ranking",
        "micro_pointer_chase", "micro_stream_bandwidth",
        "micro_issue_throughput", "micro_latency_hiding",
        "ablation_prefetch_depth", "ablation_zero_skip_width",
        "ablation_dt_bypass", "ablation_weaver_capacity",
        "ablation_eghw_mlp", "ablation_split_vs_weaver",
        "ablation_core_scaling", "ablation_energy",
        "ablation_reordering",
    }
    assert expected <= names


def test_resolve_figures_exact_prefix_and_errors():
    assert [f.name for f in resolve_figures(["fig13"])] == ["fig13"]
    fig10s = [f.name for f in resolve_figures(["fig10"])]
    assert fig10s == ["fig10_bfs", "fig10_cc", "fig10_pagerank",
                      "fig10_sssp"]
    abls = [f.name for f in resolve_figures(["ablation"])]
    assert len(abls) == 9
    # duplicates collapse, result stays sorted
    both = [f.name for f in resolve_figures(["fig10", "fig10_bfs"])]
    assert both == fig10s
    with pytest.raises(ReproError):
        resolve_figures(["nonsense"])
    with pytest.raises(ReproError):
        get_figure("nonsense")


def test_register_rejects_duplicates_and_anonymous():
    from repro.figures import Figure, register

    class Dup(Figure):
        name = "fig13"

    with pytest.raises(ReproError):
        register(Dup)

    class Anon(Figure):
        name = ""

    with pytest.raises(ReproError):
        register(Anon)


@pytest.mark.parametrize("name", figure_names())
def test_figure_metadata_and_grid_contract(name):
    """Every figure declares metadata and a picklable, hashable,
    rebuild-stable grid."""
    fig = get_figure(name)
    assert fig.title, name
    assert fig.paper, name
    assert type(fig).check is not Figure.check, name

    jobs = fig.build_jobs(SMOKE)
    assert isinstance(jobs, list)
    for spec in jobs:
        assert isinstance(spec, JobSpec)
        hash(spec)
        assert spec.content_hash()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.content_hash() == spec.content_hash()

    rebuilt = fig.build_jobs(SMOKE)
    assert ([s.content_hash() for s in jobs]
            == [s.content_hash() for s in rebuilt])


# ------------------------------------------------------------- determinism

def test_expand_jobs_sorted_by_hash_and_deduped():
    """The merged batch is hash-sorted and shares cells between
    figures (fig10_pagerank and robustness overlap at scale 0.25)."""
    ctx = FigureContext()
    figs = resolve_figures(["fig10_pagerank", "robustness"])
    batch, per_figure = expand_jobs(figs, ctx)
    hashes = [s.content_hash() for s in batch]
    assert hashes == sorted(hashes)
    assert len(hashes) == len(set(hashes))
    total = sum(len(v) for v in per_figure.values())
    assert len(batch) < total  # deduplication happened

    # Order is independent of figure iteration order.
    batch2, _ = expand_jobs(list(reversed(figs)), ctx)
    assert [s.content_hash() for s in batch2] == hashes


def test_grid_stable_across_worker_counts(tmp_path):
    """Identical outputs (cycles and artifact text) at jobs=1 and
    jobs=2."""
    serial = run_figure("fig13", SMOKE, jobs=1)
    parallel = run_figure("fig13", SMOKE, jobs=2)
    assert serial.data["cycles"] == parallel.data["cycles"]
    assert serial.blocks == parallel.blocks


# ------------------------------------------------------------------ parity

@pytest.mark.parametrize("sim_engine", ["reference", "fast"])
def test_fig10_parity_with_preport_serial_runner(sim_engine):
    """The registry path reproduces a serial loop of GraphProcessor
    runs' cycles bit-for-bit (acceptance criterion) — under every
    simulator execution engine."""
    from repro.algorithms import make_algorithm
    from repro.figures.defs import fig10 as fig10_defs
    from repro.frontend import GraphProcessor
    from repro.graph import dataset, dataset_names
    from repro.sim import GPUConfig

    out = run_figure("fig10_pagerank", SMOKE, jobs=1,
                     sim_engine=sim_engine)

    names = dataset_names()[:3]  # SMOKE trims to three datasets
    cycles = {
        name: {
            sched: GraphProcessor(
                make_algorithm("pagerank", iterations=2), schedule=sched,
                config=GPUConfig.vortex_bench(), engine="reference",
            ).run(dataset(name, scale=SMOKE.rescale(0.25)),
                  max_iterations=2).total_cycles
            for sched in fig10_defs.SCHEDULES
        }
        for name in names
    }
    assert out.data["cycles"] == cycles


def test_cross_engine_cache_identity(tmp_path):
    """The engine is execution metadata: specs stamped with different
    engines share content hashes, so a cache warmed by one engine is
    hit-only for the other — and the summaries are bit-identical."""
    cache = ResultCache(str(tmp_path))

    first = run_figures(FAST_FIGURES, SMOKE, jobs=1, cache=cache,
                        sim_engine="reference")
    submitted = cache.stores
    assert submitted > 0 and cache.hits == 0

    second = run_figures(FAST_FIGURES, SMOKE, jobs=1, cache=cache,
                         sim_engine="fast")
    assert cache.stores == submitted  # the warm run simulated nothing
    assert cache.hits == submitted
    for name in first:
        assert first[name].blocks == second[name].blocks


def test_table1_parity_with_preport_analytic_path():
    from repro.graph import dataset
    from repro.sched import analytic
    from repro.sim import GPUConfig

    out = run_figure("table1", SMOKE)
    graph = dataset("graph500", scale=SMOKE.rescale(0.25))
    expected = analytic.characteristics_table(
        graph, GPUConfig.vortex_paper())
    assert out.blocks["table1_schemes"] == expected


# ------------------------------------------------------------- Table V

def test_table5_cells_are_fig10_pagerank_cells():
    """Table V simulates nothing of its own: at the default scale its
    cells dedup into Fig. 10's PageRank grid."""
    ctx = FigureContext()
    fig10, _ = expand_jobs(resolve_figures(["fig10_pagerank"]), ctx)
    both, per_figure = expand_jobs(
        resolve_figures(["fig10_pagerank", "table5"]), ctx)
    assert len(fig10) == 45 and len(per_figure["table5"]) == 20
    assert ([s.content_hash() for s in both]
            == [s.content_hash() for s in fig10])


def test_table5_folds_its_cells():
    """The tuner's pick is the cheapest software cell, a tie going to
    the first in SOFTWARE_SCHEDULES order; its bill is the four
    software cells' sum; S_vm and SW come from their own cells."""
    from repro.figures import ResultSet
    from repro.runtime import JobOutcome, RunSummary
    from repro.sim.stats import KernelStats

    cycles = {
        "hollywood": {"vertex_map": 800, "edge_map": 300,
                      "warp_map": 200, "cta_map": 200,
                      "sparseweaver": 100},
        "web-uk": {"vertex_map": 400, "edge_map": 500, "warp_map": 600,
                   "cta_map": 700, "sparseweaver": 500},
    }
    table5 = get_figure("table5")
    results = ResultSet(
        JobOutcome(spec, "ok", RunSummary(
            total_cycles=cycles[spec.graph.name][spec.schedule],
            iterations=2, stats=KernelStats(), values_digest="d"))
        for spec in table5.build_jobs(SMOKE))
    out = table5.summarize(SMOKE, results)
    assert out.data["rows"] == [
        ["hollywood", 1500, 800, 200, "warp_map", 4.0, 100, 8.0],
        ["web-uk", 2200, 400, 400, "vertex_map", 1.0, 500, 0.8],
    ]


def test_table5_summarize_simulates_nothing(monkeypatch):
    """Once its batch is done, Table V is a fold: summarize runs no
    simulation."""
    from repro.figures import ResultSet
    from repro.frontend.framework import GraphProcessor
    from repro.runtime import BatchEngine

    table5 = get_figure("table5")
    batch, _ = expand_jobs([table5], SMOKE)
    results = ResultSet(BatchEngine().run(batch))

    def no_simulation(self, *args, **kwargs):
        raise AssertionError("Table V simulated inside summarize")

    monkeypatch.setattr(GraphProcessor, "run", no_simulation)
    out = table5.summarize(SMOKE, results)
    assert out.blocks["table5_autotuner"].startswith("Table V")
    assert [row[0] for row in out.data["rows"]] == ["hollywood", "web-uk"]


# ------------------------------------------------------------ incremental

def test_second_run_is_all_cache_hits(tmp_path):
    """Warm-cache acceptance criterion: a repeated run submits the
    same batch and simulates nothing."""
    cache = ResultCache(str(tmp_path))

    first = run_figures(FAST_FIGURES, SMOKE, jobs=1, cache=cache)
    submitted = cache.stores
    assert submitted > 0
    assert cache.hits == 0

    second = run_figures(FAST_FIGURES, SMOKE, jobs=1, cache=cache)
    assert cache.stores == submitted  # the warm run simulated nothing
    assert cache.hits == submitted
    for name in first:
        assert first[name].blocks == second[name].blocks


@pytest.fixture(scope="module")
def whole_registry(tmp_path_factory):
    """Every figure, cold then warm against one shared cache, with
    ``tempfile`` pointed at an empty directory of its own."""
    # Made before the switch, so pytest's basetemp is already fixed.
    tempdir = tmp_path_factory.mktemp("tempdir")
    cache = ResultCache(str(tmp_path_factory.mktemp("figcache")))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tempfile, "tempdir", str(tempdir))
        cold = run_figures(list_figures(), SMOKE, jobs=1, cache=cache)
        cold_stores = cache.stores
        warm = run_figures(list_figures(), SMOKE, jobs=1, cache=cache)
    return cold, warm, cache, cold_stores, tempdir


@pytest.mark.parametrize("name", figure_names())
def test_summarize_round_trips_engine_summaries(name, whole_registry):
    """summarize() produces well-formed blocks from live summaries and
    reproduces them from cache-round-tripped summary dicts."""
    cold, warm, _cache, _cold_stores, _tempdir = whole_registry
    out = cold[name]
    assert out.name == name
    assert out.blocks, name
    for block_name, text in out.blocks.items():
        assert isinstance(text, str) and text.strip(), block_name
    assert warm[name].blocks == out.blocks


def test_whole_registry_warm_run_simulates_nothing(whole_registry):
    _cold, _warm, cache, cold_stores, _tempdir = whole_registry
    assert cold_stores > 0
    assert cache.stores == cold_stores  # the warm run simulated nothing
    assert cache.hits == cold_stores


def test_whole_registry_leaves_no_temp_files(whole_registry):
    """Figure summaries only read their results: neither run leaves
    anything in the temp directory."""
    tempdir = whole_registry[-1]
    assert list(tempdir.iterdir()) == []


# ----------------------------------------------------------------- driver

def test_resultset_errors_on_unknown_spec():
    from repro.figures import ResultSet
    from repro.runtime import AlgorithmSpec, GraphSpec

    results = ResultSet([])
    spec = JobSpec(
        algorithm=AlgorithmSpec.of("pagerank", iterations=1),
        graph=GraphSpec.from_dataset("bio-human", scale=0.05),
        schedule="vertex_map")
    assert spec not in results
    with pytest.raises(ReproError):
        results.summary(spec)


def test_figure_outputs_write_same_artifact_names(tmp_path):
    """CLI acceptance: blocks land as benchmarks/results-style files."""
    from repro.cli import main

    out_dir = tmp_path / "results"
    rc = main(["bench", "--smoke", "--figures", "table1,fig13",
               "--jobs", "1", "--no-cache", "--out", str(out_dir)])
    assert rc == 0
    produced = sorted(p.name for p in out_dir.glob("*.txt"))
    assert produced == ["fig13_table_latency.txt", "table1_schemes.txt"]


def test_cli_bench_list(capsys):
    from repro.cli import main

    assert main(["bench", "--list"]) == 0
    printed = capsys.readouterr().out
    assert "fig10_pagerank" in printed
    assert "table5" in printed


def test_run_figures_report_degrades_gracefully(tmp_path, monkeypatch):
    """One poisoned job skips its figure, not the whole batch."""
    import repro.runtime.engine as engine_mod

    def fail(spec):
        raise RuntimeError("job failed on purpose")

    with monkeypatch.context() as patch:
        patch.setattr(engine_mod, "_execute_spec", fail)
        outputs, report = run_figures_report(
            ["table1", "fig13"], SMOKE, jobs=1)
    assert report.total_jobs > 0
    assert not report.ok
    assert "fig13" in report.skipped_figures
    assert "table1" in outputs  # zero-job figure still summarizes
    assert "failed on purpose" in report.format()

    clean_outputs, clean_report = run_figures_report(
        ["table1", "fig13"], SMOKE, jobs=1)
    assert clean_report.ok
    assert sorted(clean_outputs) == ["fig13", "table1"]


def test_run_figures_report_rejects_unknown_policy():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        run_figures_report(["table1"], SMOKE, policy="retry_forever")


# ------------------------------------------------------------------ checks

BROKEN = "a claim the output breaks"


def test_broken_claim_fails_the_run(tmp_path, monkeypatch, capsys):
    """At the default context a yielded claim makes the report not ok,
    ``run_figures`` raise and ``repro bench`` exit 1 after writing the
    artifacts, naming the figure and the claim on stderr."""
    from repro.cli import main

    monkeypatch.setattr(get_figure("table1"), "check",
                        lambda out: iter([BROKEN]))
    outputs, report = run_figures_report(["table1"], FigureContext(),
                                         jobs=1)
    assert "table1" in outputs
    assert not report.ok
    assert report.broken_claims == [("table1", BROKEN)]
    assert f"table1: {BROKEN}" in report.format()
    with pytest.raises(ReproError, match=BROKEN):
        run_figures(["table1"], FigureContext(), jobs=1)

    out_dir = tmp_path / "results"
    rc = main(["bench", "--figures", "table1", "--jobs", "1",
               "--no-cache", "--out", str(out_dir)])
    assert rc == 1
    assert f"table1: {BROKEN}" in capsys.readouterr().err
    assert (out_dir / "table1_schemes.txt").exists()


def test_smoke_context_evaluates_no_check(monkeypatch):
    called = []

    def check(out):
        called.append(out.name)
        yield BROKEN

    monkeypatch.setattr(get_figure("table1"), "check", check)
    outputs, report = run_figures_report(["table1"], SMOKE, jobs=1)
    assert report.ok
    assert "table1" in outputs
    assert called == []


#: The figures that simulate nothing: cheap enough to check at the
#: default scale inside tier-1.
SIMULATION_FREE = ["table1", "table2", "table3", "table4", "fig09",
                   "fig16", "fig02a"]


def test_simulation_free_figures_pass_their_checks():
    outputs, report = run_figures_report(SIMULATION_FREE, FigureContext(),
                                         jobs=1)
    assert sorted(outputs) == sorted(SIMULATION_FREE)
    assert report.total_jobs == 0
    assert report.broken_claims == [], report.format()
