"""The public API surface: everything exported resolves and imports
have no cycles."""

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.graph", "repro.sim", "repro.core", "repro.sched",
    "repro.frontend", "repro.algorithms", "repro.autotune",
    "repro.bench", "repro.apps", "repro.cli", "repro.runtime",
    "repro.obs", "repro.figures", "repro.dist",
]


def test_version():
    assert repro.__version__ == "1.0.0"


def test_top_level_all_resolves():
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize("module", SUBPACKAGES)
def test_subpackage_all_resolves(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.{name}"


@pytest.mark.parametrize("module", SUBPACKAGES)
def test_subpackages_import_standalone(module):
    """Each subpackage imports on its own (no hidden cycles)."""
    assert importlib.import_module(module) is not None


def test_every_public_symbol_has_docstring():
    import inspect

    missing = []
    for name in repro.__all__:
        obj = getattr(repro, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ or "").strip():
                missing.append(name)
    assert not missing, f"undocumented public symbols: {missing}"


def test_schedule_registry_consistent():
    from repro.sched import (ALL_SCHEDULES, EXTENDED_SCHEDULES,
                             SOFTWARE_SCHEDULES, make_schedule,
                             schedule_names)

    assert set(SOFTWARE_SCHEDULES) < set(ALL_SCHEDULES)
    assert set(ALL_SCHEDULES) < set(EXTENDED_SCHEDULES)
    assert set(EXTENDED_SCHEDULES) <= set(schedule_names())
    for name in schedule_names():
        sched = make_schedule(name)
        assert sched.name == name
        assert sched.label


def test_algorithm_registry_consistent():
    from repro.algorithms import algorithm_names, make_algorithm

    for name in algorithm_names():
        alg = make_algorithm(name)
        assert alg.name
        assert alg.result_array


def test_figure_facade_stable():
    """The five names the README promises stay importable from repro."""
    from repro import (BatchEngine, ResultCache, list_figures,
                       run_figure, run_schedule_comparison)

    assert callable(run_figure)
    assert callable(run_schedule_comparison)
    assert callable(BatchEngine)
    assert callable(ResultCache)
    figs = list_figures()
    assert figs, "figure registry is empty"
    for name in ("list_figures", "run_figure", "run_figures",
                 "figure_names", "Figure", "FigureContext",
                 "FigureOutput", "run_schedule_comparison",
                 "run_single", "BatchEngine", "ResultCache"):
        assert name in repro.__all__, name


def test_figure_registry_names_unique_and_sorted():
    from repro.figures import figure_names, get_figure, list_figures

    names = figure_names()
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert [f.name for f in list_figures()] == names
    for name in names:
        assert get_figure(name).name == name


def test_run_schedule_comparison_keyword_only_tail():
    """Everything after ``schedules`` is keyword-only: a positional
    (config, max_iterations, symmetrize) tail raises ``TypeError``."""
    from repro.bench import runner
    from repro.graph import powerlaw_graph
    from repro.runtime import AlgorithmSpec
    from repro.sim import GPUConfig

    graph = powerlaw_graph(64, 256, seed=3)
    cfg = GPUConfig.vortex_bench()
    alg = AlgorithmSpec.of("pagerank", iterations=1)

    kw = runner.run_schedule_comparison(
        alg, {"g": graph}, ["vertex_map"], config=cfg,
        max_iterations=1)
    assert kw.cycles["g"]["vertex_map"] > 0
    with pytest.raises(TypeError):
        runner.run_schedule_comparison(
            alg, {"g": graph}, ["vertex_map"], cfg, 1)
    with pytest.raises(TypeError):
        runner.run_schedule_comparison(
            alg, {"g": graph}, ["vertex_map"], cfg)


def test_dist_facade_stable():
    """The distributed-fleet surface stays importable from repro."""
    from repro import Coordinator, Worker
    from repro.dist import (PROTOCOL_VERSION, ProtocolError,
                            format_address, parse_address)

    assert callable(Coordinator)
    assert callable(Worker)
    assert isinstance(PROTOCOL_VERSION, int)
    assert issubclass(ProtocolError, Exception)
    assert parse_address("example.org:7000") == ("example.org", 7000)
    assert format_address(("example.org", 7000)) == "example.org:7000"
    for name in ("Coordinator", "Worker"):
        assert name in __import__("repro").__all__, name


def test_robustness_facade_stable():
    """The fault-tolerance surface stays importable from repro."""
    from repro import (FailureReport, FatalError, FaultPlan, RunJournal,
                      TransientError, run_figures_report)
    from repro.runtime import append_jsonl, get_active_plan

    assert callable(run_figures_report)
    assert callable(append_jsonl)
    assert callable(get_active_plan)
    assert issubclass(TransientError, Exception)
    assert issubclass(FatalError, Exception)
    for name in ("FaultPlan", "RunJournal", "FailureReport",
                 "TransientError", "FatalError", "run_figures_report"):
        assert name in repro.__all__, name
