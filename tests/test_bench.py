"""The benchmark harness utilities: grid results and report formatting."""

import pytest

from repro.algorithms import make_algorithm
from repro.bench import (
    ExperimentResult,
    format_breakdown,
    format_series,
    format_table,
    geomean,
)
from repro.frontend import GraphProcessor
from repro.graph import powerlaw_graph, star_graph
from repro.runtime import AlgorithmSpec, BatchEngine, GraphSpec
from repro.sim import GPUConfig

CFG = GPUConfig.vortex_tiny()


# ----------------------------------------------------------------------
# Runs and grid results
# ----------------------------------------------------------------------
def test_run_single(small_powerlaw):
    res = GraphProcessor(make_algorithm("pagerank", iterations=1),
                         schedule="vertex_map", config=CFG).run(
        small_powerlaw)
    assert res.total_cycles > 0


def test_schedule_comparison_grid():
    """Every schedule on every graph: the figures' grid, run by the
    batch engine and folded back into an :class:`ExperimentResult`."""
    from repro.figures.defs.common import experiment_result, grid
    from repro.figures.driver import ResultSet

    graphs = {"a": GraphSpec.inline(star_graph(30), name="a"),
              "b": GraphSpec.inline(powerlaw_graph(60, 240, seed=1),
                                    name="b")}
    cells = grid(AlgorithmSpec.of("pagerank", iterations=1), graphs,
                 ["vertex_map", "edge_map"], config=CFG)
    result = experiment_result(
        ResultSet(BatchEngine().run(list(cells.values()))), cells)
    assert set(result.cycles) == {"a", "b"}
    assert set(result.cycles["a"]) == {"vertex_map", "edge_map"}
    assert all(result.runs[g][s].total_cycles == c > 0
               for g, row in result.cycles.items() for s, c in row.items())


def test_speedups_baseline_is_one():
    result = ExperimentResult(cycles={"a": {"vertex_map": 300,
                                            "edge_map": 200}})
    sp = result.speedups()
    assert sp["a"]["vertex_map"] == 1.0
    assert sp["a"]["edge_map"] == pytest.approx(1.5)


def test_geomean_speedups():
    result = ExperimentResult(cycles={
        "a": {"vertex_map": 100, "edge_map": 50},
        "b": {"vertex_map": 100, "edge_map": 200}})
    gm = result.geomean_speedups()
    assert gm["vertex_map"] == pytest.approx(1.0)
    assert gm["edge_map"] == pytest.approx(1.0)  # sqrt(2 * 0.5)


def test_geomean_function():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([]) == 1.0
    assert geomean([1.0, 1.0, 1.0]) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Report formatting
# ----------------------------------------------------------------------
def test_format_table_alignment():
    text = format_table(["name", "value"], [["a", 1], ["longer", 2.5]],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "longer" in lines[-1]
    assert "2.50" in lines[-1]


def test_format_series_rows_are_series():
    text = format_series("x", [1, 2], {"s1": [10, 20], "s2": [30, 40]})
    assert "s1" in text and "s2" in text
    assert "40" in text


def test_format_breakdown_totals():
    text = format_breakdown(
        {"cfgA": {"mem": 10, "alu": 30}, "cfgB": {"mem": 5}}
    )
    assert "total" in text.splitlines()[0]
    assert "40" in text


def test_format_breakdown_normalized():
    text = format_breakdown({"cfg": {"a": 1, "b": 3}}, normalize=True)
    assert "0.25" in text and "0.75" in text


def test_format_bar_chart():
    from repro.bench import format_bar_chart

    text = format_bar_chart({"a": 10, "bb": 40}, title="T", width=20,
                            unit="c")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert lines[2].count("#") == 20      # the max fills the width
    assert lines[1].count("#") == 5       # proportional
    assert "40c" in lines[2]
    assert format_bar_chart({}) == ""
