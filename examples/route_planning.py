"""Route planning on a road network — where naive mapping wins.

Road networks are the paper's counter-case: degree <= 4 everywhere, so
there is no imbalance to fix and scheduling overhead is pure cost. This
example runs BFS (hop counts) and SSSP (travel times) on the roadNet-CA
analog, shows vertex mapping winning, and then tunes the schedule the
way Table V's auto-tuner does (try every software schedule, keep the
fastest, pay for all of them) — demonstrating why the paper argues for
hardware that is cheap enough to never lose badly, instead of
per-dataset tuning.

    python examples/route_planning.py
"""

import numpy as np

from repro import GraphProcessor, GPUConfig, make_algorithm
from repro.graph import road_grid_graph
from repro.graph.builder import from_edge_arrays
from repro.sched import SOFTWARE_SCHEDULES


def weighted_road(side: int, seed: int = 11):
    """Road grid with travel-time weights (0.5-3.0 per segment)."""
    grid = road_grid_graph(side, seed=seed)
    rng = np.random.default_rng(seed)
    src = grid.edge_sources()
    dst = grid.col_idx
    # symmetric weights: hash the undirected pair
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    w = 0.5 + 2.5 * ((lo * 2_654_435_761 + hi) % 1000) / 1000.0
    return from_edge_arrays(src, dst, grid.num_vertices, weights=w)


def main() -> None:
    graph = weighted_road(28)
    config = GPUConfig.vortex_bench()
    depot = 0
    print(f"road network analog: {graph} (max degree "
          f"{int(graph.degrees.max())})\n")

    for name, factory in {
        "hop count (BFS)": lambda: make_algorithm("bfs", source=depot),
        "travel time (SSSP)": lambda: make_algorithm("sssp", source=depot),
    }.items():
        print(f"== {name} ==")
        for schedule in ("vertex_map", "edge_map", "sparseweaver"):
            result = GraphProcessor(
                factory(), schedule=schedule, config=config
            ).run(graph)
            print(f"  {schedule:13s} {result.total_cycles:>9,} cycles "
                  f"({result.iterations} rounds)")

    # Tuning confirms it: on flat graphs the naive schedule wins.  The
    # tuner keeps the schedule with the fewest cycles and pays for
    # every trial.
    trials = {
        schedule: GraphProcessor(
            make_algorithm("sssp", source=depot), schedule=schedule,
            config=config,
        ).run(graph, max_iterations=10).total_cycles
        for schedule in SOFTWARE_SCHEDULES
    }
    best = min(trials, key=trials.get)
    print(f"\nauto-tuner verdict: {best} (tuning cost "
          f"{sum(trials.values()):,} simulated cycles)")

    sssp = GraphProcessor(
        make_algorithm("sssp", source=depot), schedule=best, config=config,
    ).run(graph)
    far = int(np.argmax(np.where(np.isfinite(sssp.values),
                                 sssp.values, -1)))
    print(f"farthest reachable intersection from depot: {far} "
          f"(travel time {sssp.values[far]:.1f})")


if __name__ == "__main__":
    main()
