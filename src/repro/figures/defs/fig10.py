"""Fig. 10 — the headline grids: 4 algorithms x 9 graphs x 5 schemes."""

from __future__ import annotations

from repro.bench import format_series
from repro.figures.defs.common import (bench_graph_specs,
                                       experiment_result, graph_names,
                                       grid)
from repro.figures.registry import Figure, register
from repro.runtime import AlgorithmSpec

SCHEDULES = ["vertex_map", "edge_map", "warp_map", "cta_map",
             "sparseweaver"]

ALGORITHMS = {
    "pagerank": AlgorithmSpec.of("pagerank", iterations=2),
    "bfs": AlgorithmSpec.of("bfs", source=0),
    "sssp": AlgorithmSpec.of("sssp", source=0),
    "cc": AlgorithmSpec.of("cc"),
}
ITER_CAPS = {"pagerank": 2, "bfs": 3, "sssp": 3, "cc": 3}


class Fig10(Figure):
    """One algorithm's dataset x schedule speedup grid."""

    paper = "Fig. 10"

    def __init__(self, alg_name: str) -> None:
        self.alg_name = alg_name
        self.name = f"fig10_{alg_name}"
        self.title = (f"Main comparison ({alg_name}): 9 datasets x "
                      "5 schemes, speedup over S_vm")

    def _cells(self, ctx):
        return grid(
            ALGORITHMS[self.alg_name], bench_graph_specs(ctx),
            SCHEDULES, config=ctx.gpu_config(),
            max_iterations=ITER_CAPS[self.alg_name],
        )

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        cells = self._cells(ctx)
        result = experiment_result(results, cells)
        names = graph_names(cells)
        sp = result.speedups()
        gm = result.geomean_speedups()
        series = {
            s: [round(sp[g][s], 2) for g in names] + [round(gm[s], 2)]
            for s in SCHEDULES
        }
        block = format_series(
            "graph", names + ["geomean"], series,
            title=f"Fig 10 ({self.alg_name}): speedup over S_vm")
        return self.output(
            {self.name: block},
            cycles=result.cycles, speedups=sp, geomeans=gm,
            runs=result.runs,
        )

    def check(self, out):
        gm = out.data["geomeans"]
        sw = gm["sparseweaver"]
        if not sw > 1.0:
            yield f"SparseWeaver's geomean beats S_vm ({sw:.2f}x)"
        best = max(v for k, v in gm.items() if k != "sparseweaver")
        if not sw >= 0.9 * best:
            yield f"SparseWeaver's geomean is >= 0.9x the best's ({gm})"


for _alg in ALGORITHMS:
    register(Fig10(_alg))
