"""Figs. 2-4 — motivation grids: warp iterations, Nvidia configs,
stall breakdowns."""

from __future__ import annotations

from repro.bench import format_breakdown, format_series
from repro.figures.defs.common import (experiment_result, grid)
from repro.figures.registry import Figure, register
from repro.runtime import AlgorithmSpec, GraphSpec
from repro.sim import GPUConfig

_PAGERANK2 = AlgorithmSpec.of("pagerank", iterations=2)


def _fig2_graph_specs(ctx):
    return {
        "D_bh": GraphSpec.from_dataset("bio-human",
                                       scale=ctx.rescale(0.25)),
        "D_g500": GraphSpec.from_dataset("graph500",
                                         scale=ctx.rescale(0.25)),
    }


@register
class Fig02a(Figure):
    """Closed-form expected warp-iteration counts (no simulation)."""

    name = "fig02a"
    paper = "Fig. 2a"
    title = "Expected warp iterations for S_vm/S_em/S_wm on D_bh/D_g500"

    def summarize(self, ctx, results):
        from repro.sched import analytic

        config = ctx.gpu_config()
        graphs = {name: spec.build()
                  for name, spec in _fig2_graph_specs(ctx).items()}
        series = {}
        for sched in ("vertex_map", "edge_map", "warp_map"):
            series[sched] = [
                analytic.expected_warp_iterations(g, sched, config)
                for g in graphs.values()
            ]
        block = format_series(
            "schedule", list(graphs), series,
            title="Fig 2a: expected warp iterations")
        return self.output({"fig02a_warp_iterations": block},
                           series=series, graphs=list(graphs))

    def check(self, out):
        series = out.data["series"]
        for i, name in enumerate(out.data["graphs"]):
            vm = series["vertex_map"][i]
            for sched in ("warp_map", "edge_map"):
                if not vm > series[sched][i]:
                    yield f"{name}: S_vm needs more rounds than {sched}"


@register
class Fig02b(Figure):
    """Measured PR speedups over S_vm on the two motivating datasets."""

    name = "fig02b"
    paper = "Fig. 2b"
    title = "PR speedup of S_em/S_wm over S_vm on D_bh/D_g500"

    SCHEDULES = ["vertex_map", "edge_map", "warp_map"]

    def _cells(self, ctx):
        return grid(_PAGERANK2, _fig2_graph_specs(ctx), self.SCHEDULES,
                    config=ctx.gpu_config())

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        cells = self._cells(ctx)
        result = experiment_result(results, cells)
        sp = result.speedups()
        names = list(_fig2_graph_specs(ctx))
        block = format_series(
            "graph", names,
            {s: [sp[g][s] for g in names] for s in self.SCHEDULES},
            title="Fig 2b: PR speedup over S_vm")
        return self.output({"fig02b_speedup": block},
                           speedups=sp, cycles=result.cycles)

    def check(self, out):
        for name, sp in out.data["speedups"].items():
            if not max(sp["edge_map"], sp["warp_map"]) > 1.0:
                yield f"{name}: S_em or S_wm beats S_vm ({sp})"


@register
class Fig03(Figure):
    """Software schemes on two "Nvidia" simulator presets."""

    name = "fig03"
    paper = "Fig. 3"
    title = "Software scheduling on ampere-like and ada-like presets"

    SCHEDULES = ["vertex_map", "edge_map", "warp_map", "cta_map", "twc"]

    def _graphs(self, ctx):
        return {
            "D_hw": GraphSpec.from_dataset("hollywood",
                                           scale=ctx.rescale(0.12)),
            "D_uk": GraphSpec.from_dataset("web-uk",
                                           scale=ctx.rescale(0.2)),
        }

    def _configs(self):
        return {
            "ampere_like": GPUConfig.ampere_like(),
            "ada_like": GPUConfig.ada_like(),
        }

    def _cells(self, ctx):
        graphs = self._graphs(ctx)
        schedules = ctx.trim(self.SCHEDULES, 3)
        return {
            cfg_name: grid(_PAGERANK2, graphs, schedules, config=cfg)
            for cfg_name, cfg in self._configs().items()
        }

    def build_jobs(self, ctx):
        return [spec
                for cells in self._cells(ctx).values()
                for spec in cells.values()]

    def summarize(self, ctx, results):
        graphs = list(self._graphs(ctx))
        schedules = ctx.trim(self.SCHEDULES, 3)
        blocks = {}
        speedups = {}
        for cfg_name, cells in self._cells(ctx).items():
            result = experiment_result(results, cells)
            per_graph = result.speedups()
            speedups[cfg_name] = per_graph
            blocks[f"fig03_{cfg_name}"] = format_series(
                "graph", graphs,
                {s: [per_graph[g][s] for g in graphs]
                 for s in schedules},
                title=f"Fig 3 ({cfg_name}): PR speedup over S_vm")
        return self.output(blocks, speedups=speedups,
                           schedules=schedules)

    def check(self, out):
        complex_schedules = out.data["schedules"][1:]
        for cfg_name, per_graph in out.data["speedups"].items():
            best = max(per_graph[g][s]
                       for g in per_graph for s in complex_schedules)
            if not best > 1.0:
                yield f"{cfg_name}: a complex scheme beats S_vm ({best})"


@register
class Fig04(Figure):
    """Stall breakdown + per-core attribution under every schedule."""

    name = "fig04"
    paper = "Fig. 4"
    title = "Stall cycles by category and per-core attribution (PR, D_hw)"

    SCHEDULES = ["vertex_map", "edge_map", "warp_map", "cta_map", "twc",
                 "sparseweaver"]

    def _cells(self, ctx):
        graphs = {"hollywood": GraphSpec.from_dataset(
            "hollywood", scale=ctx.rescale(0.12))}
        schedules = (["vertex_map", "warp_map", "sparseweaver"]
                     if ctx.smoke else self.SCHEDULES)
        return grid(_PAGERANK2, graphs, schedules,
                    config=GPUConfig.ampere_like())

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        cells = self._cells(ctx)
        schedules = [s for (_g, s) in cells]
        rows = {}
        per_core_rows = {}
        stats_by_sched = {}
        for sched in schedules:
            stats = results.stats(cells[("hollywood", sched)])
            stats_by_sched[sched] = stats
            row = dict(stats.stall_breakdown())
            row["warp/instr"] = round(
                stats.total_cycles / max(stats.instructions, 1), 2)
            rows[sched] = row
            for core, cats in stats.stall_by_core().items():
                per_core_rows[f"{sched}/core{core}"] = {
                    cat.name: cycles
                    for cat, cycles in sorted(cats.items())
                }
        blocks = {
            "fig04_stall_breakdown": format_breakdown(
                rows,
                title="Fig 4: stall cycles by category (+ warp/instr)"),
            "fig04_stall_attribution": format_breakdown(
                per_core_rows,
                title="Fig 4 (attribution): stall cycles per core"),
        }
        return self.output(blocks, stats=stats_by_sched, rows=rows,
                           schedules=schedules)

    def check(self, out):
        from repro.sim.stats import StallCat

        stats = out.data["stats"]
        for sched, st in stats.items():
            counters = {cat: c for cat, c in st.stall_cycles.items() if c}
            if st.stall_cells_total() != counters:
                yield f"{sched}: stall cells sum to the category counters"
        vm = stats["vertex_map"].stall_cycles
        wm = stats["warp_map"].stall_cycles
        if vm.get(StallCat.SHARED, 0) != 0:
            yield "S_vm has no shared-memory stalls"
        if not wm.get(StallCat.SHARED, 0) > 0:
            yield "S_wm introduces shared-memory stalls"
        if not vm.get(StallCat.MEMORY, 0) > 0:
            yield "S_vm stalls on memory"
