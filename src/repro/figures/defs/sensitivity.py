"""Figs. 11-15 — sensitivity studies: skewness, memory ratio, table
latency, cache hierarchy."""

from __future__ import annotations

from dataclasses import replace

from repro.bench import format_series, format_table
from repro.figures.defs.common import grid
from repro.figures.registry import Figure, register
from repro.graph import powerlaw_family
from repro.runtime import AlgorithmSpec, GraphSpec, JobSpec
from repro.sim import CacheConfig, GPUConfig
from repro.sim.config import KB

_PAGERANK1 = AlgorithmSpec.of("pagerank", iterations=1)
_PAGERANK2 = AlgorithmSpec.of("pagerank", iterations=2)

# Fig. 11 power-law family (scaled 10k..80k vertices, 1.9M edges).
VERTEX_COUNTS = [200, 240, 320, 400, 800, 1600]
FIXED_EDGES = 19000


def _fig11_counts(ctx):
    counts = ctx.trim(VERTEX_COUNTS, 3)
    factor = ctx.scale / 0.25
    return ([max(16, int(n * factor)) for n in counts],
            max(200, int(FIXED_EDGES * factor)))


def _fig11_family(ctx):
    counts, edges = _fig11_counts(ctx)
    family = powerlaw_family(counts, edges, exponent=2.1, seed=7)
    return {f"G{i + 1}": g for i, g in enumerate(family)}


def _fig11_config() -> GPUConfig:
    return GPUConfig(
        num_sockets=1, cores_per_socket=1, warps_per_core=4,
        l1=CacheConfig(4 * KB, ways=4),
        l2=CacheConfig(32 * KB, hit_latency=20),
    )


@register
class Fig11a(Figure):
    """Degree-distribution statistics of the G1..G6 family."""

    name = "fig11a"
    paper = "Fig. 11a"
    title = "G1..G6 power-law family degree distributions"

    def summarize(self, ctx, results):
        from repro.graph.metrics import (degree_skewness,
                                         edge_fraction_by_degree)

        rows = []
        for label, g in _fig11_family(ctx).items():
            degs, frac = edge_fraction_by_degree(g)
            rows.append([
                label, g.num_vertices, g.num_edges,
                int(g.degrees.max()),
                round(degree_skewness(g), 2),
                round(float(frac[-5:].sum()), 3),
            ])
        block = format_table(
            ["graph", "|V|", "|E|", "max deg", "skewness",
             "tail edge frac"],
            rows, title="Fig 11a: G1..G6 degree distributions")
        return self.output({"fig11a_degree_distribution": block},
                           rows=rows)

    def check(self, out):
        skews = [row[4] for row in out.data["rows"]]
        if not skews[-1] > skews[0]:
            yield f"skewness rises across the family ({skews})"


@register
class Fig11b(Figure):
    """PR speedup over S_vm as skewness rises across the family."""

    name = "fig11b"
    paper = "Fig. 11b"
    title = "PR speedup vs skewness (fixed |E|, growing |V|)"

    SCHEDULES = ["vertex_map", "edge_map", "sparseweaver"]

    def _cells(self, ctx):
        graphs = {
            label: GraphSpec.inline(g, name=label)
            for label, g in _fig11_family(ctx).items()
        }
        return grid(_PAGERANK1, graphs, self.SCHEDULES,
                    config=_fig11_config())

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        cells = self._cells(ctx)
        labels = sorted({g for (g, _s) in cells},
                        key=lambda lbl: int(lbl[1:]))
        series = {"edge_map": [], "sparseweaver": []}
        for label in labels:
            base = results.cycles(cells[(label, "vertex_map")])
            for sched in series:
                c = results.cycles(cells[(label, sched)])
                series[sched].append(round(base / c, 2))
        block = format_series(
            "graph", labels, series,
            title="Fig 11b: PR speedup over S_vm vs skewness")
        return self.output({"fig11b_skewness_speedup": block},
                           series=series, labels=labels)

    def check(self, out):
        series, labels = out.data["series"], out.data["labels"]
        em, sw = series["edge_map"], series["sparseweaver"]
        for label, e, w in zip(labels, em, sw):
            if not w >= 0.95 * e:
                yield f"{label}: SW tracks S_em from above ({w} vs {e})"
        for sched, values in series.items():
            if not values[2] > values[0]:
                yield f"{sched} gains from G1 to G3 ({values})"


@register
class Fig12(Figure):
    """Execution cycles vs GPU:DRAM frequency ratio."""

    name = "fig12"
    paper = "Fig. 12"
    title = "Cycles vs GPU:DRAM frequency ratio (PR, graph500)"

    RATIOS = [1, 2, 3, 4, 5, 6]
    SCHEDULES = ["vertex_map", "edge_map", "sparseweaver"]

    def _cells(self, ctx):
        graph = GraphSpec.from_dataset("graph500",
                                       scale=ctx.rescale(0.25))
        cells = {}
        for ratio in ctx.trim(self.RATIOS, 3):
            cfg = replace(ctx.gpu_config(), mem_freq_ratio=ratio)
            for sched in self.SCHEDULES:
                cells[(ratio, sched)] = JobSpec(
                    algorithm=_PAGERANK2, graph=graph, schedule=sched,
                    config=cfg)
        return cells

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        cells = self._cells(ctx)
        ratios = ctx.trim(self.RATIOS, 3)
        series = {
            s: [results.cycles(cells[(r, s)]) for r in ratios]
            for s in self.SCHEDULES
        }
        base = series["vertex_map"][0]
        normalized = {
            s: [round(c / base, 2) for c in cs]
            for s, cs in series.items()
        }
        block = format_series(
            "ratio", ratios, normalized,
            title="Fig 12: cycles vs GPU:DRAM ratio "
                  "(normalized to S_vm@1)")
        return self.output({"fig12_memory_ratio": block},
                           series=series, ratios=ratios)

    def check(self, out):
        series, ratios = out.data["series"], out.data["ratios"]
        for sched, cycles in series.items():
            if not all(a < b for a, b in zip(cycles, cycles[1:])):
                yield f"{sched}: cycles rise with the ratio ({cycles})"
            if not 2.0 < cycles[-1] / cycles[0] < 8.0:
                yield f"{sched}: cycles grow 2-8x over the sweep ({cycles})"
        vm, em = series["vertex_map"], series["edge_map"]
        for ratio, sw, v, e in zip(ratios, series["sparseweaver"], vm, em):
            if not sw < v:
                yield f"ratio {ratio}: SW beats S_vm ({sw} vs {v})"
            # S_em's doubled edge traffic hurts more as memory slows; at
            # ratio 1 the two are within noise of each other.
            bound = 1.0 if ratio >= 2 else 1.05
            if not sw < bound * e:
                yield f"ratio {ratio}: SW below {bound}x S_em ({sw} vs {e})"


@register
class Fig13(Figure):
    """Cycles vs ST/DT read overhead — the flatness claim."""

    name = "fig13"
    paper = "Fig. 13"
    title = "Cycles vs Weaver work-table read latency (PR, graph500)"

    LATENCIES = [10, 20, 40, 80, 160]

    def _cells(self, ctx):
        graph = GraphSpec.from_dataset("graph500",
                                       scale=ctx.rescale(0.25))
        wide = replace(ctx.gpu_config(), warps_per_core=16)
        return {
            lat: JobSpec(
                algorithm=_PAGERANK2, graph=graph,
                schedule="sparseweaver",
                config=replace(wide, weaver_table_latency=lat))
            for lat in ctx.trim(self.LATENCIES, 2)
        }

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        cells = self._cells(ctx)
        latencies = list(cells)
        cycles = [results.cycles(cells[lat]) for lat in latencies]
        block = format_series(
            "table latency", latencies,
            {"sparseweaver": cycles,
             "normalized": [round(c / cycles[0], 3) for c in cycles]},
            title="Fig 13: cycles vs work-table read overhead")
        return self.output({"fig13_table_latency": block},
                           cycles=cycles, latencies=latencies)

    def check(self, out):
        cycles = out.data["cycles"]
        if not max(cycles) < 1.25 * min(cycles):
            yield f"flat: 16x the latency costs under 25% more ({cycles})"


@register
class Fig14(Figure):
    """Effect of adding an L3 cache level."""

    name = "fig14"
    paper = "Fig. 14"
    title = "L1&L2 vs L1&L2&L3 (PR, hollywood)"

    SCHEDULES = ["vertex_map", "sparseweaver"]

    def _cells(self, ctx):
        graph = GraphSpec.from_dataset("hollywood",
                                       scale=ctx.rescale(0.25))
        base_cfg = ctx.gpu_config()
        l3_cfg = replace(base_cfg,
                         l3=CacheConfig(64 * KB, hit_latency=40))
        cells = {}
        for sched in self.SCHEDULES:
            cells[(sched, "base")] = JobSpec(
                algorithm=_PAGERANK2, graph=graph, schedule=sched,
                config=base_cfg)
            cells[(sched, "l3")] = JobSpec(
                algorithm=_PAGERANK2, graph=graph, schedule=sched,
                config=l3_cfg)
        return cells

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        cells = self._cells(ctx)
        outcomes = {
            sched: (results.cycles(cells[(sched, "base")]),
                    results.cycles(cells[(sched, "l3")]))
            for sched in self.SCHEDULES
        }
        rows = [
            [sched, base, l3, round(base / l3, 3)]
            for sched, (base, l3) in outcomes.items()
        ]
        block = format_table(
            ["schedule", "L1&L2 cycles", "L1&L2&L3 cycles", "speedup"],
            rows, title="Fig 14: effect of an L3 cache")
        return self.output({"fig14_l3_cache": block}, results=outcomes)

    def check(self, out):
        for sched, (base, l3) in out.data["results"].items():
            if not abs(l3 - base) / base < 0.12:
                yield f"{sched}: an L3 moves cycles < 12% ({base} -> {l3})"


@register
class Fig15(Figure):
    """L1/L2 capacity sweep."""

    name = "fig15"
    paper = "Fig. 15"
    title = "L1/L2 capacity sweep (PR, sparseweaver)"

    L1_SIZES = [2 * KB, 4 * KB, 8 * KB]
    L2_SIZES = [8 * KB, 16 * KB, 32 * KB, 64 * KB, 128 * KB, 256 * KB]

    def _axes(self, ctx):
        graphs = {"D_hw": "hollywood", "D_g500": "graph500"}
        if ctx.smoke:
            graphs = {"D_hw": "hollywood"}
        return (graphs, ctx.trim(self.L1_SIZES, 1),
                ctx.trim(self.L2_SIZES, 2))

    def _cells(self, ctx):
        graphs, l1_sizes, l2_sizes = self._axes(ctx)
        cells = {}
        for gname, ds in graphs.items():
            graph = GraphSpec.from_dataset(ds, scale=ctx.rescale(0.25))
            for l1 in l1_sizes:
                for l2 in l2_sizes:
                    cfg = replace(
                        ctx.gpu_config(),
                        l1=CacheConfig(l1, ways=4),
                        l2=CacheConfig(l2, hit_latency=20),
                    )
                    cells[(gname, l1, l2)] = JobSpec(
                        algorithm=_PAGERANK1, graph=graph,
                        schedule="sparseweaver", config=cfg)
        return cells

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        graphs, l1_sizes, l2_sizes = self._axes(ctx)
        cells = self._cells(ctx)
        values = {key: results.cycles(spec)
                  for key, spec in cells.items()}
        blocks = {}
        for gname in graphs:
            base = values[(gname, l1_sizes[0], l2_sizes[0])]
            series = {
                f"L1={l1 // KB}KB": [
                    round(values[(gname, l1, l2)] / base, 3)
                    for l2 in l2_sizes
                ]
                for l1 in l1_sizes
            }
            blocks[f"fig15_cache_sweep_{gname}"] = format_series(
                "L2 KB", [s // KB for s in l2_sizes], series,
                title=f"Fig 15 ({gname}): cycles normalized to "
                      "smallest config")
        return self.output(blocks, results=values,
                           l1_sizes=l1_sizes, l2_sizes=l2_sizes,
                           graphs=list(graphs))

    def check(self, out):
        results = out.data["results"]
        for gname in out.data["graphs"]:
            values = [results[(gname, l1, l2)]
                      for l1 in out.data["l1_sizes"]
                      for l2 in out.data["l2_sizes"]]
            spread = max(values) / min(values)
            if not spread < 1.6:
                yield f"{gname}: L1/L2 sizes move cycles < 1.6x ({spread:.2f})"
