"""Repro-specific figures: paper-config headline, robustness,
extended ranking."""

from __future__ import annotations

from repro.bench import (format_bar_chart, format_series, format_table,
                         geomean)
from repro.figures.defs.common import bench_graph_specs
from repro.figures.registry import Figure, register
from repro.runtime import AlgorithmSpec, GraphSpec, JobSpec
from repro.sim import GPUConfig

_PAGERANK2 = AlgorithmSpec.of("pagerank", iterations=2)


@register
class PaperConfig(Figure):
    """Headline result at the paper's literal Vortex configuration."""

    name = "paper_config"
    paper = "Section V"
    title = "PR headline on the full paper Vortex machine"

    SCHEDULES = ["vertex_map", "edge_map", "cta_map", "sparseweaver"]

    def _cells(self, ctx):
        graph = GraphSpec.from_dataset("hollywood",
                                       scale=ctx.rescale(0.4))
        return {
            sched: JobSpec(algorithm=_PAGERANK2, graph=graph,
                           schedule=sched,
                           config=GPUConfig.vortex_paper())
            for sched in self.SCHEDULES
        }

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        cells = self._cells(ctx)
        cycles = {s: results.cycles(spec)
                  for s, spec in cells.items()}
        base = cycles["vertex_map"]
        block = format_table(
            ["schedule", "cycles", "speedup over S_vm"],
            [[s, cycles[s], round(base / cycles[s], 2)]
             for s in self.SCHEDULES],
            title="PR on hollywood analog, paper Vortex config "
                  "(2x3 cores, 32 warps, 32 threads)")
        return self.output({"paper_config_headline": block},
                           cycles=cycles)

    def check(self, out):
        cycles = out.data["cycles"]
        sw = cycles["sparseweaver"]
        for other in ("vertex_map", "edge_map", "cta_map"):
            if not sw < cycles[other]:
                yield f"SparseWeaver beats {other} ({cycles})"
        if not cycles["vertex_map"] / sw > 1.5:
            yield f"SparseWeaver exceeds 1.5x over S_vm ({cycles})"


@register
class Robustness(Figure):
    """The headline geomean re-measured across analog scales."""

    name = "robustness"
    paper = "repro"
    title = "PR headline vs dataset analog scale"

    SCALES = [0.15, 0.25, 0.4]
    SCHEDULES = ["vertex_map", "sparseweaver"]

    def _scales(self, ctx):
        return ctx.trim(self.SCALES, 2)

    def _cells(self, ctx):
        cells = {}
        for scale in self._scales(ctx):
            graphs = bench_graph_specs(ctx, scale=scale)
            for name, spec in graphs.items():
                for sched in self.SCHEDULES:
                    cells[(scale, name, sched)] = JobSpec(
                        algorithm=_PAGERANK2, graph=spec,
                        schedule=sched, config=ctx.gpu_config(),
                        max_iterations=2)
        return cells

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        cells = self._cells(ctx)
        scales = self._scales(ctx)
        names = []
        for (_scale, name, _sched) in cells:
            if name not in names:
                names.append(name)
        geomeans = []
        for scale in scales:
            ratios = [
                results.cycles(cells[(scale, n, "vertex_map")])
                / results.cycles(cells[(scale, n, "sparseweaver")])
                for n in names
            ]
            geomeans.append(geomean(ratios))
        block = format_series(
            "analog scale", scales,
            {"SW geomean speedup": [round(g, 2) for g in geomeans]},
            title="Robustness: PR headline vs dataset analog scale")
        return self.output({"robustness_scales": block},
                           geomeans=geomeans, scales=scales)

    def check(self, out):
        geomeans, scales = out.data["geomeans"], out.data["scales"]
        for scale, gm in zip(scales, geomeans):
            if not gm > 1.5:
                yield f"scale {scale}: the geomean exceeds 1.5x ({gm})"
        for scale, a, b in zip(scales[1:], geomeans, geomeans[1:]):
            if not 0.6 < b / a < 1.7:
                yield f"scale {scale}: a step in (0.6, 1.7)x ({geomeans})"


@register
class ExtendedRanking(Figure):
    """Every implemented schedule ranked on a skewed and a flat graph."""

    name = "extended_ranking"
    paper = "Table I (extended)"
    title = "Extended scheme ranking (PR, hollywood + road-ca)"

    GRAPHS = ["hollywood", "road-ca"]

    def _schedules(self, ctx):
        from repro.sched import EXTENDED_SCHEDULES

        if ctx.smoke:
            return ["vertex_map", "sparseweaver", "hybrid_ell"]
        return list(EXTENDED_SCHEDULES)

    def _cells(self, ctx):
        schedules = self._schedules(ctx)
        cells = {}
        for gname in self.GRAPHS:
            graph = GraphSpec.from_dataset(gname,
                                           scale=ctx.rescale(0.25))
            for sched in schedules:
                cells[(gname, sched)] = JobSpec(
                    algorithm=_PAGERANK2, graph=graph, schedule=sched,
                    config=ctx.gpu_config())
        return cells

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        schedules = self._schedules(ctx)
        cells = self._cells(ctx)
        cycles = {key: results.cycles(spec)
                  for key, spec in cells.items()}
        blocks = {}
        for gname in self.GRAPHS:
            base = cycles[(gname, "vertex_map")]
            rows = sorted(
                ([s, cycles[(gname, s)],
                  round(base / cycles[(gname, s)], 2)]
                 for s in schedules),
                key=lambda r: r[1],
            )
            table = format_table(
                ["schedule", "cycles", "speedup over S_vm"], rows,
                title=f"Extended ranking (PR, {gname})")
            chart = format_bar_chart(
                {r[0]: r[1] for r in rows}, width=36, unit=" cycles")
            blocks[f"extended_ranking_{gname}"] = (table + "\n\n"
                                                   + chart)
        return self.output(blocks, cycles=cycles, schedules=schedules)

    def check(self, out):
        cycles, schedules = out.data["cycles"], out.data["schedules"]
        holly = {s: cycles[("hollywood", s)] for s in schedules}
        best = min(holly[s] for s in schedules
                   if s not in ("vertex_map", "eghw"))
        if not holly["sparseweaver"] <= 1.1 * best:
            yield f"hollywood: SparseWeaver within 10% of the best ({best})"
        # A near-regular graph has nothing to balance: naive vertex
        # mapping, or the ELL slab, which holds every edge of a
        # degree-<=4 graph, wins.
        road = {s: cycles[("road-ca", s)] for s in schedules}
        fastest = min(road, key=road.get)
        if fastest not in ("vertex_map", "hybrid_ell"):
            yield f"road-ca: S_vm or the ELL slab is fastest, not {fastest}"

