"""Design-decision ablations (DESIGN.md) as registered figures.

Parametrized-schedule sweeps ride on ``JobSpec.schedule_params``;
config sweeps use ``dataclasses.replace`` on the context's GPU config.
"""

from __future__ import annotations

from dataclasses import replace

from repro.bench import format_series
from repro.figures.registry import Figure, register
from repro.runtime import AlgorithmSpec, GraphSpec, JobSpec

_PAGERANK2 = AlgorithmSpec.of("pagerank", iterations=2)


def _pr_spec(graph, schedule, config, schedule_params=()):
    return JobSpec(algorithm=_PAGERANK2, graph=graph,
                   schedule=schedule, config=config,
                   schedule_params=tuple(schedule_params))


@register
class AblationPrefetchDepth(Figure):
    """Decoupled OD prefetch: scan running ahead of requests."""

    name = "ablation_prefetch_depth"
    paper = "ablation"
    title = "Weaver OD prefetch depth (PR, graph500)"

    DEPTHS = [1, 2, 4, 8]

    def _cells(self, ctx):
        graph = GraphSpec.from_dataset("graph500",
                                       scale=ctx.rescale(0.25))
        return {
            d: _pr_spec(graph, "sparseweaver", ctx.gpu_config(),
                        (("prefetch_depth", d),))
            for d in ctx.trim(self.DEPTHS, 2)
        }

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        cells = self._cells(ctx)
        depths = list(cells)
        cycles = [results.cycles(cells[d]) for d in depths]
        block = format_series(
            "prefetch depth", depths, {"cycles": cycles},
            title="Ablation: Weaver OD prefetch depth (PR, graph500)")
        return self.output({"ablation_prefetch_depth": block},
                           depths=depths, cycles=cycles)

    def check(self, out):
        # The scan outruns the GPU: depth matters little, never hurts.
        cycles = out.data["cycles"]
        if not max(cycles) < 1.3 * min(cycles):
            yield f"prefetch depth moves cycles under 1.3x ({cycles})"


@register
class AblationZeroSkipWidth(Figure):
    """Zero-entry bitmap skipping on frontier algorithms."""

    name = "ablation_zero_skip_width"
    paper = "ablation"
    title = "Zero-entry skip width (BFS, hollywood)"

    WIDTHS = [1, 4, 32]

    def _cells(self, ctx):
        graph = GraphSpec.from_dataset("hollywood",
                                       scale=ctx.rescale(0.25))
        bfs = AlgorithmSpec.of("bfs", source=0)
        return {
            w: JobSpec(algorithm=bfs, graph=graph,
                       schedule="sparseweaver",
                       schedule_params=(("zero_skip_width", w),),
                       config=ctx.gpu_config(), max_iterations=3)
            for w in ctx.trim(self.WIDTHS, 2)
        }

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        cells = self._cells(ctx)
        widths = list(cells)
        cycles = [results.cycles(cells[w]) for w in widths]
        block = format_series(
            "bitmap width", widths, {"cycles": cycles},
            title="Ablation: zero-entry skip width (BFS, hollywood)")
        return self.output({"ablation_zero_skip_width": block},
                           widths=widths, cycles=cycles)

    def check(self, out):
        cycles = out.data["cycles"]
        if not cycles[-1] < cycles[0]:
            yield f"wide bitmap skipping pays on BFS ({cycles})"


@register
class AblationDtBypass(Figure):
    """The DT write-buffer bypass behind Fig. 13's flatness."""

    name = "ablation_dt_bypass"
    paper = "ablation"
    title = "DT write-buffer bypass at table latency 80"

    def _cells(self, ctx):
        graph = GraphSpec.from_dataset("graph500",
                                       scale=ctx.rescale(0.25))
        lat = replace(ctx.gpu_config(), weaver_table_latency=80,
                      warps_per_core=16)
        return {
            flag: _pr_spec(graph, "sparseweaver", lat,
                           (("dt_bypass", flag),))
            for flag in (True, False)
        }

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        cells = self._cells(ctx)
        with_bypass = results.cycles(cells[True])
        without = results.cycles(cells[False])
        block = format_series(
            "dt bypass", ["on", "off"],
            {"cycles": [with_bypass, without]},
            title="Ablation: DT write-buffer bypass at table "
                  "latency 80")
        return self.output({"ablation_dt_bypass": block},
                           with_bypass=with_bypass, without=without)

    def check(self, out):
        on, off = out.data["with_bypass"], out.data["without"]
        if not on < off:
            yield f"the DT bypass saves cycles ({on} vs {off} without)"


@register
class AblationWeaverCapacity(Figure):
    """Table capacity below residency forces extra epochs."""

    name = "ablation_weaver_capacity"
    paper = "ablation"
    title = "Weaver table capacity (PR, web-wiki)"

    CAPACITIES = [64, 128, 256, 512]

    def _cells(self, ctx):
        graph = GraphSpec.from_dataset("web-wiki",
                                       scale=ctx.rescale(0.25))
        return {
            c: _pr_spec(graph, "sparseweaver",
                        replace(ctx.gpu_config(), weaver_entries=c))
            for c in ctx.trim(self.CAPACITIES, 2)
        }

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        cells = self._cells(ctx)
        capacities = list(cells)
        cycles = [results.cycles(cells[c]) for c in capacities]
        block = format_series(
            "ST/DT entries", capacities, {"cycles": cycles},
            title="Ablation: Weaver table capacity (PR, web-wiki)")
        return self.output({"ablation_weaver_capacity": block},
                           capacities=capacities, cycles=cycles)

    def check(self, out):
        cycles = out.data["cycles"]
        if not cycles[0] >= cycles[-1]:
            yield f"a smaller table never saves cycles ({cycles})"


@register
class AblationEghwMlp(Figure):
    """EGHW memory-level parallelism vs SparseWeaver."""

    name = "ablation_eghw_mlp"
    paper = "ablation"
    title = "EGHW in-flight memory requests vs SparseWeaver"

    MLPS = [1, 2, 4, 8, 16]

    def _cells(self, ctx):
        graph = GraphSpec.from_dataset("graph500",
                                       scale=ctx.rescale(0.25))
        cells = {
            m: _pr_spec(graph, "eghw",
                        replace(ctx.gpu_config(), eghw_mlp=m))
            for m in ctx.trim(self.MLPS, 3)
        }
        cells["sw"] = _pr_spec(graph, "sparseweaver", ctx.gpu_config())
        return cells

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        cells = self._cells(ctx)
        mlps = [k for k in cells if k != "sw"]
        eghw = [results.cycles(cells[m]) for m in mlps]
        sw = results.cycles(cells["sw"])
        block = format_series(
            "EGHW MLP", mlps,
            {"eghw": eghw, "sparseweaver": [sw] * len(mlps)},
            title="Ablation: EGHW in-flight memory requests vs "
                  "SparseWeaver")
        return self.output({"ablation_eghw_mlp": block},
                           mlps=mlps, eghw=eghw, sparseweaver=sw)

    def check(self, out):
        eghw, sw = out.data["eghw"], out.data["sparseweaver"]
        if not all(a >= b for a, b in zip(eghw, eghw[1:])):
            yield f"more in-flight requests never slow EGHW ({eghw})"
        if not eghw[-1] > sw:
            yield f"EGHW's widest MLP trails SparseWeaver ({eghw}, {sw})"


@register
class AblationSplitVsWeaver(Figure):
    """Tigr-style static vertex splitting vs dynamic weaving."""

    name = "ablation_split_vs_weaver"
    paper = "ablation"
    title = "Static splits vs SparseWeaver (PR, hollywood)"

    WIDTHS = [4, 8, 16, 32]

    def _cells(self, ctx):
        graph = GraphSpec.from_dataset("hollywood",
                                       scale=ctx.rescale(0.25))
        cfg = ctx.gpu_config()
        cells = {
            ("split", w): _pr_spec(graph, "split_vertex_map", cfg,
                                   (("max_degree", w),))
            for w in ctx.trim(self.WIDTHS, 2)
        }
        cells[("vm", None)] = _pr_spec(graph, "vertex_map", cfg)
        cells[("sw", None)] = _pr_spec(graph, "sparseweaver", cfg)
        return cells

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        cells = self._cells(ctx)
        widths = [w for (kind, w) in cells if kind == "split"]
        split = [results.cycles(cells[("split", w)]) for w in widths]
        vm = results.cycles(cells[("vm", None)])
        sw = results.cycles(cells[("sw", None)])
        block = format_series(
            "split max degree", widths,
            {"split_vertex_map": split,
             "vertex_map": [vm] * len(widths),
             "sparseweaver": [sw] * len(widths)},
            title="Ablation: Tigr-style static splits vs "
                  "SparseWeaver (PR)")
        return self.output({"ablation_split_vs_weaver": block},
                           widths=widths, split=split,
                           vertex_map=vm, sparseweaver=sw)

    def check(self, out):
        best_split = min(out.data["split"])
        vm, sw = out.data["vertex_map"], out.data["sparseweaver"]
        if not best_split < vm:
            yield f"static splitting beats S_vm ({best_split} vs {vm})"
        if not sw < best_split:
            yield f"weaving beats the best split ({sw} vs {best_split})"


@register
class AblationCoreScaling(Figure):
    """Speedup over S_vm stays stable as cores grow."""

    name = "ablation_core_scaling"
    paper = "ablation"
    title = "Core scaling (PR, hollywood)"

    CORE_COUNTS = [1, 2, 4]

    def _cells(self, ctx):
        graph = GraphSpec.from_dataset("hollywood",
                                       scale=ctx.rescale(0.25))
        cells = {}
        for cores in ctx.trim(self.CORE_COUNTS, 2):
            cfg = replace(ctx.gpu_config(), num_sockets=1,
                          cores_per_socket=cores)
            cells[(cores, "vertex_map")] = _pr_spec(graph,
                                                    "vertex_map", cfg)
            cells[(cores, "sparseweaver")] = _pr_spec(
                graph, "sparseweaver", cfg)
        return cells

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        cells = self._cells(ctx)
        core_counts = []
        for (cores, _s) in cells:
            if cores not in core_counts:
                core_counts.append(cores)
        rows = {
            c: (results.cycles(cells[(c, "vertex_map")]),
                results.cycles(cells[(c, "sparseweaver")]))
            for c in core_counts
        }
        block = format_series(
            "cores", core_counts,
            {"vertex_map": [rows[c][0] for c in core_counts],
             "sparseweaver": [rows[c][1] for c in core_counts],
             "speedup": [round(rows[c][0] / rows[c][1], 2)
                         for c in core_counts]},
            title="Ablation: core scaling (PR, hollywood)")
        return self.output({"ablation_core_scaling": block},
                           rows=rows, core_counts=core_counts)

    def check(self, out):
        rows, counts = out.data["rows"], out.data["core_counts"]
        for cores, (vm, sw) in rows.items():
            if not sw < vm:
                yield f"{cores} core(s): SparseWeaver beats S_vm ({rows})"
        if not rows[counts[-1]][1] < rows[counts[0]][1]:
            yield f"more cores speed SparseWeaver up ({rows})"


@register
class AblationEnergy(Figure):
    """First-order energy view of the main comparison."""

    name = "ablation_energy"
    paper = "ablation"
    title = "First-order energy (PR, hollywood)"

    SCHEDULES = ["vertex_map", "edge_map", "cta_map", "sparseweaver",
                 "eghw"]

    def _cells(self, ctx):
        graph = GraphSpec.from_dataset("hollywood",
                                       scale=ctx.rescale(0.25))
        schedules = (["vertex_map", "sparseweaver", "eghw"]
                     if ctx.smoke else self.SCHEDULES)
        return {
            s: _pr_spec(graph, s, ctx.gpu_config())
            for s in schedules
        }

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        from repro.sim.energy import estimate_energy

        cells = self._cells(ctx)
        schedules = list(cells)
        rows = {s: estimate_energy(results.stats(cells[s]))
                for s in schedules}
        block = format_series(
            "schedule", schedules,
            {"total nJ": [round(rows[s].total_nj, 1)
                          for s in schedules],
             "dram nJ": [round(rows[s].picojoules["dram"] / 1000, 1)
                         for s in schedules]},
            title="Ablation: first-order energy (PR, hollywood)")
        return self.output({"ablation_energy": block}, rows=rows,
                           schedules=schedules)

    def check(self, out):
        pj = {s: row.total_pj for s, row in out.data["rows"].items()}
        for other in ("vertex_map", "eghw"):
            if not pj["sparseweaver"] < pj[other]:
                yield f"SparseWeaver uses less energy than {other} ({pj})"


@register
class AblationReordering(Figure):
    """Vertex ordering vs locality on a community graph."""

    name = "ablation_reordering"
    paper = "ablation"
    title = "Vertex ordering vs locality (PR, community graph)"

    def _variants(self):
        from repro.graph import community_graph
        from repro.graph.reorder import (apply_permutation, bfs_order,
                                         random_order)

        base = community_graph(60, 100, 400, 1200, seed=5)
        shuffled = apply_permutation(base, random_order(base, seed=5))
        reordered = apply_permutation(shuffled, bfs_order(shuffled))
        return {"original": base, "shuffled": shuffled,
                "bfs-reordered": reordered}

    def _cells(self, ctx, variants):
        return {
            name: _pr_spec(
                GraphSpec.inline(g, name=f"community-{name}"),
                "sparseweaver", ctx.gpu_config())
            for name, g in variants.items()
        }

    def build_jobs(self, ctx):
        return list(self._cells(ctx, self._variants()).values())

    def summarize(self, ctx, results):
        from repro.graph.reorder import locality_score

        variants = self._variants()
        cells = self._cells(ctx, variants)
        rows = {
            name: (locality_score(variants[name]),
                   results.cycles(cells[name]))
            for name in variants
        }
        block = format_series(
            "layout", list(variants),
            {"locality score": [round(rows[n][0], 3)
                                for n in variants],
             "SW cycles": [rows[n][1] for n in variants]},
            title="Ablation: vertex ordering vs locality (PR, "
                  "community graph)")
        return self.output({"ablation_reordering": block}, rows=rows)

    def check(self, out):
        cycles = {name: row[1] for name, row in out.data["rows"].items()}
        if not cycles["shuffled"] > 1.5 * cycles["original"]:
            yield f"shuffling labels costs over 1.5x cycles ({cycles})"
        if not cycles["bfs-reordered"] < 0.7 * cycles["shuffled"]:
            yield f"BFS reordering cuts shuffled cycles over 30% ({cycles})"
