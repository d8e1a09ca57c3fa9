"""Figs. 17-19 — direction study, EGHW case study, GCN case study."""

from __future__ import annotations

from repro.bench import format_breakdown, format_series, geomean
from repro.figures.defs.common import bench_graph_specs
from repro.figures.registry import Figure, register
from repro.runtime import AlgorithmSpec, GraphSpec, JobSpec

_PAGERANK2 = AlgorithmSpec.of("pagerank", iterations=2)


@register
class Fig17(Figure):
    """Push vs pull execution-cycle breakdown (SparseWeaver, PR)."""

    name = "fig17"
    paper = "Fig. 17"
    title = "Push vs pull cycle breakdown (SparseWeaver, PR)"

    DATASETS = ["bio-human", "graph500", "web-uk", "web-wiki"]

    def _cells(self, ctx):
        names = ctx.trim(self.DATASETS, 2)
        cells = {}
        for name in names:
            graph = GraphSpec.from_dataset(name,
                                           scale=ctx.rescale(0.25))
            for direction in ("pull", "push"):
                cells[(name, direction)] = JobSpec(
                    algorithm=AlgorithmSpec.of(
                        "pagerank", iterations=2, direction=direction),
                    graph=graph, schedule="sparseweaver",
                    config=ctx.gpu_config())
        return cells

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        cells = self._cells(ctx)
        stats = {f"{name}/{direction}": results.stats(spec)
                 for (name, direction), spec in cells.items()}
        block = format_breakdown(
            {k: dict(v.phase_breakdown()) for k, v in stats.items()},
            title="Fig 17: push vs pull cycle breakdown "
                  "(SparseWeaver, PR)")
        return self.output({"fig17_push_pull": block}, stats=stats,
                           datasets=ctx.trim(self.DATASETS, 2))

    def check(self, out):
        from repro.sim.instructions import Phase

        stats = out.data["stats"]
        for name in out.data["datasets"]:
            pull, push = stats[f"{name}/pull"], stats[f"{name}/push"]
            reg_pull = pull.phase_cycles[Phase.REGISTRATION]
            reg_push = push.phase_cycles[Phase.REGISTRATION]
            if not abs(reg_pull - reg_push) / max(reg_pull, reg_push) < 0.5:
                yield f"{name}: push and pull registration within 50%"
            ratio = pull.total_cycles / push.total_cycles
            if not 0.3 < ratio < 3.0:
                yield f"{name}: pull/push cycles in (0.3, 3.0) ({ratio})"


@register
class Fig18(Figure):
    """SparseWeaver vs edge-generating hardware (Case Study 1)."""

    name = "fig18"
    paper = "Fig. 18"
    title = "EGHW vs SparseWeaver cycle breakdown + geomean speedup"

    SCHEDULES = ["eghw", "sparseweaver"]

    def _cells(self, ctx):
        graphs = bench_graph_specs(ctx)
        return {
            (name, sched): JobSpec(
                algorithm=_PAGERANK2, graph=spec, schedule=sched,
                config=ctx.gpu_config())
            for name, spec in graphs.items()
            for sched in self.SCHEDULES
        }

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        cells = self._cells(ctx)
        names = []
        for name, _sched in cells:
            if name not in names:
                names.append(name)
        stats = {key: results.stats(spec)
                 for key, spec in cells.items()}
        ratios = [
            stats[(n, "eghw")].total_cycles
            / stats[(n, "sparseweaver")].total_cycles
            for n in names
        ]
        gm = geomean(ratios)
        sample = {
            f"{n}/{s}": dict(stats[(n, s)].phase_breakdown())
            for n in names[:3] for s in self.SCHEDULES
        }
        text = format_breakdown(
            sample,
            title="Fig 18: EGHW vs SparseWeaver cycle breakdown")
        text += "\n\nEGHW/SparseWeaver cycle ratios: " + ", ".join(
            f"{n}={r:.2f}" for n, r in zip(names, ratios)
        ) + f"\ngeomean speedup of SparseWeaver over EGHW: {gm:.2f}x"
        return self.output({"fig18_eghw": text}, stats=stats,
                           names=names, ratios=ratios, geomean=gm)

    def check(self, out):
        from repro.sim.instructions import Phase

        gm = out.data["geomean"]
        if not gm > 2.0:
            yield f"SparseWeaver's geomean over EGHW exceeds 2x ({gm})"
        stats = out.data["stats"]
        for name in out.data["names"][:3]:
            dist = {}
            for sched in self.SCHEDULES:
                phases = stats[(name, sched)].phase_cycles
                dist[sched] = (phases[Phase.SCHEDULE]
                               + phases.get(Phase.EDGE_ACCESS, 0))
            if not dist["eghw"] > dist["sparseweaver"]:
                yield f"{name}: EGHW loses in distribution ({dist})"


@register
class Fig19(Figure):
    """GCN operators across weight-dimension sizes (local compute)."""

    name = "fig19"
    paper = "Fig. 19"
    title = "GCN SparseWeaver speedup over weight-parallel S_vm"

    WEIGHT_DIMS = list(range(1, 17))

    def summarize(self, ctx, results):
        import numpy as np

        from repro.algorithms.gcn import (gcn_reference,
                                          run_gcn_operator)
        from repro.graph import dataset

        graph = dataset("collab", scale=ctx.rescale(0.12))
        rng = np.random.default_rng(11)
        in_dim = 4
        features = rng.normal(size=(graph.num_vertices, in_dim))
        weight_dims = ctx.trim(self.WEIGHT_DIMS, 4)
        config = ctx.gpu_config()

        out = {}
        for dims in weight_dims:
            weight = rng.normal(size=(in_dim, dims))
            ref = gcn_reference(graph, features, weight)
            for strategy in ("vertex_map", "sparseweaver"):
                res = run_gcn_operator(graph, features, weight,
                                       strategy=strategy,
                                       config=config)
                np.testing.assert_allclose(res.features, ref,
                                           atol=1e-9)
                out[(dims, strategy)] = res

        speedups = [
            out[(d, "vertex_map")].stats.total_cycles
            / out[(d, "sparseweaver")].stats.total_cycles
            for d in weight_dims
        ]
        graphsum_speedups = [
            out[(d, "vertex_map")]
            .kernel_stats["graphsum"].total_cycles
            / out[(d, "sparseweaver")]
            .kernel_stats["graphsum"].total_cycles
            for d in weight_dims
        ]
        block = format_series(
            "weight dims", weight_dims,
            {"total speedup": [round(s, 2) for s in speedups],
             "graphsum speedup": [round(s, 2)
                                  for s in graphsum_speedups]},
            title="Fig 19: GCN SparseWeaver speedup over "
                  "weight-parallel S_vm")
        block += (f"\ngeomean total speedup: "
                  f"{geomean(speedups):.2f}x")
        return self.output(
            {"fig19_gcn": block},
            results=out, speedups=speedups,
            graphsum_speedups=graphsum_speedups,
            weight_dims=weight_dims,
        )

    def check(self, out):
        results = out.data["results"]
        spmm = {s: results[(4, s)].kernel_stats["spmm"].instructions
                for s in ("vertex_map", "sparseweaver")}
        if spmm["vertex_map"] != spmm["sparseweaver"]:
            yield f"SpMM is the same under both strategies ({spmm})"
        gm = geomean(out.data["speedups"])
        if not gm > 1.2:
            yield f"SparseWeaver's geomean GCN speedup exceeds 1.2x ({gm})"
        graphsum = out.data["graphsum_speedups"]
        if not graphsum[0] > 0.5 * graphsum[-1]:
            yield f"GraphSum's speedup keeps over half ({graphsum})"
