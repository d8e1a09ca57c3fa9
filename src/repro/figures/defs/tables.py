"""Tables I/III/IV/V and Fig. 16 — analytic and local-compute figures."""

from __future__ import annotations

from repro.bench import format_table
from repro.figures.registry import Figure, register


@register
class Table1(Figure):
    """Implementation-detail comparison of scheduling schemes."""

    name = "table1"
    paper = "Table I"
    title = "Scheduling-scheme characteristics matrix (analytic)"

    def summarize(self, ctx, results):
        from repro.graph import dataset
        from repro.sched import analytic
        from repro.sim import GPUConfig

        graph = dataset("graph500", scale=ctx.rescale(0.25))
        config = GPUConfig.vortex_paper()
        table = analytic.characteristics_table(graph, config)
        rows = {r.name: r
                for r in analytic.scheme_characteristics(graph, config)}
        return self.output({"table1_schemes": table}, rows=rows,
                           graph_edges=graph.num_edges)

    def check(self, out):
        rows = out.data["rows"]
        costs = rows["SparseWeaver"].distribution_costs
        if costs != "0, 0, 0":
            yield "SparseWeaver distributes with no search/atomic/sync"
        if rows["S_em"].edge_mem_access != 2 * out.data["graph_edges"]:
            yield "S_em reads 2|E| edge entries"


@register
class Table3(Figure):
    """Dataset inventory: paper scale beside our analogs."""

    name = "table3"
    paper = "Table III"
    title = "Nine-dataset inventory (paper scale vs analog)"

    def summarize(self, ctx, results):
        from repro.graph import dataset, dataset_names
        from repro.graph.datasets import dataset_spec
        from repro.graph.metrics import average_degree, degree_skewness

        scale = ctx.rescale(0.25)
        names = ctx.trim(dataset_names(), 4)
        rows = []
        for name in names:
            spec = dataset_spec(name)
            g = dataset(name, scale=scale)
            rows.append([
                spec.paper_name,
                spec.paper_vertices,
                spec.paper_edges,
                g.num_vertices,
                g.num_edges,
                round(average_degree(g), 1),
                round(degree_skewness(g), 2),
            ])
        block = format_table(
            ["Graph (paper)", "|V| paper", "|E| paper",
             f"|V| analog (x{scale})", "|E| analog", "avg deg",
             "skewness"],
            rows, title="Table III: datasets (paper scale vs analog)")
        return self.output({"table3_datasets": block}, rows=rows)

    def check(self, out):
        by_name = {r[0]: r for r in out.data["rows"]}
        bio = by_name["bio-human-gene1 (D_bh)"]
        road = by_name["roadNet-CA (D_rn)"]
        holly = by_name["hollywood-2011 (D_hw)"]
        if not bio[5] > road[5]:
            yield f"bio is denser than road ({bio[5]} vs {road[5]})"
        if not abs(road[6]) < 2.0:
            yield f"the road analog is near-flat (skewness {road[6]})"
        if not holly[6] > 1.0:
            yield f"the hollywood analog is skewed (skewness {holly[6]})"


@register
class Table4(Figure):
    """FPGA area overhead of SparseWeaver (analytic model)."""

    name = "table4"
    paper = "Table IV"
    title = "FPGA area overhead (1 and 16 cores)"

    def summarize(self, ctx, results):
        from repro.core import WeaverAreaModel

        model = WeaverAreaModel()
        rows = model.table_rows((1, 16))
        block = format_table(
            ["cores", "base ALMs", "w/ SparseWeaver", "ALM +%",
             "regs added", "reg +%", "blockmem +%", "RAM +%", "DSP +%"],
            [[r.num_cores, r.base_alms, r.sparseweaver_alms,
              round(r.alm_pct_increase, 2), r.registers_added,
              round(r.register_pct_increase, 3),
              r.block_memory_pct_increase, r.ram_pct_increase,
              r.dsp_pct_increase] for r in rows],
            title="Table IV: FPGA area overhead")
        return self.output({"table4_area": block}, rows=rows)

    def check(self, out):
        one, sixteen = out.data["rows"]
        for got, paper in ((one.sparseweaver_alms, 108_203),
                           (sixteen.sparseweaver_alms, 591_971),
                           (one.registers_added, 678),
                           (one.block_memory_pct_increase, 0.0)):
            if got != paper:
                yield f"the model gives the paper's {paper}, not {got}"


@register
class Fig16(Figure):
    """FPGA utilization summary + RTL line overhead."""

    name = "fig16"
    paper = "Fig. 16"
    title = "FPGA utilization summary"

    def summarize(self, ctx, results):
        from repro.core import WeaverAreaModel

        model = WeaverAreaModel()
        text = "\n".join(
            model.utilization_summary(n) for n in (1, 16)
        ) + f"\nRTL lines added: +{model.rtl_line_overhead():.3f}%"
        return self.output({"fig16_utilization": text}, text=text)

    def check(self, out):
        if "0% block memory" not in out.data["text"]:
            yield "the utilization summary reports 0% block memory added"


@register
class Table5(Figure):
    """Auto-tuner vs SparseWeaver (Case Study 3, local tuning loop)."""

    name = "table5"
    paper = "Table V"
    title = "Auto-tuner vs SparseWeaver (PR)"

    DATASETS = ["hollywood", "web-uk", "collab", "road-ca"]

    def summarize(self, ctx, results):
        from repro.algorithms import make_algorithm
        from repro.autotune import AutoTuner
        from repro.bench import run_single
        from repro.graph import dataset

        config = ctx.gpu_config()
        names = ctx.trim(self.DATASETS, 2)
        rows = []
        for name in names:
            graph = dataset(name, scale=ctx.rescale(0.25))
            tuner = AutoTuner(
                lambda: make_algorithm("pagerank", iterations=2),
                config=config,
            )
            report = tuner.tune(graph)
            sw = run_single(
                make_algorithm("pagerank", iterations=2), graph,
                "sparseweaver", config=config,
            ).stats.total_cycles
            rows.append([
                name,
                report.tuning_cycles,
                report.baseline_cycles,
                report.best_cycles,
                report.best_schedule,
                round(report.best_speedup, 2),
                sw,
                round(report.baseline_cycles / sw, 2),
            ])
        block = format_table(
            ["graph", "tuning cycles", "S_vm cycles",
             "best cycles", "best schedule", "tuner speedup",
             "SW cycles", "SW speedup"],
            rows, title="Table V: auto-tuner vs SparseWeaver (PR)")
        return self.output({"table5_autotuner": block}, rows=rows)

    def check(self, out):
        for (name, tuning_cycles, _base, _best, _schedule,
             tuner_speedup, sw_cycles, sw_speedup) in out.data["rows"]:
            if not tuning_cycles > sw_cycles:
                yield f"{name}: tuning costs more than one SW run"
            if name != "road-ca" and not sw_speedup >= 0.9 * tuner_speedup:
                yield f"{name}: SW reaches >= 0.9x the tuned speedup"
