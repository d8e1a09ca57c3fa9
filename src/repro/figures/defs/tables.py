"""Tables I–V and Figs. 9 and 16 — analytic, model and folded figures."""

from __future__ import annotations

from repro.bench import format_table
from repro.figures.defs.common import (bench_graph_specs,
                                       experiment_result, grid)
from repro.figures.registry import Figure, register
from repro.runtime import AlgorithmSpec
from repro.sched.registry import SOFTWARE_SCHEDULES


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
class Table2(Figure):
    """The Weaver ISA extension and one encoded word per instruction."""

    name = "table2"
    paper = "Table II"
    title = "Weaver ISA extension (RISC-V CUSTOM encodings)"

    #: The paper's (IType, opcode, funct) per instruction.
    PAPER = {"WEAVER_REG": ("C", "CUSTOM1", 1),
             "WEAVER_DEC_ID": ("R", "CUSTOM0", 7),
             "WEAVER_DEC_LOC": ("R", "CUSTOM0", 8),
             "WEAVER_SKIP": ("C", "CUSTOM1", 2)}
    #: The registers each sample word encodes: rd=x1, rs1=x2, ...
    REGS = {"rd": 1, "rs1": 2, "rs2": 3, "rs3": 4}

    def summarize(self, ctx, results):
        from repro.core.isa import WEAVER_INSTRUCTIONS, encode_weaver

        words = {name: encode_weaver(name, **self.REGS)
                 for name in WEAVER_INSTRUCTIONS}
        block = format_table(
            ["instruction", "IType", "opcode", "funct", "word",
             "description"],
            [[s.mnemonic, s.itype, s.opcode_name, s.funct,
              f"0x{words[s.mnemonic]:08x}", s.description]
             for s in WEAVER_INSTRUCTIONS.values()],
            title="Table II: Weaver ISA extension "
                  "(words encode rd=x1, rs1=x2, rs2=x3, rs3=x4)")
        return self.output({"table2_isa": block},
                           specs=dict(WEAVER_INSTRUCTIONS), words=words)

    def check(self, out):
        from repro.core.isa import (decode_custom_type, decode_r_type,
                                    identify_weaver)
        from repro.errors import ConfigError

        specs, words = out.data["specs"], out.data["words"]
        if sorted(specs) != sorted(self.PAPER):
            yield "the extension is the paper's four instructions"
            return
        for name, paper in self.PAPER.items():
            spec = specs[name]
            got = (spec.itype, spec.opcode_name, spec.funct)
            if got != paper:
                yield f"{name} is {paper}, not {got}"
            if spec.itype == "R":
                fields = decode_r_type(words[name])
                funct = fields.pop("funct7") << 3 | fields.pop("funct3")
                regs = {r: self.REGS[r] for r in ("rd", "rs1", "rs2")}
            else:
                fields = decode_custom_type(words[name])
                funct = fields.pop("funct2")
                fields.pop("funct3")
                regs = self.REGS
            opcode = fields.pop("opcode")
            if (opcode, funct, fields) != (spec.opcode, spec.funct, regs):
                yield (f"{name}'s word 0x{words[name]:08x} decodes back "
                       "to its opcode, funct and registers")
            try:
                named = identify_weaver(words[name])
            except ConfigError:
                named = None
            if named != name:
                yield f"identify_weaver names {name}'s word, not {named}"


@register
class Fig09(Figure):
    """The kernel source the frontend compiler emits for a gather."""

    name = "fig09"
    paper = "Fig. 9"
    title = "Generated gather kernels: sparseweaver vs vertex_map"

    def summarize(self, ctx, results):
        from repro.algorithms import make_algorithm
        from repro.frontend.codegen import generate_kernel_source

        listings = [
            (f"{alg.name} / {schedule}", schedule, alg.has_early_exit,
             generate_kernel_source(alg, schedule))
            for alg in (make_algorithm("pagerank"),
                        make_algorithm("bfs", source=0,
                                       variant="bottom_up"))
            for schedule in ("sparseweaver", "vertex_map")
        ]
        text = "\n\n".join(
            ["Fig. 9: generated gather kernels"]
            + [f"-- {label} --\n{source}"
               for label, _, _, source in listings])
        return self.output({"fig09_kernel_listing": text},
                           listings=listings)

    def check(self, out):
        for label, schedule, early_exit, source in out.data["listings"]:
            if schedule == "vertex_map":
                if "WEAVER_" in source:
                    yield f"{label}: the kernel calls no Weaver instruction"
                continue
            reg, barrier, dec_id, dec_loc = (
                source.find(call) for call in
                ("WEAVER_REG(", "synchronization(", "WEAVER_DEC_ID(",
                 "WEAVER_DEC_LOC("))
            if not -1 < reg < barrier < min(dec_id, dec_loc):
                yield (f"{label}: WEAVER_REG, then the barrier, then "
                       "WEAVER_DEC_ID/WEAVER_DEC_LOC")
            if ("WEAVER_SKIP(" in source) != early_exit:
                yield (f"{label}: WEAVER_SKIP appears if and only if the "
                       "algorithm exits early")


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
    """Auto-tuner vs SparseWeaver (Case Study 3), folded from a grid.

    The auto-tuner tries every software schedule and keeps the
    fastest: its pick is the cheapest software cell (ties go to the
    first in ``SOFTWARE_SCHEDULES`` order) and its bill is the summed
    cycles of all four.  SparseWeaver needs one run.  The cells are
    Fig. 10's PageRank cells, so a merged batch runs each once for both.
    """

    name = "table5"
    paper = "Table V"
    title = "Auto-tuner vs SparseWeaver (PR)"

    DATASETS = ["hollywood", "web-uk", "collab", "road-ca"]

    def _cells(self, ctx):
        return grid(
            AlgorithmSpec.of("pagerank", iterations=2),
            bench_graph_specs(ctx, self.DATASETS, smoke_count=2),
            SOFTWARE_SCHEDULES + ["sparseweaver"],
            config=ctx.gpu_config(), max_iterations=2,
        )

    def build_jobs(self, ctx):
        return list(self._cells(ctx).values())

    def summarize(self, ctx, results):
        cycles = experiment_result(results, self._cells(ctx)).cycles
        rows = []
        for name, row in cycles.items():
            best = min(SOFTWARE_SCHEDULES, key=row.__getitem__)
            base, sw = row["vertex_map"], row["sparseweaver"]
            rows.append([name, sum(row[s] for s in SOFTWARE_SCHEDULES),
                         base, row[best], best, round(base / row[best], 2),
                         sw, round(base / sw, 2)])
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
