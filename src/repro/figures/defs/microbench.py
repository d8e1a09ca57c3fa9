"""Simulator calibration microbenchmarks as local-compute figures.

Each figure isolates one model parameter (load latency, DRAM service
rate, issue width, warp-level latency hiding) and reports the measured
value beside the configured one, mirroring how GPU-simulator papers
validate their models.
"""

from __future__ import annotations

from repro.bench import format_table
from repro.figures.registry import Figure, register


def _one_warp_config():
    from repro.sim import GPUConfig

    return GPUConfig(
        num_sockets=1, cores_per_socket=1, warps_per_core=1,
        threads_per_warp=32,
    )


@register
class MicroPointerChase(Figure):
    """Dependent single-line loads measure pure load-to-use latency."""

    name = "micro_pointer_chase"
    paper = "calibration"
    title = "Microbenchmark: dependent-load latency"

    def summarize(self, ctx, results):
        import numpy as np

        from repro.sim import MemoryMap
        from repro.sim.engines import build_gpu
        from repro.sim.instructions import Phase, load

        cfg = _one_warp_config()
        gpu = build_gpu(cfg)
        mm = MemoryMap()
        region = mm.alloc("chase", 65536, 8)
        hops = 64

        def factory(ctx_):
            def kernel():
                for i in range(hops):
                    yield load(Phase.GATHER, region,
                               np.array([(i * 911) % 60000]))
            return kernel()

        stats = gpu.run_kernel(factory, flush_caches=True)
        per_hop = stats.total_cycles / hops
        block = format_table(
            ["hops", "cycles", "cycles/hop",
             "configured DRAM latency"],
            [[hops, stats.total_cycles, round(per_hop, 1),
              cfg.dram_latency_cycles]],
            title="Microbenchmark: dependent-load latency")
        return self.output({"micro_pointer_chase": block},
                           per_hop=per_hop,
                           dram_latency=cfg.dram_latency_cycles)

    def check(self, out):
        per_hop, latency = out.data["per_hop"], out.data["dram_latency"]
        if not latency <= per_hop <= 1.5 * latency:
            yield f"a hop pays 1-1.5x the DRAM latency ({per_hop})"


@register
class MicroStreamBandwidth(Figure):
    """Independent streaming warps converge to the DRAM service rate."""

    name = "micro_stream_bandwidth"
    paper = "calibration"
    title = "Microbenchmark: streaming bandwidth"

    def summarize(self, ctx, results):
        import numpy as np

        from repro.sim import GPUConfig, MemoryMap
        from repro.sim.engines import build_gpu
        from repro.sim.instructions import Phase, load

        cfg = GPUConfig(num_sockets=1, cores_per_socket=1,
                        warps_per_core=16, threads_per_warp=32)
        gpu = build_gpu(cfg)
        mm = MemoryMap()
        region = mm.alloc("stream", 1 << 20, 8)
        loads_per_warp = 64

        def factory(ctx_):
            def kernel():
                base = ctx_.warp_slot * loads_per_warp * 8
                for i in range(loads_per_warp):
                    idx = (base + i * 8) * 16 % (1 << 19)
                    yield load(Phase.GATHER, region,
                               np.arange(idx, idx + 8))
            return kernel()

        stats = gpu.run_kernel(factory, flush_caches=True)
        lines = stats.dram_accesses
        cycles_per_line = stats.total_cycles / max(1, lines)
        block = format_table(
            ["DRAM lines", "cycles", "cycles/line",
             "configured service"],
            [[lines, stats.total_cycles, round(cycles_per_line, 2),
              cfg.dram_service_cycles]],
            title="Microbenchmark: streaming bandwidth")
        return self.output(
            {"micro_stream_bandwidth": block},
            cycles_per_line=cycles_per_line,
            dram_latency=cfg.dram_latency_cycles,
            dram_service=cfg.dram_service_cycles,
        )

    def check(self, out):
        per_line = out.data["cycles_per_line"]
        latency = out.data["dram_latency"]
        service = out.data["dram_service"]
        if not per_line < latency / 2:
            yield f"a line costs under half the latency ({per_line})"
        if not per_line >= 0.9 * service:
            yield f"a line costs >= 0.9x the service time ({per_line})"


@register
class MicroIssueThroughput(Figure):
    """Back-to-back ALU work: one instruction per cycle per core."""

    name = "micro_issue_throughput"
    paper = "calibration"
    title = "Microbenchmark: issue throughput"

    def summarize(self, ctx, results):
        from repro.sim.engines import build_gpu
        from repro.sim.instructions import Phase, alu

        cfg = _one_warp_config()
        gpu = build_gpu(cfg)
        n = 2000

        def factory(ctx_):
            def kernel():
                for _ in range(n):
                    yield alu(Phase.GATHER)
            return kernel()

        stats = gpu.run_kernel(factory)
        block = format_table(
            ["instructions", "cycles", "IPC"],
            [[n, stats.total_cycles,
              round(n / stats.total_cycles, 3)]],
            title="Microbenchmark: issue throughput")
        return self.output({"micro_issue_throughput": block},
                           instructions=n, cycles=stats.total_cycles)

    def check(self, out):
        n, cycles = out.data["instructions"], out.data["cycles"]
        if cycles != n:
            yield f"ALU work issues 1 IPC ({n} in {cycles} cycles)"


@register
class MicroLatencyHiding(Figure):
    """More resident warps hide more of a fixed memory latency."""

    name = "micro_latency_hiding"
    paper = "calibration"
    title = "Microbenchmark: warp-level latency hiding"

    def summarize(self, ctx, results):
        import numpy as np

        from repro.sim import GPUConfig, MemoryMap
        from repro.sim.engines import build_gpu
        from repro.sim.instructions import Phase, alu, load

        rows = []
        for warps in (1, 2, 4, 8, 16):
            cfg = GPUConfig(num_sockets=1, cores_per_socket=1,
                            warps_per_core=warps, threads_per_warp=32)
            gpu = build_gpu(cfg)
            mm = MemoryMap()
            region = mm.alloc("lat", 1 << 20, 8)

            def factory(ctx_, region=region):
                def kernel():
                    for i in range(16):
                        idx = ((ctx_.warp_slot * 7919 + i * 977)
                               % (1 << 17))
                        yield load(Phase.GATHER, region,
                                   np.array([idx]))
                        yield alu(Phase.GATHER, 4)
                return kernel()

            stats = gpu.run_kernel(factory, flush_caches=True)
            per_op = stats.total_cycles / (16 * warps)
            rows.append([warps, stats.total_cycles, round(per_op, 1)])
        block = format_table(
            ["warps", "cycles", "cycles per load+alu"],
            rows, title="Microbenchmark: warp-level latency hiding")
        return self.output({"micro_latency_hiding": block}, rows=rows)

    def check(self, out):
        rows = out.data["rows"]
        if not rows[-1][2] < rows[0][2] / 2:
            yield f"more warps halve the cost per operation ({rows})"
