"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``       one (algorithm, dataset, schedule) simulation with stats
``compare``   every schedule on one workload, speedups over S_vm
``bench``     regenerate paper figures via the figure registry + engine
``datasets``  the Table III analog inventory
``area``      the Table IV area model
``weaver``    replay the Fig. 6 FSM example
``batch``     run a job grid through the parallel runtime engine
``cache``     inspect or clear the content-addressed result cache
``tail``      live dashboard over a batch telemetry JSONL file
``report``    aggregate telemetry/profile files into one summary
``diff``      first-divergence localization between two runs' ledgers
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.algorithms import algorithm_names, make_algorithm
from repro.bench import format_table, run_schedule_comparison, run_single
from repro.core import SparseWorkloadTable, WeaverAreaModel, WeaverFSM
from repro.graph import dataset, dataset_names
from repro.graph.datasets import dataset_spec
from repro.graph.metrics import average_degree, degree_skewness
from repro.sched import ALL_SCHEDULES, EXTENDED_SCHEDULES, schedule_names
from repro.sim import GPUConfig


def _add_engine_flag(p) -> None:
    """The shared ``--engine`` flag (simulator execution engine)."""
    p.add_argument("--engine", default=None, metavar="NAME",
                   help="simulator execution engine (reference/fast/"
                        "auto; default: $REPRO_ENGINE, then "
                        "reference); engines are bit-identical, this "
                        "changes wall-clock speed only")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SparseWeaver (HPCA 2025) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one workload")
    run_p.add_argument("--algorithm", default="pagerank",
                       choices=algorithm_names())
    run_p.add_argument("--dataset", default="hollywood",
                       choices=dataset_names())
    run_p.add_argument("--schedule", default="sparseweaver",
                       choices=schedule_names())
    run_p.add_argument("--scale", type=float, default=0.25)
    run_p.add_argument("--iterations", type=int, default=3)
    run_p.add_argument("--trace", default=None, metavar="PATH",
                       help="write a Chrome trace (kernel spans + "
                            "per-warp instruction/stall timeline) "
                            "loadable in chrome://tracing or Perfetto")
    run_p.add_argument("--trace-events", type=int, default=200_000,
                       help="instruction-trace bound for --trace")
    run_p.add_argument("--profile", default=None, metavar="DIR",
                       help="host-profile the simulator: per-phase "
                            "wall-time table on stdout, profile.json + "
                            "flamegraph.collapsed in DIR; sampler "
                            "spans merge into --trace output")
    _add_engine_flag(run_p)

    cmp_p = sub.add_parser("compare", help="all schedules, one workload")
    cmp_p.add_argument("--algorithm", default="pagerank",
                       choices=algorithm_names())
    cmp_p.add_argument("--dataset", default="hollywood",
                       choices=dataset_names())
    cmp_p.add_argument("--scale", type=float, default=0.25)
    cmp_p.add_argument("--iterations", type=int, default=2)
    cmp_p.add_argument("--extended", action="store_true",
                       help="include every implemented schedule")

    bench_p = sub.add_parser(
        "bench",
        help="regenerate paper figures through the figure registry "
             "and the batch engine (parallel + incremental); exits 1 "
             "when a job fails or a paper-shape claim breaks")
    bench_p.add_argument("--figures", default=None,
                         help="comma-separated figure names or prefixes "
                              "(e.g. fig10,fig11,ablation); default: "
                              "every registered figure")
    bench_p.add_argument("--list", action="store_true",
                         dest="list_figures",
                         help="list registered figures and exit")
    bench_p.add_argument("--smoke", action="store_true",
                         help="tiny-scale trimmed sweeps (CI health "
                              "check; outputs are not paper shapes, so "
                              "their claims are not checked)")
    bench_p.add_argument("--scale", type=float, default=None,
                         help="dataset analog scale (default: 0.25, "
                              "the benchmark scale)")
    bench_p.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: REPRO_JOBS "
                              "or 1)")
    bench_p.add_argument("--out", default=None, metavar="DIR",
                         help="artifact directory (default: "
                              "benchmarks/results)")
    bench_p.add_argument("--cache-dir", default=None,
                         help="result cache directory (default: "
                              "REPRO_CACHE_DIR or ~/.cache/repro)")
    bench_p.add_argument("--no-cache", action="store_true",
                         help="disable the result cache for this run")
    bench_p.add_argument("--telemetry", default=None, metavar="PATH",
                         help="append run events to this JSONL file")
    bench_p.add_argument("--keep-going", action="store_true",
                         help="finish the whole batch even when jobs "
                              "fail; emit the completed figures plus a "
                              "failure table on stderr (exit 1)")
    bench_p.add_argument("--journal", default=None, metavar="PATH",
                         help="record each finished job in this run "
                              "journal (JSONL, started fresh)")
    bench_p.add_argument("--profile", default=None, metavar="DIR",
                         help="host-profile the simulator during the "
                              "bench; writes profile.json + "
                              "flamegraph.collapsed to DIR")
    _add_engine_flag(bench_p)

    sub.add_parser("datasets", help="Table III analog inventory")

    area_p = sub.add_parser("area", help="Table IV area model")
    area_p.add_argument("--cores", type=int, nargs="+", default=[1, 16])

    sub.add_parser("weaver", help="replay the Fig. 6 FSM example")

    batch_p = sub.add_parser(
        "batch",
        help="run an (algorithm x dataset x schedule) grid through the "
             "runtime engine (parallel workers + result cache)")
    batch_p.add_argument("--algorithm", default="pagerank",
                         choices=algorithm_names())
    batch_p.add_argument("--datasets", nargs="+", default=["bio-human"],
                         choices=dataset_names())
    batch_p.add_argument("--schedules", nargs="+", default=None,
                         choices=schedule_names(),
                         help="default: the paper's five (ALL_SCHEDULES)")
    batch_p.add_argument("--scale", type=float, default=0.25)
    batch_p.add_argument("--iterations", type=int, default=2)
    batch_p.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: REPRO_JOBS or 1)")
    batch_p.add_argument("--spec-file", default=None,
                         help="JSON file with a list of job objects "
                              "(overrides the grid flags)")
    batch_p.add_argument("--cache-dir", default=None,
                         help="result cache directory (default: "
                              "REPRO_CACHE_DIR or ~/.cache/repro)")
    batch_p.add_argument("--no-cache", action="store_true",
                         help="disable the result cache for this batch")
    batch_p.add_argument("--telemetry", default=None, metavar="PATH",
                         help="append run events to this JSONL file")
    batch_p.add_argument("--trace", default=None, metavar="PATH",
                         help="write a Chrome trace of per-job engine "
                              "spans")
    batch_p.add_argument("--fail-fast", action="store_true",
                         help="stop scheduling at the first failed job; "
                              "the rest of the batch is marked skipped")
    batch_p.add_argument("--journal", default=None, metavar="PATH",
                         help="record each finished job in this run "
                              "journal (JSONL, started fresh)")
    batch_p.add_argument("--profile", default=None, metavar="DIR",
                         help="host-profile the simulator across the "
                              "batch (worker snapshots fold into the "
                              "parent); writes profile.json + "
                              "flamegraph.collapsed to DIR; sampler "
                              "spans merge into --trace output")
    _add_engine_flag(batch_p)

    cache_p = sub.add_parser(
        "cache", help="inspect or clear the result cache")
    cache_p.add_argument("action", choices=["stats", "clear"])
    cache_p.add_argument("--cache-dir", default=None)
    cache_p.add_argument("--json", action="store_true",
                         help="emit stats as JSON (scriptable)")

    tail_p = sub.add_parser(
        "tail",
        help="live dashboard over a batch telemetry JSONL file")
    tail_p.add_argument("path", help="telemetry JSONL file to follow")
    tail_p.add_argument("--interval", type=float, default=0.5,
                        help="poll interval in seconds")
    tail_p.add_argument("--once", action="store_true",
                        help="render one frame of the current file "
                             "and exit")
    tail_p.add_argument("--frames", type=int, default=None,
                        help="stop after this many polls (default: "
                             "follow until the batch summary arrives)")
    tail_p.add_argument("--json", action="store_true",
                        help="print the final aggregate as JSON")

    rep2_p = sub.add_parser(
        "report",
        help="aggregate telemetry JSONL and profile snapshot files")
    rep2_p.add_argument("paths", nargs="+",
                        help="telemetry .jsonl and/or profile .json files")
    rep2_p.add_argument("--json", action="store_true",
                        help="emit the aggregate as JSON (CI artifacts)")

    diff_p = sub.add_parser(
        "diff",
        help="compare two runs' provenance digest ledgers "
             "(REPRO_DIGEST=1 runs) and localize the first diverging "
             "(kernel, interval, core, warp) coordinate")
    diff_p.add_argument("--a", required=True, metavar="SRC",
                        help="side A: a run-journal JSONL file, a "
                             "result-cache directory, or live "
                             "'key=val[,key=val]' options (e.g. "
                             "'engine=reference,dataset=bio-human,"
                             "alu_latency=2') re-executed now with "
                             "digests on")
    diff_p.add_argument("--b", required=True, metavar="SRC",
                        help="side B: same source forms as --a")
    diff_p.add_argument("--context", type=int, default=3,
                        help="ledger rows shown around the first "
                             "divergence (default 3)")
    diff_p.add_argument("--interval", type=int, default=None,
                        help="digest interval in simulated cycles for "
                             "live re-execution (default 8192, or "
                             "REPRO_DIGEST_INTERVAL)")
    diff_p.add_argument("--replay", default=None, metavar="PATH",
                        help="re-run only the first diverging kernel "
                             "of both (live) sides with full per-cycle "
                             "event capture and write a side-by-side "
                             "Chrome trace for Perfetto")
    diff_p.add_argument("--json", action="store_true",
                        help="emit the divergence report as JSON")
    return parser


def _make_alg(name: str, iterations: int):
    if name == "pagerank":
        return make_algorithm("pagerank", iterations=iterations)
    if name in ("bfs", "sssp"):
        return make_algorithm(name, source=0)
    return make_algorithm(name)


def _cmd_run(args) -> int:
    graph = dataset(args.dataset, scale=args.scale)
    tracer = exec_tracer = None
    if args.trace:
        from repro.obs.tracing import Tracer
        from repro.sim.trace import ExecutionTracer

        tracer = Tracer()
        exec_tracer = ExecutionTracer(max_events=args.trace_events)
    profiler, sampler = _start_profiling(args)
    result = run_single(
        _make_alg(args.algorithm, args.iterations), graph,
        args.schedule, config=GPUConfig.vortex_bench(),
        max_iterations=args.iterations,
        tracer=tracer, exec_tracer=exec_tracer,
        engine=args.engine,
    )
    if sampler is not None:
        sampler.stop()
    print(f"{args.algorithm} on {args.dataset} (analog {graph}) "
          f"under {args.schedule}:")
    print(f"  cycles:     {result.stats.total_cycles:,}")
    print(f"  iterations: {result.iterations}")
    print("  phases:     " + ", ".join(
        f"{k}={v}" for k, v in result.stats.phase_breakdown().items()))
    print("  stalls:     " + ", ".join(
        f"{k}={v}" for k, v in result.stats.stall_breakdown().items()))
    if args.trace:
        from repro.obs.tracing import execution_trace_events

        extra = list(execution_trace_events(exec_tracer))
        if sampler is not None:
            # Host sampler spans share the tracer's perf_counter
            # origin, so both clocks line up in one Perfetto view.
            extra.extend(sampler.trace_events(epoch=tracer.epoch))
        path = tracer.save(args.trace, extra)
        summary = exec_tracer.summary()
        note = (f" ({summary['dropped']} instruction events dropped "
                "at the trace bound)" if summary["dropped"] else "")
        print(f"  trace:      {path} — open in chrome://tracing or "
              f"https://ui.perfetto.dev{note}")
    _finish_profiling(args, profiler, sampler)
    return 0


def _cmd_compare(args) -> int:
    graph = dataset(args.dataset, scale=args.scale)
    schedules = (EXTENDED_SCHEDULES if getattr(args, "extended", False)
                 else ALL_SCHEDULES)
    result = run_schedule_comparison(
        lambda: _make_alg(args.algorithm, args.iterations),
        {args.dataset: graph}, schedules,
        config=GPUConfig.vortex_bench(),
        max_iterations=args.iterations,
    )
    speedups = result.speedups()[args.dataset]
    cycles = result.cycles[args.dataset]
    rows = [
        [sched, cycles[sched], round(speedups[sched], 2)]
        for sched in schedules
    ]
    print(format_table(
        ["schedule", "cycles", "speedup over S_vm"], rows,
        title=f"{args.algorithm} on {args.dataset} ({graph})"))
    return 0


def _print_failures(report, stream=None) -> None:
    """Emit a failure report table on stderr."""
    print(report.format(), file=stream or sys.stderr)


def _start_profiling(args):
    """``--profile`` -> ``(profiler, sampler)``, both live.

    Returns ``(None, None)`` when the flag is absent.  Enabling the
    profiler also exports ``REPRO_PROFILE=1`` so pool workers spawned
    later come up profiling and their snapshots fold back here.
    """
    if not getattr(args, "profile", None):
        return None, None
    from repro.obs.profile import StackSampler, enable_profiling

    profiler = enable_profiling()
    sampler = StackSampler()
    sampler.start()
    return profiler, sampler


def _finish_profiling(args, profiler, sampler) -> None:
    """Stop the sampler, print the phase table, write artifacts.

    Writes ``profile.json`` (mergeable snapshot, accepted by
    ``repro report``) and ``flamegraph.collapsed`` (collapsed stacks
    for any flamegraph renderer) into the ``--profile`` directory.
    """
    if profiler is None:
        return
    from pathlib import Path

    sampler.stop()
    out = Path(args.profile)
    out.mkdir(parents=True, exist_ok=True)
    profile_path = profiler.save(out / "profile.json")
    flame_path = sampler.save_collapsed(out / "flamegraph.collapsed")
    print(profiler.format())
    print(f"profile:    {profile_path}")
    print(f"flamegraph: {flame_path}")


def _cmd_bench(args) -> int:
    import time
    from pathlib import Path

    from repro.figures import (FigureContext, list_figures,
                               resolve_figures, run_figures_report)
    from repro.runtime import ResultCache, RunJournal, Telemetry

    if args.list_figures:
        rows = [[fig.name, fig.paper, fig.title]
                for fig in list_figures()]
        print(format_table(["figure", "paper", "title"], rows,
                           title=f"{len(rows)} registered figures"))
        return 0

    patterns = ([p.strip() for p in args.figures.split(",") if p.strip()]
                if args.figures else None)
    figures = (resolve_figures(patterns) if patterns
               else list_figures())
    if args.smoke:
        ctx = FigureContext.smoke_context(
            scale=args.scale) if args.scale else \
            FigureContext.smoke_context()
    else:
        ctx = (FigureContext(scale=args.scale) if args.scale
               else FigureContext())

    journal = RunJournal(args.journal) if args.journal else None
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    telemetry = Telemetry(args.telemetry)
    profiler, sampler = _start_profiling(args)
    start = time.perf_counter()
    outputs, report = run_figures_report(
        figures, ctx, jobs=args.jobs, cache=cache, telemetry=telemetry,
        journal=journal,
        policy="keep_going" if args.keep_going else "fail_fast",
        sim_engine=args.engine)
    elapsed = time.perf_counter() - start

    out_dir = Path(args.out) if args.out else (
        Path(__file__).resolve().parents[2] / "benchmarks" / "results")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for name in sorted(outputs):
        out = outputs[name]
        for block_name, text in out.blocks.items():
            (out_dir / f"{block_name}.txt").write_text(text + "\n")
        rows.append([name, len(out.blocks),
                     ", ".join(sorted(out.blocks))])
    print(format_table(
        ["figure", "blocks", "artifacts"], rows,
        title=f"{len(outputs)} figure(s) in {elapsed:.1f}s -> "
              f"{out_dir}"))
    print(telemetry.format_summary(cache))
    _finish_profiling(args, profiler, sampler)
    if not report.ok:
        _print_failures(report)
        return 1
    return 0


def _cmd_datasets(_args) -> int:
    rows = []
    for name in dataset_names():
        spec = dataset_spec(name)
        g = dataset(name, scale=0.25)
        rows.append([
            name, spec.paper_vertices, spec.paper_edges, g.num_vertices,
            g.num_edges, round(average_degree(g), 1),
            round(degree_skewness(g), 2),
        ])
    print(format_table(
        ["dataset", "|V| paper", "|E| paper", "|V| analog", "|E| analog",
         "avg deg", "skew"],
        rows, title="Table III analogs (scale 0.25)"))
    return 0


def _cmd_area(args) -> int:
    model = WeaverAreaModel()
    for cores in args.cores:
        print(model.utilization_summary(cores))
    return 0


def _cmd_weaver(_args) -> int:
    st = SparseWorkloadTable(16)
    st.register(0, vid=0, loc=2, degree=1)
    st.register(1, vid=2, loc=10, degree=2)
    st.register(2, vid=4, loc=30, degree=5)
    fsm = WeaverFSM(st, lanes=4)
    for request in (1, 2, 3):
        result = fsm.decode()
        walk = " -> ".join(s.value for s in result.states)
        print(f"request {request}: {walk or '(end)'}")
        print(f"  VIDs {result.vids.tolist()}  EIDs {result.eids.tolist()}")
    return 0


def _load_spec_file(path: str):
    """Load a JSON batch file into :class:`JobSpec` objects.

    Accepts a list (or ``{"jobs": [...]}``) of objects with the keys
    ``algorithm``, ``params``, ``dataset`` (or ``generator`` +
    ``graph_params``), ``scale``, ``schedule``, ``max_iterations``,
    ``symmetrize``.
    """
    import json

    from repro.errors import ReproError
    from repro.runtime import AlgorithmSpec, GraphSpec, JobSpec

    known = {"algorithm", "params", "dataset", "generator", "graph_params",
             "scale", "schedule", "max_iterations", "symmetrize"}
    with open(path) as handle:
        data = json.load(handle)
    if isinstance(data, dict):
        data = data.get("jobs", [])
    specs = []
    for i, entry in enumerate(data):
        unknown = sorted(set(entry) - known)
        if unknown:
            raise ReproError(
                f"job {i} in {path} has unknown key(s) {unknown}; "
                f"expected a subset of {sorted(known)}")
        if "dataset" in entry:
            graph = GraphSpec.from_dataset(
                entry["dataset"], scale=float(entry.get("scale", 1.0)))
        elif "generator" in entry:
            graph = GraphSpec.from_generator(
                entry["generator"], **entry.get("graph_params", {}))
        else:
            raise ReproError(
                f"job {i} in {path} needs a 'dataset' or 'generator'")
        specs.append(JobSpec(
            algorithm=AlgorithmSpec.of(
                entry["algorithm"], **entry.get("params", {})),
            graph=graph,
            schedule=entry["schedule"],
            max_iterations=entry.get("max_iterations"),
            symmetrize=bool(entry.get("symmetrize", False)),
        ))
    return specs


def _batch_specs(args):
    """The ``batch`` grid (or spec file) as JobSpec objects.

    ``--engine`` stamps every spec; the field is excluded from the
    content hash, so stamped specs keep their engine-less cache and
    journal identities.
    """
    from repro.runtime import AlgorithmSpec, GraphSpec, JobSpec

    if args.spec_file:
        specs = _load_spec_file(args.spec_file)
    else:
        schedules = args.schedules or list(ALL_SCHEDULES)
        algorithm = AlgorithmSpec.of(
            args.algorithm,
            **({"iterations": args.iterations}
               if args.algorithm == "pagerank" else
               {"source": 0} if args.algorithm in ("bfs", "sssp")
               else {}))
        specs = [
            JobSpec(
                algorithm=algorithm,
                graph=GraphSpec.from_dataset(name, scale=args.scale),
                schedule=sched,
                config=GPUConfig.vortex_bench(),
                max_iterations=args.iterations,
            )
            for name in args.datasets
            for sched in schedules
        ]
    if getattr(args, "engine", None):
        import dataclasses

        specs = [dataclasses.replace(s, engine=args.engine)
                 for s in specs]
    return specs


def _cmd_batch(args) -> int:
    from repro.runtime import BatchEngine, ResultCache, RunJournal, Telemetry

    specs = _batch_specs(args)
    tracer = None
    if args.trace:
        from repro.obs.tracing import Tracer

        tracer = Tracer()
    journal = RunJournal(args.journal) if args.journal else None
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    telemetry = Telemetry(args.telemetry)
    engine = BatchEngine(jobs=args.jobs, cache=cache,
                         telemetry=telemetry, tracer=tracer,
                         journal=journal, fail_fast=args.fail_fast)
    profiler, sampler = _start_profiling(args)
    outcomes = engine.run(specs)
    if sampler is not None:
        sampler.stop()

    rows = [
        [o.spec.algorithm.name, o.spec.graph.name, o.spec.schedule,
         o.status,
         o.summary.total_cycles if o.summary else "-",
         round(o.wall_seconds, 3)]
        for o in outcomes
    ]
    print(format_table(
        ["algorithm", "graph", "schedule", "status", "cycles", "sec"],
        rows, title=f"batch of {len(specs)} jobs "
                    f"({engine.jobs} worker(s))"))
    print(telemetry.format_summary(cache))
    if tracer is not None:
        extra = (sampler.trace_events(epoch=tracer.epoch)
                 if sampler is not None else ())
        print(f"engine trace: {tracer.save(args.trace, extra)}")
    _finish_profiling(args, profiler, sampler)
    from repro.figures.driver import FailureReport

    report = FailureReport.from_outcomes(outcomes)
    if not report.ok:
        _print_failures(report)
        return 1
    return 0


def _cmd_cache(args) -> int:
    import json as json_mod

    from repro.runtime import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.dir}")
        return 0
    if args.json:
        print(json_mod.dumps(cache.stats(), sort_keys=True))
        return 0
    for key, value in cache.stats().items():
        print(f"  {key}: {value}")
    return 0


def _cmd_tail(args) -> int:
    import json as json_mod

    from repro.obs.dashboard import tail

    watch = tail(args.path, follow=not args.once,
                 interval=args.interval, max_frames=args.frames)
    if args.json:
        print(json_mod.dumps(watch.snapshot(), sort_keys=True))
    return 1 if watch.snapshot()["failed"] else 0


def _cmd_report(args) -> int:
    import json as json_mod

    from repro.obs.report import aggregate, format_report

    report = aggregate(args.paths)
    if args.json:
        print(json_mod.dumps(report, sort_keys=True, indent=1))
    else:
        print(format_report(report))
    return 1 if report["failed"] else 0


def _parse_diff_options(src: str):
    """``'key=val,key=val'`` live-source grammar -> an options dict."""
    from repro.errors import ReproError

    opts = {}
    for part in src.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ReproError(
                f"diff source {src!r} is neither an existing journal "
                "file, a cache directory, nor 'key=value' live options")
        key, value = part.split("=", 1)
        opts[key.strip()] = value.strip()
    return opts


def _diff_live_spec(opts):
    """Build the JobSpec a live diff side re-executes.

    Recognized keys: ``engine`` (any registered simulator engine —
    ``reference``, ``fast``, ``auto``; this is how divergence bisection
    compares two engines live), ``algorithm``, ``dataset``,
    ``schedule``, ``scale``, ``iterations``, plus any numeric
    :class:`GPUConfig` field as an override (``alu_latency=2``) — the
    deliberate-perturbation lever.
    """
    import dataclasses

    from repro.errors import ReproError
    from repro.runtime import AlgorithmSpec, GraphSpec, JobSpec
    from repro.sim.engines import available_engines

    opts = dict(opts)
    engine = opts.pop("engine", "reference")
    if engine not in available_engines():
        raise ReproError(
            f"unknown engine {engine!r}; available: "
            f"{available_engines()}")
    algorithm = opts.pop("algorithm", "pagerank")
    dataset_name = opts.pop("dataset", "bio-human")
    schedule = opts.pop("schedule", "sparseweaver")
    scale = float(opts.pop("scale", 0.25))
    iterations = int(opts.pop("iterations", 2))
    config = GPUConfig.vortex_bench()
    overrides = {}
    config_fields = {f.name for f in dataclasses.fields(GPUConfig)}
    for key in list(opts):
        if key in config_fields:
            raw = opts.pop(key)
            try:
                overrides[key] = int(raw)
            except ValueError:
                try:
                    overrides[key] = float(raw)
                except ValueError:
                    raise ReproError(
                        f"config override {key}={raw!r} is not "
                        "numeric") from None
    if opts:
        raise ReproError(
            f"unknown diff option(s) {sorted(opts)}; expected engine/"
            "algorithm/dataset/schedule/scale/iterations or a numeric "
            "GPUConfig field")
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return JobSpec(
        algorithm=AlgorithmSpec.of(
            algorithm,
            **({"iterations": iterations} if algorithm == "pagerank"
               else {"source": 0} if algorithm in ("bfs", "sssp")
               else {})),
        graph=GraphSpec.from_dataset(dataset_name, scale=scale),
        schedule=schedule,
        config=config,
        max_iterations=iterations,
        engine=engine,
    )


def _diff_side(src: str, interval):
    """One ``--a``/``--b`` source -> ``(label -> summary, spec, kind)``.

    ``spec`` is the live-side JobSpec (``None`` for journal/cache
    sources — those can only be compared, not replayed).
    """
    from pathlib import Path

    from repro.errors import ReproError
    from repro.obs.provenance import (enable_digests,
                                      ledgers_from_cache_dir,
                                      ledgers_from_journal)

    path = Path(src)
    if path.is_dir():
        runs = ledgers_from_cache_dir(path)
        if not runs:
            raise ReproError(f"cache directory {src} holds no "
                             "readable entries")
        return runs, None, "cache"
    if path.is_file():
        runs = ledgers_from_journal(path)
        if not runs:
            raise ReproError(f"journal {src} holds no completion "
                             "records")
        return runs, None, "journal"
    spec = _diff_live_spec(_parse_diff_options(src))
    enable_digests(interval)
    from repro.runtime.engine import _execute_spec

    return {spec.label: _execute_spec(spec)}, spec, "live"


def _diff_replay(path, spec_a, spec_b, kernel: int) -> str:
    """Re-run both live sides recording only ``kernel``; write a
    side-by-side Chrome trace and return its path."""
    import json as json_mod
    from pathlib import Path

    from repro.obs.provenance import KernelWindowTracer
    from repro.obs.tracing import execution_trace_events

    events = []
    for spec, label, pid_base in ((spec_a, "A", 1000),
                                  (spec_b, "B", 5000)):
        window = KernelWindowTracer(kernel)
        run_single(
            spec.algorithm.build(), spec.graph.build(), spec.schedule,
            config=spec.effective_config(),
            max_iterations=spec.max_iterations,
            symmetrize=spec.symmetrize, exec_tracer=window)
        events.extend(execution_trace_events(
            window.inner, pid_base=pid_base,
            label=f"{label}:{spec.label}"))
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json_mod.dumps({"traceEvents": events}))
    return str(out)


def _cmd_diff(args) -> int:
    import json as json_mod

    from repro.errors import ReproError
    from repro.obs.provenance import (context_window, describe_coord,
                                      diff_ledgers)

    runs_a, spec_a, kind_a = _diff_side(args.a, args.interval)
    runs_b, spec_b, kind_b = _diff_side(args.b, args.interval)
    common = sorted(set(runs_a) & set(runs_b))
    if not common:
        raise ReproError(
            f"no common job labels between --a ({kind_a}: "
            f"{len(runs_a)} run(s)) and --b ({kind_b}: {len(runs_b)} "
            "run(s)) — digest ledgers are matched by job label")

    jobs = []
    missing = 0
    for label in common:
        la = (runs_a[label] or {}).get("digest_ledger")
        lb = (runs_b[label] or {}).get("digest_ledger")
        if la is None and lb is None:
            missing += 1
            continue
        diffs = diff_ledgers(la, lb)
        entry = {"label": label, "divergences": len(diffs)}
        if diffs:
            first = diffs[0]
            coord = [int(v) for v in first["coord"]]
            entry["first"] = {
                "coord": coord,
                "where": describe_coord(coord),
                "a": first["a"], "b": first["b"],
                "context": [
                    {"coord": [int(v) for v in row["coord"]],
                     "a": row["a"], "b": row["b"],
                     "match": row["match"]}
                    for row in context_window(la, lb, coord,
                                              args.context)
                ],
            }
        jobs.append(entry)

    if not jobs:
        raise ReproError(
            f"none of the {len(common)} common job(s) carry a digest "
            "ledger — re-run both sides with REPRO_DIGEST=1")

    divergent = [j for j in jobs if j["divergences"]]
    replay_path = None
    if args.replay and divergent:
        if spec_a is None or spec_b is None:
            raise ReproError(
                "--replay needs both sides to be live 'key=value' "
                "sources (journal/cache entries cannot be re-executed)")
        kernel = divergent[0]["first"]["coord"][0]
        if kernel < 0:
            kernel = 0  # merge-stream divergence: replay kernel 0
        replay_path = _diff_replay(args.replay, spec_a, spec_b, kernel)

    if args.json:
        print(json_mod.dumps({
            "a": {"source": args.a, "kind": kind_a,
                  "runs": len(runs_a)},
            "b": {"source": args.b, "kind": kind_b,
                  "runs": len(runs_b)},
            "compared": len(jobs),
            "without_ledgers": missing,
            "divergent": len(divergent),
            "jobs": jobs,
            "replay": replay_path,
        }, sort_keys=True))
        return 1 if divergent else 0

    print(f"provenance diff: {len(jobs)} job(s) compared "
          f"({kind_a} vs {kind_b})"
          + (f", {missing} without ledgers skipped" if missing else ""))
    for job in jobs:
        if not job["divergences"]:
            print(f"  {job['label']}: ledgers identical")
            continue
        first = job["first"]
        print(f"  {job['label']}: {job['divergences']} diverging "
              f"record(s); first at {first['where']} "
              f"(coord {tuple(first['coord'])})")
        print(f"    a={first['a'] or '(absent)'}  "
              f"b={first['b'] or '(absent)'}")
        for row in first["context"]:
            mark = " " if row["match"] else ">"
            print(f"    {mark} {tuple(row['coord'])}  "
                  f"a={row['a'] or '-':>16}  b={row['b'] or '-':>16}")
    if replay_path:
        print(f"  replay trace: {replay_path} — open in "
              "chrome://tracing or https://ui.perfetto.dev")
    if divergent:
        print(f"FIRST DIVERGENCE: {divergent[0]['label']} at "
              f"{divergent[0]['first']['where']}")
        return 1
    print("no divergences: every compared ledger matches")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "compare": _cmd_compare,
    "bench": _cmd_bench,
    "datasets": _cmd_datasets,
    "area": _cmd_area,
    "weaver": _cmd_weaver,
    "batch": _cmd_batch,
    "cache": _cmd_cache,
    "tail": _cmd_tail,
    "report": _cmd_report,
    "diff": _cmd_diff,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes: 0 success; 1 at least one job failed (partial results
    were still emitted under ``--keep-going``); 2 configuration error;
    130 interrupted (SIGINT) — rerunning against the same result cache
    simulates only the jobs that did not finish.
    """
    from repro.errors import ReproError

    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        print("interrupted; rerun against the same cache to continue: "
              "finished jobs are not simulated again", file=sys.stderr)
        return 130
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
