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
``tail``      live dashboard over run journals (one frame or JSON once)
``diff``      first-divergence localization between two runs' ledgers
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.algorithms import algorithm_names
from repro.bench import ExperimentResult, format_table
from repro.core import SparseWorkloadTable, WeaverAreaModel, WeaverFSM
from repro.errors import ConfigError, ReproError
from repro.graph import dataset, dataset_names
from repro.graph.datasets import dataset_spec
from repro.graph.metrics import average_degree, degree_skewness
from repro.runtime import AlgorithmSpec, GraphSpec, JobSpec
from repro.sched import ALL_SCHEDULES, EXTENDED_SCHEDULES, schedule_names
from repro.sim import GPUConfig


def _add_engine_flag(p) -> None:
    """The shared ``--engine`` flag (simulator execution engine)."""
    p.add_argument("--engine", default=None, metavar="NAME",
                   help="simulator execution engine (reference/fast/"
                        "auto; default: fast); engines are "
                        "bit-identical, this changes wall-clock speed "
                        "only")


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
                       help="write a Chrome trace of the simulated-cycle "
                            "per-warp instruction/stall timeline, "
                            "loadable in chrome://tracing or Perfetto")
    run_p.add_argument("--trace-events", type=int, default=200_000,
                       help="instruction-trace bound for --trace")
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
    bench_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes (default: 1)")
    bench_p.add_argument("--out", default=None, metavar="DIR",
                         help="artifact directory (default: "
                              "benchmarks/results)")
    bench_p.add_argument("--cache-dir", default=None,
                         help="result cache directory (default: "
                              "REPRO_CACHE_DIR or ~/.cache/repro)")
    bench_p.add_argument("--no-cache", action="store_true",
                         help="disable the result cache for this run")
    bench_p.add_argument("--keep-going", action="store_true",
                         help="finish the whole batch even when jobs "
                              "fail; emit the completed figures plus a "
                              "failure table on stderr (exit 1)")
    bench_p.add_argument("--journal", default=None, metavar="PATH",
                         help="record each job in this run journal "
                              "(JSONL, started fresh)")
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
    batch_p.add_argument("--jobs", type=int, default=1,
                         help="worker processes (default: 1)")
    batch_p.add_argument("--spec-file", default=None,
                         help="JSON file with a list of job objects "
                              "(overrides the grid flags)")
    batch_p.add_argument("--cache-dir", default=None,
                         help="result cache directory (default: "
                              "REPRO_CACHE_DIR or ~/.cache/repro)")
    batch_p.add_argument("--no-cache", action="store_true",
                         help="disable the result cache for this batch")
    batch_p.add_argument("--fail-fast", action="store_true",
                         help="stop scheduling at the first failed job; "
                              "the rest of the batch is marked skipped")
    batch_p.add_argument("--journal", default=None, metavar="PATH",
                         help="record each job in this run journal "
                              "(JSONL, started fresh)")
    _add_engine_flag(batch_p)

    cache_p = sub.add_parser(
        "cache", help="inspect or clear the result cache")
    cache_p.add_argument("action", choices=["stats", "clear"])
    cache_p.add_argument("--cache-dir", default=None)
    cache_p.add_argument("--json", action="store_true",
                         help="emit stats as JSON (scriptable)")

    tail_p = sub.add_parser(
        "tail",
        help="live dashboard over run journals; exits 1 when a "
             "journaled job failed")
    tail_p.add_argument("paths", nargs="+", metavar="path",
                        help="run journal (--journal) files, re-read "
                             "whole when one changes")
    tail_p.add_argument("--interval", type=float, default=0.5,
                        help="poll interval in seconds")
    tail_p.add_argument("--once", action="store_true",
                        help="render one frame of the current files "
                             "and exit")
    tail_p.add_argument("--frames", type=int, default=None,
                        help="stop after this many polls (default: "
                             "follow until every announced job ended)")
    tail_p.add_argument("--json", action="store_true",
                        help="print the final numbers as one JSON "
                             "document instead of frames")

    diff_p = sub.add_parser(
        "diff",
        help="compare two runs' provenance digest ledgers "
             "(REPRO_DIGEST=1 runs) and localize the first diverging "
             "(kernel, interval, core, warp) coordinate; jobs paired "
             "by content hash must also have equal result values")
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


def _job_spec(algorithm: str, dataset_name: str, schedule: str,
              scale: float, iterations: int,
              config: Optional[GPUConfig] = None,
              engine: Optional[str] = None) -> JobSpec:
    """The job of one CLI simulation: ``algorithm`` on a dataset analog.

    ``run``, ``compare``, the ``batch`` grid and ``diff``'s live sides
    all describe their jobs here.  PageRank runs ``iterations``
    iterations, BFS and SSSP start at vertex 0, and ``iterations`` caps
    every algorithm.  ``config=None`` is the benchmark preset.
    """
    params = ({"iterations": iterations} if algorithm == "pagerank"
              else {"source": 0} if algorithm in ("bfs", "sssp") else {})
    return JobSpec(
        algorithm=AlgorithmSpec.of(algorithm, **params),
        graph=GraphSpec.from_dataset(dataset_name, scale=scale),
        schedule=schedule,
        config=config,
        max_iterations=iterations,
        engine=engine,
    )


def _cmd_run(args) -> int:
    spec = _job_spec(args.algorithm, args.dataset, args.schedule,
                     args.scale, args.iterations, engine=args.engine)
    exec_tracer = None
    if args.trace:
        from repro.sim.trace import ExecutionTracer

        exec_tracer = ExecutionTracer(max_events=args.trace_events)
    result = spec.execute(tracer=exec_tracer)
    graph = spec.graph.build()
    print(f"{args.algorithm} on {args.dataset} (analog {graph}) "
          f"under {args.schedule}:")
    print(f"  cycles:     {result.stats.total_cycles:,}")
    print(f"  iterations: {result.iterations}")
    print("  phases:     " + ", ".join(
        f"{k}={v}" for k, v in result.stats.phase_breakdown().items()))
    print("  stalls:     " + ", ".join(
        f"{k}={v}" for k, v in result.stats.stall_breakdown().items()))
    if args.trace:
        from repro.sim.trace import execution_trace_events

        path = _write_trace(args.trace,
                            execution_trace_events(exec_tracer))
        summary = exec_tracer.summary()
        note = (f" ({summary['dropped']} instruction events dropped "
                "at the trace bound)" if summary["dropped"] else "")
        print(f"  trace:      {path} — open in chrome://tracing or "
              f"https://ui.perfetto.dev{note}")
    return 0


def _write_trace(path, events) -> str:
    """Write Chrome trace-event JSON (``{"traceEvents": [...]}``)."""
    import json
    from pathlib import Path

    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"traceEvents": events}))
    return str(out)


def _cmd_compare(args) -> int:
    from repro.figures.driver import ResultSet
    from repro.runtime import BatchEngine

    schedules = EXTENDED_SCHEDULES if args.extended else ALL_SCHEDULES
    specs = [_job_spec(args.algorithm, args.dataset, sched, args.scale,
                       args.iterations) for sched in schedules]
    # A failed job raises ReproError here (exit 2), as a direct run does.
    results = ResultSet(BatchEngine().run(specs))
    cycles = {spec.schedule: results.cycles(spec) for spec in specs}
    speedups = ExperimentResult(
        cycles={args.dataset: cycles}).speedups()[args.dataset]
    rows = [
        [sched, cycles[sched], round(speedups[sched], 2)]
        for sched in schedules
    ]
    print(format_table(
        ["schedule", "cycles", "speedup over S_vm"], rows,
        title=f"{args.algorithm} on {args.dataset} "
              f"({specs[0].graph.build()})"))
    return 0


def _print_failures(report, stream=None) -> None:
    """Emit a failure report table on stderr."""
    print(report.format(), file=stream or sys.stderr)


def _cmd_bench(args) -> int:
    import time
    from pathlib import Path

    from repro.figures import (FigureContext, list_figures,
                               resolve_figures, run_figures_report)
    from repro.runtime import ResultCache, RunJournal

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
    start = time.perf_counter()
    outputs, report = run_figures_report(
        figures, ctx, jobs=args.jobs, cache=cache, journal=journal,
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
    print(report.format_summary(elapsed, cache))
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


def _load_spec_file(path: str, engine: Optional[str] = None):
    """Load a JSON batch file into :class:`JobSpec` objects.

    Accepts a list (or ``{"jobs": [...]}``) of objects with the keys
    ``algorithm``, ``params``, ``dataset`` (or ``generator`` +
    ``graph_params``), ``scale``, ``schedule``, ``max_iterations``,
    ``symmetrize``; ``algorithm`` and ``schedule`` are required.  A
    malformed file raises :class:`ReproError` naming the entry.
    """
    import json

    known = {"algorithm", "params", "dataset", "generator", "graph_params",
             "scale", "schedule", "max_iterations", "symmetrize"}
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read spec file {path}: {exc}") from None
    if isinstance(data, dict):
        data = data.get("jobs", [])
    if not isinstance(data, list):
        raise ReproError(f"{path} must hold a list of job objects or "
                         "{\"jobs\": [...]}")
    specs = []
    for i, entry in enumerate(data):
        where = f"job {i} in {path}"
        if not isinstance(entry, dict):
            raise ReproError(f"{where} is not a JSON object")
        unknown = sorted(set(entry) - known)
        if unknown:
            raise ReproError(
                f"{where} has unknown key(s) {unknown}; "
                f"expected a subset of {sorted(known)}")
        missing = sorted({"algorithm", "schedule"} - set(entry))
        if missing:
            raise ReproError(f"{where} lacks required key(s) {missing}")
        for key, kind, what in (("algorithm", str, "a name"),
                                ("schedule", str, "a name"),
                                ("symmetrize", bool, "true or false")):
            if key in entry and not isinstance(entry[key], kind):
                raise ReproError(f"{where}: {key} must be {what}, "
                                 f"got {entry[key]!r}")
        try:
            if "dataset" in entry:
                graph = GraphSpec.from_dataset(
                    entry["dataset"], scale=float(entry.get("scale", 1.0)))
            elif "generator" in entry:
                graph = GraphSpec.from_generator(
                    entry["generator"], **entry.get("graph_params", {}))
            else:
                raise ReproError(f"{where} needs a 'dataset' or 'generator'")
            algorithm = AlgorithmSpec.of(entry["algorithm"],
                                         **entry.get("params", {}))
        except (TypeError, ValueError) as exc:
            raise ReproError(f"{where} is malformed: {exc}") from None
        specs.append(JobSpec(
            algorithm=algorithm,
            graph=graph,
            schedule=entry["schedule"],
            max_iterations=entry.get("max_iterations"),
            symmetrize=entry.get("symmetrize", False),
            engine=engine,
        ))
    return specs


def _check_specs(specs, names) -> None:
    """Raise, before any job runs, what would fail a job: an algorithm
    or schedule that does not build (each distinct one is built once)
    or an iteration cap that is not a positive integer or null.  The
    error starts with the name (in ``names``) of the first job it
    hits."""
    from repro.sched import make_schedule

    built = set()
    for spec, name in zip(specs, names):
        try:
            if spec.algorithm not in built:
                spec.algorithm.build()
                built.add(spec.algorithm)
            if spec.schedule not in built:
                make_schedule(spec.schedule)
                built.add(spec.schedule)
        except (ReproError, TypeError, ValueError) as exc:
            raise ConfigError(f"{name}: {exc}") from None
        cap = spec.max_iterations
        if cap is not None and (isinstance(cap, bool)
                                or not isinstance(cap, int) or cap < 1):
            raise ConfigError(f"{name}: max_iterations must be a "
                              f"positive integer or null, got {cap!r}")


def _batch_specs(args):
    """The ``batch`` grid (or spec file) as JobSpec objects.

    A spec repeated in the grid or the file runs once: the first
    occurrence of each content hash stays, in order.  ``--engine``
    names every spec's engine; the field is excluded from the content
    hash, so specs keep their engine-less cache and journal identities.
    Every spec passes :func:`_check_specs` before any job runs; an
    error names the grid job's label or the file's ``job N in F``.
    """
    if args.spec_file:
        specs = _load_spec_file(args.spec_file, args.engine)
        names = [f"job {i} in {args.spec_file}" for i in range(len(specs))]
    else:
        specs = [_job_spec(args.algorithm, name, sched, args.scale,
                           args.iterations, engine=args.engine)
                 for name in args.datasets
                 for sched in args.schedules or ALL_SCHEDULES]
        names = [spec.label for spec in specs]
    _check_specs(specs, names)
    unique = {}
    for spec in specs:
        unique.setdefault(spec.content_hash(), spec)
    return list(unique.values())


def _cmd_batch(args) -> int:
    import time

    from repro.figures.driver import FailureReport
    from repro.runtime import BatchEngine, ResultCache, RunJournal

    specs = _batch_specs(args)
    journal = RunJournal(args.journal) if args.journal else None
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    engine = BatchEngine(jobs=args.jobs, cache=cache, journal=journal,
                         fail_fast=args.fail_fast)
    start = time.perf_counter()
    outcomes = engine.run(specs)
    elapsed = time.perf_counter() - start

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
    report = FailureReport.from_outcomes(outcomes)
    print(report.format_summary(elapsed, cache))
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
        print(json_mod.dumps(cache.store_stats(), sort_keys=True))
        return 0
    for key, value in cache.store_stats().items():
        print(f"  {key}: {value}")
    return 0


def _cmd_tail(args) -> int:
    import json as json_mod

    from repro.obs.dashboard import tail

    watch = tail(args.paths, follow=not args.once,
                 interval=args.interval, max_frames=args.frames,
                 out=None if args.json else sys.stdout)
    snap = watch.snapshot()
    if args.json:
        print(json_mod.dumps(snap, sort_keys=True, indent=1))
    return 1 if snap["failed"] else 0


def _parse_diff_options(src: str):
    """``'key=val,key=val'`` live-source grammar -> an options dict."""
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
    compares two engines live; default ``fast``), ``algorithm``,
    ``dataset``, ``schedule``, ``scale``, ``iterations``, plus any
    numeric :class:`GPUConfig` field as an override (``alu_latency=2``)
    — the deliberate-perturbation lever.
    """
    import dataclasses

    from repro.sim.engines import available_engines

    def number(key, raw, kinds):
        """``raw`` parsed by the first of ``kinds`` that accepts it."""
        for kind in kinds:
            try:
                return kind(raw)
            except ValueError:
                pass
        raise ReproError(f"diff option {key}={raw!r} must be "
                         + " or ".join(kind.__name__ for kind in kinds))

    opts = dict(opts)
    engine = opts.pop("engine", None)
    if engine is not None and engine not in available_engines():
        raise ReproError(
            f"unknown engine {engine!r}; available: "
            f"{available_engines()}")
    algorithm = opts.pop("algorithm", "pagerank")
    dataset_name = opts.pop("dataset", "bio-human")
    schedule = opts.pop("schedule", "sparseweaver")
    scale = number("scale", opts.pop("scale", "0.25"), (float,))
    iterations = number("iterations", opts.pop("iterations", "2"), (int,))
    config_fields = {f.name for f in dataclasses.fields(GPUConfig)}
    overrides = {key: number(key, opts.pop(key), (int, float))
                 for key in list(opts) if key in config_fields}
    if opts:
        raise ReproError(
            f"unknown diff option(s) {sorted(opts)}; expected engine/"
            "algorithm/dataset/schedule/scale/iterations or a numeric "
            "GPUConfig field")
    config = dataclasses.replace(GPUConfig.vortex_bench(), **overrides)
    return _job_spec(algorithm, dataset_name, schedule, scale, iterations,
                     config=config, engine=engine)


def _diff_side(src: str, interval):
    """One ``--a``/``--b`` source -> ``(runs, spec, kind)``.

    ``runs`` maps each job's content hash to ``(label, summary)``.
    ``spec`` is the live-side JobSpec (``None`` for journal/cache
    sources — those can only be compared, not replayed).
    """
    from pathlib import Path

    from repro.obs.provenance import enable_digests
    from repro.runtime.cache import ResultCache
    from repro.runtime.journal import read_journal

    path = Path(src)
    if path.is_dir():
        runs = {key: (label, summary) for key, label, summary
                in ResultCache(path).stored_runs()}
        if not runs:
            raise ReproError(f"cache directory {src} holds no "
                             "readable entries")
        return runs, None, "cache"
    if path.is_file():
        lines, _skipped = read_journal(path)
        runs = {line["hash"]: (line.get("label") or line["hash"],
                               line["summary"])
                for line in lines if "summary" in line}
        if not runs:
            raise ReproError(f"journal {src} holds no completion "
                             "records")
        return runs, None, "journal"
    spec = _diff_live_spec(_parse_diff_options(src))
    enable_digests(interval)
    from repro.runtime.engine import _execute_spec

    return ({spec.content_hash(): (spec.label, _execute_spec(spec))},
            spec, "live")


def _diff_replay(path, spec_a, spec_b, kernel: int) -> str:
    """Re-run both live sides, each on its own engine, recording only
    ``kernel``; write a side-by-side Chrome trace and return its path."""
    from repro.obs.provenance import KernelWindowTracer
    from repro.sim.trace import execution_trace_events

    events = []
    for spec, label, pid_base in ((spec_a, "A", 1000),
                                  (spec_b, "B", 5000)):
        window = KernelWindowTracer(kernel)
        spec.execute(tracer=window)
        events.extend(execution_trace_events(
            window.inner, pid_base=pid_base,
            label=f"{label}:{spec.label}"))
    return _write_trace(path, events)


def _pair_live(live: dict, stored: dict) -> dict:
    """The stored runs a live diff side pairs with, keyed like it.

    The stored job with the live job's content hash pairs first.
    Without one, the only stored job with the live job's label pairs,
    re-keyed to the live hash; several such jobs are ambiguous.
    """
    (key, (label, _summary)), = live.items()
    if key in stored:
        return stored
    twins = sorted(other for other, (name, _s) in stored.items()
                   if name == label)
    if len(twins) > 1:
        raise ReproError(
            f"the live job {label} [{key[:12]}] has no stored twin "
            f"with its content hash, and {len(twins)} stored jobs "
            f"share its label: {', '.join(h[:12] for h in twins)}")
    return {key: stored[twins[0]]} if twins else stored


def _cmd_diff(args) -> int:
    import json as json_mod

    from repro.obs.provenance import (context_window, describe_coord,
                                      diff_ledgers)

    runs_a, spec_a, kind_a = _diff_side(args.a, args.interval)
    runs_b, spec_b, kind_b = _diff_side(args.b, args.interval)
    by_label = kind_a == kind_b == "live"
    # Jobs paired by content hash ran one spec, so their result values
    # must match too; a label pairing may join two configs, whose
    # accumulation order (and so values) may differ.
    by_hash = not by_label
    if by_label:
        # Two live jobs may differ in config (the perturbation lever),
        # so they pair by label, not by content hash.
        runs_a, runs_b = ({label: (label, summary)
                           for label, summary in runs.values()}
                          for runs in (runs_a, runs_b))
    elif kind_a == "live":
        by_hash = next(iter(runs_a)) in runs_b
        runs_b = _pair_live(runs_a, runs_b)
    elif kind_b == "live":
        by_hash = next(iter(runs_b)) in runs_a
        runs_a = _pair_live(runs_b, runs_a)
    common = sorted(set(runs_a) & set(runs_b),
                    key=lambda key: (runs_a[key][0], key))
    if not common:
        raise ReproError(
            f"no common jobs between --a ({kind_a}: {len(runs_a)} "
            f"run(s)) and --b ({kind_b}: {len(runs_b)} run(s)) — "
            "jobs pair by content hash; a live job without a stored "
            "twin pairs with the one stored job of its label, and two "
            "live jobs pair by label")

    jobs = []
    missing = 0
    for key in common:
        label, summary_a = runs_a[key]
        summary_b = runs_b[key][1]
        la = summary_a.get("digest_ledger")
        lb = summary_b.get("digest_ledger")
        if la is None and lb is None:
            missing += 1
            continue
        diffs = diff_ledgers(la, lb)
        entry = {"label": label, "divergences": len(diffs)}
        if not by_label:
            entry["hash"] = key
        values = [summary.get("values_digest")
                  for summary in (summary_a, summary_b)]
        if by_hash and values[0] != values[1]:
            entry["divergences"] += 1
            entry["values"] = {"a": values[0], "b": values[1]}
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
        # Two live sides pair by label, so only ledgers can diverge.
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
            "values_compared": by_hash,
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
        name = job["label"] + (f" [{job['hash'][:12]}]"
                               if "hash" in job else "")
        if not job["divergences"]:
            print(f"  {name}: ledgers identical"
                  + (", values identical" if by_hash else ""))
            continue
        if "values" in job:
            print(f"  {name}: values differ "
                  f"(a={job['values']['a']}, b={job['values']['b']})")
        if "first" not in job:
            continue
        first = job["first"]
        print(f"  {name}: {job['divergences']} diverging "
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
        job = divergent[0]
        print(f"FIRST DIVERGENCE: {job['label']} at "
              + (job["first"]["where"] if "first" in job
                 else "its result values"))
        return 1
    print("no divergences: every compared ledger matches"
          + (", and so do the values" if by_hash else ""))
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
    "diff": _cmd_diff,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes: 0 success; 1 at least one job failed (partial results
    were still emitted under ``--keep-going``); 2 configuration error;
    130 interrupted (SIGINT) — rerunning against the same result cache
    simulates only the jobs that did not finish.
    """
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
