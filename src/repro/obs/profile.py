"""Host-side self-profiler.

Everything else in :mod:`repro.obs` attributes *simulated* cycles
(stall classes, phase cycles); this module attributes **host
wall-time** — where the pure-Python simulator actually spends the
seconds — so optimization work on the interpreter starts from a
measurement instead of a guess.  Two layers:

* :class:`PhaseProfiler` — section timers in the simulator's event
  loop (:mod:`repro.sim.gpu`: setup, warp scheduling, record draw,
  execute, memory walk, accounting, finalize) accumulate
  wall-seconds and call counts per phase, plus per-opcode
  execute-time histograms and a derived
  ``simulated_cycles_per_wall_second`` per kernel.  Disabled by
  default: every hook is behind a single local truth test, so cycle
  counts stay bit-identical and the overhead is one comparison per
  instrumented section.  Enable with ``REPRO_PROFILE=1`` or
  :func:`enable_profiling`.
* :class:`StackSampler` — an opt-in wall-clock sampler of the main
  thread (a daemon thread polling ``sys._current_frames()``; a
  ``sys.setprofile``/``sys.monitoring`` hook would slow the
  interpreter 2-4x, defeating the measurement, so sampling is the
  deliberate choice).  Emits collapsed-stack lines
  (``a;b;c count`` — flamegraph.pl / speedscope / inferno format) and
  Chrome-trace span events that merge into the existing
  :class:`~repro.obs.tracing.Tracer` export so host-time and
  simulated-time views line up in Perfetto.

Profiler state crosses process boundaries as snapshots, exactly like
:class:`~repro.obs.metrics.MetricsRegistry`: pool workers ship
:meth:`PhaseProfiler.snapshot` home with their results and the parent
folds them back with :meth:`~PhaseProfiler.merge_snapshot`.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from bisect import bisect_left
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import get_registry, percentile_from_counts

#: Environment switch; any non-empty value enables the profiler.
PROFILE_ENV = "REPRO_PROFILE"


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes (0 if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; the value
    is a high-water mark, so it only ever grows.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak if sys.platform == "darwin" else peak * 1024)


#: Per-opcode execute-time bucket bounds (seconds).  One simulated
#: instruction's host cost sits in the hundreds of nanoseconds to
#: tens of microseconds; the tail buckets catch pathological ops.
OP_BUCKETS: Tuple[float, ...] = (
    5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 1e-3, 1e-2,
)

#: Phase-name convention: names containing ``/`` (``mem/access``,
#: ``stats/merge``) are *nested* inside a top-level phase and are
#: excluded from the coverage total, so wall-time is never
#: double-counted.
NESTED_SEP = "/"


class PhaseProfiler:
    """Wall-time and call-count accumulation per simulator phase.

    Phases are flat named accumulators; the hot path calls
    :meth:`add` / :meth:`add_op` only when :attr:`enabled` is true
    (callers hoist the check into a local), so a disabled profiler
    costs nothing and cannot perturb simulated cycle counts.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        #: phase name -> [seconds, calls]
        self.phases: Dict[str, List[float]] = {}
        #: opcode name -> [seconds, calls, per-bucket counts]
        self.ops: Dict[str, List[Any]] = {}
        self.kernels = 0
        self.sim_wall_seconds = 0.0
        self.sim_cycles = 0
        #: Last totals folded into the metrics registry, so per-kernel
        #: publication ships deltas, never double-counts.
        self._published: Dict[str, Tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # hot-path accumulation
    # ------------------------------------------------------------------
    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Accumulate one timed section into phase ``name``."""
        cell = self.phases.get(name)
        if cell is None:
            self.phases[name] = [seconds, calls]
        else:
            cell[0] += seconds
            cell[1] += calls

    def add_op(self, op: str, seconds: float) -> None:
        """Accumulate one instruction execute into the op histogram.

        Also feeds the top-level ``execute`` phase, so the per-opcode
        view decomposes it rather than adding to it.
        """
        self.add("execute", seconds)
        cell = self.ops.get(op)
        if cell is None:
            cell = [0.0, 0, [0] * (len(OP_BUCKETS) + 1)]
            self.ops[op] = cell
        cell[0] += seconds
        cell[1] += 1
        cell[2][bisect_left(OP_BUCKETS, seconds)] += 1

    def end_kernel(self, cycles: int, wall_seconds: float) -> None:
        """Close one kernel: derived metrics + registry publication."""
        self.kernels += 1
        self.sim_cycles += int(cycles)
        self.sim_wall_seconds += wall_seconds
        registry = get_registry()
        if not registry.enabled:
            return
        registry.counter("sim_profile_kernels_total",
                         "Kernels profiled").inc()
        registry.gauge(
            "process_peak_rss_bytes",
            "Peak resident set size of the profiled process"
        ).set(peak_rss_bytes())
        registry.counter("sim_profile_wall_seconds_total",
                         "Host wall-seconds inside run_kernel"
                         ).inc(wall_seconds)
        if wall_seconds > 0:
            registry.gauge(
                "sim_profile_cycles_per_wall_second",
                "Simulated cycles per host second, last kernel"
            ).set(cycles / wall_seconds)
        seconds = registry.counter("sim_profile_phase_seconds_total",
                                   "Host wall-seconds by simulator phase")
        calls = registry.counter("sim_profile_phase_calls_total",
                                 "Hook calls by simulator phase")
        for name, (sec, count) in self.phases.items():
            prev_sec, prev_count = self._published.get(name, (0.0, 0.0))
            if sec > prev_sec:
                seconds.inc(sec - prev_sec, phase=name)
            if count > prev_count:
                calls.inc(count - prev_count, phase=name)
            self._published[name] = (sec, count)

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def cycles_per_wall_second(self) -> float:
        """Simulated throughput over every profiled kernel."""
        if self.sim_wall_seconds <= 0:
            return 0.0
        return self.sim_cycles / self.sim_wall_seconds

    def coverage(self) -> float:
        """Fraction of kernel wall-time the top-level phases explain.

        Nested phases (names containing ``/``) time sections already
        inside a top-level phase and are excluded.
        """
        if self.sim_wall_seconds <= 0:
            return 0.0
        top = sum(sec for name, (sec, _calls) in self.phases.items()
                  if NESTED_SEP not in name)
        return top / self.sim_wall_seconds

    def summary(self) -> Dict[str, Any]:
        """JSON-able rollup: top phases, op latencies, throughput."""
        phases = [
            {"phase": name, "seconds": round(sec, 6), "calls": int(calls),
             "share": round(sec / self.sim_wall_seconds, 4)
             if self.sim_wall_seconds > 0 else 0.0,
             "nested": NESTED_SEP in name}
            for name, (sec, calls) in sorted(
                self.phases.items(), key=lambda kv: -kv[1][0])
        ]
        ops = []
        for op, (sec, count, counts) in sorted(
                self.ops.items(), key=lambda kv: -kv[1][0]):
            ops.append({
                "op": op, "seconds": round(sec, 6), "calls": int(count),
                "mean_us": round(sec / count * 1e6, 3) if count else 0.0,
                "p50_us": round(percentile_from_counts(
                    OP_BUCKETS, counts, 50) * 1e6, 3),
                "p99_us": round(percentile_from_counts(
                    OP_BUCKETS, counts, 99) * 1e6, 3),
            })
        return {
            "kernels": self.kernels,
            "sim_wall_seconds": round(self.sim_wall_seconds, 6),
            "sim_cycles": self.sim_cycles,
            "cycles_per_wall_second": round(
                self.cycles_per_wall_second(), 1),
            "coverage": round(self.coverage(), 4),
            "peak_rss_bytes": peak_rss_bytes(),
            "phases": phases,
            "ops": ops,
        }

    def summary_payload(self, top: int = 6) -> Dict[str, Any]:
        """Compact summary for telemetry events (dashboard fodder)."""
        full = self.summary()
        return {
            "kernels": full["kernels"],
            "sim_wall_seconds": full["sim_wall_seconds"],
            "cycles_per_wall_second": full["cycles_per_wall_second"],
            "coverage": full["coverage"],
            "peak_rss_bytes": full["peak_rss_bytes"],
            "top_phases": [
                [p["phase"], p["seconds"], p["calls"]]
                for p in full["phases"] if not p["nested"]
            ][:top],
        }

    def format(self) -> str:
        """Human-readable profile block (CLI / report output)."""
        data = self.summary()
        lines = [
            (f"host profile: {data['kernels']} kernel(s), "
             f"{data['sim_wall_seconds']:.3f}s simulator wall, "
             f"{data['cycles_per_wall_second']:,.0f} cycles/s, "
             f"{data['coverage'] * 100:.1f}% phase coverage, "
             f"{data['peak_rss_bytes'] / 2**20:.0f} MiB peak rss"),
        ]
        for p in data["phases"]:
            indent = "    " if p["nested"] else "  "
            lines.append(
                f"{indent}{p['phase']:<12} {p['seconds']:>9.3f}s "
                f"{p['share'] * 100:>5.1f}%  {p['calls']:>12,} calls")
        for op in data["ops"][:8]:
            lines.append(
                f"  op {op['op']:<14} {op['seconds']:>8.3f}s "
                f"{op['calls']:>12,} x {op['mean_us']:>8.3f}us mean "
                f"(p50 {op['p50_us']:.2f}, p99 {op['p99_us']:.2f})")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # snapshot / merge / persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-able dump for process transport and report files."""
        return {"profile": {
            "kernels": self.kernels,
            "sim_wall_seconds": self.sim_wall_seconds,
            "sim_cycles": self.sim_cycles,
            "phases": {name: {"seconds": sec, "calls": int(calls)}
                       for name, (sec, calls)
                       in sorted(self.phases.items())},
            "ops": {op: {"seconds": sec, "calls": int(count),
                         "buckets": list(OP_BUCKETS),
                         "counts": list(counts)}
                    for op, (sec, count, counts)
                    in sorted(self.ops.items())},
        }}

    def merge_snapshot(self, snap: Dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` from another process into this one.

        A disabled profiler ignores the snapshot, mirroring
        :meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshot`.
        A worker that died before its first phase ships ``None`` or an
        empty snapshot; merging those must be a no-op, never an error.
        """
        if not self.enabled or not isinstance(snap, dict):
            return
        data = snap.get("profile") or {}
        self.kernels += int(data.get("kernels", 0))
        self.sim_wall_seconds += float(data.get("sim_wall_seconds", 0.0))
        self.sim_cycles += int(data.get("sim_cycles", 0))
        for name, cell in data.get("phases", {}).items():
            self.add(name, float(cell.get("seconds", 0.0)),
                     int(cell.get("calls", 0)))
        for op, cell in data.get("ops", {}).items():
            dst = self.ops.get(op)
            if dst is None:
                dst = [0.0, 0, [0] * (len(OP_BUCKETS) + 1)]
                self.ops[op] = dst
            dst[0] += float(cell.get("seconds", 0.0))
            dst[1] += int(cell.get("calls", 0))
            counts = cell.get("counts", [])
            if len(counts) != len(dst[2]):
                raise ValueError(
                    f"op histogram {op!r} bucket mismatch while merging "
                    f"({len(counts)} vs {len(dst[2])} counts)")
            for i, c in enumerate(counts):
                dst[2][i] += c

    def clear(self) -> None:
        """Drop every accumulator (enabled/disabled state is kept)."""
        self.phases.clear()
        self.ops.clear()
        self._published.clear()
        self.kernels = 0
        self.sim_wall_seconds = 0.0
        self.sim_cycles = 0

    def save(self, path) -> Path:
        """Write :meth:`snapshot` as JSON; returns the path written."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.snapshot(), sort_keys=True,
                                   indent=1) + "\n")
        return path


# ----------------------------------------------------------------------
# Process-global profiler (the instance the simulator hooks use)
# ----------------------------------------------------------------------
_PROFILER = PhaseProfiler(
    enabled=bool(os.environ.get(PROFILE_ENV, "").strip())
)


def get_profiler() -> PhaseProfiler:
    """The process-global profiler the simulator hot path consults."""
    return _PROFILER


def profiling_enabled() -> bool:
    """Whether the global profiler is collecting."""
    return _PROFILER.enabled


def enable_profiling() -> PhaseProfiler:
    """Turn the global profiler on; returns it for convenience.

    Also sets ``REPRO_PROFILE=1`` in this process's environment so
    pool worker processes spawned later come up profiling —
    snapshots they ship home then merge into this profiler.
    """
    _PROFILER.enabled = True
    os.environ[PROFILE_ENV] = "1"
    return _PROFILER


def disable_profiling(clear: bool = False) -> PhaseProfiler:
    """Turn the global profiler off (optionally dropping its data)."""
    _PROFILER.enabled = False
    os.environ.pop(PROFILE_ENV, None)
    if clear:
        _PROFILER.clear()
    return _PROFILER


@contextmanager
def phase(name: str):
    """Time one non-hot-path section into the global profiler.

    A no-op (one truth test) when profiling is disabled; hot loops
    should hoist ``get_profiler().enabled`` into a local and call
    :meth:`PhaseProfiler.add` directly instead.
    """
    if not _PROFILER.enabled:
        yield
        return
    start = perf_counter()
    try:
        yield
    finally:
        _PROFILER.add(name, perf_counter() - start)


# ----------------------------------------------------------------------
# Sampling profiler (flamegraphs + Chrome-trace host spans)
# ----------------------------------------------------------------------
class StackSampler:
    """Periodic stack sampler of one thread (the main thread default).

    A daemon thread wakes every ``interval`` seconds and snapshots the
    target thread's Python stack via ``sys._current_frames()`` — the
    py-spy-style approach, chosen over ``sys.setprofile`` /
    ``sys.monitoring`` callbacks because per-call hooks slow the
    interpreter severely enough to invalidate the numbers being
    collected.  Overhead is one stack walk per sample.
    """

    def __init__(self, interval: float = 0.005,
                 max_samples: int = 200_000,
                 max_depth: int = 64,
                 thread_id: Optional[int] = None) -> None:
        self.interval = float(interval)
        self.max_samples = int(max_samples)
        self.max_depth = int(max_depth)
        self.thread_id = (thread_id if thread_id is not None
                          else threading.main_thread().ident)
        #: (perf_counter seconds, frame tuple root-first)
        self.samples: List[Tuple[float, Tuple[str, ...]]] = []
        self.dropped = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> "StackSampler":
        """Begin sampling (idempotent)."""
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-sampler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> "StackSampler":
        """Stop sampling and join the sampler thread."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None
        return self

    def __enter__(self) -> "StackSampler":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            frame = sys._current_frames().get(self.thread_id)
            if frame is None:
                continue
            stack: List[str] = []
            while frame is not None and len(stack) < self.max_depth:
                code = frame.f_code
                stack.append(
                    f"{Path(code.co_filename).stem}:{code.co_name}")
                frame = frame.f_back
            stack.reverse()
            if len(self.samples) >= self.max_samples:
                self.dropped += 1
                continue
            self.samples.append((perf_counter(), tuple(stack)))

    # ------------------------------------------------------------------
    def collapsed(self) -> List[str]:
        """Collapsed-stack lines (``a;b;c count``), sorted by count."""
        counts: Dict[Tuple[str, ...], int] = {}
        for _ts, stack in self.samples:
            counts[stack] = counts.get(stack, 0) + 1
        return [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(counts.items(),
                                       key=lambda kv: (-kv[1], kv[0]))
        ]

    def save_collapsed(self, path) -> Path:
        """Write :meth:`collapsed` lines (flamegraph.pl input)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(self.collapsed()) + "\n")
        return path

    def trace_events(self, pid: int = 4242,
                     epoch: Optional[float] = None
                     ) -> List[Dict[str, Any]]:
        """Chrome-trace span events, mergeable into a Tracer export.

        Consecutive samples with an identical stack coalesce into one
        span named after the leaf frame.  ``epoch`` is the
        ``perf_counter`` origin of the target trace (e.g.
        :attr:`repro.obs.tracing.Tracer.epoch`) so host-sampler spans
        line up with the tracer's wall spans; it defaults to the first
        sample's timestamp.
        """
        if not self.samples:
            return []
        if epoch is None:
            epoch = self.samples[0][0]
        events: List[Dict[str, Any]] = [
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": "host sampler"}},
            {"ph": "M", "name": "thread_name", "pid": pid, "tid": 0,
             "args": {"name": f"sampled stack ({self.interval * 1e3:g}ms)"}},
        ]
        run_start, run_last, run_stack = None, None, None
        for ts, stack in self.samples:
            if stack == run_stack:
                run_last = ts
                continue
            if run_stack is not None:
                events.append(self._span(run_start, run_last, run_stack,
                                         pid, epoch))
            run_start = run_last = ts
            run_stack = stack
        events.append(self._span(run_start, run_last, run_stack, pid,
                                 epoch))
        return events

    def _span(self, start: float, last: float, stack: Tuple[str, ...],
              pid: int, epoch: float) -> Dict[str, Any]:
        leaf = stack[-1] if stack else "?"
        return {
            "ph": "X", "name": leaf, "cat": "host_sample",
            "ts": round((start - epoch) * 1e6, 3),
            "dur": round(max((last - start + self.interval) * 1e6, 1.0),
                         3),
            "pid": pid, "tid": 0,
            "args": {"stack": ";".join(stack[-12:])},
        }

