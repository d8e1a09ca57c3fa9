"""Optional execution tracing for the simulator.

Attach an :class:`ExecutionTracer` to ``GPU.run_kernel(tracer=...)`` to
record every issued instruction — (time, core, warp, op, phase,
completion) — and every attributed stall gap — (time, core, warp,
stall class, cycles). Used for debugging kernels, for the
pipeline-diagram style inspection the SimX simulator offers, and as
the source of the Chrome trace ``repro run --trace`` and ``repro diff
--replay`` write (:func:`execution_trace_events`).

A tracer is an event-loop *observer*: it implements ``on_issue``,
``on_stall``, ``on_mem`` and ``on_kernel``, the one hook surface the
loop in :mod:`repro.sim.gpu` calls for every observer of a kernel.
Replayed kernels report the same events as live ones.

Both event streams are bounded; when a bound is hit the tracer warns
once and counts everything it drops, so a truncated trace is always
visibly truncated (``summary()`` / ``repr``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.sim.instructions import Op, Phase
from repro.sim.stats import StallCat


@dataclass(frozen=True)
class TraceEvent:
    """One issued warp instruction."""

    time: int
    core: int
    warp: int
    op: Op
    phase: Phase
    done: int

    @property
    def latency(self) -> int:
        """Completion minus issue time."""
        return self.done - self.time


@dataclass(frozen=True)
class StallEvent:
    """One attributed stall gap (a warp waited before issuing)."""

    time: int
    core: int
    warp: int
    cat: StallCat
    cycles: int


class ExecutionTracer:
    """Bounded in-memory instruction + stall trace."""

    def __init__(self, max_events: int = 100_000) -> None:
        self.max_events = max_events
        self.events: List[TraceEvent] = []
        self.stalls: List[StallEvent] = []
        self.dropped = 0
        self.dropped_stalls = 0
        self._warned = False

    def _warn_truncation(self) -> None:
        if self._warned:
            return
        self._warned = True
        warnings.warn(
            f"ExecutionTracer bound of {self.max_events} events reached; "
            "further events are dropped (counted in summary()['dropped'])",
            RuntimeWarning, stacklevel=3,
        )

    def on_issue(self, time: int, core: int, warp: int, op: Op,
                 phase: Phase, done: int) -> None:
        """Append one instruction event (drops beyond the bound)."""
        if len(self.events) >= self.max_events:
            self.dropped += 1
            self._warn_truncation()
            return
        self.events.append(TraceEvent(time, core, warp, op, phase, done))

    def on_stall(self, time: int, core: int, warp: int,
                 cat: StallCat, cycles: int) -> None:
        """Append one stall event (drops beyond the bound)."""
        if len(self.stalls) >= self.max_events:
            self.dropped_stalls += 1
            self._warn_truncation()
            return
        self.stalls.append(StallEvent(time, core, warp, cat, cycles))

    def on_mem(self, time: int, core: int, lines: int,
               latency: int) -> None:
        """Memory walks are not traced."""

    def on_kernel(self, stats) -> None:
        """Kernel boundaries are not traced."""

    # ------------------------------------------------------------------
    def filter(self, op: Optional[Op] = None, core: Optional[int] = None,
               warp: Optional[int] = None) -> List[TraceEvent]:
        """Events matching the given criteria."""
        out = self.events
        if op is not None:
            out = [e for e in out if e.op == op]
        if core is not None:
            out = [e for e in out if e.core == core]
        if warp is not None:
            out = [e for e in out if e.warp == warp]
        return out

    def stall_summary(self) -> Dict[StallCat, int]:
        """Recorded stall cycles folded by category."""
        out: Dict[StallCat, int] = {}
        for s in self.stalls:
            out[s.cat] = out.get(s.cat, 0) + s.cycles
        return out

    def summary(self) -> Dict[str, int]:
        """Counts of what was recorded — and what was not.

        ``dropped``/``dropped_stalls`` are nonzero exactly when the
        bound was hit; downstream reports must surface them so a
        truncated trace is never mistaken for a complete one.
        """
        return {
            "events": len(self.events),
            "stalls": len(self.stalls),
            "max_events": self.max_events,
            "dropped": self.dropped,
            "dropped_stalls": self.dropped_stalls,
        }

    def timeline(self, core: int, limit: int = 50) -> str:
        """Human-readable per-core issue log."""
        lines = [
            f"t={e.time:<8} w{e.warp:<3} {e.op.name:<14} "
            f"{e.phase.name:<12} done={e.done}"
            for e in self.filter(core=core)[:limit]
        ]
        return "\n".join(lines)

    def occupancy_chart(self, core: int = 0, buckets: int = 60) -> str:
        """ASCII issue-density timeline: one row per warp, one column
        per time bucket; darker marks mean more instructions issued in
        that window. The at-a-glance view of imbalance: a lone busy row
        is the straggler warp everyone else lockstep-waits for."""
        events = self.filter(core=core)
        if not events:
            return "(no events)"
        t_end = max(e.time for e in events) + 1
        warps = sorted({e.warp for e in events})
        grid = {w: [0] * buckets for w in warps}
        for e in events:
            grid[e.warp][min(buckets - 1, e.time * buckets // t_end)] += 1
        peak = max(max(row) for row in grid.values()) or 1
        shades = " .:*#"
        lines = [f"issue density, core {core}, 0..{t_end} cycles"]
        for w in warps:
            cells = "".join(
                shades[min(len(shades) - 1,
                           (count * (len(shades) - 1) + peak - 1) // peak)]
                for count in grid[w]
            )
            lines.append(f"w{w:<3}|{cells}|")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        extra = ""
        if self.dropped or self.dropped_stalls:
            extra = (f", TRUNCATED: dropped={self.dropped} "
                     f"dropped_stalls={self.dropped_stalls}")
        return (f"ExecutionTracer(events={len(self.events)}, "
                f"stalls={len(self.stalls)}, "
                f"max_events={self.max_events}{extra})")


def execution_trace_events(exec_tracer, pid_base: int = 1000,
                           label: str = "sim") -> List[Dict[str, Any]]:
    """Convert an :class:`ExecutionTracer` to Chrome trace events.

    One Perfetto process per simulated core (``pid_base + core``); one
    thread row per warp carrying instruction spans (name = opcode,
    category = execution phase), plus one row per stall class carrying
    the attributed stall spans recorded by the simulator.  Timestamps
    are simulated cycles (rendered as microseconds by the viewer).

    ``label`` names the process rows (``"<label> core N"``) so two
    tracers rendered into one file — ``repro diff --replay`` puts run A
    and run B side by side under distinct ``pid_base`` ranges — stay
    tellable apart in the viewer.
    """
    events: List[Dict[str, Any]] = []
    cores = sorted({e.core for e in exec_tracer.events}
                   | {s.core for s in exec_tracer.stalls})
    for core in cores:
        events.append({
            "ph": "M", "name": "process_name", "pid": pid_base + core,
            "tid": 0, "args": {"name": f"{label} core {core}"},
        })
    named: set = set()
    for e in exec_tracer.events:
        pid = pid_base + e.core
        if (pid, e.warp) not in named:
            named.add((pid, e.warp))
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid,
                "tid": e.warp, "args": {"name": f"warp {e.warp}"},
            })
        events.append({
            "ph": "X", "name": e.op.name, "cat": e.phase.name,
            "ts": e.time, "dur": max(e.latency, 1),
            "pid": pid, "tid": e.warp,
            "args": {"warp": e.warp, "core": e.core},
        })
    for s in exec_tracer.stalls:
        pid = pid_base + s.core
        tid = 100 + int(s.cat)
        if (pid, tid) not in named:
            named.add((pid, tid))
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid,
                "tid": tid, "args": {"name": f"stall:{s.cat.name}"},
            })
        events.append({
            "ph": "X", "name": f"stall:{s.cat.name}", "cat": "stall",
            "ts": s.time, "dur": max(s.cycles, 1),
            "pid": pid, "tid": tid,
            "args": {"warp": s.warp, "cycles": s.cycles},
        })
    return events
