"""Span tracer and Chrome trace export: round-trip, clocks, stalls."""

import json

import pytest

from repro.algorithms import make_algorithm
from repro.bench import run_single
from repro.graph import powerlaw_graph
from repro.obs.tracing import (NULL_TRACER, Tracer, execution_trace_events)
from repro.sim import GPUConfig
from repro.sim.trace import ExecutionTracer


def test_span_context_manager_records():
    tracer = Tracer()
    with tracer.span("work", cat="phase", iteration=1) as sp:
        sp.args["cycles"] = 42
    assert len(tracer.spans) == 1
    span = tracer.spans[0]
    assert span.name == "work"
    assert span.args == {"iteration": 1, "cycles": 42}
    assert span.dur_us >= 0


def test_span_recorded_even_when_body_raises():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("x")
    assert [s.name for s in tracer.spans] == ["boom"]


def test_null_tracer_collects_nothing():
    with NULL_TRACER.span("work") as sp:
        sp.args["cycles"] = 1  # accepted, discarded
    NULL_TRACER.add_span("x", "c", 0, 1)
    NULL_TRACER.instant("mark")
    assert len(NULL_TRACER) == 0


def test_chrome_trace_round_trip(tmp_path):
    tracer = Tracer(pid=7)
    with tracer.span("init", cat="kernel"):
        pass
    with tracer.span("gather", cat="kernel", tid="other"):
        pass
    tracer.instant("iteration-done")
    path = tracer.save(tmp_path / "trace.json")

    doc = json.loads(path.read_text())  # valid JSON by construction
    events = doc["traceEvents"]
    assert all(e["ph"] in ("X", "M", "i") for e in events)
    # Named tracks: one process metadata record plus one thread_name
    # per distinct tid string.
    thread_names = {e["args"]["name"] for e in events
                    if e["ph"] == "M" and e["name"] == "thread_name"}
    assert {"main", "other"} <= thread_names
    # Timestamps are monotonic within each (pid, tid) track.
    per_track = {}
    for e in events:
        if e["ph"] in ("X", "i"):
            per_track.setdefault((e["pid"], e["tid"]), []).append(e["ts"])
    for track, stamps in per_track.items():
        assert stamps == sorted(stamps), track


def run_traced_kernel():
    tracer = ExecutionTracer()
    run_single(make_algorithm("pagerank", iterations=1),
               powerlaw_graph(60, 240, seed=5), "warp_map",
               config=GPUConfig.vortex_tiny(), max_iterations=1,
               exec_tracer=tracer)
    return tracer


def test_execution_trace_events_shape():
    exec_tracer = run_traced_kernel()
    assert exec_tracer.events and exec_tracer.stalls
    events = execution_trace_events(exec_tracer, pid_base=2000)

    spans = [e for e in events if e["ph"] == "X"]
    assert all(e["pid"] >= 2000 for e in spans)
    assert all(e["dur"] >= 1 for e in spans)
    stall_spans = [e for e in spans if e["cat"] == "stall"]
    assert stall_spans and all(e["tid"] >= 100 for e in stall_spans)
    # The stall rows carry exactly the attributed cycles.
    assert (sum(e["args"]["cycles"] for e in stall_spans)
            == sum(exec_tracer.stall_summary().values()))
    # Each simulated core became a named Perfetto process.
    process_pids = {e["pid"] for e in events
                    if e["ph"] == "M" and e["name"] == "process_name"}
    assert process_pids == {2000 + e.core for e in exec_tracer.events}


def test_combined_trace_serializes(tmp_path):
    exec_tracer = run_traced_kernel()
    tracer = Tracer()
    with tracer.span("kernel", cat="kernel"):
        pass
    path = tracer.save(tmp_path / "combined.json",
                       execution_trace_events(exec_tracer))
    doc = json.loads(path.read_text())
    cats = {e.get("cat") for e in doc["traceEvents"] if e["ph"] == "X"}
    assert "kernel" in cats and "stall" in cats
