"""Chrome trace export of the simulated-cycle timeline."""

import json

from repro.algorithms import make_algorithm
from repro.bench import run_single
from repro.graph import powerlaw_graph
from repro.sim import GPUConfig
from repro.sim.trace import ExecutionTracer, execution_trace_events


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
    """Instruction rows and stall rows share one trace document."""
    exec_tracer = run_traced_kernel()
    path = tmp_path / "combined.json"
    path.write_text(json.dumps(
        {"traceEvents": execution_trace_events(exec_tracer)}))
    doc = json.loads(path.read_text())
    cats = {e.get("cat") for e in doc["traceEvents"] if e["ph"] == "X"}
    assert "GATHER" in cats and "stall" in cats
