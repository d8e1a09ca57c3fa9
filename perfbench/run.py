"""Repository benchmark: how fast the SparseWeaver simulator runs.

Host-time throughput of the cycle-level simulator, its set-up cost and
peak memory, on three workloads (``workloads.py``)::

    python3 perfbench/run.py --workload replay --seed 1 --seconds 25 --trace 0

Run from the repository root; it reads ``src/``, writes nothing but
Python's bytecode caches, and starts no processes.
Work is repeated in rounds for ``--seconds``; every timing is host time
normalized to a reference host speed (``hostclock.py``) and reported as
a median.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer metrics from kernel
spans and the simulator's phase profiler (``tracing.py``) with
``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

WORKLOAD_NAMES = ("weaver", "replay", "registry")

#: Input builds behind the set-up median.
SETUP_REPEATS = 21


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure_setup(workload, seed: int, engine: str, clock):
    """Build the inputs ``SETUP_REPEATS`` times; returns the inputs and
    the median normalized build time."""
    builds = []
    for _ in range(SETUP_REPEATS):
        inputs = clock.run(workload.build, seed, engine)
        builds.append(clock.take()[1])
    return inputs, _median(builds)


def run_rounds(workload, inputs, seconds: float, clock,
               spans=None) -> List[dict]:
    """Repeat rounds until ``seconds`` of raw host time have passed.

    With ``spans`` every round is traced and every other round also
    runs under the simulator's phase profiler.
    """
    from tracing import PhaseWindow

    rounds: List[dict] = []
    elapsed = 0.0
    while not rounds or elapsed < seconds:
        window = PhaseWindow() if spans and len(rounds) % 2 else None
        if window is None:
            jobs = workload.run_round(inputs, clock)
        else:
            with window:
                jobs = workload.run_round(inputs, clock)
        raw, normalized = clock.take()
        elapsed += raw
        rounds.append({
            "raw": raw,
            "seconds": normalized,
            "jobs": jobs,
            "kernels": spans.take() if spans else None,
            "phases": window,
        })
    return rounds


def determinism_errors(rounds: List[dict]) -> List[str]:
    """Every round must reproduce the first round's cycles and values."""
    first = rounds[0]["jobs"]
    errors = []
    for index, rnd in enumerate(rounds[1:], start=1):
        for a, b in zip(first, rnd["jobs"]):
            if a.fingerprint != b.fingerprint:
                errors.append(f"{b.label}: round {index} differs from "
                              "round 0")
    return errors


def _cycles(rnd: dict) -> int:
    return sum(job.cycles for job in rnd["jobs"])


def end_to_end(rounds: List[dict], setup_s: float,
               peak_rss_mib: float) -> Dict[str, tuple]:
    return {
        "jobs_per_s": (
            _median([len(rnd["jobs"]) / rnd["seconds"] for rnd in rounds]),
            "1/s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(rounds: List[dict], setup_s: float,
              calibrations: List[float]) -> Dict[str, tuple]:
    """Per-layer metrics; times are raw host seconds per round."""
    from tracing import LOOP_SHARES, PATHS

    timed = [rnd for rnd in rounds if rnd["phases"] is None]
    profiled = [rnd["phases"] for rnd in rounds if rnd["phases"] is not None]

    def per_round(fn) -> float:
        return _median([fn(rnd) for rnd in timed])

    def kernel_s(rnd) -> float:
        return sum(rnd["kernels"].seconds.values())

    def job_s(rnd) -> float:
        return sum(job.seconds for job in rnd["jobs"])

    def time_share(path):
        return lambda rnd: (rnd["kernels"].seconds[path] / kernel_s(rnd)
                            if kernel_s(rnd) else 0.0)

    def replayed_cycle_share(rnd) -> float:
        cycles = rnd["kernels"].cycles
        total = sum(cycles.values())
        return ((cycles["replayed"] + cycles["recorded"]) / total
                if total else 0.0)

    metrics = {
        "input_build_s": (setup_s, "s"),
        "driver_s": (per_round(lambda r: job_s(r) - kernel_s(r)), "s"),
        "kernel_s": (per_round(kernel_s), "s"),
        "outside_jobs_s": (per_round(lambda r: r["raw"] - job_s(r)), "s"),
        "calibration_ms": (_median(calibrations) * 1e3, "ms"),
        "sim_cycles": (per_round(_cycles), "count"),
        "sim_cycles_per_s": (per_round(lambda r: _cycles(r) / r["seconds"]),
                             "cycles/s"),
        "replayed_cycle_share": (per_round(replayed_cycle_share), "ratio"),
    }
    for path in PATHS:
        metrics[f"{path}_time_share"] = (per_round(time_share(path)),
                                         "ratio")
        metrics[f"{path}_kernels"] = (
            per_round(lambda r, p=path: r["kernels"].launches[p]), "count")
    shares = [window.loop_shares() for window in profiled]
    for name in LOOP_SHARES:
        metrics[name] = (_median([s[name] for s in shares]), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Measure the defaults: no engine override, result cache, fault
    # plan, profiler or metrics unless the benchmark turns them on.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))

    from hostclock import HostClock
    from tracing import KernelSpans, traced_engine
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    spans = KernelSpans() if args.trace else None
    engine = (traced_engine(workload.engine, spans) if spans
              else workload.engine)

    clock = HostClock()
    inputs, setup_s = measure_setup(workload, args.seed, engine, clock)
    rounds = run_rounds(workload, inputs, args.seconds, clock, spans)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    jobs = [job for rnd in rounds for job in rnd["jobs"]]
    errors = [job.error for job in jobs if job.error]
    errors += determinism_errors(rounds)
    errors += workload.check(inputs, rounds[0]["jobs"])
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} round(s), {len(jobs)} job(s), "
          f"{len(errors)} check failure(s)", file=sys.stderr)

    if args.trace:
        metrics = per_layer(rounds, setup_s, clock.calibrations)
    else:
        metrics = end_to_end(rounds, setup_s, peak_rss_mib)
    print(json.dumps({
        "correct": not errors,
        "attempted": len(jobs),
        "failed": sum(1 for job in jobs if job.error),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
