"""The simulator engine registry and the ``engine=`` API surface.

Covers the registry contract (lookup, listing, registration,
resolution precedence), bit-exact parity between the fast and
reference engines, the auto engine's per-run selection, clean fallback
for uncovered kernels (with the ``sim_engine_fallback_total`` metric),
engine-blind job identity, and divergence bisection against a
deliberately broken engine.
"""

import json

import pytest

from repro.errors import ConfigError
from repro.frontend import GraphProcessor
from repro.graph import dataset
from repro.sim import GPUConfig
from repro.sim.engines import (DEFAULT_ENGINE, ENGINE_ENV,
                               SimulatorEngine, available_engines,
                               build_gpu, get_engine, register_engine,
                               resolve_engine_name)
from repro.sim.fast import FastGPU
from repro.sim.gpu import GPU


# ----------------------------------------------------------------- registry

def test_builtin_engines_registered():
    names = available_engines()
    assert "reference" in names
    assert "fast" in names
    assert "auto" in names
    assert names == sorted(names)


def test_get_engine_builds_expected_gpu_types():
    cfg = GPUConfig.vortex_bench()
    ref = get_engine("reference").build_gpu(cfg)
    fast = get_engine("fast").build_gpu(cfg)
    assert type(ref) is GPU
    assert isinstance(fast, FastGPU)
    assert isinstance(get_engine("reference"), SimulatorEngine)


def test_get_engine_unknown_name_errors():
    with pytest.raises(ConfigError, match="unknown simulator engine"):
        get_engine("warp9")


def test_register_engine_validates_shape():
    class NoBuild:
        name = "nobuild"

    with pytest.raises(ConfigError):
        register_engine(NoBuild())

    class NoName:
        def build_gpu(self, config, schedule=None):
            return GPU(config)

    with pytest.raises(ConfigError):
        register_engine(NoName())


def test_resolution_precedence(monkeypatch):
    monkeypatch.delenv(ENGINE_ENV, raising=False)
    assert resolve_engine_name(None) == DEFAULT_ENGINE
    monkeypatch.setenv(ENGINE_ENV, "fast")
    assert resolve_engine_name(None) == "fast"
    # An explicit argument beats the environment.
    assert resolve_engine_name("reference") == "reference"


def test_build_gpu_routes_through_registry():
    cfg = GPUConfig.vortex_bench()
    assert type(build_gpu(cfg)) is GPU
    assert isinstance(build_gpu(cfg, engine="fast"), FastGPU)


def test_auto_engine_selects_by_schedule():
    from repro.sched.registry import make_schedule

    cfg = GPUConfig.vortex_bench()
    auto = get_engine("auto")
    assert isinstance(
        auto.build_gpu(cfg, schedule=make_schedule("vertex_map")),
        FastGPU)
    weaver_gpu = auto.build_gpu(
        cfg, schedule=make_schedule("sparseweaver"))
    assert type(weaver_gpu) is GPU


def test_facade_reexports():
    import repro

    assert repro.get_engine is get_engine
    assert repro.SimulatorEngine is SimulatorEngine


# ------------------------------------------------------------------- parity

@pytest.mark.parametrize("schedule", ["vertex_map", "edge_map",
                                      "warp_map", "cta_map",
                                      "sparseweaver"])
def test_fast_engine_bit_identical(schedule):
    """Cycles, stall cells and summary dicts match the reference
    engine exactly — the tentpole guarantee."""
    from repro.runtime import AlgorithmSpec

    graph = dataset("bio-human", scale=0.1)
    results = {}
    for engine in ("reference", "fast"):
        proc = GraphProcessor(
            AlgorithmSpec.of("pagerank", iterations=2).build(),
            schedule=schedule, config=GPUConfig.vortex_bench(),
            engine=engine)
        results[engine] = proc.run(graph, max_iterations=2)
    ref, fast = results["reference"], results["fast"]
    assert fast.total_cycles == ref.total_cycles
    assert fast.iterations == ref.iterations
    assert fast.stats.to_summary_dict() == ref.stats.to_summary_dict()
    assert dict(fast.stats.stall_cells) == dict(ref.stats.stall_cells)
    assert (fast.values == ref.values).all()


# ----------------------------------------------------------------- fallback

def test_fast_unsupported_kernel_falls_back_cleanly():
    """A hardware-unit schedule under engine=fast falls back to the
    reference loop per kernel, increments the fallback metric, and
    still produces reference-identical results."""
    from repro.obs.metrics import (disable_metrics, enable_metrics,
                                   metrics_enabled)
    from repro.runtime import AlgorithmSpec

    graph = dataset("bio-human", scale=0.1)
    was_enabled = metrics_enabled()
    registry = enable_metrics()
    registry.clear()
    try:
        proc = GraphProcessor(
            AlgorithmSpec.of("pagerank", iterations=2).build(),
            schedule="sparseweaver", config=GPUConfig.vortex_bench(),
            engine="fast")
        fast = proc.run(graph, max_iterations=2)
        counter = registry.counter("sim_engine_fallback_total")
        assert counter.value(reason="unit") > 0
    finally:
        registry.clear()
        if not was_enabled:
            disable_metrics()

    ref = GraphProcessor(
        AlgorithmSpec.of("pagerank", iterations=2).build(),
        schedule="sparseweaver", config=GPUConfig.vortex_bench(),
        engine="reference").run(graph, max_iterations=2)
    assert fast.total_cycles == ref.total_cycles
    assert fast.stats.to_summary_dict() == ref.stats.to_summary_dict()


@pytest.mark.parametrize("schedule", ["vertex_map", "cta_map",
                                      "edge_map", "sparseweaver"])
def test_fast_engine_replays_under_execution_tracer(schedule):
    """An execution tracer is just an observer of the one loop: a
    traced fast run still stores and replays its gather trace (unit
    schedules aside), never falls back for the tracer, and logs
    exactly the reference run's issue and stall events."""
    from repro.obs.metrics import (disable_metrics, enable_metrics,
                                   metrics_enabled)
    from repro.runtime import AlgorithmSpec
    from repro.sim import engines as engines_mod
    from repro.sim.trace import ExecutionTracer

    built = []

    class SpyEngine:
        name = "fast-spy-for-test"

        def build_gpu(self, config, schedule=None):
            built.append(FastGPU(config))
            return built[-1]

    graph = dataset("bio-human", scale=0.1)
    was_enabled = metrics_enabled()
    registry = enable_metrics()
    registry.clear()
    register_engine(SpyEngine())
    tracers = {}
    try:
        for engine in ("reference", SpyEngine.name):
            tracer = ExecutionTracer(max_events=10 ** 6)
            GraphProcessor(
                AlgorithmSpec.of("pagerank", iterations=2).build(),
                schedule=schedule, config=GPUConfig.vortex_bench(),
                engine=engine, exec_tracer=tracer,
            ).run(graph, max_iterations=2)
            tracers[engine] = tracer
        fallbacks = registry.counter("sim_engine_fallback_total")
        assert fallbacks.value(reason="tracer") == 0
    finally:
        engines_mod._ENGINES.pop(SpyEngine.name, None)
        registry.clear()
        if not was_enabled:
            disable_metrics()
    (gpu,) = built
    # Two iterations: the second gather launch replays the stored trace.
    assert gpu.has_trace("gather") is (schedule != "sparseweaver")
    assert gpu.has_trace("init") and gpu.has_trace("apply")
    ref, fast = tracers["reference"], tracers[SpyEngine.name]
    assert ref.events and ref.stalls
    assert fast.summary() == ref.summary()
    assert fast.events == ref.events
    assert fast.stalls == ref.stalls


# ----------------------------------------------------------- job identity

def test_engine_excluded_from_spec_identity():
    """Engine-stamped specs keep the engine-less content hash, dict
    form and equality — same cycles means same cache address."""
    import dataclasses

    from repro.runtime import AlgorithmSpec, GraphSpec, JobSpec

    spec = JobSpec(
        algorithm=AlgorithmSpec.of("pagerank", iterations=1),
        graph=GraphSpec.from_dataset("bio-human", scale=0.1),
        schedule="vertex_map")
    stamped = dataclasses.replace(spec, engine="fast")
    assert stamped.engine == "fast"
    assert stamped == spec
    assert stamped.content_hash() == spec.content_hash()
    assert "engine" not in stamped.to_dict()
    # from_dict honors a stray engine key without round-tripping it.
    carried = JobSpec.from_dict({**spec.to_dict(), "engine": "fast"})
    assert carried.engine == "fast"
    assert carried.content_hash() == spec.content_hash()


# ------------------------------------------------------- divergence bisect

class _BrokenGPU(GPU):
    """Reference loop that silently adds one cycle to every compiled
    record's completion from its third kernel launch onward — kernels
    0 and 1 stay bit-identical, kernel 2 diverges from its first
    record."""

    def __init__(self, config):
        super().__init__(config)
        self._launches = 0

    def run_kernel(self, *args, **kwargs):
        self._launches += 1
        return super().run_kernel(*args, **kwargs)

    def _compiler(self, totals, max_instructions, has_unit=False):
        compile = super()._compiler(totals, max_instructions, has_unit)
        if self._launches <= 2:
            return compile

        def broken(instr):
            rec = compile(instr)
            return rec[:2] + (rec[2] + 1,) + rec[3:]

        return broken


class _BrokenEngine:
    name = "broken-for-test"

    def build_gpu(self, config, schedule=None):
        return _BrokenGPU(config)


def test_diff_bisects_broken_engine_to_first_bad_kernel(capsys):
    """``repro diff --a engine=reference --b engine=<broken>`` names
    the first diverging (kernel, interval, core, warp) coordinate —
    and it is the kernel the broken engine actually perturbs."""
    from repro.cli import main
    from repro.obs.provenance import digests_enabled, disable_digests
    from repro.sim import engines as engines_mod

    register_engine(_BrokenEngine())
    live = ("algorithm=pagerank,dataset=bio-human,schedule=vertex_map,"
            "scale=0.2,iterations=2")
    assert not digests_enabled()
    try:
        code = main(["diff", "--a", f"engine=reference,{live}",
                     "--b", f"engine=broken-for-test,{live}",
                     "--interval", "256", "--json"])
        out = capsys.readouterr().out
    finally:
        disable_digests(clear=True)
        engines_mod._ENGINES.pop("broken-for-test", None)
    assert code == 1
    doc = json.loads(out)
    assert doc["divergent"] == 1
    first = doc["jobs"][0]["first"]
    # Kernels 0 (init) and 1 (first gather) replay clean; the first
    # divergence is the perturbed third launch.
    assert first["coord"][0] == 2
    assert first["where"].startswith("kernel 2")


def test_diff_between_real_engines_is_clean(capsys):
    """The ledger-level acceptance check: reference vs fast diffs to
    zero divergences with digests enabled."""
    from repro.cli import main
    from repro.obs.provenance import digests_enabled, disable_digests

    live = ("algorithm=pagerank,dataset=bio-human,schedule=warp_map,"
            "scale=0.2,iterations=2")
    assert not digests_enabled()
    try:
        code = main(["diff", "--a", f"engine=reference,{live}",
                     "--b", f"engine=fast,{live}",
                     "--interval", "256", "--json"])
        out = capsys.readouterr().out
    finally:
        disable_digests(clear=True)
    assert code == 0
    doc = json.loads(out)
    assert doc["divergent"] == 0 and doc["compared"] == 1
