"""Frozen, serializable experiment job specifications.

A :class:`JobSpec` names everything one simulation needs — algorithm +
factory params, graph, schedule, GPU configuration, iteration cap — as
plain data, so a job can be (a) hashed into a stable content address
for the result cache, (b) pickled to a worker process, and (c) written
to / read from a JSON batch file.  Graphs enter a spec through
:class:`GraphSpec`, which either *names* a reproducible recipe (dataset
analog or generator call) or wraps an in-memory :class:`CSRGraph`
whose arrays are digested into the content hash.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigError, ReproError
from repro.graph.csr import CSRGraph
from repro.sim.config import CacheConfig, GPUConfig

#: Key/value pairs in canonical (sorted) order — the hashable stand-in
#: for a params dict inside a frozen dataclass.
Params = Tuple[Tuple[str, Any], ...]


def _freeze_params(params: Dict[str, Any]) -> Params:
    """Sort a params dict into a hashable, deterministic tuple."""
    for key, value in params.items():
        if not isinstance(value, (bool, int, float, str, type(None))):
            raise ConfigError(
                f"job parameter {key!r} must be a JSON scalar, got "
                f"{type(value).__name__}"
            )
    return tuple(sorted(params.items()))


def _canonical_json(data: Dict[str, Any]) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace drift)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def spec_hash(spec_dict: Dict[str, Any]) -> str:
    """The content address of a :meth:`JobSpec.to_dict` form.

    :meth:`JobSpec.content_hash` is this of the spec's own dict; a
    reader holding only the stored dict (a result-cache entry) gets
    the same address back.
    """
    return hashlib.sha256(
        _canonical_json(spec_dict).encode("utf-8")).hexdigest()


def graph_digest(graph: CSRGraph) -> str:
    """Content digest of a CSR graph's arrays.

    Non-unit weights participate.  Unit weights — whether absent,
    lazily materialized, or passed explicitly — hash as a marker, so a
    graph's digest is stable across ``graph.weights`` being touched
    (simulation runs materialize it as a side effect).
    """
    import numpy as np

    h = hashlib.sha256()
    h.update(b"row_ptr")
    h.update(graph.row_ptr.tobytes())
    h.update(b"col_idx")
    h.update(graph.col_idx.tobytes())
    if graph.has_weights and not np.all(graph.weights == 1.0):
        h.update(b"weights")
        h.update(graph.weights.tobytes())
    else:
        h.update(b"unit-weights")
    return h.hexdigest()


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AlgorithmSpec:
    """An algorithm as registry name + factory parameters.

    Instances are *callable* and return a fresh
    :class:`~repro.frontend.udf.Algorithm`, so an ``AlgorithmSpec``
    drops in anywhere an ``algorithm_factory`` is expected — while
    remaining picklable and hashable, which plain lambdas are not.
    """

    name: str
    params: Params = ()

    @classmethod
    def of(cls, name: str, **params) -> "AlgorithmSpec":
        """Build a spec from keyword factory parameters."""
        return cls(name, _freeze_params(params))

    def build(self):
        """Instantiate a fresh Algorithm from the registry."""
        from repro.algorithms import make_algorithm

        return make_algorithm(self.name, **dict(self.params))

    def __call__(self):
        """Factory-protocol alias for :meth:`build`."""
        return self.build()

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form."""
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "AlgorithmSpec":
        """Inverse of :meth:`to_dict`."""
        return cls.of(data["name"], **data.get("params", {}))


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GraphSpec:
    """A graph as a reproducible recipe or an inline payload.

    ``kind`` is one of:

    * ``"dataset"`` — a Table III analog: ``name`` is the dataset key,
      ``params`` carries ``scale``.
    * ``"generator"`` — a :mod:`repro.graph.generators` function by
      name with its keyword arguments.
    * ``"inline"`` — an in-memory :class:`CSRGraph`; the arrays travel
      with the spec (pickle) and only their ``digest`` enters the
      content hash and JSON forms.
    """

    kind: str
    name: str
    params: Params = ()
    digest: str = ""
    payload: Optional[CSRGraph] = field(
        default=None, compare=False, repr=False
    )

    @classmethod
    def from_dataset(cls, name: str, scale: float = 1.0) -> "GraphSpec":
        """Reference a dataset analog by key."""
        return cls("dataset", name, _freeze_params({"scale": scale}))

    @classmethod
    def from_generator(cls, name: str, **params) -> "GraphSpec":
        """Reference a ``repro.graph.generators`` function by name."""
        return cls("generator", name, _freeze_params(params))

    @classmethod
    def inline(cls, graph: CSRGraph, name: str = "inline") -> "GraphSpec":
        """Wrap an in-memory graph, digesting its arrays."""
        return cls("inline", name, (), graph_digest(graph), graph)

    def build(self) -> CSRGraph:
        """Materialize the graph this spec describes."""
        if self.kind == "inline":
            if self.payload is None:
                raise ReproError(
                    f"inline graph spec {self.name!r} lost its payload "
                    "(inline specs cannot be rebuilt from JSON)"
                )
            return self.payload
        params = dict(self.params)
        if self.kind == "dataset":
            from repro.graph.datasets import dataset

            return dataset(self.name, **params)
        if self.kind == "generator":
            from repro.graph import generators

            fn = getattr(generators, self.name, None)
            if fn is None or not callable(fn):
                raise ReproError(
                    f"unknown graph generator {self.name!r} in "
                    "repro.graph.generators"
                )
            return fn(**params)
        raise ReproError(f"unknown graph spec kind {self.kind!r}")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (inline payloads reduce to their digest)."""
        return {
            "kind": self.kind,
            "name": self.name,
            "params": dict(self.params),
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "GraphSpec":
        """Inverse of :meth:`to_dict` for rebuildable kinds."""
        kind = data["kind"]
        if kind == "inline":
            raise ReproError(
                "inline graph specs cannot be loaded from JSON; use a "
                "dataset or generator spec in batch files"
            )
        return cls(kind, data["name"],
                   _freeze_params(data.get("params", {})))


# ----------------------------------------------------------------------
def _config_to_dict(config: GPUConfig) -> Dict[str, Any]:
    """GPUConfig (with nested CacheConfigs) as a plain dict."""
    return asdict(config)


def _config_from_dict(data: Dict[str, Any]) -> GPUConfig:
    """Inverse of :func:`_config_to_dict`."""
    kwargs = dict(data)
    for level in ("l1", "l2", "l3"):
        if kwargs.get(level) is not None:
            kwargs[level] = CacheConfig(**kwargs[level])
    return GPUConfig(**kwargs)


@dataclass(frozen=True)
class JobSpec:
    """One fully-specified simulation job.

    ``config=None`` means the benchmark preset
    (:meth:`GPUConfig.vortex_bench`); it is normalized before hashing
    so an explicit preset and the default produce the same address.
    ``seed`` is reserved for future stochastic workloads and
    participates in the hash.
    """

    algorithm: AlgorithmSpec
    graph: GraphSpec
    schedule: str
    config: Optional[GPUConfig] = None
    max_iterations: Optional[int] = None
    symmetrize: bool = False
    seed: int = 0
    schedule_params: Params = ()
    #: Simulator execution engine (``reference``/``fast``/``auto``;
    #: ``None`` runs the default, ``fast``).  Excluded from equality,
    #: hashing, ``to_dict`` and the content hash: every engine must
    #: produce bit-identical results, so the engine is an execution
    #: detail — same cycles, same cache address, same journal identity.
    #: Each run-journal line records the engine outside its summary.
    engine: Optional[str] = field(default=None, compare=False)

    # ------------------------------------------------------------------
    def effective_config(self) -> GPUConfig:
        """The configuration actually simulated."""
        return self.config or GPUConfig.vortex_bench()

    @property
    def label(self) -> str:
        """Short human-readable job name for journals and tables."""
        sched = self.schedule
        if self.schedule_params:
            sched += "[" + ",".join(
                f"{k}={v}" for k, v in self.schedule_params) + "]"
        return f"{self.algorithm.name}/{self.graph.name}/{sched}"

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON-able form (also the hash input).

        ``schedule_params`` only appears when non-empty, so specs
        without schedule knobs keep the content hash they had before
        the field existed (no gratuitous cache invalidation).
        """
        out = {
            "algorithm": self.algorithm.to_dict(),
            "graph": self.graph.to_dict(),
            "schedule": self.schedule,
            "config": _config_to_dict(self.effective_config()),
            "max_iterations": self.max_iterations,
            "symmetrize": self.symmetrize,
            "seed": self.seed,
        }
        if self.schedule_params:
            out["schedule_params"] = dict(self.schedule_params)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        """Inverse of :meth:`to_dict`.

        A stray ``engine`` key (older batch files that serialized one)
        is honored but never round-trips back out — engines are not
        part of job identity.
        """
        config = data.get("config")
        return cls(
            algorithm=AlgorithmSpec.from_dict(data["algorithm"]),
            graph=GraphSpec.from_dict(data["graph"]),
            schedule=data["schedule"],
            config=_config_from_dict(config) if config else None,
            max_iterations=data.get("max_iterations"),
            symmetrize=bool(data.get("symmetrize", False)),
            seed=int(data.get("seed", 0)),
            schedule_params=_freeze_params(
                data.get("schedule_params", {})),
            engine=data.get("engine"),
        )

    def content_hash(self) -> str:
        """Deterministic content address of this job.

        Every field change — including any single ``GPUConfig`` field —
        produces a different hash; an inline graph contributes its
        array digest.  Simulator and cache-schema versions are *not*
        part of this hash; the cache layers them on top.  Specs are
        frozen, so the digest is computed once and memoized (the
        cache and the journal both hash every job's spec).
        """
        cached = getattr(self, "_content_hash", None)
        if cached is None:
            cached = spec_hash(self.to_dict())
            object.__setattr__(self, "_content_hash", cached)
        return cached

    # ------------------------------------------------------------------
    def execute(self, tracer=None):
        """Run this job in-process and return the full ``RunResult``.

        The one place a job becomes a
        :class:`~repro.frontend.framework.GraphProcessor` run: the batch
        engine (serial and pool workers alike), ``repro run`` and
        ``repro diff``'s live sides all come through here, so no path
        can drift from another.  ``tracer`` (an
        :class:`~repro.sim.trace.ExecutionTracer` or another loop
        observer) records the simulated-cycle timeline.
        """
        from repro.frontend.framework import GraphProcessor
        from repro.sched import make_schedule

        schedule = (make_schedule(self.schedule,
                                  **dict(self.schedule_params))
                    if self.schedule_params else self.schedule)
        proc = GraphProcessor(
            self.algorithm.build(), schedule=schedule,
            config=self.effective_config(), symmetrize=self.symmetrize,
            exec_tracer=tracer, engine=self.engine)
        return proc.run(self.graph.build(),
                        max_iterations=self.max_iterations)
