"""Schedule-comparison results: cycles per (graph, schedule) cell.

Each paper figure boils down to "run algorithm X under schedules S on
graphs G with configuration C; report cycles/speedups/breakdowns".
The batch engine runs the grid; this module folds it into speedups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable

from repro.errors import ReproError


@dataclass
class ExperimentResult:
    """Cycles per (graph, schedule) cell plus the cells' summaries.

    ``runs`` cells are the :class:`~repro.runtime.cache.RunSummary`
    objects of batch-engine jobs (``.stats`` / ``.total_cycles``).
    """

    cycles: Dict[str, Dict[str, int]] = field(default_factory=dict)
    runs: Dict[str, Dict[str, object]] = field(default_factory=dict)

    def speedups(self, baseline: str = "vertex_map") -> Dict[str, Dict[str, float]]:
        """Per-graph speedups of every schedule over ``baseline``."""
        out: Dict[str, Dict[str, float]] = {}
        for graph_name, per_sched in self.cycles.items():
            if baseline not in per_sched:
                raise ReproError(
                    f"baseline schedule {baseline!r} was not run for "
                    f"graph {graph_name!r}; available schedules: "
                    f"{sorted(per_sched)}"
                )
            base = per_sched[baseline]
            out[graph_name] = {
                sched: base / c if c else float("inf")
                for sched, c in per_sched.items()
            }
        return out

    def geomean_speedups(self, baseline: str = "vertex_map") -> Dict[str, float]:
        """Geometric-mean speedup per schedule across graphs."""
        per_graph = self.speedups(baseline)
        scheds = next(iter(per_graph.values())).keys() if per_graph else []
        return {
            sched: geomean([per_graph[g][sched] for g in per_graph])
            for sched in scheds
        }


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (1.0 for an empty sequence)."""
    values = [v for v in values]
    if not values:
        return 1.0
    return math.exp(sum(math.log(max(v, 1e-12)) for v in values) / len(values))
