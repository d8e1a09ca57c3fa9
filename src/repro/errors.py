"""Exception hierarchy for the SparseWeaver reproduction.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch one type at an API boundary. Subclasses mark which layer
failed: graph construction, simulator configuration, kernel execution, or
the Weaver unit itself.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class GraphError(ReproError):
    """Invalid graph structure or construction input."""


class ConfigError(ReproError):
    """Invalid simulator or hardware configuration."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent state while running a kernel."""


class WeaverError(ReproError):
    """Weaver unit protocol violation (e.g. decode before registration)."""


class ScheduleError(ReproError):
    """Unknown schedule name or a schedule misused for a workload."""


class AlgorithmError(ReproError):
    """Unknown algorithm name or invalid algorithm specification."""
