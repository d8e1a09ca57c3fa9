"""Deterministic fault injection for the runtime layer.

Recovery code that cannot be provoked is recovery code that does not
work.  This module gives the batch engine, the result cache and the
telemetry sink one shared, *seeded* plan of faults to consult, so
every failure path — worker crashes, hangs (→ per-job timeout),
transient and fatal exceptions, torn/corrupt cache writes, slow I/O —
is exercisable deterministically in tests and CI chaos runs.

A plan is parsed from the ``REPRO_FAULTS`` environment variable (or
passed explicitly as a ``faults=`` argument) as a comma-separated rule
list::

    REPRO_FAULTS="crash@1,hang@2:30,transient@0+3,corrupt@0,seed=7"

Each rule is ``kind`` plus optional target/repeat/parameter suffixes,
in this order:

* ``@i+j+k`` — fire at these indices (what an index counts depends on
  the site: batch submission order for worker faults, store order for
  cache faults, append order for I/O faults);
* ``~rate`` — fire probabilistically instead, decided by a
  deterministic hash of ``(seed, kind, index)`` so the same plan
  always injects the same faults, in every process;
* ``xN`` — keep firing for the first ``N`` attempts of a job (default
  1, i.e. the retry of a crashed job succeeds — set ``x99`` to test
  retry exhaustion);
* ``:p`` — a float parameter (sleep seconds for ``hang``/``slow_io``).

Fault kinds by site:

======== ============ ====================================================
kind      site         effect
======== ============ ====================================================
crash     worker       pool worker calls ``os._exit`` (→ ``BrokenProcessPool``);
                       serial path raises :class:`TransientError`
hang      worker       worker sleeps ``:p`` seconds (→ per-job timeout);
                       serial path raises :class:`TransientError`
transient worker       raises :class:`TransientError` (retried with backoff)
fatal     worker       raises :class:`FatalError` (never retried)
torn      cache        ``ResultCache.put`` leaves a truncated entry file
corrupt   cache        ``ResultCache.put`` leaves a garbled entry file
slow_io   telemetry    sink append sleeps ``:p`` seconds first
======== ============ ====================================================

When ``REPRO_FAULTS`` is unset, :func:`get_active_plan` returns
``None`` and every hook site short-circuits on an ``is None`` check —
the default path stays a zero-overhead no-op.
"""

from __future__ import annotations

import hashlib
import os
import re
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError, FatalError, TransientError

#: Fault kinds grouped by the site that consults them.
WORKER_KINDS = ("crash", "hang", "transient", "fatal")
CACHE_KINDS = ("torn", "corrupt")
IO_KINDS = ("slow_io",)
ALL_KINDS = WORKER_KINDS + CACHE_KINDS + IO_KINDS

#: A worker fault directive as shipped to (and applied in) a worker.
WorkerFault = Tuple[str, Optional[float]]

#: Exit code used by injected worker crashes (recognizable in logs).
CRASH_EXIT_CODE = 86

#: Default sleep for ``hang`` rules without a ``:p`` parameter.  Long
#: enough to trip any realistic per-job timeout, short enough that a
#: leaked sleeping worker cannot wedge a CI job forever.
DEFAULT_HANG_SECONDS = 60.0

_RULE_RE = re.compile(
    r"^(?P<kind>[a-z_]+)"
    r"(?:@(?P<indices>\d+(?:\+\d+)*))?"
    r"(?:~(?P<rate>\d*\.?\d+))?"
    r"(?:x(?P<attempts>\d+))?"
    r"(?::(?P<param>\d*\.?\d+))?$"
)


@dataclass(frozen=True)
class FaultRule:
    """One parsed fault rule.

    ``indices`` empty + ``rate`` 0.0 means "every index" (useful for
    ``slow_io`` applied to the whole run).
    """

    kind: str
    indices: Tuple[int, ...] = ()
    rate: float = 0.0
    max_attempts: int = 1
    param: Optional[float] = None

    def spec(self) -> str:
        """Canonical textual form (inverse of parsing)."""
        out = self.kind
        if self.indices:
            out += "@" + "+".join(str(i) for i in self.indices)
        if self.rate:
            out += f"~{self.rate:g}"
        if self.max_attempts != 1:
            out += f"x{self.max_attempts}"
        if self.param is not None:
            out += f":{self.param:g}"
        return out


def _parse_rule(token: str) -> FaultRule:
    match = _RULE_RE.match(token)
    if match is None:
        raise ConfigError(
            f"malformed fault rule {token!r}; expected "
            f"kind[@i+j|~rate][xN][:param]"
        )
    kind = match.group("kind")
    if kind not in ALL_KINDS:
        raise ConfigError(
            f"unknown fault kind {kind!r}; known: {', '.join(ALL_KINDS)}"
        )
    indices = match.group("indices")
    rate = match.group("rate")
    if indices is not None and rate is not None:
        raise ConfigError(
            f"fault rule {token!r} mixes explicit indices (@) with a "
            f"rate (~); pick one targeting mode"
        )
    rate_value = float(rate) if rate is not None else 0.0
    if not 0.0 <= rate_value <= 1.0:
        raise ConfigError(
            f"fault rate in {token!r} must be within [0, 1]")
    return FaultRule(
        kind=kind,
        indices=tuple(int(i) for i in indices.split("+")) if indices
        else (),
        rate=rate_value,
        max_attempts=int(match.group("attempts") or 1),
        param=float(match.group("param"))
        if match.group("param") is not None else None,
    )


class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    The plan is consulted parent-side: the engine asks
    :meth:`worker_fault` per (submission index, attempt) and ships the
    directive to the worker, the cache asks :meth:`cache_fault` per
    store, the telemetry sink asks :meth:`io_fault` per append.  Every
    fired injection is counted in :attr:`injected` (see :meth:`count`).
    """

    def __init__(self, rules=(), seed: int = 0) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = seed
        self.injected: Dict[str, int] = {}

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS``-style rule list."""
        rules = []
        seed = 0
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            if token.startswith("seed="):
                try:
                    seed = int(token[5:])
                except ValueError:
                    raise ConfigError(
                        f"fault plan seed must be an integer, got "
                        f"{token[5:]!r}") from None
                continue
            rules.append(_parse_rule(token))
        if not rules:
            raise ConfigError(
                f"fault plan {text!r} contains no fault rules")
        return cls(rules, seed=seed)

    def spec(self) -> str:
        """Canonical textual form of the whole plan."""
        out = ",".join(rule.spec() for rule in self.rules)
        if self.seed:
            out += f",seed={self.seed}"
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FaultPlan {self.spec()!r}>"

    # ------------------------------------------------------------------
    def _rate_fires(self, rule: FaultRule, index: int) -> bool:
        """Seed-deterministic Bernoulli draw for a rate rule.

        Hash-based (no RNG state), so the decision for ``(kind, index)``
        is identical in every process and across plan re-parses.
        """
        raw = f"{self.seed}:{rule.kind}:{index}".encode("utf-8")
        draw = int.from_bytes(hashlib.sha256(raw).digest()[:8], "big")
        return draw / 2.0 ** 64 < rule.rate

    def _matches(self, rule: FaultRule, index: int, attempt: int) -> bool:
        if attempt > rule.max_attempts:
            return False
        if rule.indices:
            return index in rule.indices
        if rule.rate:
            return self._rate_fires(rule, index)
        return True  # untargeted rule: every index

    def _lookup(self, kinds, index: int, attempt: int = 1):
        for rule in self.rules:
            if rule.kind in kinds and self._matches(rule, index, attempt):
                self.injected[rule.kind] = self.injected.get(rule.kind, 0) + 1
                return rule
        return None

    # ------------------------------------------------------------------
    def worker_fault(self, index: int,
                     attempt: int = 1) -> Optional[WorkerFault]:
        """The fault directive for job ``index`` on ``attempt``, if any.

        ``index`` is the job's batch submission index; cached and
        resumed jobs consume indices without ever asking.
        """
        rule = self._lookup(WORKER_KINDS, index, attempt)
        return (rule.kind, rule.param) if rule is not None else None

    def cache_fault(self, store_index: int) -> Optional[str]:
        """The write fault for the ``store_index``-th cache store."""
        rule = self._lookup(CACHE_KINDS, store_index)
        return rule.kind if rule is not None else None

    def io_fault(self, append_index: int) -> Optional[float]:
        """Sleep seconds to inject before the Nth sink append."""
        rule = self._lookup(IO_KINDS, append_index)
        if rule is None:
            return None
        return rule.param if rule.param is not None else 0.05

    def count(self, kind: str) -> int:
        """How many times ``kind`` has fired through this plan."""
        return self.injected.get(kind, 0)


# ----------------------------------------------------------------------
def apply_worker_fault(fault: Optional[WorkerFault]) -> None:
    """Execute a directive inside a pool worker (may not return).

    ``crash`` kills the worker process outright so the parent sees a
    ``BrokenProcessPool``; ``hang`` sleeps past any reasonable per-job
    timeout; the exception kinds raise and pickle back to the parent.
    """
    if fault is None:
        return
    kind, param = fault
    if kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    if kind == "hang":
        time.sleep(param if param is not None else DEFAULT_HANG_SECONDS)
        return
    if kind == "transient":
        raise TransientError("injected transient fault")
    if kind == "fatal":
        raise FatalError("injected fatal fault")
    raise ConfigError(f"unknown worker fault kind {kind!r}")


def apply_serial_fault(fault: Optional[WorkerFault]) -> None:
    """Execute a directive on the serial (in-process) path.

    There is no worker to kill and no pool timeout to trip, so
    ``crash`` and ``hang`` degrade to :class:`TransientError` — the
    serial engine still exercises its retry/backoff machinery on them.
    """
    if fault is None:
        return
    kind, _param = fault
    if kind == "crash":
        raise TransientError("injected worker crash (serial)")
    if kind == "hang":
        raise TransientError("injected hang (serial)")
    apply_worker_fault(fault)


# ----------------------------------------------------------------------
# Environment-resolved plan (memoized on the raw env value, so tests
# that monkeypatch REPRO_FAULTS see their change immediately).
# ----------------------------------------------------------------------
_ENV_RAW: Optional[str] = None
_ENV_PLAN: Optional[FaultPlan] = None


def get_active_plan() -> Optional[FaultPlan]:
    """The plan described by ``REPRO_FAULTS``, or ``None`` when unset."""
    global _ENV_RAW, _ENV_PLAN
    raw = os.environ.get("REPRO_FAULTS", "").strip()
    if not raw:
        return None
    if raw != _ENV_RAW:
        _ENV_RAW = raw
        _ENV_PLAN = FaultPlan.parse(raw)
    return _ENV_PLAN
