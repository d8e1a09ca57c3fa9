"""The fleet worker: pull leases, simulate, stream results home.

A :class:`Worker` is a thin pump around the engine's single remote
execution path, :func:`repro.runtime.engine._worker_entry` — the same
function a ``ProcessPoolExecutor`` worker runs — so a job simulated by
the fleet is bit-identical to one simulated by the in-process pool.
Everything else here is plumbing: connect (with retry, so workers can
start before their coordinator), handshake, heartbeat while a job
runs, and convert exceptions into structured ``result`` messages the
coordinator folds through its normal retry/failure machinery.

Workers hold no durable state.  A worker that crashes mid-job simply
disconnects; the coordinator reclaims the lease and retries it
elsewhere.  Injected faults arrive *in the lease* (the coordinator
consults its :class:`~repro.runtime.faults.FaultPlan`), so a chaos run
needs no environment coordination across hosts — except *network*
fault kinds (``net_drop`` / ``net_delay`` / ``net_partition``), which
by nature live on the worker's side of the wire and are resolved from
the worker's own ``REPRO_FAULTS``.

Resilience (``max_reconnects > 0``): a lost session — coordinator
restart, partition, injected ``net_partition`` — is re-dialed with
jittered exponential backoff instead of ending the worker.  The worker
presents the same ``(worker_id, session)`` identity on reconnect, so
the coordinator supersedes the zombie connection rather than rejecting
the id as a duplicate.  A guard policy (``REPRO_GUARD`` or ``guard=``)
adds the memory watchdog: soft RSS limit → finish the current job,
sign off, refuse further leases; hard limit → immediate self-eviction
(exit :data:`~repro.runtime.guard.EVICT_EXIT_CODE`) the coordinator
reclaims like a crash.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from typing import Any, Dict, Optional

from repro.dist import protocol
from repro.dist.protocol import (MessageStream, ProtocolError, expect,
                                 parse_address)
from repro.dist.resilience import ReconnectPolicy
from repro.errors import ReproError, TransientError
from repro.runtime.engine import _worker_entry
from repro.runtime.faults import NET_KINDS, get_active_plan
from repro.runtime.guard import EVICT_EXIT_CODE, get_active_guard
from repro.runtime.jobspec import JobSpec
from repro.sim import SIMULATOR_VERSION


class _HandshakeRetry(Exception):
    """A ``reject`` carrying ``retry=True``: dial again, don't die."""


def default_worker_id() -> str:
    """``hostname-pid``: unique per process, readable in dashboards."""
    return f"{socket.gethostname()}-{os.getpid()}"


def default_session_token() -> str:
    """Random per-process token proving a reconnect is *this* worker."""
    return os.urandom(8).hex()


class Worker:
    """One lease-pulling simulation worker.

    ``address`` is the coordinator's ``host:port``.  ``max_jobs``
    bounds how many leases this worker will run before signing off
    (``None`` = until drained); ``connect_timeout`` bounds how long
    each dial keeps retrying, so a fleet can be launched workers-first.
    ``max_reconnects`` bounds *consecutive* lost sessions the worker
    survives (0 = exit on the first loss, the pre-resilience
    behavior); a successful handshake resets the count.  ``guard`` is
    a :class:`~repro.runtime.guard.GuardPolicy` for the memory
    watchdog (``None`` resolves ``REPRO_GUARD``); ``faults`` overrides
    the ``REPRO_FAULTS`` plan whose network rules this worker's
    streams apply.
    """

    def __init__(self, address: str, *,
                 worker_id: Optional[str] = None,
                 connect_timeout: float = 10.0,
                 max_jobs: Optional[int] = None,
                 max_reconnects: int = 0,
                 reconnect_base: float = 0.2,
                 guard=None, faults=None) -> None:
        self.address = parse_address(address)
        self.worker_id = worker_id or default_worker_id()
        self.session = default_session_token()
        self.connect_timeout = float(connect_timeout)
        self.max_jobs = max_jobs
        self.max_reconnects = max(0, int(max_reconnects))
        self.jobs_done = 0
        self.jobs_failed = 0
        self.reconnects = 0
        self.stop_reason = ""
        self._heartbeat_seconds = 1.0
        self._stream: Optional[MessageStream] = None
        self._policy = ReconnectPolicy(
            base=reconnect_base, max_retries=self.max_reconnects,
            key=self.worker_id)
        self.guard = guard if guard is not None else get_active_guard()
        self.memory = (self.guard.memory_guard()
                       if self.guard is not None else None)
        faults = faults if faults is not None else get_active_plan()
        #: Only a plan with network rules is worth a per-send lookup.
        self._net_faults = (
            faults if faults is not None and any(
                rule.kind in NET_KINDS for rule in faults.rules)
            else None)
        #: Outbound message counter, shared across reconnected streams
        #: so an indexed net rule fires once per worker lifetime.
        self._net_state = [0]

    # ------------------------------------------------------------------
    def _connect(self) -> MessageStream:
        """Dial the coordinator, retrying until ``connect_timeout``."""
        deadline = time.monotonic() + self.connect_timeout
        delay = 0.05
        while True:
            try:
                sock = socket.create_connection(self.address, timeout=10.0)
                sock.settimeout(None)
                return MessageStream(sock, faults=self._net_faults,
                                     fault_state=self._net_state)
            except OSError as exc:
                if time.monotonic() >= deadline:
                    raise ReproError(
                        f"could not reach coordinator at "
                        f"{protocol.format_address(self.address)} within "
                        f"{self.connect_timeout}s: {exc}") from exc
                time.sleep(delay)
                delay = min(delay * 2, 1.0)

    def _handshake(self, stream: MessageStream) -> Dict[str, Any]:
        stream.send(protocol.hello(self.worker_id, SIMULATOR_VERSION,
                                   os.getpid(), session=self.session))
        reply = expect(stream.recv(), "welcome", "reject")
        if reply["type"] == "reject":
            if reply.get("retry"):
                # A transient refusal (coordinator mid-shutdown in a
                # rolling restart): back off and dial again.
                raise _HandshakeRetry(reply.get("reason", ""))
            raise ReproError(
                f"coordinator rejected worker {self.worker_id!r}: "
                f"{reply.get('reason', 'no reason given')}")
        self._heartbeat_seconds = float(
            reply.get("heartbeat_seconds", 1.0))
        return reply

    # ------------------------------------------------------------------
    def run(self) -> int:
        """Serve leases until drained (or ``max_jobs``); returns jobs run.

        A first dial that fails within ``connect_timeout`` raises
        :class:`ReproError`.  A lost session (coordinator restart,
        partition, socket error) is re-dialed with jittered exponential
        backoff while ``max_reconnects`` consecutive losses remain;
        :attr:`stop_reason` records why the worker finally stopped
        (``drained`` / ``max_jobs`` / ``memory_soft`` / ``lost`` /
        ``rejected``).
        """
        losses = 0
        while True:
            try:
                stream = self._connect()
            except ReproError:
                if not self.reconnects:
                    # Never connected: ``connect_timeout`` was the
                    # whole budget; reconnects are for lost sessions.
                    raise
                losses += 1
                if losses > self.max_reconnects:
                    # Had a live session once; going quiet matches
                    # the old worker's exit-on-EOF contract.
                    self.stop_reason = "lost"
                    return self.jobs_done
                time.sleep(self._policy.delay(losses))
                continue
            self._stream = stream
            reason = "lost"
            try:
                self._handshake(stream)
                losses = 0
                reason = self._serve(stream)
            except (OSError, ProtocolError, _HandshakeRetry):
                reason = "lost"
            except ReproError:
                # A handshake rejection is fatal on a fresh worker
                # (duplicate id, version skew) but a clean stop once a
                # session existed — e.g. the reconnect raced a
                # coordinator that is shutting down.
                if not self.reconnects and not self.jobs_done:
                    raise
                reason = "rejected"
            finally:
                self._stream = None
                stream.close()
            if reason != "lost":
                self.stop_reason = reason
                return self.jobs_done
            losses += 1
            if losses > self.max_reconnects:
                self.stop_reason = "lost"
                return self.jobs_done
            self.reconnects += 1
            time.sleep(self._policy.delay(losses))

    def _serve(self, stream: MessageStream) -> str:
        """One connected session's request/lease pump."""
        while True:
            if (self.max_jobs is not None
                    and self.jobs_done + self.jobs_failed
                    >= self.max_jobs):
                stream.send(protocol.goodbye(self.worker_id,
                                             self.jobs_done))
                return "max_jobs"
            if self.memory is not None:
                level = self.memory.check()
                if level == "hard":
                    self._hard_evict(stream)
                    return "memory_hard"
                if level == "soft":
                    # Degrade, don't die: nothing in flight, so sign
                    # off cleanly and let a peer take the remainder.
                    stream.send(protocol.goodbye(
                        self.worker_id, self.jobs_done,
                        reason="memory_soft"))
                    return "memory_soft"
            stream.send(protocol.request(self.worker_id))
            message = stream.recv()
            if message is None:
                return "lost"  # coordinator went away
            kind = message["type"]
            if kind == "lease":
                self._run_lease(stream, message)
            elif kind == "wait":
                time.sleep(max(0.0, float(
                    message.get("seconds", 0.1))))
            elif kind == "drain":
                try:
                    stream.send(protocol.goodbye(self.worker_id,
                                                 self.jobs_done))
                except OSError:
                    pass  # coordinator already gone; drained either way
                return "drained"
            else:
                raise ProtocolError(
                    f"unexpected reply {kind!r} to a request")

    def _hard_evict(self, stream: MessageStream) -> None:
        """Hard RSS limit: release everything *now*.

        Dropping the socket makes the coordinator reclaim any held
        lease exactly like a crash; exiting is the only way to
        actually return the memory.  Overridable in tests (which
        cannot ``os._exit`` the test process).
        """
        print(f"worker {self.worker_id} self-evicting: rss "
              f"{self.memory.last_rss} >= hard limit "
              f"{self.memory.hard_bytes}", flush=True)
        stream.close()
        os._exit(EVICT_EXIT_CODE)

    # ------------------------------------------------------------------
    def _run_lease(self, stream: MessageStream,
                   lease: Dict[str, Any]) -> None:
        """Execute one lease and send exactly one ``result``."""
        spec_hash = str(lease["hash"])
        attempt = int(lease.get("attempt", 1))
        start = time.perf_counter()
        try:
            spec = JobSpec.from_dict(lease["spec"])
        except Exception as exc:  # noqa: BLE001 - structured reply
            self.jobs_failed += 1
            stream.send(protocol.result(
                self.worker_id, spec_hash, attempt, "failed",
                time.perf_counter() - start,
                error=f"undecodable spec: {type(exc).__name__}: {exc}"))
            expect(stream.recv(), "ack")
            return
        derived = spec.content_hash()
        if derived != spec_hash:
            # The spec was corrupted (or tampered with) in flight; the
            # hash is the job's identity, so refuse to run an imposter.
            self.jobs_failed += 1
            stream.send(protocol.result(
                self.worker_id, spec_hash, attempt, "failed",
                time.perf_counter() - start,
                error=f"spec hash mismatch: wire says {spec_hash[:12]}, "
                      f"decoded spec hashes to {derived[:12]}"))
            expect(stream.recv(), "ack")
            return

        stop = threading.Event()
        beats = threading.Thread(
            target=self._heartbeat_loop, args=(stream, spec_hash, stop),
            name="dist-heartbeat", daemon=True)
        beats.start()
        try:
            fault = lease.get("fault")
            data = _worker_entry(spec, tuple(fault) if fault else None)
            metrics = data.pop("_metrics", None)
            profile = data.pop("_profile", None)
            # Anything else _worker_entry attached stays in the summary
            # payload — in particular the optional ``digest_ledger``
            # (REPRO_DIGEST runs), so fleet ledgers are comparable
            # one-for-one with serial ones via ``repro diff``.
            message = protocol.result(
                self.worker_id, spec_hash, attempt, "ok",
                time.perf_counter() - start, summary=data,
                metrics=metrics, profile=profile)
            self.jobs_done += 1
        except TransientError as exc:
            self.jobs_failed += 1
            message = protocol.result(
                self.worker_id, spec_hash, attempt, "failed",
                time.perf_counter() - start,
                error=f"{type(exc).__name__}: {exc}", transient=True)
        except Exception as exc:  # noqa: BLE001 - deterministic failure
            self.jobs_failed += 1
            message = protocol.result(
                self.worker_id, spec_hash, attempt, "failed",
                time.perf_counter() - start,
                error=f"{type(exc).__name__}: {exc}")
        finally:
            stop.set()
            beats.join(timeout=2.0)
        stream.send(message)
        expect(stream.recv(), "ack")

    def _heartbeat_loop(self, stream: MessageStream, spec_hash: str,
                        stop: threading.Event) -> None:
        """Ping liveness until the job finishes (writes are locked).

        Doubles as the in-job memory watchdog: a hard-limit reading
        between beats evicts immediately instead of waiting for the
        job — the kernel OOM-killer would not wait either.
        """
        while not stop.wait(self._heartbeat_seconds):
            if (self.memory is not None
                    and self.memory.check() == "hard"):
                self._hard_evict(stream)
                return
            try:
                stream.send(protocol.heartbeat(self.worker_id,
                                               spec_hash))
            except OSError:
                return  # the main loop will notice the dead socket
