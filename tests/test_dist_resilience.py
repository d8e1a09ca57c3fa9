"""Fleet resilience: reconnects, circuit breaking, backpressure, shed.

Same testing posture as ``test_dist_fleet``: real TCP on ephemeral
local ports, no mocks.  Partition chaos is injected at the
MessageStream layer through seeded ``net_*`` fault rules, so every
"network failure" here is deterministic and reproducible.
"""

import socket
import threading
import time

import pytest

from repro.dist import Coordinator, Worker, protocol
from repro.dist.protocol import MessageStream
from repro.dist.resilience import (AdmissionGate, CircuitBreaker,
                                   ReconnectPolicy, resolve_gate)
from repro.errors import ConfigError, ReproError
from repro.runtime import (AlgorithmSpec, BatchEngine, FaultPlan,
                           GraphSpec, GuardPolicy, JobSpec, RunJournal,
                           Telemetry)
from repro.sim import SIMULATOR_VERSION

from tests.test_dist_fleet import (fleet_specs, join_all,
                                   start_workers)


# ----------------------------------------------------------------------
# policy units
# ----------------------------------------------------------------------
def test_reconnect_policy_backoff_grows_and_caps():
    policy = ReconnectPolicy(base=0.2, cap=1.0, jitter=0.0, key="w")
    assert policy.delay(1) == pytest.approx(0.2)
    assert policy.delay(2) == pytest.approx(0.4)
    assert policy.delay(3) == pytest.approx(0.8)
    assert policy.delay(4) == pytest.approx(1.0)  # capped
    assert policy.delay(9) == pytest.approx(1.0)


def test_reconnect_policy_jitter_is_deterministic_per_key():
    a = ReconnectPolicy(base=1.0, cap=8.0, jitter=0.5, key="w0")
    b = ReconnectPolicy(base=1.0, cap=8.0, jitter=0.5, key="w0")
    c = ReconnectPolicy(base=1.0, cap=8.0, jitter=0.5, key="w1")
    for attempt in range(1, 6):
        assert a.delay(attempt) == b.delay(attempt)
        raw = min(8.0, 1.0 * 2 ** (attempt - 1))
        assert raw / 2 <= a.delay(attempt) <= raw
    assert any(a.delay(i) != c.delay(i) for i in range(1, 6))


def test_reconnect_policy_retry_budget():
    policy = ReconnectPolicy(max_retries=2)
    assert policy.should_retry(1) and policy.should_retry(2)
    assert not policy.should_retry(3)
    with pytest.raises(ConfigError):
        ReconnectPolicy(jitter=2.0)


def test_circuit_breaker_trips_and_cools_down():
    now = [1000.0]
    breaker = CircuitBreaker(threshold=3, cooldown=10.0,
                             clock=lambda: now[0])
    assert not breaker.record_failure("w")
    assert not breaker.record_failure("w")
    assert breaker.blocked_seconds("w") == 0.0
    assert breaker.record_failure("w")  # third in a row: trips
    assert breaker.trips == 1
    assert breaker.blocked_seconds("w") == pytest.approx(10.0)
    assert breaker.quarantined() == ["w"]
    now[0] = 1011.0  # cooldown elapsed
    assert breaker.blocked_seconds("w") == 0.0
    assert breaker.quarantined() == []


def test_circuit_breaker_success_resets_the_count():
    breaker = CircuitBreaker(threshold=2, cooldown=10.0)
    breaker.record_failure("w")
    breaker.record_success("w")
    assert not breaker.record_failure("w")  # count restarted
    assert breaker.failures("w") == 1
    with pytest.raises(ConfigError):
        CircuitBreaker(threshold=0)


def test_admission_gate_bounds_inflight():
    gate = AdmissionGate(max_inflight=2, retry_after=0.1)
    assert gate.admit(0) and gate.admit(1)
    assert not gate.admit(2)
    assert not gate.admit(5)
    assert gate.rejects == 2
    assert gate.stats() == {"max_inflight": 2, "rejects": 2}
    assert resolve_gate(None) is None
    with pytest.raises(ConfigError):
        AdmissionGate(0)


# ----------------------------------------------------------------------
# raw-protocol helpers (shared shape with test_dist_fleet)
# ----------------------------------------------------------------------
def _handshake(coord, worker_id, session=""):
    sock = socket.create_connection((coord.host, coord.port),
                                    timeout=5.0)
    stream = MessageStream(sock)
    stream.send(protocol.hello(worker_id, SIMULATOR_VERSION, 1,
                               session=session))
    return stream, stream.recv()


def _claim_lease(stream, worker_id, tries=200):
    for _ in range(tries):
        stream.send(protocol.request(worker_id))
        reply = stream.recv()
        assert reply is not None
        if reply["type"] == "lease":
            return reply
        assert reply["type"] == "wait"
        time.sleep(0.02)
    raise AssertionError("coordinator never granted a lease")


def _background_batch(coord, specs):
    runner = {}

    def run():
        runner["outcomes"] = coord.run(specs)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return runner, thread


# ----------------------------------------------------------------------
# coordinator guardrails: backpressure + circuit breaker
# ----------------------------------------------------------------------
def test_admission_gate_backpressures_extra_requests():
    specs = fleet_specs(3)
    with Coordinator("127.0.0.1:0", lease_seconds=30.0,
                     max_inflight=1) as coord:
        runner, batch = _background_batch(coord, specs)
        holder, reply = _handshake(coord, "holder")
        assert reply["type"] == "welcome"
        _claim_lease(holder, "holder")

        hopeful, reply = _handshake(coord, "hopeful")
        assert reply["type"] == "welcome"
        hopeful.send(protocol.request("hopeful"))
        wait = hopeful.recv()
        assert wait["type"] == "wait"
        assert wait["reason"] == "backpressure"

        stats = coord.fleet_stats()
        assert stats["admission"]["max_inflight"] == 1
        assert stats["admission"]["rejects"] >= 1

        coord.request_shutdown("test-end")
        batch.join(timeout=10.0)
        assert not batch.is_alive()
        holder.close()
        hopeful.close()
    # Nothing was invented: every unresolved job was shed as skipped.
    statuses = [o.status for o in runner["outcomes"]]
    assert statuses == ["skipped"] * 3


def test_circuit_breaker_quarantines_failing_worker(tmp_path):
    specs = fleet_specs(2)
    telemetry = Telemetry()
    with Coordinator("127.0.0.1:0", telemetry=telemetry,
                     breaker_threshold=1,
                     breaker_cooldown=60.0) as coord:
        runner, batch = _background_batch(coord, specs)
        flaky, reply = _handshake(coord, "flaky")
        assert reply["type"] == "welcome"
        lease = _claim_lease(flaky, "flaky")

        # One deterministic (non-transient) failure trips the N=1
        # breaker.
        flaky.send(protocol.result("flaky", lease["hash"],
                                   lease["attempt"], "failed", 0.01,
                                   error="poisoned host"))
        assert flaky.recv()["type"] == "ack"

        # The quarantined worker is refused further leases...
        flaky.send(protocol.request("flaky"))
        wait = flaky.recv()
        assert wait["type"] == "wait"
        assert wait["reason"] == "quarantined"
        assert 0 < wait["seconds"] <= 1.0

        # ...and shows up in fleet stats and telemetry.
        stats = coord.fleet_stats()
        assert stats["quarantined"] == ["flaky"]
        assert stats["workers"]["flaky"]["quarantined"] is True
        assert stats["breaker"]["trips"] == 1
        assert telemetry.count("worker_quarantined") == 1

        # A healthy peer still gets the remaining job.
        _workers, threads = start_workers(coord.address, 1)
        batch.join(timeout=30.0)
        assert not batch.is_alive()
        flaky.close()
    join_all(threads)
    statuses = [o.status for o in runner["outcomes"]]
    assert sorted(statuses) == ["failed", "ok"]


def test_breaker_cooldown_reopens_leasing():
    breaker_args = dict(breaker_threshold=1, breaker_cooldown=0.05)
    specs = fleet_specs(2)
    with Coordinator("127.0.0.1:0", retries=1, **breaker_args) as coord:
        runner, batch = _background_batch(coord, specs)
        worker, reply = _handshake(coord, "redeemed")
        assert reply["type"] == "welcome"
        lease = _claim_lease(worker, "redeemed")
        worker.send(protocol.result("redeemed", lease["hash"],
                                    lease["attempt"], "failed", 0.01,
                                    error="flake", transient=True))
        assert worker.recv()["type"] == "ack"
        time.sleep(0.1)  # cooldown elapses
        # The same worker leases again once the circuit closes.
        _claim_lease(worker, "redeemed")
        coord.request_shutdown("test-end")
        batch.join(timeout=10.0)
        worker.close()
    assert not batch.is_alive()


# ----------------------------------------------------------------------
# deadline budget + graceful shutdown (degradation sheds, never alters)
# ----------------------------------------------------------------------
def test_coordinator_deadline_sheds_to_journal_and_resume_completes(
        tmp_path):
    specs = fleet_specs(3)
    path = tmp_path / "journal.jsonl"
    telemetry = Telemetry()
    with Coordinator("127.0.0.1:0", journal=RunJournal(path),
                     telemetry=telemetry, poll_seconds=0.01,
                     deadline=0.0) as coord:
        outcomes = coord.run(specs)  # budget exhausted on arrival
    assert [o.status for o in outcomes] == ["skipped"] * 3
    assert all("deadline" in o.error for o in outcomes)
    skipped = [e for e in telemetry.events if e.kind == "skipped"]
    assert {e.payload["reason"] for e in skipped} == {"deadline"}

    # Deferred, not lost: a resume run with workers completes all
    # three, bit-identically to a serial baseline.
    journal = RunJournal(path)
    assert journal.load() == 0
    assert len(journal.skipped()) == 3
    with Coordinator("127.0.0.1:0", journal=journal) as coord:
        _workers, threads = start_workers(coord.address, 2)
        resumed = coord.run(specs)
    join_all(threads)
    assert [o.status for o in resumed] == ["ok"] * 3
    baseline = BatchEngine(jobs=1).run(specs)
    for fleet_out, serial_out in zip(resumed, baseline):
        assert (fleet_out.summary.total_cycles
                == serial_out.summary.total_cycles)


def test_request_shutdown_journals_outstanding_leases(tmp_path):
    specs = fleet_specs(2)
    path = tmp_path / "journal.jsonl"
    telemetry = Telemetry()
    with Coordinator("127.0.0.1:0", journal=RunJournal(path),
                     telemetry=telemetry, poll_seconds=0.01) as coord:
        runner, batch = _background_batch(coord, specs)
        stream, reply = _handshake(coord, "holder")
        assert reply["type"] == "welcome"
        _claim_lease(stream, "holder")

        coord.request_shutdown("sigterm")
        batch.join(timeout=10.0)
        assert not batch.is_alive()
        stream.close()

    statuses = [o.status for o in runner["outcomes"]]
    assert statuses == ["skipped", "skipped"]
    assert coord.fleet_stats()["shutdown"] == "sigterm"
    assert coord.jobs_shed == 2
    # The ledger accounts for everything: the held lease was journaled
    # as reclaimed AND deferred; the queued job as deferred.
    journal = RunJournal(path)
    journal.load()
    assert journal.active_leases() == {}  # no lease left dangling
    assert set(journal.skipped().values()) == {"sigterm"}
    assert len(journal.skipped()) == 2
    reclaimed = [e for e in telemetry.events
                 if e.kind == "lease_reclaimed"]
    assert [e.payload["reason"] for e in reclaimed] == ["sigterm"]


# ----------------------------------------------------------------------
# worker resilience: reconnect, session supersede, partitions
# ----------------------------------------------------------------------
def test_session_supersede_replaces_zombie_connection():
    specs = fleet_specs(2)
    telemetry = Telemetry()
    with Coordinator("127.0.0.1:0", telemetry=telemetry,
                     retries=2) as coord:
        runner, batch = _background_batch(coord, specs)
        old, reply = _handshake(coord, "phoenix", session="tok-1")
        assert reply["type"] == "welcome"
        _claim_lease(old, "phoenix")

        # Same id, same session: the reconnect supersedes the zombie
        # and takes back its lease for retry.
        new, reply = _handshake(coord, "phoenix", session="tok-1")
        assert reply["type"] == "welcome"
        _claim_lease(new, "phoenix")

        # Same id, *different* session: still an imposter, rejected.
        imposter, rejected = _handshake(coord, "phoenix",
                                        session="stolen")
        assert rejected["type"] == "reject"
        assert "already connected" in rejected["reason"]
        imposter.close()

        # The zombie departing must not steal the successor's lease
        # (generation guard) — the new connection keeps leasing fine.
        old.close()
        time.sleep(0.1)
        with coord._lock:
            assert len(coord._leases) == 1  # still held by the successor
        assert coord.fleet_stats()["workers"]["phoenix"]["alive"]

        reclaims = [e for e in telemetry.events
                    if e.kind == "lease_reclaimed"]
        assert [e.payload["reason"] for e in reclaims] == ["reconnect"]
        joins = [e for e in telemetry.events
                 if e.kind == "worker_joined"]
        assert [e.payload["reconnect"] for e in joins] == [False, True]

        coord.request_shutdown("test-end")
        batch.join(timeout=10.0)
        assert not batch.is_alive()
        new.close()
    assert coord.fleet_stats()["workers"]["phoenix"]["reconnects"] == 1


def test_worker_survives_injected_net_partition():
    """End-to-end chaos: a seeded net_partition cuts the worker's link
    mid-run; the worker reconnects with the same session, the
    coordinator supersedes and retries, and the batch completes with
    bit-identical cycles."""
    specs = fleet_specs(3)
    telemetry = Telemetry()
    plan = FaultPlan.parse("net_partition@4,seed=11")
    with Coordinator("127.0.0.1:0", telemetry=telemetry,
                     retries=2) as coord:
        worker = Worker(coord.address, worker_id="chaotic",
                        max_reconnects=3, reconnect_base=0.02,
                        connect_timeout=0.5, faults=plan)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        outcomes = coord.run(specs)
    join_all([thread])

    assert plan.count("net_partition") == 1
    assert worker.reconnects >= 1
    assert [o.status for o in outcomes] == ["ok"] * 3
    baseline = BatchEngine(jobs=1).run(specs)
    for fleet_out, serial_out in zip(outcomes, baseline):
        assert (fleet_out.summary.total_cycles
                == serial_out.summary.total_cycles)
        assert (fleet_out.summary.values_digest
                == serial_out.summary.values_digest)
    # The partition surfaced as a supersede (reconnect reclaim) or a
    # plain disconnect, depending on which side noticed first; either
    # way nothing was lost or duplicated.
    kinds = {e.kind for e in telemetry.events}
    assert "worker_joined" in kinds


def test_worker_completes_after_coordinator_restart(tmp_path):
    """The satellite scenario: the coordinator dies mid-batch and a
    resumed coordinator on the same port inherits the journal; the
    surviving worker reconnects and finishes the remainder with no
    lost or duplicated journal records."""
    specs = fleet_specs(3)
    path = tmp_path / "journal.jsonl"

    first = Coordinator("127.0.0.1:0", journal=RunJournal(path),
                        lease_seconds=60.0, poll_seconds=0.01)
    first.start()
    port = first.port
    runner_a, batch_a = _background_batch(first, specs)

    # A ghost claims one lease and sits on it, so the real worker can
    # finish every job but that one — guaranteeing a mid-batch state.
    ghost, reply = _handshake(first, "ghost")
    assert reply["type"] == "welcome"
    ghost_lease = _claim_lease(ghost, "ghost")

    worker = Worker(first.address, worker_id="survivor",
                    max_reconnects=3, reconnect_base=0.02,
                    connect_timeout=1.5)
    wthread = threading.Thread(target=worker.run, daemon=True)
    wthread.start()

    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if '"type"' in path.read_text() and path.read_text().count(
                '"summary"') >= 2:
            break
        time.sleep(0.02)
    assert path.read_text().count('"summary"') >= 2, \
        "worker never completed the first two jobs"

    # "Crash" the first coordinator: server socket and all worker
    # connections drop without so much as a drain message; its
    # abandoned batch thread is shed later.
    first.close(drain=False)
    ghost.close()

    # A restarted coordinator on the same port resumes the journal.
    journal = RunJournal(path)
    assert journal.load() == 2
    second = Coordinator(f"127.0.0.1:{port}", journal=journal,
                         lease_seconds=60.0, poll_seconds=0.01)
    with second:
        outcomes = second.run(specs)
    first.request_shutdown("test-teardown")  # let thread A exit
    batch_a.join(timeout=10.0)
    join_all([wthread])

    assert sorted(o.status for o in outcomes) == ["ok", "resumed",
                                                  "resumed"]
    assert worker.reconnects >= 1
    assert worker.jobs_done == 3
    # The ledger holds exactly one completion per job — the resumed
    # run added the missing one, duplicated nothing.
    final = RunJournal(path)
    assert final.load() == 3
    assert final.hashes() == {s.content_hash() for s in specs}
    assert ghost_lease["hash"] in final.hashes()  # the held job too


# ----------------------------------------------------------------------
# memory guardrails
# ----------------------------------------------------------------------
def test_soft_memory_limit_signs_worker_off_cleanly():
    specs = fleet_specs(2)
    telemetry = Telemetry()
    with Coordinator("127.0.0.1:0", telemetry=telemetry) as coord:
        cramped = Worker(coord.address, worker_id="cramped",
                         guard=GuardPolicy(rss_soft_bytes=1))
        roomy = Worker(coord.address, worker_id="roomy")
        threads = [threading.Thread(target=w.run, daemon=True)
                   for w in (cramped, roomy)]
        for thread in threads:
            thread.start()
        outcomes = coord.run(specs)
    join_all(threads)

    # The cramped worker refused all leases and signed off with the
    # degradation reason; the roomy one did every job.
    assert cramped.stop_reason == "memory_soft"
    assert cramped.jobs_done == 0
    assert roomy.jobs_done == 2
    assert [o.status for o in outcomes] == ["ok", "ok"]
    goodbyes = [e for e in telemetry.events
                if e.kind == "worker_goodbye"]
    assert [e.payload["reason"] for e in goodbyes] == ["memory_soft"]
    stats = coord.fleet_stats()
    assert stats["workers"]["cramped"]["goodbye"] == "memory_soft"


def test_hard_memory_limit_evicts_like_a_crash(monkeypatch):
    """A hard RSS trip drops the connection (in production it also
    ``os._exit``\\ s); the coordinator reclaims like any crash and the
    batch completes elsewhere."""
    specs = fleet_specs(2)
    telemetry = Telemetry()
    evictions = []

    def fake_evict(self, stream):
        evictions.append(self.worker_id)
        stream.close()  # the disconnect is the observable effect

    monkeypatch.setattr(Worker, "_hard_evict", fake_evict)
    with Coordinator("127.0.0.1:0", telemetry=telemetry,
                     retries=1) as coord:
        doomed = Worker(coord.address, worker_id="doomed",
                        guard=GuardPolicy(rss_hard_bytes=1))
        healthy = Worker(coord.address, worker_id="healthy")
        threads = [threading.Thread(target=w.run, daemon=True)
                   for w in (doomed, healthy)]
        for thread in threads:
            thread.start()
        outcomes = coord.run(specs)
    join_all(threads)

    assert evictions == ["doomed"]
    assert doomed.stop_reason in ("memory_hard", "lost")
    assert doomed.jobs_done == 0
    assert [o.status for o in outcomes] == ["ok", "ok"]
    assert doomed.guard.rss_hard_bytes == 1


def test_memory_pressure_metric_counts_trips():
    from repro.obs.metrics import get_registry, enable_metrics

    registry = get_registry()
    was_enabled = registry.enabled
    enable_metrics()
    registry.clear()
    try:
        guard = GuardPolicy(rss_soft_bytes=1,
                            rss_hard_bytes=2 ** 50).memory_guard()
        assert guard.check() == "soft"
        series = registry.snapshot()["metrics"][
            "guard_memory_pressure_total"]["series"]
        assert any(s["labels"].get("level") == "soft"
                   and s["value"] == 1 for s in series)
    finally:
        registry.clear()
        registry.enabled = was_enabled


# ----------------------------------------------------------------------
# lease-expiry vs late-result race (the double-reclaim satellite)
# ----------------------------------------------------------------------
def test_late_result_after_expiry_is_stale_not_duplicated(tmp_path):
    specs = fleet_specs(1)
    path = tmp_path / "journal.jsonl"
    telemetry = Telemetry()
    with Coordinator("127.0.0.1:0", lease_seconds=0.15,
                     poll_seconds=0.02, retries=1,
                     journal=RunJournal(path),
                     telemetry=telemetry) as coord:
        runner, batch = _background_batch(coord, specs)
        slow, reply = _handshake(coord, "slowpoke")
        assert reply["type"] == "welcome"
        lease = _claim_lease(slow, "slowpoke")

        # Let the lease expire (no heartbeats), the sweeper reclaims
        # and requeues; the slow worker then reports anyway.
        time.sleep(0.4)
        slow.send(protocol.result(
            "slowpoke", lease["hash"], lease["attempt"], "failed",
            0.3, error="too late to matter"))
        assert slow.recv()["type"] == "ack"  # still acked, then dropped

        # A real worker runs the retried attempt to completion.
        _workers, threads = start_workers(coord.address, 1)
        batch.join(timeout=30.0)
        assert not batch.is_alive()
        slow.close()
    join_all(threads)

    assert [o.status for o in runner["outcomes"]] == ["ok"]
    assert coord.stale_results == 1
    assert telemetry.count("lease_expired") == 1
    # Exactly one completion in the ledger; the late failure neither
    # failed the job nor double-reclaimed the lease.
    journal = RunJournal(path)
    assert journal.load() == 1
    assert journal.stats()["reclaim_lines"] == 1
    reclaimed = [e for e in telemetry.events
                 if e.kind in ("lease_expired", "lease_reclaimed")]
    assert len(reclaimed) == 1


def _one_session_coordinator():
    """A coordinator stand-in that welcomes one worker, then vanishes
    (connection and listener both closed)."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def serve():
        conn, _ = listener.accept()
        listener.close()
        stream = MessageStream(conn)
        stream.recv()  # hello
        stream.send(protocol.welcome("vanishing", 30.0, 1.0))
        stream.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return port, thread


def test_worker_reconnect_attempts_are_bounded():
    """With no coordinator ever coming back, a worker that lost its
    session gives up after max_reconnects consecutive losses instead of
    spinning forever."""
    port, coordinator = _one_session_coordinator()
    worker = Worker(f"127.0.0.1:{port}", worker_id="stranded",
                    connect_timeout=0.1, max_reconnects=2,
                    reconnect_base=0.01)
    start = time.monotonic()
    assert worker.run() == 0
    assert time.monotonic() - start < 5.0
    coordinator.join(timeout=5.0)
    assert not coordinator.is_alive()
    assert worker.stop_reason == "lost"
    assert worker.reconnects == 1


def test_worker_never_connected_does_not_redial():
    """A first dial that times out is not a lost session: the worker
    raises after connect_timeout instead of re-dialing max_reconnects
    more times."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    worker = Worker(f"127.0.0.1:{port}", worker_id="unreachable",
                    connect_timeout=0.3, max_reconnects=5)
    start = time.monotonic()
    with pytest.raises(ReproError, match="could not reach"):
        worker.run()
    assert time.monotonic() - start < 2.0
