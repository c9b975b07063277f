"""Chaos acceptance: SIGKILL a worker, the cluster keeps its promises.

Three promises, each against *real* subprocess workers:

* the supervisor notices the kill and restarts the worker within the
  configured backoff envelope;
* an in-flight request whose primary dies fails over to the replica and
  the answer is **bit-identical** to a single daemon's (Corollary 3.5:
  verification is pure, so any replica — or the degraded in-process
  fallback — must produce the same verdicts and witnesses);
* with *every* replica down, the router still answers (tagged
  ``degraded``) rather than dropping the request.

Determinism discipline: placement is computed from the same
:class:`~repro.cluster.placement.HashRing` the router uses (sha256, no
``PYTHONHASHSEED`` dependence), so tests kill exactly the primary for a
key; and for transport-level failover the supervisor's health interval
is set far out, so the router *believes* the dead primary is healthy and
must discover the crash through the failed request itself.
"""

import threading
import time

import pytest

from repro.cluster import cluster_in_thread
from repro.core.resilience import RetryPolicy
from repro.service import serve_in_thread

ORDERS = """
goal: receive * (credit | stock) * approve * archive
constraint: precedes(credit, approve)
property credit_first: precedes(credit, approve)
property archived: happens(archive)
property backwards: precedes(stock, credit)
"""


def bench_spec(pairs: int) -> str:
    """The service benchmark's workload shape, two properties per pair
    (``pairs=8`` → the full 16-property batch): each property fails, so
    each takes a full G ∧ C ∧ ¬Φ compile and a witness — uniform work (a
    holding property would be refuted on the goal's masks without a
    compile). (Constraint count stays at ``pairs`` because compilation
    is exponential in it — Theorem 5.11's ``O(d^N·|G|)``.)"""
    lines = ["goal: " + " * ".join(f"(a{i} | b{i})" for i in range(pairs))]
    for i in range(pairs):
        lines.append(f"constraint: precedes(a{i}, b{i}) "
                     f"or precedes(b{i}, a{i})")
    for i in range(pairs):
        lines.append(f"property p{i}: precedes(a{i}, b{i})")
        lines.append(f"property h{i}: precedes(b{i}, a{i})")
    return "\n".join(lines) + "\n"


def result_rows(payload: dict) -> list:
    """Just the verdict rows — the part that must be bit-identical
    whichever daemon (or fallback) answered."""
    return payload["results"]


def single_daemon_reference(text: str, **verify_kwargs) -> dict:
    with serve_in_thread() as handle:
        with handle.client() as client:
            return client.verify(text=text, **verify_kwargs)


def primary_and_backup(handle, text: str) -> tuple[str, str]:
    entry = handle.service.registry.resolve_inline(text)
    replicas = handle.service.ring.replicas_for(entry.key)
    assert len(replicas) == 2
    return replicas


class TestRestartAfterKill:
    def test_supervisor_restarts_within_backoff_envelope(self):
        handle = cluster_in_thread(
            workers=2, replicas=2,
            supervisor_kwargs={
                "health_interval": 0.1,
                "restart_policy": RetryPolicy(
                    max_attempts=1000, base_delay=0.2,
                    multiplier=2.0, max_delay=1.0, jitter=0.5,
                ),
            },
        )
        try:
            state = handle.service.supervisor.state_of("w0")
            first_pid = state.handle.pid
            handle.kill_worker("w0")
            # Envelope: detection ≤ ~health interval, restart delay ≤
            # base_delay * (1 + jitter) = 0.3s; 10s is a generous ceiling
            # that still catches a supervisor that never restarts.
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if state.healthy and state.handle.pid != first_pid:
                    break
                time.sleep(0.05)
            assert state.healthy, "worker was not restarted in time"
            assert state.restarts >= 1
            assert state.handle.pid != first_pid
            # The resurrected worker serves traffic.
            with handle.client() as client:
                out = client.verify(text=ORDERS)
            assert {r["name"]: r["holds"] for r in out["results"]} == {
                "credit_first": True, "archived": True, "backwards": False,
            }
        finally:
            handle.stop()


class TestFailoverBitIdentical:
    @pytest.fixture
    def quiet_cluster(self):
        # Health checks far out: the router must discover the kill through
        # the failed request itself, exercising transport-level failover.
        # (A killed worker stays dead — each test gets a fresh cluster.)
        handle = cluster_in_thread(
            workers=2, replicas=2,
            supervisor_kwargs={"health_interval": 3600.0},
        )
        yield handle
        handle.stop()

    def test_kill_primary_fails_over_bit_identical(self, quiet_cluster):
        handle = quiet_cluster
        primary, backup = primary_and_backup(handle, ORDERS)
        handle.kill_worker(primary)
        with handle.client() as client:
            out = client.verify(text=ORDERS, seed=11)
        assert out["worker"] == backup
        assert "degraded" not in out
        reference = single_daemon_reference(ORDERS, seed=11)
        assert result_rows(out) == result_rows(reference)
        # The supervisor learned about the crash from the router.
        assert not handle.service.supervisor.state_of(primary).healthy

    def test_concurrent_inflight_requests_all_answer(self, quiet_cluster):
        handle = quiet_cluster
        text = bench_spec(3)  # 6 properties: real but brief batches
        primary, _ = primary_and_backup(handle, text)
        outs, errors = [], []
        lock = threading.Lock()

        def one_request():
            try:
                with handle.client() as client:
                    out = client.verify(text=text)
                with lock:
                    outs.append(out)
            except BaseException as exc:  # pragma: no cover - gate below
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=one_request) for _ in range(8)]
        for thread in threads:
            thread.start()
        time.sleep(0.05)
        handle.kill_worker(primary)  # mid-batch for whoever reached it
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, f"in-flight requests failed: {errors[:1]}"
        assert len(outs) == 8
        reference = result_rows(single_daemon_reference(text))
        for out in outs:
            assert result_rows(out) == reference


class TestDegradedPath:
    def test_all_replicas_down_still_answers(self):
        handle = cluster_in_thread(
            workers=2, replicas=2,
            supervisor_kwargs={
                "health_interval": 0.1,
                # Keep the dead workers dead for the duration of the test.
                "restart_policy": RetryPolicy(max_attempts=1000,
                                              base_delay=120.0),
            },
        )
        try:
            for worker_id in handle.service.supervisor.workers:
                handle.kill_worker(worker_id)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if not handle.service.supervisor.healthy_workers():
                    break
                time.sleep(0.05)
            assert handle.service.supervisor.healthy_workers() == ()
            with handle.client() as client:
                out = client.verify(text=ORDERS, seed=11)
            # Answered — degraded, tagged, and still bit-identical.
            assert out["degraded"] is True
            reference = single_daemon_reference(ORDERS, seed=11)
            assert result_rows(out) == result_rows(reference)
        finally:
            handle.stop()


class TestFullBatchFidelity:
    def test_cluster_jobs4_matches_single_daemon_on_16_property_batch(self):
        text = bench_spec(8)  # the full 16-property batch
        handle = cluster_in_thread(workers=2, replicas=2, worker_jobs=4)
        try:
            with handle.client(timeout=300.0) as client:
                clustered = client.verify(text=text)
        finally:
            handle.stop()
        assert len(result_rows(clustered)) == 16
        reference = single_daemon_reference(text)
        assert result_rows(clustered) == result_rows(reference)
