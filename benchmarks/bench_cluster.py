"""C: the cluster — fidelity under replication, recovery, scaling.

Workload: the service benchmark's shape (concurrent event pairs under
width-2 disjunctive order constraints, every property holding so each
forces a full ``G ∧ C ∧ ¬Φ`` compile), served by a router consistent-
hashing keys onto real subprocess workers. No persistent compile cache,
and so no answer memo (a daemon keeps one only beside a compile cache):
whatever a worker answers, it computed.

Three gates:

* **C1** — *zero divergence*: every verdict and witness the cluster
  returns — sequential, concurrent, and across distinct replicas — is
  identical to a single daemon's (and hence, by the S5a gate, to direct
  library calls). Corollary 3.5 makes this a correctness property of
  replication, not a statistical hope. Runs anywhere.
* **C2** — *recovery after kill*: SIGKILL a worker; the supervisor must
  restore a healthy replacement within the latency budget, and the
  resurrected worker must serve traffic. Runs anywhere.
* **C3** — *throughput scaling*: 4 workers sustain at least 1.8× the
  request throughput of 1 worker on distinct (non-coalescable) specs.
  This one needs real cores — skipped when ``os.cpu_count() < 4``.

Saved machine-readably as ``results/BENCH_cluster.json`` (consumed by CI).
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest
from conftest import RESULTS_DIR, save_table

from repro.analysis.metrics import render_table
from repro.cluster import cluster_in_thread
from repro.core.resilience import RetryPolicy
from repro.service import serve_in_thread

N_PAIRS = 4
REQUESTS = 12        # per throughput phase (C3)
CLIENTS = 4          # concurrent client threads in C1/C3
RECOVERY_BUDGET_S = 10.0

_RESULTS: dict | None = None


def _spec_text(tag: str = "") -> str:
    """Distinct ``tag``s give distinct specs: different inline keys, so
    they spread across the ring and the batcher cannot coalesce them."""
    names = [(f"a{tag}x{i}", f"b{tag}x{i}") for i in range(N_PAIRS)]
    lines = ["goal: " + " * ".join(f"({a} | {b})" for a, b in names)]
    for a, b in names:
        lines.append(f"constraint: precedes({a}, {b}) or precedes({b}, {a})")
    for i, (a, b) in enumerate(names):
        lines.append(f"property p{i}: precedes({a}, {b}) or precedes({b}, {a})")
        lines.append(f"property h{i}: happens({a}) or happens({b})")
    return "\n".join(lines) + "\n"


def _single_daemon_reference(text: str) -> list[dict]:
    with serve_in_thread() as handle:
        with handle.client() as client:
            return client.verify(text=text)["results"]


def _fidelity_phase() -> dict:
    """C1: sequential + concurrent verify through a 2-worker cluster,
    every response compared row-for-row against a single daemon."""
    text = _spec_text()
    reference = _single_daemon_reference(text)
    handle = cluster_in_thread(workers=2, replicas=2)
    outs: list[dict] = []
    errors: list[BaseException] = []
    lock = threading.Lock()
    try:
        with handle.client() as client:
            client.register("bench", text)
            for _ in range(3):
                outs.append(client.verify(spec="bench"))

        def worker():
            try:
                with handle.client() as client:
                    for _ in range(2):
                        out = client.verify(spec="bench")
                        with lock:
                            outs.append(out)
            except BaseException as exc:  # pragma: no cover - gate below
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        handle.stop()
    if errors:
        raise errors[0]
    workers_seen = sorted({out["worker"] for out in outs})
    return {
        "requests": len(outs),
        "workers_seen": workers_seen,
        "identical": all(out["results"] == reference for out in outs),
        "degraded": sum(1 for out in outs if out.get("degraded")),
    }


def _recovery_phase() -> dict:
    """C2: SIGKILL a worker mid-service, time the supervisor's recovery."""
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
        text = _spec_text("r")
        reference = _single_daemon_reference(text)
        state = handle.service.supervisor.state_of("w0")
        first_pid = state.handle.pid
        start = time.perf_counter()
        handle.kill_worker("w0")
        deadline = start + 60.0
        while time.perf_counter() < deadline:
            if state.healthy and state.handle.pid != first_pid:
                break
            time.sleep(0.02)
        recovery_s = time.perf_counter() - start
        with handle.client() as client:
            after = client.verify(text=text)
        return {
            "recovered": state.healthy and state.handle.pid != first_pid,
            "recovery_s": round(recovery_s, 3),
            "budget_s": RECOVERY_BUDGET_S,
            "restarts": state.restarts,
            "serves_after_restart": after["results"] == reference,
        }
    finally:
        handle.stop()


def _throughput_phase(n_workers: int) -> tuple[int, float]:
    """``REQUESTS`` verifies of *distinct* inline specs through an
    ``n_workers`` cluster — no coalescing, no cache: pure compile work
    spread by the ring."""
    texts = [_spec_text(f"w{n_workers}n{i}") for i in range(REQUESTS)]
    handle = cluster_in_thread(workers=n_workers, replicas=1)
    errors: list[BaseException] = []
    lock = threading.Lock()
    queue = list(enumerate(texts))
    try:
        with handle.client() as warm:
            warm.healthz()

        def worker():
            with handle.client(timeout=120.0) as client:
                while True:
                    with lock:
                        if not queue:
                            return
                        _, text = queue.pop()
                    try:
                        client.verify(text=text)
                    except BaseException as exc:  # pragma: no cover
                        with lock:
                            errors.append(exc)
                        return

        threads = [threading.Thread(target=worker) for _ in range(CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
    finally:
        handle.stop()
    if errors:
        raise errors[0]
    return REQUESTS, elapsed


def _measure() -> dict:
    global _RESULTS
    if _RESULTS is not None:
        return _RESULTS

    fidelity = _fidelity_phase()
    recovery = _recovery_phase()

    cpu_count = os.cpu_count() or 1
    if cpu_count >= 4:
        n1, one_s = _throughput_phase(1)
        n4, four_s = _throughput_phase(4)
        scaling = {
            "skipped": False,
            "one_worker": {"requests": n1, "wall_s": round(one_s, 3),
                           "rps": round(n1 / one_s, 2)},
            "four_workers": {"requests": n4, "wall_s": round(four_s, 3),
                             "rps": round(n4 / four_s, 2)},
            "speedup": round((n4 / four_s) / (n1 / one_s), 2),
        }
    else:
        scaling = {
            "skipped": True,
            "reason": f"needs >=4 cores, have {cpu_count}",
        }

    _RESULTS = {
        "benchmark": "cluster",
        "workload": (
            f"{N_PAIRS} concurrent event pairs, {N_PAIRS} width-2 "
            f"disjunctive constraints, {2 * N_PAIRS} properties per "
            "request; 2 workers x 2 replicas (C1/C2), distinct inline "
            "specs (C3); no compile cache"
        ),
        "cpu_count": cpu_count,
        "fidelity": fidelity,
        "recovery": recovery,
        "scaling": scaling,
        "gates": {
            "zero_divergence": (
                fidelity["identical"] and fidelity["degraded"] == 0
            ),
            "recovery_within_budget": (
                recovery["recovered"]
                and recovery["serves_after_restart"]
                and recovery["recovery_s"] <= RECOVERY_BUDGET_S
            ),
            "throughput_1_8x_at_4_workers": (
                None if scaling["skipped"] else scaling["speedup"] >= 1.8
            ),
        },
    }
    return _RESULTS


def test_c1_zero_divergence(benchmark):
    results = _measure()
    assert results["gates"]["zero_divergence"], (
        "cluster verdicts diverged from the single daemon "
        f"(identical={results['fidelity']['identical']}, "
        f"degraded={results['fidelity']['degraded']})"
    )

    from repro.core.verify import verify_properties
    from repro.spec import parse_specification

    spec = parse_specification(_spec_text())
    benchmark(lambda: verify_properties(
        spec.goal, list(spec.constraints),
        [prop for _, prop in spec.properties[:1]], rules=spec.rules,
    ))

    scaling = results["scaling"]
    rows = [
        ["fidelity", f"{results['fidelity']['requests']} requests",
         "identical" if results["fidelity"]["identical"] else "DIVERGED"],
        ["recovery", f"{results['recovery']['recovery_s']} s",
         "ok" if results["recovery"]["recovered"] else "FAILED"],
        ["scaling 1->4",
         "skipped" if scaling["skipped"] else f"{scaling['speedup']}x",
         scaling.get("reason", "")],
    ]
    save_table(
        "C_cluster",
        render_table(
            "C: cluster fidelity, recovery, scaling",
            ["phase", "result", "note"],
            rows,
            note=(
                f"workers seen: {results['fidelity']['workers_seen']}; "
                f"recovery budget {RECOVERY_BUDGET_S}s on cpu_count="
                f"{results['cpu_count']}."
            ),
        ),
    )


def test_c2_recovery_after_kill_within_budget():
    results = _measure()
    recovery = results["recovery"]
    assert recovery["recovered"], "worker was never restarted"
    assert recovery["serves_after_restart"], (
        "resurrected worker returned different verdicts"
    )
    assert recovery["recovery_s"] <= RECOVERY_BUDGET_S, (
        f"recovery took {recovery['recovery_s']}s, "
        f"budget {RECOVERY_BUDGET_S}s"
    )


def test_c3_throughput_scaling_1_8x():
    results = _measure()
    scaling = results["scaling"]
    if scaling["skipped"]:
        pytest.skip(scaling["reason"])
    assert results["gates"]["throughput_1_8x_at_4_workers"], (
        f"expected >=1.8x throughput from 1 to 4 workers, got "
        f"{scaling['speedup']}x ({scaling['one_worker']['rps']} -> "
        f"{scaling['four_workers']['rps']} req/s)"
    )


def test_c4_emit_json():
    results = _measure()
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_cluster.json"
    out.write_text(json.dumps(results, indent=2) + "\n")
