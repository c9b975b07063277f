"""S5: the verification service — batched throughput, fidelity, draining.

Workload: four concurrent event pairs plus a serial pad under four
width-2 disjunctive order constraints; every request verifies the same
five properties, each of which *holds* — so each one forces a full
(inconsistent) ``G ∧ C ∧ ¬Φ`` compile and represents maximal, uniform
verification work. The service runs with **no** persistent compile
cache, and so with no answer memo either (a daemon keeps one only
beside a compile cache): every request reaches the batcher, every
verification the daemon actually performs is real Apply/Excise work,
and whatever the batcher saves, it saves by coalescing — not by hiding
behind the disk cache or remembered answers.

Three gates:

* **S5a** — *zero divergence*: every verdict and witness the service
  returns (sequential client, concurrent client, and during shutdown)
  is identical to direct :func:`~repro.core.verify.verify_property`
  library calls. Runs anywhere.
* **S5b** — *batched throughput*: 4 concurrent client workers sustain at
  least 2× the request throughput of a sequential one-request-at-a-time
  client, on any machine — the win is the batcher coalescing identical
  in-flight work (a request the running batch already covers joins it,
  so one verification fans out to every concurrent waiter), not process
  parallelism, so a single-core box passes too. The ratio is the median
  over 5 interleaved (sequential, batched) phase pairs on the one warm
  daemon, the side that goes first alternating, so host drift between
  two phases does not decide it.
* **S5c** — *graceful draining*: a shutdown issued mid-burst answers
  every accepted request with a full (and correct) verdict; shed
  requests fail crisply with 503/connection-refused, never by hanging
  or by a dropped accepted request.

The daemon runs at its defaults throughout.

Saved machine-readably as ``results/BENCH_service.json`` (consumed by CI).
"""

from __future__ import annotations

import json
import os
import statistics
import threading
import time

from conftest import RESULTS_DIR, save_table

from repro.analysis.metrics import render_table
from repro.core.verify import verify_properties
from repro.service import ServiceClientError, serve_in_thread
from repro.spec import parse_specification

N_PAIRS = 4
WORKERS = 4          # concurrent client workers in the batched phase
REQUESTS = 24        # total requests in each throughput phase
PAIRS = 5            # interleaved (sequential, batched) phase pairs

_RESULTS: dict | None = None


def _spec_text() -> str:
    lines = ["goal: "
             + " * ".join(f"(a{i} | b{i})" for i in range(N_PAIRS))
             + " * pad0 * pad1"]
    for i in range(N_PAIRS):
        lines.append(
            f"constraint: precedes(a{i}, b{i}) or precedes(b{i}, a{i})"
        )
    for i in range(N_PAIRS):
        lines.append(
            f"property p{i}: precedes(a{i}, b{i}) or precedes(b{i}, a{i})"
        )
    lines.append("property padded: happens(pad0)")
    return "\n".join(lines) + "\n"


def _direct_reference(text: str) -> list[dict]:
    """The library's own answers, shaped like the service's response rows."""
    spec = parse_specification(text)
    results = verify_properties(
        spec.goal, list(spec.constraints),
        [prop for _, prop in spec.properties], rules=spec.rules,
    )
    return [
        {
            "name": name,
            "property": str(result.property),
            "holds": result.holds,
            "witness": list(result.witness) if result.witness else None,
        }
        for (name, _), result in zip(spec.properties, results)
    ]


def _throughput_phase(handle, *, workers: int, requests: int):
    """Drive ``requests`` verify calls with ``workers`` threads; per-thread
    requests are sequential, so ``workers=1`` is the one-at-a-time client."""
    responses: list[dict] = []
    errors: list[BaseException] = []
    lock = threading.Lock()
    per_worker = requests // workers

    def worker():
        client = handle.client()
        try:
            for _ in range(per_worker):
                out = client.verify(spec="bench")
                with lock:
                    responses.append(out)
        except BaseException as exc:  # pragma: no cover - surfaces in gate
            with lock:
                errors.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(workers)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    return responses, elapsed


def _drain_phase(text: str):
    """Issue a burst, stop(drain=True) mid-flight, account for every request."""
    handle = serve_in_thread(queue_limit=256)
    with handle.client() as setup:
        setup.register("bench", text)
    # Hold the first batch on the executor until the drain has begun, so
    # the shutdown below exercises the accepted-then-drained path, not
    # just refusal.
    batcher = handle.service.batcher
    release = threading.Event()
    verify_batch = batcher._verify_batch

    def held(*args):
        release.wait(timeout=30)
        return verify_batch(*args)

    batcher._verify_batch = held
    answered: list[dict] = []
    refused: list[BaseException] = []
    lock = threading.Lock()
    barrier = threading.Barrier(9)

    def worker():
        client = handle.client()
        try:
            barrier.wait()
            out = client.verify(spec="bench")
            with lock:
                answered.append(out)
        except (ServiceClientError, OSError) as exc:
            with lock:
                refused.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    barrier.wait()  # all 8 requests are being written right now
    # Wait until the daemon has accepted every request (the held batch's
    # own, and the ones that joined it or queued behind it), then stop
    # while the batch is still held.
    deadline = time.perf_counter() + 5.0
    while (batcher.stats.accepted < 8 * (N_PAIRS + 1)
           and time.perf_counter() < deadline):
        time.sleep(0.001)
    stopper = threading.Thread(target=handle.stop, kwargs={"drain": True})
    stopper.start()
    while not batcher.draining and time.perf_counter() < deadline:
        time.sleep(0.001)
    drained_held_batch = batcher.draining  # the drain began before release
    release.set()
    stopper.join(timeout=60)
    hung = 0
    for thread in threads:
        thread.join(timeout=60)
        hung += thread.is_alive()
    cleanly_refused = all(
        not isinstance(e, ServiceClientError) or e.status == 503
        for e in refused
    )
    return {
        "requests": 8,
        "answered": len(answered),
        "refused": len(refused),
        "hung": hung,
        "cleanly_refused": cleanly_refused,
        "drained_held_batch": drained_held_batch,
    }, answered


def _measure() -> dict:
    global _RESULTS
    if _RESULTS is not None:
        return _RESULTS

    text = _spec_text()
    reference = _direct_reference(text)

    handle = serve_in_thread(queue_limit=256)
    responses: list[dict] = []
    pairs: list[dict] = []
    ratios: list[float] = []
    try:
        with handle.client() as setup:
            setup.register("bench", text)
            # Warm-up: pays the lazy imports. /verify keeps no compile
            # memo, and without a compile cache no answer memo either.
            setup.verify(spec="bench")
        for index in range(PAIRS):
            order = (("sequential", "batched") if index % 2 == 0
                     else ("batched", "sequential"))
            pair: dict = {"first": order[0]}
            walls = {}
            for side in order:
                out, walls[side] = _throughput_phase(
                    handle, workers=1 if side == "sequential" else WORKERS,
                    requests=REQUESTS)
                responses += out
                pair[side] = {"wall_s": round(walls[side], 4),
                              "rps": round(REQUESTS / walls[side], 2)}
            ratios.append(walls["sequential"] / walls["batched"])
            pair["speedup"] = round(ratios[-1], 2)
            pairs.append(pair)
        stats = handle.service.batcher.stats
        coalesced = stats.coalesced
        verified = stats.verified
    finally:
        handle.stop()

    drain, drain_answered = _drain_phase(text)

    identical = all(
        out["results"] == reference for out in responses + drain_answered
    )
    speedup = statistics.median(ratios)

    _RESULTS = {
        "benchmark": "service",
        "workload": (
            f"{N_PAIRS} concurrent event pairs + 2-event pad, {N_PAIRS} "
            f"width-2 disjunctive constraints, {N_PAIRS + 1} properties "
            f"per request; {REQUESTS} requests per phase; no compile cache"
        ),
        "cpu_count": os.cpu_count(),
        "requests_per_phase": REQUESTS,
        "workers": WORKERS,
        "pairs": pairs,
        "speedup": round(speedup, 2),
        "batcher": {"verified": verified, "coalesced": coalesced},
        "drain": drain,
        "gates": {
            "zero_divergence": identical,
            "throughput_2x_at_4_workers": speedup >= 2.0,
            "graceful_drain": (
                drain["hung"] == 0
                and drain["answered"] >= 1  # the drained path really ran
                and drain["answered"] + drain["refused"] == drain["requests"]
                and drain["cleanly_refused"]
            ),
        },
    }
    return _RESULTS


def test_s5a_zero_divergence(benchmark):
    results = _measure()
    assert results["gates"]["zero_divergence"], (
        "service verdicts diverged from direct verify_property calls"
    )

    text = _spec_text()
    spec = parse_specification(text)
    benchmark(lambda: verify_properties(
        spec.goal, list(spec.constraints),
        [prop for _, prop in spec.properties[:1]], rules=spec.rules,
    ))

    save_table(
        "S5_service",
        render_table(
            f"S5: service throughput, sequential vs {WORKERS} concurrent "
            f"workers ({REQUESTS} requests per phase)",
            ["pair", "first", "sequential req/s", f"{WORKERS} workers req/s",
             "ratio"],
            [
                [index + 1, pair["first"], pair["sequential"]["rps"],
                 pair["batched"]["rps"], pair["speedup"]]
                for index, pair in enumerate(results["pairs"])
            ],
            note=(
                f"median speedup {results['speedup']}x on cpu_count="
                f"{results['cpu_count']}: the batcher verified "
                f"{results['batcher']['verified']} unique properties and "
                f"coalesced {results['batcher']['coalesced']} more — the "
                "win is request coalescing, not cores. Drain: "
                f"{results['drain']['answered']} answered + "
                f"{results['drain']['refused']} refused of "
                f"{results['drain']['requests']} mid-shutdown."
            ),
        ),
    )


def test_s5b_batched_throughput_2x():
    results = _measure()
    assert results["gates"]["throughput_2x_at_4_workers"], (
        f"expected >=2x throughput with {WORKERS} concurrent workers, got "
        f"a median of {results['speedup']:.2f}x over the pairs "
        + ", ".join(f"{pair['batched']['rps']}/{pair['sequential']['rps']} "
                    "req/s" for pair in results["pairs"])
    )


def test_s5c_graceful_drain_never_drops_accepted_requests():
    results = _measure()
    drain = results["drain"]
    assert drain["hung"] == 0, "a client thread hung through shutdown"
    assert drain["drained_held_batch"], (
        "the drain never began while the first batch was held, so the "
        "accepted-then-drained path was not exercised"
    )
    assert drain["answered"] >= 1, (
        "shutdown refused everything — the drain path was never exercised"
    )
    assert drain["answered"] + drain["refused"] == drain["requests"]
    assert drain["cleanly_refused"], (
        "a refused request saw something other than 503/connection-refused"
    )


def test_s5d_emit_json():
    results = _measure()
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_service.json"
    out.write_text(json.dumps(results, indent=2) + "\n")
