"""End-to-end tests of the HTTP daemon via the blocking client.

Each test class gets one service on an ephemeral port, running on a
background thread (the :func:`~repro.service.server.serve_in_thread`
harness the benchmarks and examples use too).
"""

import asyncio
import http.client
import json
import threading
import time

import pytest

from repro.constraints.parser import parse_constraint
from repro.core.verify import verify_property
from repro.service import ServiceClientError, serve_in_thread
from repro.service import registry as registry_module
from repro.spec import parse_specification

ORDERS = """
goal: receive * (credit | stock) * approve * archive
constraint: precedes(credit, approve)
property credit_first: precedes(credit, approve)
property archived: happens(archive)
property backwards: precedes(stock, credit)
"""

CLAIMS = """
goal: submit * (triage + fastpath) * settle
property settled: happens(settle)
"""


@pytest.fixture(scope="class")
def service():
    handle = serve_in_thread()
    with handle.client() as client:
        client.register("orders", ORDERS)
        client.register("claims", CLAIMS)
    yield handle
    handle.stop()


class TestEndpoints:
    def test_healthz(self, service):
        with service.client() as client:
            health = client.healthz()
        assert health["status"] == "ok"
        assert health["specs"] == 2
        assert health["queue_limit"] > 0

    def test_specs_listing(self, service):
        with service.client() as client:
            specs = {s["name"]: s for s in client.specs()}
        assert specs["orders"]["properties"] == [
            "credit_first", "archived", "backwards"
        ]
        assert specs["claims"]["version"] == 1

    def test_consistency(self, service):
        with service.client() as client:
            assert client.consistency(spec="orders") is True
            assert client.consistency(
                text="goal: a * b\nconstraint: precedes(b, a)\n"
            ) is False

    def test_compile_reports_sizes(self, service):
        with service.client() as client:
            compiled = client.compile(spec="orders")
        assert compiled["consistent"] is True
        assert compiled["source_size"] > 0
        assert compiled["compiled_size"] >= compiled["source_size"]
        assert "archive" in compiled["compiled"]

    def test_schedule(self, service):
        with service.client() as client:
            out = client.schedule(spec="orders", limit=10)
        assert out["consistent"] is True
        assert len(out["schedules"]) == 2
        for schedule in out["schedules"]:
            assert schedule[0] == "receive" and schedule[-1] == "archive"
            assert schedule.index("credit") < schedule.index("approve")

    def test_schedule_of_a_1500_event_serial_workflow(self, service):
        events = [f"e{i}" for i in range(1, 1501)]
        text = "goal: " + " * ".join(events) + "\n"
        with service.client() as client:
            out = client.schedule(text=text, limit=1)
        assert out["consistent"] is True
        assert out["schedules"] == [events]

    def test_verify_matches_direct_library_calls(self, service):
        with service.client() as client:
            out = client.verify(spec="orders")
        spec = parse_specification(ORDERS)
        for (name, prop), result in zip(spec.properties, out["results"]):
            direct = verify_property(spec.goal, list(spec.constraints), prop,
                                     rules=spec.rules)
            assert result["name"] == name
            assert result["holds"] == direct.holds
            witness = list(direct.witness) if direct.witness else None
            assert result["witness"] == witness

    def test_verify_explicit_properties(self, service):
        with service.client() as client:
            out = client.verify(spec="orders",
                                properties=["happens(receive)",
                                            "never(approve)"])
        assert [r["holds"] for r in out["results"]] == [True, False]

    def test_verify_inline_text(self, service):
        with service.client() as client:
            out = client.verify(text=CLAIMS)
        assert out["spec"].startswith("inline:")
        assert out["results"][0]["holds"] is True

    def test_metrics_expositions(self, service):
        with service.client() as client:
            client.verify(spec="claims")
            text = client.metrics()
            data = client.metrics(format="json")
        assert "# TYPE service_verify_batches counter" in text
        assert "service_http_verify_requests" in text
        assert data["counters"]["service.verify.batches"] >= 1
        assert "service.verify.batch_size" in data["histograms"]


class TestErrorMapping:
    def test_unknown_spec_is_404(self, service):
        with service.client() as client:
            with pytest.raises(ServiceClientError) as excinfo:
                client.verify(spec="nope")
        assert excinfo.value.status == 404
        assert "unknown specification" in str(excinfo.value)

    def test_unknown_path_is_404_and_bad_method_405(self, service):
        with service.client() as client:
            with pytest.raises(ServiceClientError) as excinfo:
                client._request("GET", "/bogus")
            assert excinfo.value.status == 404
            with pytest.raises(ServiceClientError) as excinfo:
                client._request("GET", "/verify")
            assert excinfo.value.status == 405

    def test_malformed_json_is_400(self, service):
        import http.client

        conn = http.client.HTTPConnection(service.host, service.port,
                                          timeout=10)
        try:
            conn.request("POST", "/verify", body=b"{ nope",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "JSON" in payload["error"]

    def test_parse_error_in_spec_text_is_400(self, service):
        with service.client() as client:
            with pytest.raises(ServiceClientError) as excinfo:
                client.verify(text="goal: ((((\n")
        assert excinfo.value.status == 400

    def test_path_in_a_goal_is_400(self, service):
        with service.client() as client:
            with pytest.raises(ServiceClientError) as excinfo:
                client.compile(text="goal: a * path\n")
        assert excinfo.value.status == 400
        assert excinfo.value.payload["kind"] == "SpecificationError"

    def test_missing_target_is_400(self, service):
        with service.client() as client:
            with pytest.raises(ServiceClientError) as excinfo:
                client._request("POST", "/verify", {})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("header", [
        b"Content-Length: abc\r\n",
        b"Content-Length: -5\r\n",
        b"X-Padding: " + b"x" * 70_000 + b"\r\n",
    ], ids=["non-numeric-length", "negative-length", "70KB-header-line"])
    def test_malformed_request_head_is_400(self, service, header):
        import socket

        head = b"POST /verify HTTP/1.1\r\nHost: localhost\r\n" + header + b"\r\n"
        with socket.create_connection((service.host, service.port),
                                      timeout=10) as sock:
            sock.sendall(head)
            reply = b""
            while chunk := sock.recv(65536):  # the server closes after it
                reply += chunk
        status_line, _, rest = reply.partition(b"\r\n")
        assert status_line.startswith(b"HTTP/1.1 400"), reply[:200]
        assert b"Connection: close" in rest
        assert "error" in json.loads(rest.partition(b"\r\n\r\n")[2])
        with service.client() as client:
            assert client.healthz()["status"] == "ok"


class TestBatchingOverHttp:
    def test_concurrent_identical_requests_coalesce(self, service):
        baseline = service.service.batcher.stats.verified
        results: list[dict] = []
        errors: list[BaseException] = []
        # Connected first, then released together: the requests are
        # concurrent, not staggered by thread start-up.
        ready = threading.Barrier(8)

        def worker():
            try:
                with service.client() as client:
                    client.healthz()
                    ready.wait()
                    results.append(client.verify(spec="orders"))
            except BaseException as exc:  # pragma: no cover - fail the test
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 8
        first = results[0]["results"]
        for other in results[1:]:
            assert other["results"] == first
        # Dedup did real work: far fewer verifications than 8 clients x 3
        # properties (a request arriving just after a batch ends starts
        # the next one, so don't demand the theoretical minimum of 3).
        verified = service.service.batcher.stats.verified - baseline
        assert verified <= 12


class TestHotReloadOverHttp:
    def test_reregistration_changes_verdicts_and_version(self, service):
        with service.client() as client:
            v1 = client.register("flipflop",
                                 "goal: a * b\nproperty p: precedes(a, b)\n")
            before = client.verify(spec="flipflop")
            v2 = client.register("flipflop",
                                 "goal: b * a\nproperty p: precedes(a, b)\n")
            after = client.verify(spec="flipflop")
        assert (v1["version"], v2["version"]) == (1, 2)
        assert before["results"][0]["holds"] is True
        assert after["results"][0]["holds"] is False
        assert (before["version"], after["version"]) == (1, 2)


class TestSpecsDirectory:
    def test_specs_dir_preloads_and_hot_reloads(self, tmp_path):
        import os

        path = tmp_path / "orders.workflow"
        path.write_text(ORDERS)
        os.utime(path, (100.0, 100.0))
        handle = serve_in_thread(specs_dir=tmp_path)
        try:
            with handle.client() as client:
                assert [s["name"] for s in client.specs()] == ["orders"]
                assert client.verify(spec="orders")["version"] == 1
                path.write_text(ORDERS.replace(
                    "precedes(credit, approve)", "precedes(stock, approve)", 1
                ))
                os.utime(path, (200.0, 200.0))
                assert client.verify(spec="orders")["version"] == 2
        finally:
            handle.stop()


def post_verify(handle, body: dict) -> bytes:
    """``POST /verify`` on a fresh connection; the raw response body."""
    conn = http.client.HTTPConnection(handle.host, handle.port, timeout=30.0)
    try:
        conn.request("POST", "/verify", body=json.dumps(body),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        raw = response.read()
    finally:
        conn.close()
    assert response.status == 200, raw
    return raw


def memo_hits(handle) -> float:
    with handle.client() as client:
        counters = client.metrics(format="json")["counters"]
    return counters.get("service.verify.memo_hits", 0)


def direct_results(text: str, properties=None, seed=None) -> list[dict]:
    """What ``/verify`` must answer, from direct library calls."""
    spec = parse_specification(text)
    named = (spec.properties if properties is None
             else [(p, parse_constraint(p)) for p in properties])
    out = []
    for name, prop in named:
        direct = verify_property(spec.goal, list(spec.constraints), prop,
                                 rules=spec.rules, seed=seed)
        out.append({"name": name, "property": str(prop),
                    "holds": direct.holds,
                    "witness": list(direct.witness) if direct.witness
                    else None})
    return out


FLIP = "goal: a * b\nproperty p: precedes(a, b)\n"
FLOP = "goal: b * a\nproperty p: precedes(a, b)\n"


@pytest.fixture
def cached(tmp_path):
    handle = serve_in_thread(cache=tmp_path / "cache")
    with handle.client() as client:
        client.register("orders", ORDERS)
    yield handle
    handle.stop()


class TestAnswerMemo:
    """A daemon with a compile cache answers a repeated ``/verify`` from
    its answer memo; one without a cache verifies every request."""

    @pytest.mark.parametrize("seed", [None, 7])
    def test_repeated_verify_is_answered_from_the_memo(self, cached, seed):
        body = {"spec": "orders"} if seed is None else {"spec": "orders",
                                                        "seed": seed}
        stats = cached.service.batcher.stats
        first = post_verify(cached, body)
        verified = stats.verified
        second = post_verify(cached, body)
        assert stats.verified == verified  # the batcher was never asked
        assert memo_hits(cached) == 3
        expected = {"spec": "orders", "version": 1,
                    "results": direct_results(ORDERS, seed=seed)}
        assert second == first == json.dumps(expected).encode("utf-8")

    def test_hot_reloaded_file_gets_fresh_answers_and_old_text_hits(
        self, tmp_path
    ):
        import os

        path = tmp_path / "flip.workflow"
        handle = serve_in_thread(specs_dir=tmp_path,
                                 cache=tmp_path / "cache")
        stats = handle.service.batcher.stats
        answers = []
        try:
            for mtime, text in ((100.0, FLIP), (200.0, FLOP), (300.0, FLIP)):
                path.write_text(text)
                os.utime(path, (mtime, mtime))
                verified = stats.verified
                out = json.loads(post_verify(handle, {"spec": "flip"}))
                assert out["results"] == direct_results(text)
                answers.append((out["version"], stats.verified - verified))
            hits = memo_hits(handle)
        finally:
            handle.stop()
        # The edit verifies afresh; switching back is a memo hit.
        assert answers == [(1, 1), (2, 1), (3, 0)]
        assert hits == 1

    def test_reposted_spec_gets_fresh_answers_and_old_text_hits(self, cached):
        stats = cached.service.batcher.stats
        outcomes = []
        with cached.client() as client:
            for text in (FLIP, FLOP, FLIP):
                client.register("flip", text)
                verified = stats.verified
                out = client.verify(spec="flip")
                assert out["results"] == direct_results(text)
                outcomes.append(stats.verified - verified)
        assert outcomes == [1, 1, 0]
        assert memo_hits(cached) == 1

    def test_only_the_new_property_is_submitted(self, cached):
        stats = cached.service.batcher.stats
        known, new = "happens(receive)", "precedes(stock, credit)"
        with cached.client() as client:
            client.verify(spec="orders", properties=[known])
            submitted = stats.submitted
            out = client.verify(spec="orders", properties=[known, new])
        assert stats.submitted - submitted == 1
        assert memo_hits(cached) == 1
        assert out["results"] == direct_results(ORDERS, [known, new])

    def test_bound_evicts_the_least_recently_used(self, cached, monkeypatch):
        # Holding properties weigh one event each: the memo keeps two.
        monkeypatch.setattr(registry_module, "_ANSWER_MEMO_EVENTS", 2,
                            raising=False)
        stats = cached.service.batcher.stats
        verified = []
        with cached.client() as client:
            for prop in ("happens(receive)", "happens(approve)",
                         "happens(receive)", "happens(archive)",
                         "happens(receive)", "happens(approve)"):
                before = stats.verified
                out = client.verify(spec="orders", properties=[prop])
                assert out["results"][0]["holds"] is True
                verified.append(stats.verified - before)
        # receive was used after approve, so archive evicted approve.
        assert verified == [1, 1, 0, 1, 0, 1]
        assert memo_hits(cached) == 2

    def test_daemon_without_a_cache_verifies_every_request(self):
        handle = serve_in_thread()
        try:
            with handle.client() as client:
                client.register("orders", ORDERS)
                stats = handle.service.batcher.stats
                outs = []
                for _ in range(3):
                    verified = stats.verified
                    outs.append(client.verify(spec="orders"))
                    assert stats.verified - verified == 3
            hits = memo_hits(handle)
        finally:
            handle.stop()
        assert hits == 0
        assert outs[0] == outs[1] == outs[2]

    def test_draining_daemon_answers_a_memoized_verify_with_503(
        self, cached, monkeypatch
    ):
        batcher = cached.service.batcher
        with cached.client() as client:
            client.verify(spec="orders")  # every answer memoized
        release = threading.Event()
        verify_batch = batcher._verify_batch

        def held(*args):
            release.wait(timeout=30)
            return verify_batch(*args)

        monkeypatch.setattr(batcher, "_verify_batch", held)
        # A miss held on the executor keeps the drain open, and an
        # already-open keep-alive connection asks during it.
        keep_alive = cached.client(retries=0)
        keep_alive.healthz()
        held_out: list = []

        def verify_a_miss():
            with cached.client() as client:
                held_out.append(client.verify(
                    spec="orders", properties=["never(archive)"]))

        miss = threading.Thread(target=verify_a_miss)
        stopper = threading.Thread(target=cached.stop)
        try:
            miss.start()
            deadline = time.monotonic() + 10.0
            while not batcher._running and time.monotonic() < deadline:
                time.sleep(0.001)
            stopper.start()
            while not batcher.draining and time.monotonic() < deadline:
                time.sleep(0.001)
            with pytest.raises(ServiceClientError) as excinfo:
                keep_alive.verify(spec="orders")
        finally:
            release.set()
            if stopper.ident is None:
                stopper.start()
            keep_alive.close()
        stopper.join(timeout=60)
        miss.join(timeout=60)
        assert not stopper.is_alive() and not miss.is_alive()
        assert excinfo.value.status == 503
        assert [r["holds"] for r in held_out[0]["results"]] == [False]


class TestGracefulShutdown:
    def test_draining_stop_answers_all_accepted_requests(self, monkeypatch):
        handle = serve_in_thread()
        with handle.client() as setup:
            setup.register("orders", ORDERS)
        # Hold the first batch on the executor until the drain has begun,
        # so the stop below drains accepted work instead of racing it.
        batcher = handle.service.batcher
        release = threading.Event()
        verify_batch = batcher._verify_batch

        def held(*args):
            release.wait(timeout=30)
            return verify_batch(*args)

        monkeypatch.setattr(batcher, "_verify_batch", held)
        results: list[dict] = []
        errors: list[BaseException] = []

        def worker():
            client = handle.client()
            try:
                results.append(client.verify(spec="orders"))
            except BaseException as exc:
                errors.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        stopper = threading.Thread(target=handle.stop)
        try:
            for thread in threads:
                thread.start()
            # Every request accepted: the first one's batch is held, and
            # the other seven joined it or queued behind it.
            deadline = time.monotonic() + 10.0
            while (batcher.stats.accepted < 8 * 3
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            assert batcher.stats.accepted == 8 * 3
            stopper.start()
            while not batcher.draining and time.monotonic() < deadline:
                time.sleep(0.001)
            assert batcher.draining
        finally:
            release.set()
            if stopper.ident is None:  # failed before the stop: still stop
                stopper.start()
        stopper.join(timeout=60)
        for thread in threads:
            thread.join(timeout=60)
        # Accepted before the stop, so every one was answered in full —
        # never accepted-then-dropped, never a hung thread.
        assert not stopper.is_alive()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(results) == 8
        for out in results:
            assert [r["holds"] for r in out["results"]] == [True, True, False]

    def test_abort_answers_the_running_batch_and_refuses_the_queue(
        self, monkeypatch
    ):
        handle = serve_in_thread()
        with handle.client() as setup:
            setup.register("orders", ORDERS)
        # Hold the first batch on the executor until the abort has begun.
        batcher = handle.service.batcher
        release = threading.Event()
        verify_batch = batcher._verify_batch

        def held(*args):
            release.wait(timeout=30)
            return verify_batch(*args)

        monkeypatch.setattr(batcher, "_verify_batch", held)
        outcomes: dict[str, list] = {"running": [], "queued": []}
        lock = threading.Lock()

        def worker(group, seed):
            client = handle.client()
            try:
                out = client.verify(spec="orders", seed=seed)
            except ServiceClientError as exc:
                out = exc.status
            except OSError as exc:  # a dropped connection
                out = exc
            finally:
                client.close()
            with lock:
                outcomes[group].append(out)

        first = threading.Thread(target=worker, args=("running", None))
        # Three identical requests join the held batch; four with another
        # seed cannot, so they queue behind it.
        threads = [first] + [
            threading.Thread(target=worker, args=("running", None))
            for _ in range(3)
        ] + [
            threading.Thread(target=worker, args=("queued", 7))
            for _ in range(4)
        ]
        stopper = threading.Thread(target=handle.stop,
                                   kwargs={"drain": False})
        try:
            first.start()
            deadline = time.monotonic() + 10.0
            while batcher.stats.batches < 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert batcher.stats.batches == 1
            for thread in threads[1:]:
                thread.start()
            while (batcher.stats.accepted < 8 * 3
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            assert batcher.stats.accepted == 8 * 3
            stopper.start()
            while not batcher.draining and time.monotonic() < deadline:
                time.sleep(0.001)
            assert batcher.draining
        finally:
            release.set()
            if stopper.ident is None:  # failed before the stop: still stop
                stopper.start()
        stopper.join(timeout=60)
        for thread in threads:
            thread.join(timeout=60)
        assert not stopper.is_alive()
        assert not any(thread.is_alive() for thread in threads)
        # The held batch's waiter and its three joiners get full verdicts;
        # the queued requests are refused with 503, not dropped.
        assert len(outcomes["running"]) == 4
        for out in outcomes["running"]:
            assert isinstance(out, dict), out
            assert [r["holds"] for r in out["results"]] == [True, True, False]
        assert outcomes["queued"] == [503] * 4
        assert batcher.depth == 0
        assert batcher.stats.coalesced == 3 * 3

    def test_abort_waits_for_answers_still_being_written(self, monkeypatch):
        handle = serve_in_thread()
        with handle.client() as setup:
            setup.register("orders", ORDERS)
        service = handle.service
        batcher = service.batcher
        release = threading.Event()
        verify_batch = batcher._verify_batch

        def held(*args):
            release.wait(timeout=30)
            return verify_batch(*args)

        monkeypatch.setattr(batcher, "_verify_batch", held)
        write_response = service._write_response

        async def slow_write(*args, **kwargs):
            # The batch has resolved its waiters' futures, but their
            # handlers are still writing when abort() returns.
            await asyncio.sleep(0.2)
            await write_response(*args, **kwargs)

        monkeypatch.setattr(service, "_write_response", slow_write)
        outcomes: list = []
        lock = threading.Lock()

        def worker():
            client = handle.client()
            try:
                out = client.verify(spec="orders")
            except (ServiceClientError, OSError) as exc:
                out = exc
            finally:
                client.close()
            with lock:
                outcomes.append(out)

        # The first request's batch is held; the second joins it.
        threads = [threading.Thread(target=worker) for _ in range(2)]
        stopper = threading.Thread(target=handle.stop,
                                   kwargs={"drain": False})
        try:
            threads[0].start()
            deadline = time.monotonic() + 10.0
            while batcher.stats.batches < 1 and time.monotonic() < deadline:
                time.sleep(0.001)
            threads[1].start()
            while (batcher.stats.coalesced < 3
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            assert batcher.stats.coalesced == 3
            stopper.start()
            while not batcher.draining and time.monotonic() < deadline:
                time.sleep(0.001)
            assert batcher.draining
        finally:
            release.set()
            if stopper.ident is None:  # failed before the stop: still stop
                stopper.start()
        stopper.join(timeout=60)
        for thread in threads:
            thread.join(timeout=60)
        assert not stopper.is_alive()
        assert len(outcomes) == 2
        for out in outcomes:
            assert isinstance(out, dict), out
            assert [r["holds"] for r in out["results"]] == [True, True, False]

    def test_health_reports_draining(self):
        handle = serve_in_thread()
        try:
            with handle.client() as client:
                assert client.healthz()["status"] == "ok"
        finally:
            handle.stop()
        assert handle.service._shutting_down is True
