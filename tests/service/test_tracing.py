"""Distributed tracing through the service: propagation, request ids,
error-outcome spans, the /traces endpoints, and batch span linking."""

import asyncio
import http.client

import pytest

from repro.obs import IdSource, Observability
from repro.obs.context import TraceContext, use_trace_context
from repro.service import ServiceClientError, serve_in_thread
from repro.service.batcher import VerifyBatcher
from repro.service.client import ServiceClient
from repro.service.registry import SpecRegistry
from tests.service.test_batcher import GatedExecutor, until

ORDERS = """
goal: receive * (credit | stock) * approve
constraint: precedes(credit, approve)
property credit_first: precedes(credit, approve)
property approved: happens(approve)
"""


def traced_obs(seed: int, segment: str = "service") -> Observability:
    return Observability.enabled(
        trace=True, metrics=True, record=False,
        ids=IdSource(seed=seed), segment=segment, max_spans=10_000,
    )


@pytest.fixture(scope="class")
def service():
    handle = serve_in_thread(obs=traced_obs(31))
    with handle.client() as client:
        client.register("orders", ORDERS)
    yield handle
    handle.stop()


def traced_client(handle) -> ServiceClient:
    return ServiceClient(handle.host, handle.port, timeout=30.0,
                         ids=IdSource(seed=77))


class TestRequestIds:
    def test_every_response_carries_a_minted_request_id(self, service):
        with service.client() as client:
            client.healthz()
            first = client.last_request_id
            client.healthz()
            second = client.last_request_id
        assert first and second and first != second
        int(first, 16)  # a 16-hex id, not free text
        assert len(first) == 16

    def test_supplied_request_id_is_echoed(self, service):
        conn = http.client.HTTPConnection(service.host, service.port,
                                          timeout=10.0)
        try:
            conn.request("GET", "/healthz",
                         headers={"X-Repro-Request-Id": "my-correlation-id"})
            response = conn.getresponse()
            response.read()
            assert response.headers["X-Repro-Request-Id"] == \
                "my-correlation-id"
        finally:
            conn.close()

    def test_errors_surface_the_request_id(self, service):
        with service.client() as client:
            with pytest.raises(ServiceClientError) as excinfo:
                client.verify(spec="no-such-spec")
        assert excinfo.value.status == 404
        assert excinfo.value.request_id
        assert f"[request {excinfo.value.request_id}]" in str(excinfo.value)


class TestPropagation:
    def test_client_originates_a_trace_the_server_joins(self, service):
        client = traced_client(service)
        try:
            client.verify(spec="orders")
            trace_id = client.last_trace_id
            assert trace_id and len(trace_id) == 32
            assert trace_id in client.traces()
            data = client.trace(trace_id)
        finally:
            client.close()
        assert data["trace_id"] == trace_id
        assert data["segment"] == "service"
        spans = data["spans"]
        names = [s["name"] for s in spans]
        assert "http.verify" in names
        assert "service.verify.batch" in names
        root = next(s for s in spans if s["name"] == "http.verify")
        # The server's span hangs under the client's remote span id.
        assert root["trace_id"] == trace_id
        assert root["parent_ref"] is not None
        assert root["attrs"]["status"] == 200
        assert root["segment"] == "service"
        # The batch span chains off the request span — same trace.
        batch = next(s for s in spans if s["name"] == "service.verify.batch")
        assert batch["trace_id"] == trace_id
        assert batch["parent_ref"] == root["ref"]

    def test_untraced_requests_mint_their_own_trace(self, service):
        before = len(service.service.obs.tracer.spans)
        with service.client() as client:  # no IdSource: no header sent
            client.healthz()
        spans = service.service.obs.tracer.spans[before:]
        health = [s for s in spans if s.name == "http.healthz"]
        assert health and health[-1].trace_id is not None
        assert health[-1].parent_ref is None  # a root: no remote parent


class TestMemoHits:
    def test_a_warm_read_is_answered_on_the_request_span(self, tmp_path):
        handle = serve_in_thread(obs=traced_obs(41), cache=tmp_path)
        client = traced_client(handle)
        try:
            client.register("orders", ORDERS)
            client.verify(spec="orders")
            client.verify(spec="orders")
            spans = client.trace(client.last_trace_id)["spans"]
        finally:
            client.close()
            handle.stop()
        # No batch span: the memo answered both properties in the handler.
        assert [s["name"] for s in spans] == ["http.verify"]
        assert spans[0]["attrs"]["memo_hits"] == 2


class TestErrorOutcomes:
    def test_error_spans_record_status_and_error_type(self, service):
        with service.client() as client:
            with pytest.raises(ServiceClientError):
                client.verify(spec="no-such-spec")
        spans = [s for s in service.service.obs.tracer.spans
                 if s.name == "http.verify"
                 and s.attrs.get("error_type") is not None]
        assert spans
        failed = spans[-1]
        assert failed.attrs["status"] == 404
        assert failed.attrs["error_type"] == "UnknownSpecError"

    def test_success_spans_record_status_only(self, service):
        with service.client() as client:
            client.healthz()
        span = [s for s in service.service.obs.tracer.spans
                if s.name == "http.healthz"][-1]
        assert span.attrs["status"] == 200
        assert "error_type" not in span.attrs


class TestBatchSpanLinks:
    def test_batch_span_links_every_coalesced_waiter(self):
        obs = traced_obs(5)
        registry = SpecRegistry()
        entry = registry.register("orders", ORDERS)
        prop = dict(entry.spec.properties)["credit_first"]
        ctx_a = TraceContext(trace_id="aa" * 16, span_id="11" * 8)
        ctx_b = TraceContext(trace_id="bb" * 16, span_id="22" * 8)

        async def scenario():
            batcher = VerifyBatcher(registry, obs=obs)
            with use_trace_context(ctx_a):
                first = asyncio.ensure_future(batcher.submit(entry, [prop]))
            with use_trace_context(ctx_b):
                second = asyncio.ensure_future(batcher.submit(entry, [prop]))
            await asyncio.sleep(0)
            await batcher.flush()
            await asyncio.gather(first, second)

        asyncio.run(scenario())
        batch = [s for s in obs.tracer.spans
                 if s.name == "service.verify.batch"]
        assert len(batch) == 1
        span = batch[0]
        # Parent: the first waiter's request span; everyone else: linked.
        assert span.trace_id == ctx_a.trace_id
        assert span.parent_ref == ctx_a.span_id
        assert span.attrs["waiters"] == 2
        assert span.attrs["links"] == [ctx_b.span_id]
        assert span.attrs["key"] == "orders@1"
        # The exemplar names the spec this batch was slow for.
        exemplars = obs.metrics.histogram(
            "service.verify.batch_latency"
        ).summary()["exemplars"]
        assert ["orders@1"] == [label for _, label in exemplars]

    def test_joiner_is_linked_to_the_running_batch_span(self):
        obs = traced_obs(7)
        registry = SpecRegistry()
        entry = registry.register("orders", ORDERS)
        prop = dict(entry.spec.properties)["credit_first"]
        ctx_a = TraceContext(trace_id="aa" * 16, span_id="11" * 8)
        ctx_b = TraceContext(trace_id="bb" * 16, span_id="22" * 8)
        executor = GatedExecutor()

        async def scenario():
            batcher = VerifyBatcher(registry, obs=obs, executor=executor)
            with use_trace_context(ctx_a):
                first = asyncio.ensure_future(batcher.submit(entry, [prop]))
            await asyncio.sleep(0)
            flushing = asyncio.ensure_future(batcher.flush())
            await until(lambda: batcher._running)
            with use_trace_context(ctx_b):
                joiner = asyncio.ensure_future(batcher.submit(entry, [prop]))
            await asyncio.sleep(0)
            executor.gate.set()
            await flushing
            return await first, await joiner

        try:
            first, joined = asyncio.run(scenario())
        finally:
            executor.gate.set()
            executor.shutdown()
        assert joined[0] is first[0]
        batch = [s for s in obs.tracer.spans
                 if s.name == "service.verify.batch"]
        assert len(batch) == 1
        assert batch[0].parent_ref == ctx_a.span_id
        assert batch[0].attrs["links"] == [ctx_b.span_id]

    def test_fanout_spans_join_the_batch_trace(self):
        obs = traced_obs(6)
        registry = SpecRegistry()
        entry = registry.register("orders", ORDERS)
        by_name = dict(entry.spec.properties)
        props = [by_name["credit_first"], by_name["approved"]]
        ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)

        async def scenario():
            # jobs=2: the parallel fan-out path, which records the
            # parallel.verify_batch span on the executor thread.
            batcher = VerifyBatcher(registry, jobs=2, obs=obs)
            with use_trace_context(ctx):
                waiter = asyncio.ensure_future(batcher.submit(entry, props))
            await asyncio.sleep(0)
            await batcher.flush()
            await waiter

        asyncio.run(scenario())
        spans = obs.tracer.spans
        batch = next(s for s in spans if s.name == "service.verify.batch")
        fanout = [s for s in spans if s.name.startswith("parallel.")]
        # The executor thread re-installed the batch context, so the
        # fan-out spans are stitched into the same distributed trace.
        assert fanout
        assert all(s.trace_id == ctx.trace_id for s in fanout)
        assert any(s.parent_ref == batch.ref for s in fanout)
