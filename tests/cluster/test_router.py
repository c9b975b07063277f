"""ClusterRouter: routing, rebranding, tenancy, quotas, degraded mode.

The unit tests call the router's ``_handle`` directly with scripted fake
workers on a VirtualClock — no sockets, no subprocesses. The end-to-end
class at the bottom runs a real cluster (subprocess workers) through the
blocking client on the wire protocol.
"""

import asyncio
import json

import pytest

from repro.cluster.quotas import AdmissionController, TenantQuotaExceededError
from repro.cluster.router import ClusterRouter, cluster_in_thread
from repro.cluster.supervisor import WorkerSupervisor
from repro.cluster.worker import WorkerUnavailableError
from repro.core.resilience import VirtualClock
from repro.core.verify import verify_property
from repro.service.registry import UnknownSpecError
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


def run(coro):
    return asyncio.run(coro)


def body(obj) -> bytes:
    return json.dumps(obj).encode("utf-8")


class FakeClusterWorker:
    """Answers like a daemon would, recording what it was asked."""

    def __init__(self, worker_id):
        self.worker_id = worker_id
        self.alive = False
        self.fail = False
        self.requests = []
        self.gate: asyncio.Event | None = None  # park requests when set

    @property
    def running(self):
        return self.alive

    async def start(self):
        self.alive = True
        return "127.0.0.1", 1

    async def stop(self, timeout=10.0):
        self.alive = False

    def kill(self):
        self.alive = False

    async def healthz(self, timeout=5.0):
        if not self.alive or self.fail:
            raise WorkerUnavailableError(self.worker_id, "dead")
        return {"status": "ok"}

    async def request(self, method, path, body=None, timeout=30.0,
                      headers=None):
        if not self.alive or self.fail:
            raise WorkerUnavailableError(self.worker_id, "dead")
        self.requests.append((path, body))
        if self.gate is not None:
            await self.gate.wait()
        return 200, {
            "spec": "inline:0000000000000000",
            "version": 1,
            "results": [],
            "served_by": self.worker_id,
        }


def make_router(n_workers=2, **router_kwargs):
    workers = [FakeClusterWorker(f"w{i}") for i in range(n_workers)]
    supervisor = WorkerSupervisor(workers, clock=VirtualClock(), seed=3)
    router = ClusterRouter(supervisor, **router_kwargs)
    return router, workers, supervisor


async def handle(router, method, path, payload=None, tenant=None):
    headers = {"x-repro-tenant": tenant} if tenant else {}
    raw = body(payload) if payload is not None else b""
    return await router._handle(method, path, {}, headers, raw)


class TestRouting:
    def test_forwards_resolved_text_and_rebrands(self):
        async def scenario():
            router, workers, sup = make_router()
            await sup.start()
            status, _, _ = await handle(
                router, "POST", "/specs", {"name": "orders", "text": ORDERS}
            )
            assert status == 200
            status, payload, _ = await handle(
                router, "POST", "/verify", {"spec": "orders"}
            )
            assert status == 200
            # Workers never see the catalog name: text is shipped inline.
            (path, forwarded), = [
                r for w in workers for r in w.requests
            ]
            assert path == "/verify"
            assert forwarded["text"] == ORDERS
            assert "spec" not in forwarded
            # The client-facing response restores the registry's identity.
            assert payload["spec"] == "orders"
            assert payload["version"] == 1
            assert payload["worker"] == payload["served_by"]

        run(scenario())

    def test_failover_marks_worker_down_and_answers(self):
        async def scenario():
            router, workers, sup = make_router(n_workers=2)
            await sup.start()
            assert len(router.ring) == 2
            entry = router.registry.resolve_inline(CLAIMS)
            primary, backup = router.ring.replicas_for(entry.key)
            by_id = {w.worker_id: w for w in workers}
            by_id[primary].fail = True
            status, payload, _ = await handle(
                router, "POST", "/consistency", {"text": CLAIMS}
            )
            assert status == 200
            assert payload["worker"] == backup
            # The transport failure was reported: the primary left the ring.
            assert sup.healthy_workers() == (backup,)
            assert router.ring.workers == (backup,)

        run(scenario())

    def test_unknown_spec_is_not_forwarded(self):
        async def scenario():
            router, workers, sup = make_router()
            await sup.start()
            with pytest.raises(UnknownSpecError):
                await handle(router, "POST", "/verify", {"spec": "ghost"})
            assert all(not w.requests for w in workers)

        run(scenario())

    def test_healthz_and_status(self):
        async def scenario():
            router, workers, sup = make_router(n_workers=3, replicas=2)
            await sup.start()
            _, health, _ = await handle(router, "GET", "/healthz")
            assert health["role"] == "router"
            assert health["healthy_workers"] == 3 and health["ring"] == 3
            _, status, _ = await handle(router, "GET", "/cluster/status")
            assert [w["worker"] for w in status["workers"]] == ["w0", "w1", "w2"]
            assert status["replicas"] == 2

        run(scenario())


class TestDegraded:
    def test_all_replicas_down_answers_in_process(self):
        async def scenario():
            router, workers, sup = make_router(n_workers=2)
            await sup.start()
            router.batcher.start()
            try:
                for worker in workers:
                    worker.fail = True
                status, payload, _ = await handle(
                    router, "POST", "/verify", {"text": ORDERS}
                )
            finally:
                await router.batcher.aclose()
            assert status == 200
            assert payload["degraded"] is True
            holds = {r["name"]: r["holds"] for r in payload["results"]}
            assert holds == {
                "credit_first": True, "archived": True, "backwards": False,
            }

        run(scenario())

    def test_degraded_results_match_direct_verification(self):
        async def scenario():
            router, workers, sup = make_router(n_workers=1)
            await sup.start()
            router.batcher.start()
            try:
                workers[0].fail = True
                _, payload, _ = await handle(
                    router, "POST", "/verify", {"text": ORDERS}
                )
            finally:
                await router.batcher.aclose()
            spec = parse_specification(ORDERS)
            for item in payload["results"]:
                prop = dict(spec.properties)[item["name"]]
                direct = verify_property(
                    spec.goal, list(spec.constraints), prop, rules=spec.rules
                )
                assert item["holds"] == direct.holds

        run(scenario())


class TestTenancy:
    def test_namespaces_are_isolated(self):
        async def scenario():
            router, workers, sup = make_router()
            await sup.start()
            await handle(router, "POST", "/specs",
                         {"name": "private", "text": CLAIMS}, tenant="acme")
            _, listing, _ = await handle(router, "GET", "/specs",
                                         tenant="acme")
            assert [s["name"] for s in listing["specs"]] == ["private"]
            _, listing, _ = await handle(router, "GET", "/specs",
                                         tenant="rival")
            assert listing["specs"] == []
            _, listing, _ = await handle(router, "GET", "/specs")
            assert listing["specs"] == []  # no tenant: no namespaced specs
            with pytest.raises(UnknownSpecError):
                await handle(router, "POST", "/verify",
                             {"spec": "private"}, tenant="rival")

        run(scenario())

    def test_tenant_requests_are_routed_and_rebranded(self):
        async def scenario():
            router, workers, sup = make_router()
            await sup.start()
            await handle(router, "POST", "/specs",
                         {"name": "private", "text": CLAIMS}, tenant="acme")
            status, payload, _ = await handle(
                router, "POST", "/verify", {"spec": "private"}, tenant="acme"
            )
            assert status == 200
            assert payload["spec"] == "private"  # not "acme::private"

        run(scenario())

    def test_default_tenant_cannot_write_into_a_namespace(self):
        async def scenario():
            router, _, sup = make_router()
            await sup.start()
            from repro.service.http import HttpError

            await handle(router, "POST", "/specs",
                         {"name": "private", "text": CLAIMS}, tenant="acme")
            with pytest.raises(HttpError) as info:
                await handle(router, "POST", "/specs",
                             {"name": "acme::private", "text": ORDERS})
            assert info.value.status == 400
            _, listing, _ = await handle(router, "GET", "/specs",
                                         tenant="acme")
            assert listing["specs"][0]["version"] == 1

        run(scenario())

    def test_malformed_tenant_rejected(self):
        async def scenario():
            router, _, sup = make_router()
            await sup.start()
            from repro.service.http import HttpError

            with pytest.raises(HttpError) as info:
                await handle(router, "GET", "/specs", tenant="a::b")
            assert info.value.status == 400

        run(scenario())


class TestQuotas:
    def test_burster_is_shed_while_guaranteed_tenant_admitted(self):
        async def scenario():
            admission = AdmissionController(4, default_share=2)
            router, workers, sup = make_router(admission=admission)
            await sup.start()
            await handle(router, "POST", "/specs",
                         {"name": "claims", "text": CLAIMS})
            gate = asyncio.Event()
            for worker in workers:
                worker.gate = gate
            # The burster parks 4 in-flight requests (capacity).
            burst = [
                asyncio.ensure_future(handle(
                    router, "POST", "/verify", {"spec": "claims"},
                    tenant="burster",
                ))
                for _ in range(4)
            ]
            await asyncio.sleep(0)
            assert admission.total_in_flight == 4
            # Over share, at capacity: the burster's next request is shed...
            with pytest.raises(TenantQuotaExceededError):
                await handle(router, "POST", "/verify", {"spec": "claims"},
                             tenant="burster")
            # ...but a tenant under guarantee still gets an answer.
            quiet = asyncio.ensure_future(handle(
                router, "POST", "/verify", {"spec": "claims"}, tenant="quiet"
            ))
            await asyncio.sleep(0)
            gate.set()
            status, _, _ = await quiet
            assert status == 200
            await asyncio.gather(*burst)
            assert admission.total_in_flight == 0

        run(scenario())

    def test_verify_cost_is_property_count(self):
        async def scenario():
            admission = AdmissionController(100, default_share=1)
            router, workers, sup = make_router(admission=admission)
            await sup.start()
            await handle(router, "POST", "/specs",
                         {"name": "orders", "text": ORDERS})
            gate = asyncio.Event()
            for worker in workers:
                worker.gate = gate
            waiter = asyncio.ensure_future(handle(
                router, "POST", "/verify", {"spec": "orders"}, tenant="t"
            ))
            await asyncio.sleep(0)
            assert admission.usage_of("t") == 3  # all three properties
            gate.set()
            await waiter
            assert admission.usage_of("t") == 0

        run(scenario())


class TestClusterEndToEnd:
    """A real cluster: subprocess workers behind the wire protocol."""

    @pytest.fixture(scope="class")
    def cluster(self):
        handle = cluster_in_thread(workers=2, replicas=2)
        with handle.client() as client:
            client.register("orders", ORDERS)
        yield handle
        handle.stop()

    def test_healthz(self, cluster):
        with cluster.client() as client:
            health = client.healthz()
        assert health["role"] == "router"
        assert health["healthy_workers"] == 2

    def test_verify_matches_direct_verification(self, cluster):
        with cluster.client() as client:
            out = client.verify(spec="orders")
        assert out["spec"] == "orders"
        assert out["worker"] in ("w0", "w1")
        assert "degraded" not in out
        spec = parse_specification(ORDERS)
        for item in out["results"]:
            prop = dict(spec.properties)[item["name"]]
            direct = verify_property(
                spec.goal, list(spec.constraints), prop, rules=spec.rules
            )
            assert item["holds"] == direct.holds

    def test_consistency_and_schedule_route(self, cluster):
        with cluster.client() as client:
            assert client.consistency(spec="orders") is True
            schedules = client.schedule(spec="orders", limit=3)["schedules"]
        # The orders workflow admits exactly two interleavings under the
        # credit-before-approve constraint.
        assert len(schedules) == 2

    def test_tenant_isolation_over_the_wire(self, cluster):
        with cluster.client(tenant="acme") as client:
            client.register("secret", CLAIMS)
            assert client.verify(spec="secret")["spec"] == "secret"
        from repro.service import ServiceClientError

        with cluster.client(tenant="rival") as client:
            with pytest.raises(ServiceClientError) as info:
                client.verify(spec="secret")
            assert info.value.status == 404

    def test_metrics_exposed_under_cluster_prefix(self, cluster):
        with cluster.client() as client:
            text = client.metrics()
        assert "cluster_http_verify_requests" in text or \
            "cluster.http.verify.requests" in text
