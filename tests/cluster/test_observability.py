"""Fleet observability against *real* subprocess workers: cross-process
trace assembly, federated metrics exactness, SLO surfacing, and the
hedge-win telemetry callbacks."""

import asyncio
import io
import time

import pytest

from repro.cli import main
from repro.cluster import cluster_in_thread
from repro.cluster.failover import call_with_failover
from repro.obs.context import IdSource
from repro.obs.distributed import assemble
from repro.obs.metrics import sum_scrapes

ORDERS = """
goal: receive * (credit | stock) * approve
constraint: precedes(credit, approve)
property credit_first: precedes(credit, approve)
property approved: happens(approve)
"""


@pytest.fixture(scope="class")
def traced_cluster(tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("traces")
    handle = cluster_in_thread(
        workers=2, replicas=2,
        tracing=True, ids_seed=42, trace_dir=trace_dir,
    )
    handle.trace_dir = trace_dir
    yield handle
    handle.stop()


def verify_traced(handle, seed: int = 99) -> str:
    """One traced verify through the front door; returns its trace id."""
    client = handle.client(ids=IdSource(seed=seed))
    try:
        out = client.verify(text=ORDERS)
        assert {r["name"]: r["holds"] for r in out["results"]} == {
            "credit_first": True, "approved": True,
        }
        trace_id = client.last_trace_id
    finally:
        client.close()
    assert trace_id and len(trace_id) == 32
    return trace_id


def collect_trace(handle, trace_id: str, deadline_s: float = 10.0) -> list:
    """Poll /traces/<id> until the worker segment's request *and* batch
    spans are both in the merge (the batch span is recorded a beat after
    the response goes out — don't race it)."""
    with handle.client() as client:
        deadline = time.monotonic() + deadline_s
        while True:
            data = client.trace(trace_id)
            spans = data["spans"]
            worker_names = {s["name"] for s in spans
                            if s["segment"] != "router"}
            if {"http.verify", "service.verify.batch"} <= worker_names:
                return spans
            if time.monotonic() > deadline:  # pragma: no cover - timing
                return spans
            time.sleep(0.05)


class TestDistributedTrace:
    def test_trace_reassembles_across_process_borders(self, traced_cluster):
        trace_id = verify_traced(traced_cluster)
        spans = collect_trace(traced_cluster, trace_id)
        segments = {s["segment"] for s in spans}
        assert "router" in segments
        workers = segments - {"router"}
        assert workers and workers <= {"w0", "w1"}
        # One tree: the router's request span roots it (its own remote
        # parent — the client's span — never reported a segment), the
        # worker's request span hangs beneath, the batch span below that.
        roots = assemble(spans)
        assert len(roots) == 1
        root = roots[0]
        assert root["segment"] == "router"
        assert root["name"] == "http.verify"
        child_names = {(c["name"], c["segment"] != "router")
                       for c in root["children"]}
        assert ("http.verify", True) in child_names
        worker_request = next(c for c in root["children"]
                              if c["segment"] != "router")
        assert [g["name"] for g in worker_request["children"]] == \
            ["service.verify.batch"]

    def test_unseeded_tracing_reaches_the_workers(self):
        # Without ids_seed the router and every worker draw random ids,
        # so the worker still records its segment of the trace.
        handle = cluster_in_thread(workers=1, replicas=1, tracing=True)
        try:
            trace_id = verify_traced(handle)
            segments = {s["segment"] for s in collect_trace(handle, trace_id)}
        finally:
            handle.stop()
        assert segments == {"router", "w0"}

    def test_collection_persists_to_the_sink(self, traced_cluster):
        trace_id = verify_traced(traced_cluster, seed=7)
        collect_trace(traced_cluster, trace_id)
        path = traced_cluster.trace_dir / f"{trace_id}.trace.jsonl"
        assert path.exists()
        assert trace_id in traced_cluster.service.trace_sink.trace_ids()

    def test_cli_renders_the_persisted_tree(self, traced_cluster):
        trace_id = verify_traced(traced_cluster, seed=8)
        collect_trace(traced_cluster, trace_id)
        path = traced_cluster.trace_dir / f"{trace_id}.trace.jsonl"
        out = io.StringIO()
        assert main(["trace", "show", str(path), "--distributed"],
                    out=out) == 0
        text = out.getvalue()
        assert "http.verify @router" in text
        assert "http.verify @w" in text
        assert "service.verify.batch @w" in text

    def test_trace_fetch_writes_span_jsonl(self, traced_cluster, tmp_path):
        import json

        trace_id = verify_traced(traced_cluster, seed=9)
        collect_trace(traced_cluster, trace_id)
        output = tmp_path / "fetched.jsonl"
        out = io.StringIO()
        assert main([
            "trace", "fetch", trace_id,
            "--port", str(traced_cluster.port), "-o", str(output),
        ], out=out) == 0
        lines = output.read_text().splitlines()
        assert lines
        spans = [json.loads(line) for line in lines]
        assert all(s["trace_id"] == trace_id for s in spans)

    def test_traces_index_lists_collected_traces(self, traced_cluster):
        trace_id = verify_traced(traced_cluster, seed=10)
        collect_trace(traced_cluster, trace_id)
        with traced_cluster.client() as client:
            assert trace_id in client.traces()


class TestFederatedMetrics:
    def test_totals_are_exactly_the_sum_of_worker_scrapes(
        self, traced_cluster
    ):
        verify_traced(traced_cluster, seed=11)
        with traced_cluster.client() as client:
            data = client.cluster_metrics(format="json")
        workers = data["workers"]
        assert set(workers) == {"w0", "w1"}
        # The CI gate in bench_obs_cluster asserts the same equality —
        # federation must be bookkeeping, never estimation.
        assert data["totals"] == sum_scrapes(workers)
        submitted = data["totals"]["counters"].get(
            "service.verify.submitted", 0
        )
        assert submitted >= 1

    def test_prometheus_text_carries_worker_labels(self, traced_cluster):
        verify_traced(traced_cluster, seed=12)
        with traced_cluster.client() as client:
            text = client.cluster_metrics()
        assert 'worker="w0"' in text
        assert 'worker="router"' in text
        assert "# TYPE" in text

    def test_router_gauges_include_fleet_derivatives(self, traced_cluster):
        verify_traced(traced_cluster, seed=13)
        with traced_cluster.client() as client:
            data = client.cluster_metrics(format="json")
        gauges = data["router"]["gauges"]
        assert gauges.get("cluster.coalescing_ratio") is not None
        p95 = [name for name in gauges
               if name.startswith("cluster.replica.")
               and name.endswith(".verify_p95")]
        assert p95, f"no per-replica p95 gauges in {sorted(gauges)}"

    def test_totals_sum_the_workers_memo_hits(self, tmp_path):
        # Workers with a compile cache answer a repeated verify from
        # their answer memo; the federated totals count it.
        handle = cluster_in_thread(workers=1, replicas=1, cache_dir=tmp_path)
        try:
            with handle.client() as client:
                first = client.verify(text=ORDERS)
                second = client.verify(text=ORDERS)
                data = client.cluster_metrics(format="json")
        finally:
            handle.stop()
        assert second["results"] == first["results"]
        assert data["totals"] == sum_scrapes(data["workers"])
        assert data["totals"]["counters"]["service.verify.memo_hits"] == 2


class TestClusterStatus:
    def test_status_reports_slo_objectives(self, traced_cluster):
        verify_traced(traced_cluster, seed=14)
        with traced_cluster.client() as client:
            status = client.cluster_status()
        slo = status["slo"]
        names = [o["name"] for o in slo["objectives"]]
        assert names == ["availability", "latency_p95_500ms"]
        by_name = {o["name"]: o for o in slo["objectives"]}
        # A healthy cluster burns no error budget.
        assert by_name["availability"]["met"] is True
        assert by_name["availability"]["burn_rate"] == 0.0
        assert all(w["healthy"] for w in status["workers"])

    def test_client_errors_do_not_burn_availability(self, traced_cluster):
        from repro.service import ServiceClientError

        with traced_cluster.client() as client:
            with pytest.raises(ServiceClientError) as excinfo:
                client.verify(spec="no-such-spec")
            assert excinfo.value.status == 404
            status = client.cluster_status()
        by_name = {o["name"]: o
                   for o in status["slo"]["objectives"]}
        assert by_name["availability"]["ratio"] == 1.0


class TestHedgeTelemetry:
    def test_hedge_win_callbacks_fire(self):
        events = []

        async def call(worker_id):
            if worker_id == "primary":
                await asyncio.sleep(0.5)
                return "slow"
            return "fast"

        async def scenario():
            return await call_with_failover(
                ["primary", "backup"], call, hedge_delay=0.01,
                on_hedge=lambda w: events.append(("hedge", w)),
                on_hedge_win=lambda w: events.append(("win", w)),
            )

        result, worker_id = asyncio.run(scenario())
        assert (result, worker_id) == ("fast", "backup")
        assert events == [("hedge", "backup"), ("win", "backup")]

    def test_primary_win_is_not_a_hedge_win(self):
        events = []

        async def call(worker_id):
            if worker_id != "primary":  # pragma: no cover - must not run
                await asyncio.sleep(1.0)
            return worker_id

        async def scenario():
            return await call_with_failover(
                ["primary", "backup"], call, hedge_delay=5.0,
                on_hedge=lambda w: events.append(("hedge", w)),
                on_hedge_win=lambda w: events.append(("win", w)),
            )

        result, worker_id = asyncio.run(scenario())
        assert worker_id == "primary"
        assert events == []
