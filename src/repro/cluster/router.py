"""The cluster front door: the daemon, forwarding to supervised workers.

:class:`ClusterRouter` *is* a :class:`~repro.service.server.
VerificationService` that forwards, so it speaks the daemon's exact wire
protocol and any client of ``repro serve`` talks to a fleet unchanged.
It inherits the daemon's route table (request→entry resolution, the
error→status table it extends with its three cluster errors,
``/metrics``, ``/specs``, the 404/405 fallthrough) and keeps only what a
fleet adds:

* tenant scoping: the ``X-Repro-Tenant`` header picks a
  :class:`~repro.service.registry.TenantView` of the router's registry
  (registration, hot-reload, tenant namespaces), and an optional
  :class:`~repro.cluster.quotas.AdmissionController` meters per-tenant
  in-flight cost (429 on fair shed);
* forwarding: the router ships the *resolved spec text* inline to
  workers — workers are stateless with respect to the catalog, so there
  is no spec-sync protocol to get wrong, while consistent hashing still
  keeps each worker's inline memo and the shared on-disk compile cache
  warm for its keys. A :class:`~repro.cluster.placement.HashRing` maps
  the batch key (``name@version`` / ``inline:<sha16>``) to K replicas,
  and requests walk the replica list via
  :func:`~repro.cluster.failover.call_with_failover` (verification is
  pure — Corollary 3.5 — so a retry on the next replica is safe and
  bit-identical);
* a :class:`~repro.cluster.supervisor.WorkerSupervisor` keeps workers
  alive and feeds ring membership through its up/down callbacks;
* its own ``/healthz``, the ``/cluster/*`` fleet views and the
  collection of cross-process traces;
* degraded mode: when *every* replica for a key is down, the router
  answers through the inherited handler, with the entry it already
  resolved, on its own bounded batcher (one sequential verifier sharing
  the router's registry and cache), and tags the response
  ``"degraded": true``. Slow beats unavailable.

:func:`assemble_cluster` builds the router, its workers' command lines,
the supervisor and the tracing for both ``repro cluster`` and
:func:`cluster_in_thread`.
"""

from __future__ import annotations

import asyncio

from ..errors import ReproError
from ..obs.config import Observability
from ..obs.context import (
    TRACE_HEADER,
    current_trace_context,
    format_trace_header,
)
from ..obs.distributed import TraceSink, merge_segments, segment_spans
from ..obs.metrics import render_federated_prometheus, sum_scrapes
from ..obs.slo import SLOMonitor
from ..service.http import HttpError, json_body
from ..service.registry import SpecEntry, SpecRegistry, TENANT_SEP
from ..service.server import (
    ServiceHandle,
    VerificationService,
    resolve_entry,
    run_in_thread,
    traced_obs,
)
from .failover import AllReplicasFailedError, call_with_failover
from .quotas import AdmissionController, TenantQuotaExceededError
from .supervisor import WorkerSupervisor
from .worker import WorkerError
from .placement import HashRing

__all__ = ["ClusterRouter", "assemble_cluster", "cluster_in_thread"]

#: Header carrying the tenant namespace (absent → the default tenant).
TENANT_HEADER = "x-repro-tenant"


class ClusterRouter(VerificationService):
    """The daemon's front door, routing spec keys onto a supervised worker
    fleet."""

    metrics_prefix = "cluster"
    error_statuses = VerificationService.error_statuses + (
        (TenantQuotaExceededError, 429),
        ((AllReplicasFailedError, WorkerError), 502),
    )
    paths = (*VerificationService.paths, "/cluster/status", "/cluster/metrics")

    def __init__(
        self,
        supervisor: WorkerSupervisor,
        *,
        registry: SpecRegistry | None = None,
        specs_dir=None,
        cache=None,
        replicas: int = 2,
        retry_budget: int | None = None,
        hedge_delay: float | None = None,
        admission: AdmissionController | None = None,
        request_timeout: float = 30.0,
        obs: Observability | None = None,
        slo: SLOMonitor | None = None,
        trace_sink: TraceSink | None = None,
    ):
        # The inherited batcher answers in degraded mode only: one
        # sequential verifier with a short queue.
        super().__init__(registry, specs_dir=specs_dir, cache=cache, jobs=1,
                         queue_limit=16, obs=obs)
        self.supervisor = supervisor
        self.ring = HashRing(replicas=replicas)
        self.retry_budget = retry_budget
        self.hedge_delay = hedge_delay
        self.admission = admission
        self.request_timeout = request_timeout
        #: Sliding-window SLOs over every front-door request; the burn
        #: rates surface on /cluster/status, /metrics, and `repro top`.
        self.slo = slo if slo is not None else SLOMonitor()
        #: Optional on-disk store for assembled distributed traces
        #: (written on every /traces/<id> collection).
        self.trace_sink = trace_sink
        # Ring membership follows supervisor health transitions.
        supervisor.on_up = self._worker_up
        supervisor.on_down = self._worker_down

    # -- lifecycle ------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0):
        """Start workers, supervision, and the front door."""
        await self.supervisor.start()
        self.supervisor.start_loop()
        return await super().start(host, port)

    async def shutdown(self, drain: bool = True) -> None:
        """The daemon's shutdown, then the fleet's; ``drain=False`` also
        cuts the forwarded requests still in flight."""
        if not drain:
            self._cancel_connections()
        await super().shutdown(drain)
        await self.supervisor.stop()

    # -- ring membership ------------------------------------------------------

    def _worker_up(self, worker_id: str) -> None:
        self.ring.add(worker_id)
        self._gauge_ring()

    def _worker_down(self, worker_id: str) -> None:
        self.ring.remove(worker_id)
        self._gauge_ring()

    def _gauge_ring(self) -> None:
        if self.obs.metrics is not None:
            self.obs.metrics.set_gauge("cluster.router.ring_size",
                                       len(self.ring))

    # -- routing --------------------------------------------------------------

    async def _handle(self, method, path, query, headers, body):
        tenant = headers.get(TENANT_HEADER) or None
        if tenant is None:
            catalog = self.registry
        elif TENANT_SEP in tenant:
            raise HttpError(400, f"tenant may not contain {TENANT_SEP!r}")
        else:
            catalog = self.registry.namespaced(tenant)
        if method == "POST" and path in self.entry_paths:
            data = json_body(body)
            entry = resolve_entry(catalog, data)
            public = (catalog.public_name(entry)
                      if tenant is not None else entry.name)
            cost = self._cost(path, entry, data)
            if self.admission is not None:
                self.admission.admit(tenant, cost)
            try:
                return await self._route_forward(path, entry, public, data)
            finally:
                if self.admission is not None:
                    self.admission.release(tenant, cost)
        if method == "GET":
            if path == "/healthz":
                healthy = self.supervisor.healthy_workers()
                return 200, {
                    "status": "draining" if self._shutting_down else "ok",
                    "role": "router",
                    "workers": len(self.supervisor.workers),
                    "healthy_workers": len(healthy),
                    "ring": len(self.ring),
                    "specs": len(self.registry),
                }, "application/json"
            if path == "/metrics":
                self._export_derived_gauges()  # then the daemon's exposition
            elif path == "/cluster/metrics":
                return await self._cluster_metrics(query)
            elif path == "/cluster/status":
                self.slo.export_gauges(self.obs.metrics)
                return 200, {
                    "workers": self.supervisor.status(),
                    "ring": list(self.ring.workers),
                    "replicas": self.ring.replicas,
                    "admission": (self.admission.snapshot()
                                  if self.admission is not None else None),
                    "slo": self.slo.snapshot(),
                }, "application/json"
            elif path == "/traces":
                traces = list(self.obs.tracer.trace_ids())
                if self.trace_sink is not None:
                    seen = set(traces)
                    traces += [t for t in self.trace_sink.trace_ids()
                               if t not in seen]
                return 200, {"traces": traces}, "application/json"
            elif path.startswith("/traces/"):
                return await self._collect_trace(path[len("/traces/"):])
        return await super()._handle(method, path, query, headers, body,
                                     catalog)

    @staticmethod
    def _cost(path: str, entry: SpecEntry, data) -> int:
        """Admission cost: a verify costs its property count, the rest 1 —
        the same unit the workers' batchers meter queue depth in."""
        if path != "/verify":
            return 1
        requested = data.get("properties")
        if isinstance(requested, list):
            return max(1, len(requested))
        return max(1, len(entry.spec.properties))

    # -- forwarding -----------------------------------------------------------

    async def _route_forward(self, path, entry: SpecEntry, public: str, data):
        # Workers never see the router's catalog: ship the resolved text.
        forward = dict(data)
        forward.pop("spec", None)
        forward["text"] = entry.text
        replicas = self.ring.replicas_for(entry.key)
        timeout = self.request_timeout
        deadline = data.get("timeout")
        if isinstance(deadline, (int, float)):
            timeout = max(timeout, float(deadline) + 10.0)

        # Propagate the trace across the process border: the contextvar
        # holds the router's own http.<endpoint> span (installed by
        # _route), so the worker's request span becomes its child.
        ctx = current_trace_context()
        trace_headers = (
            {TRACE_HEADER: format_trace_header(ctx)} if ctx is not None
            else None
        )

        async def send(worker_id: str):
            handle = self.supervisor.state_of(worker_id).handle
            return await handle.request("POST", path, forward,
                                        timeout=timeout,
                                        headers=trace_headers)

        try:
            (status, payload), worker_id = await call_with_failover(
                replicas, send,
                budget=self.retry_budget,
                hedge_delay=self.hedge_delay,
                on_failure=self._note_worker_failure,
                on_hedge=lambda w: self._metric("cluster.router.hedges"),
                on_hedge_win=lambda w: self._metric(
                    "cluster.router.hedge_wins"
                ),
            )
        except AllReplicasFailedError:
            # Answer in-process, tagged, rather than drop.
            self._metric("cluster.router.degraded")
            status, payload, content_type = await self._answer(path, entry, data)
            payload = self._rebrand(payload, entry, public)
            payload["degraded"] = True
            return status, payload, content_type
        self._metric("cluster.router.forwarded")
        if isinstance(payload, dict):
            payload = self._rebrand(payload, entry, public)
            payload["worker"] = worker_id
        return status, payload, "application/json"

    def _rebrand(self, payload: dict, entry: SpecEntry, public: str) -> dict:
        """Restore the client-facing name and registry version (workers
        answered for the inline-shipped text, a tenant's entry carries its
        namespace)."""
        payload = dict(payload)
        if "spec" in payload:
            payload["spec"] = public
        if "version" in payload:
            payload["version"] = entry.version
        return payload

    def _note_worker_failure(self, worker_id: str, exc) -> None:
        self._metric("cluster.router.failovers")
        self.supervisor.report_failure(worker_id)

    def _metric(self, name: str) -> None:
        if self.obs.metrics is not None:
            self.obs.metrics.inc(name)

    # -- fleet observability --------------------------------------------------

    def _observe_outcome(self, endpoint: str, status: int,
                         latency: float) -> None:
        # Availability counts server-side failures only: a 4xx is the
        # client's answer, not the cluster failing its promise.
        self.slo.record(ok=status < 500, latency=latency)

    async def _scrape_workers(self) -> dict[str, dict]:
        """Every healthy worker's ``/metrics?format=json``, concurrently.

        A worker dying mid-scrape is skipped — federation reports the
        fleet that answered, never fails the endpoint.
        """
        healthy = self.supervisor.healthy_workers()

        async def scrape(worker_id: str):
            handle = self.supervisor.state_of(worker_id).handle
            try:
                status, data = await handle.request(
                    "GET", "/metrics?format=json", timeout=5.0
                )
            except WorkerError:
                return worker_id, None
            if status != 200 or not isinstance(data, dict):
                return worker_id, None
            return worker_id, data

        results = await asyncio.gather(*(scrape(w) for w in healthy))
        return {wid: data for wid, data in results if data is not None}

    def _export_derived_gauges(self, scrapes: dict[str, dict] | None = None,
                               totals: dict | None = None) -> None:
        """Fold fleet-level health into the router's own registry.

        Rates are recomputed from counters at scrape time (cheap; no
        per-request bookkeeping): failover and hedge-win rates, the
        batcher coalescing ratio across workers, per-replica verify p95,
        and per-tenant quota shed.
        """
        metrics = self.obs.metrics
        if metrics is None:
            return
        counters = {
            name: c.value for name, c in metrics._counters.items()
        }
        forwarded = counters.get("cluster.router.forwarded", 0)
        failovers = counters.get("cluster.router.failovers", 0)
        hedges = counters.get("cluster.router.hedges", 0)
        hedge_wins = counters.get("cluster.router.hedge_wins", 0)
        if forwarded + failovers:
            metrics.set_gauge(
                "cluster.failover_rate",
                round(failovers / (forwarded + failovers), 6),
            )
        if hedges:
            metrics.set_gauge("cluster.hedge_win_rate",
                              round(hedge_wins / hedges, 6))
        if self.admission is not None:
            for tenant, count in sorted(
                self.admission.shed_by_tenant.items()
            ):
                metrics.set_gauge(f"cluster.quota.shed.{tenant}", count)
        self.slo.export_gauges(metrics)
        if scrapes:
            for worker_id in sorted(scrapes):
                histograms = scrapes[worker_id].get("histograms") or {}
                summary = histograms.get("service.http.verify.latency")
                if summary and summary.get("count"):
                    metrics.set_gauge(
                        f"cluster.replica.{worker_id}.verify_p95",
                        round(summary.get("p95", 0.0), 6),
                    )
        if totals:
            total_counters = totals.get("counters") or {}
            submitted = total_counters.get("service.verify.submitted", 0)
            coalesced = total_counters.get("service.verify.coalesced", 0)
            if submitted:
                metrics.set_gauge("cluster.coalescing_ratio",
                                  round(coalesced / submitted, 6))

    async def _cluster_metrics(self, query):
        """``/cluster/metrics``: the union of every worker's scrape.

        Totals are the bit-for-bit sum of the per-worker scrapes (in
        sorted worker order — the CI gate asserts exact equality), each
        worker's series carry ``worker="<id>"`` labels, and the router's
        own registry (with the derived fleet gauges) rides along as
        ``worker="router"``.
        """
        scrapes = await self._scrape_workers()
        totals = sum_scrapes(scrapes)
        self._export_derived_gauges(scrapes, totals)
        router_snapshot = (self.obs.metrics.to_dict()
                           if self.obs.metrics is not None else None)
        if query.get("format") == "json":
            return 200, {
                "workers": scrapes,
                "totals": totals,
                "router": router_snapshot,
            }, "application/json"
        return 200, render_federated_prometheus(
            scrapes, totals=totals, router=router_snapshot
        ), "text/plain; version=0.0.4"

    async def _collect_trace(self, trace_id: str):
        """``/traces/<id>``: gather this trace's span segments fleet-wide.

        The router contributes its own spans (segment ``router``); every
        healthy worker is asked for its segment, relabeled to the worker
        id (workers don't know their cluster name). The merged flat list
        is stored in the trace sink (when configured) and returned —
        ``repro trace show --distributed`` renders it as one tree.
        """
        own = segment_spans(
            self.obs.tracer.spans_for(trace_id), "router"
        )
        healthy = self.supervisor.healthy_workers()

        async def fetch(worker_id: str):
            handle = self.supervisor.state_of(worker_id).handle
            try:
                status, data = await handle.request(
                    "GET", f"/traces/{trace_id}", timeout=5.0
                )
            except WorkerError:
                return []
            if status != 200 or not isinstance(data, dict):
                return []
            spans = data.get("spans") or []
            for span in spans:
                span["segment"] = worker_id
            return spans

        segments = await asyncio.gather(*(fetch(w) for w in healthy))
        merged = merge_segments(own, *segments)
        if not merged and self.trace_sink is not None:
            # Nothing live — the workers may have restarted; fall back
            # to what an earlier collection persisted.
            try:
                merged = self.trace_sink.read(trace_id)
            except ReproError:
                merged = []
        if not merged:
            raise HttpError(404, f"no spans retained for trace {trace_id!r}")
        if self.trace_sink is not None:
            self.trace_sink.write(trace_id, merged)
        return 200, {"trace_id": trace_id, "spans": merged}, \
            "application/json"


def assemble_cluster(
    workers: int = 2,
    replicas: int = 2,
    *,
    specs_dir=None,
    cache_dir=None,
    worker_jobs: int = 1,
    worker_args: tuple[str, ...] = (),
    supervisor_kwargs: dict | None = None,
    tracing: bool = False,
    trace_dir=None,
    ids_seed: int | None = None,
    **router_kwargs,
) -> ClusterRouter:
    """A router over ``workers`` supervised ``repro serve`` subprocesses,
    not yet started: what ``repro cluster`` and :func:`cluster_in_thread`
    run.

    ``cache_dir`` is shared by every worker and the router's degraded
    mode: the content-addressed compile cache is what makes a restarted
    worker warm. ``worker_args`` appends raw ``repro serve`` flags.

    ``tracing=True`` turns on distributed tracing end to end: the router
    traces with segment ``router`` and every worker daemon gets
    ``--tracing``. Trace ids are random unless ``ids_seed`` seeds every
    id source (worker ``i`` gets ``ids_seed + 1 + i`` — distinct streams,
    so span refs never collide across segments), which makes them
    replayable. ``trace_dir`` adds an on-disk
    :class:`~repro.obs.distributed.TraceSink` the router persists
    assembled traces into.
    """
    from .worker import ProcessWorker

    argv = ["--jobs", str(worker_jobs)]
    if cache_dir is not None:
        argv += ["--cache-dir", str(cache_dir)]
    if tracing:
        argv.append("--tracing")
        router_kwargs.setdefault("obs", traced_obs("router", ids_seed))
    if trace_dir is not None:
        router_kwargs.setdefault("trace_sink", TraceSink(trace_dir))
    handles = []
    for i in range(workers):
        seed = (["--ids-seed", str(ids_seed + 1 + i)]
                if tracing and ids_seed is not None else [])
        handles.append(ProcessWorker(
            f"w{i}", extra_args=tuple(argv + seed + list(worker_args))
        ))
    supervisor = WorkerSupervisor(handles, **(supervisor_kwargs or {}))
    return ClusterRouter(supervisor, specs_dir=specs_dir, cache=cache_dir,
                         replicas=replicas, **router_kwargs)


def cluster_in_thread(
    workers: int = 2,
    replicas: int = 2,
    host: str = "127.0.0.1",
    port: int = 0,
    **cluster_kwargs,
) -> ServiceHandle:
    """Start a full cluster — N subprocess workers, supervisor, router —
    on a daemon thread; returns its :class:`~repro.service.server.
    ServiceHandle`.

    The keywords are :func:`assemble_cluster`'s (``specs_dir``,
    ``cache_dir``, ``worker_jobs``, ``worker_args``, ``supervisor_kwargs``,
    ``tracing``, ``trace_dir``, ``ids_seed``) and the router's.
    """
    router = assemble_cluster(workers, replicas, **cluster_kwargs)
    return run_in_thread(router, host, port)
