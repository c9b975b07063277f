"""The asyncio JSON-over-HTTP verification daemon (``repro serve``).

Zero dependencies beyond the standard library: a hand-rolled HTTP/1.1
server on :func:`asyncio.start_server` with keep-alive, JSON bodies, and
a deliberately small surface:

========  =================  ==================================================
method    path               semantics
========  =================  ==================================================
GET       ``/healthz``       liveness + registry/queue snapshot
GET       ``/metrics``       Prometheus text exposition (``?format=json`` too)
GET       ``/specs``         the registered specifications
GET       ``/traces``        retained distributed trace ids
GET       ``/traces/<id>``   this process's span segment for one trace
POST      ``/specs``         register/replace ``{"name": ..., "text": ...}``
POST      ``/compile``       compile; sizes, consistency, pretty goal
POST      ``/consistency``   Theorem 5.8 for ``{"spec": name}`` or ``{"text"}``
POST      ``/verify``        Theorem 5.9, *batched* — see below
POST      ``/schedule``      enumerate allowed executions (``limit`` capped)
========  =================  ==================================================

``/verify`` goes through the :class:`~repro.service.batcher.VerifyBatcher`:
an idle daemon dispatches a request at once; a request that the running
batch already covers joins it, and the rest that arrive meanwhile
coalesce into the next :func:`~repro.core.verify.verify_properties`
fan-out, with bounded-queue admission (429 when shedding, 503 while
draining, 504 past the per-request deadline). The other POST endpoints
run directly on the executor — they are single compiles against the
registry's memo and the persistent compile cache.

Graceful shutdown (:meth:`VerificationService.shutdown` with
``drain=True``, the default, wired to SIGINT/SIGTERM by the CLI) stops
accepting connections and new verify work first, then drains every
accepted batch and lets in-flight handlers write their responses: an
accepted request is never dropped.

The HTTP substrate (connection lifecycle, request parsing, per-endpoint
metrics and spans) lives in :class:`~repro.service.http.HttpServerBase`,
shared with the :class:`~repro.cluster.router.ClusterRouter` — the
cluster front door speaks this exact protocol, so anything that can talk
to one daemon can talk to a fleet.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from ..core.resilience import Clock
from ..errors import ReproError
from ..obs.config import Observability
from ..obs.metrics import MetricsRegistry
from .batcher import (
    DeadlineExceededError,
    QueueFullError,
    ServiceDrainingError,
    VerifyBatcher,
)
from .http import HttpError, HttpServerBase, json_body
from .registry import SpecEntry, SpecRegistry, UnknownSpecError

__all__ = ["VerificationService", "ServiceHandle", "serve_in_thread"]

#: Hard cap on schedules returned by one ``/schedule`` call.
MAX_SCHEDULES = 10_000


class VerificationService(HttpServerBase):
    """The daemon: registry + batcher + HTTP front end, one event loop."""

    metrics_prefix = "service"

    def __init__(
        self,
        registry: SpecRegistry | None = None,
        *,
        specs_dir: str | Path | None = None,
        cache=None,
        jobs: int = 1,
        queue_limit: int = 256,
        default_deadline: float | None = 30.0,
        clock: Clock | None = None,
        obs: Observability | None = None,
    ):
        super().__init__(obs=obs)
        if registry is None:
            registry = SpecRegistry(specs_dir=specs_dir, cache=cache)
        self.registry = registry
        self.executor = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="repro-service"
        )
        self.batcher = VerifyBatcher(
            registry,
            jobs=jobs,
            queue_limit=queue_limit,
            default_deadline=default_deadline,
            clock=clock,
            executor=self.executor,
            obs=self.obs,
        )

    # -- lifecycle ------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 8745) -> tuple[str, int]:
        """Bind and start serving; returns the bound address."""
        self.batcher.start()
        return await super().start(host, port)

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, then drain (or cancel) in-flight work.

        ``drain=True`` — the graceful path — completes every accepted
        verification batch and every in-flight HTTP response before
        returning. ``drain=False`` abandons the queue (queued waiters see
        503; the batch already running still answers its own). Either way
        it then waits for the in-flight handlers to write their responses:
        a batch that ends during ``abort`` resolves its waiters' futures
        just before ``abort`` returns, when their handlers have not yet
        written. The wait is bounded, as the queued waiters are already
        failed.
        """
        await self._stop_accepting()
        if drain:
            await self.batcher.aclose()
        else:
            await self.batcher.abort()
        await self._drain_connections()
        self.executor.shutdown(wait=True)

    # -- routing --------------------------------------------------------------

    def _error_status(self, exc: ReproError) -> int:
        if isinstance(exc, QueueFullError):
            return 429
        if isinstance(exc, ServiceDrainingError):
            return 503
        if isinstance(exc, DeadlineExceededError):
            return 504
        if isinstance(exc, UnknownSpecError):
            return 404
        return super()._error_status(exc)

    async def _handle(self, method, path, query, headers, body):
        if path == "/healthz" and method == "GET":
            return 200, {
                "status": "draining" if self._shutting_down else "ok",
                "specs": len(self.registry),
                "queue_depth": self.batcher.depth,
                "queue_limit": self.batcher.queue_limit,
            }, "application/json"
        if path == "/metrics" and method == "GET":
            registry = self.obs.metrics or MetricsRegistry()
            if query.get("format") == "json":
                return 200, registry.to_dict(), "application/json"
            return 200, registry.render_prometheus(), "text/plain; version=0.0.4"
        if path == "/traces" and method == "GET":
            return 200, {"traces": self.obs.tracer.trace_ids()}, \
                "application/json"
        if path.startswith("/traces/") and method == "GET":
            from ..obs.distributed import segment_spans

            trace_id = path[len("/traces/"):]
            spans = self.obs.tracer.spans_for(trace_id)
            return 200, {
                "trace_id": trace_id,
                "segment": getattr(self.obs.tracer, "segment", "local"),
                "spans": segment_spans(
                    spans, getattr(self.obs.tracer, "segment", "local")
                ),
            }, "application/json"
        if path == "/specs" and method == "GET":
            specs = []
            for name in self.registry.names():
                entry = self.registry.get(name)
                specs.append({
                    "name": entry.name,
                    "version": entry.version,
                    "properties": [p_name for p_name, _ in entry.spec.properties],
                })
            return 200, {"specs": specs}, "application/json"
        if path == "/specs" and method == "POST":
            data = json_body(body)
            name, text = data.get("name"), data.get("text")
            if not isinstance(name, str) or not isinstance(text, str):
                raise HttpError(400, "POST /specs needs string 'name' and 'text'")
            entry = self.registry.register(name, text)
            return 200, {"name": entry.name, "version": entry.version}, \
                "application/json"
        if method != "POST" or path not in (
            "/compile", "/consistency", "/verify", "/schedule"
        ):
            known = ("/healthz", "/metrics", "/specs", "/traces", "/compile",
                     "/consistency", "/verify", "/schedule")
            if path in known:
                raise HttpError(405, f"method {method} not allowed on {path}")
            raise HttpError(404, f"no such endpoint {path}")

        data = json_body(body)
        entry = self._resolve_entry(data)
        if path == "/verify":
            return await self._handle_verify(entry, data)
        loop = asyncio.get_running_loop()
        if path == "/compile":
            compiled = await loop.run_in_executor(
                self.executor, self.registry.compiled, entry
            )
            from ..ctr.formulas import goal_size
            from ..ctr.pretty import pretty

            return 200, {
                "spec": entry.name,
                "version": entry.version,
                "consistent": compiled.consistent,
                "source_size": goal_size(compiled.source),
                "applied_size": compiled.applied_size,
                "compiled_size": compiled.compiled_size,
                "compiled": pretty(compiled.goal),
            }, "application/json"
        if path == "/consistency":
            compiled = await loop.run_in_executor(
                self.executor, self.registry.compiled, entry
            )
            return 200, {
                "spec": entry.name,
                "consistent": compiled.consistent,
            }, "application/json"
        # /schedule
        limit = data.get("limit", 1)
        if not isinstance(limit, int) or limit < 1:
            raise HttpError(400, "'limit' must be a positive integer")
        limit = min(limit, MAX_SCHEDULES)
        compiled = await loop.run_in_executor(
            self.executor, self.registry.compiled, entry
        )
        if not compiled.consistent:
            return 200, {"spec": entry.name, "consistent": False,
                         "schedules": []}, "application/json"

        def enumerate_schedules():
            out = []
            for schedule in compiled.schedules(limit=limit):
                out.append(list(schedule))
                if len(out) >= limit:
                    break
            return out

        schedules = await loop.run_in_executor(self.executor, enumerate_schedules)
        return 200, {"spec": entry.name, "consistent": True,
                     "schedules": schedules}, "application/json"

    async def _handle_verify(self, entry: SpecEntry, data):
        from ..constraints.parser import parse_constraint

        requested = data.get("properties")
        if requested is None:
            names = [name for name, _ in entry.spec.properties]
            props = [prop for _, prop in entry.spec.properties]
        else:
            if not isinstance(requested, list) or not all(
                isinstance(p, str) for p in requested
            ):
                raise HttpError(400, "'properties' must be a list of strings")
            names = list(requested)
            props = [parse_constraint(p) for p in requested]
        if not props:
            return 200, {"spec": entry.name, "results": []}, "application/json"
        deadline = data.get("timeout")
        if deadline is not None and not isinstance(deadline, (int, float)):
            raise HttpError(400, "'timeout' must be a number of seconds")
        seed = data.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise HttpError(400, "'seed' must be an integer")
        results = await self.batcher.submit(
            entry, props, deadline=deadline, seed=seed
        )
        return 200, {
            "spec": entry.name,
            "version": entry.version,
            "results": [
                {
                    "name": name,
                    "property": str(result.property),
                    "holds": result.holds,
                    "witness": list(result.witness) if result.witness else None,
                }
                for name, result in zip(names, results)
            ],
        }, "application/json"

    def _resolve_entry(self, data) -> SpecEntry:
        name, text = data.get("spec"), data.get("text")
        if (name is None) == (text is None):
            raise HttpError(400, "provide exactly one of 'spec' or 'text'")
        if name is not None:
            if not isinstance(name, str):
                raise HttpError(400, "'spec' must be a string")
            return self.registry.get(name)
        if not isinstance(text, str):
            raise HttpError(400, "'text' must be a string")
        return self.registry.resolve_inline(text)


# -- the synchronous harness ---------------------------------------------------


class ServiceHandle:
    """A running service on a background thread (tests, benchmarks, examples).

    Obtained from :func:`serve_in_thread`; ``stop()`` performs the
    graceful (draining) shutdown by default.
    """

    def __init__(self, service: VerificationService, loop, thread):
        self.service = service
        self._loop = loop
        self._thread = thread
        self.host, self.port = service.address

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def client(self, timeout: float = 30.0):
        from .client import ServiceClient

        return ServiceClient(self.host, self.port, timeout=timeout)

    def stop(self, drain: bool = True, timeout: float = 30.0) -> None:
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(
            self.service.shutdown(drain=drain), self._loop
        )
        future.result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def serve_in_thread(
    host: str = "127.0.0.1", port: int = 0, **service_kwargs
) -> ServiceHandle:
    """Start a :class:`VerificationService` on a daemon thread.

    ``port=0`` binds an ephemeral port; the bound address is on the
    returned handle. The caller talks to it with any HTTP client —
    :meth:`ServiceHandle.client` hands out the bundled blocking one.
    """
    loop = asyncio.new_event_loop()
    service = VerificationService(**service_kwargs)
    started = threading.Event()
    failure: list[BaseException] = []

    def runner() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(service.start(host, port))
        except BaseException as exc:  # bind failure, bad specs dir, ...
            failure.append(exc)
            loop.close()
            started.set()
            return
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(
        target=runner, name="repro-service", daemon=True
    )
    thread.start()
    started.wait()
    if failure:
        raise failure[0]
    return ServiceHandle(service, loop, thread)
