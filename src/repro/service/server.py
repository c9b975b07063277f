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

``/verify`` reads the registry's answer memo first (a registry with a
compile cache keeps one, see :mod:`~repro.service.registry`): a warm
read, one whose every property the memo holds, is answered on the event
loop and never reaches the batcher. The properties the memo lacks go
through the :class:`~repro.service.batcher.VerifyBatcher`: an idle
daemon dispatches a request at once; a request that the running batch
already covers joins it, and the rest that arrive meanwhile coalesce
into the next :func:`~repro.core.verify.verify_properties` fan-out, with
bounded-queue admission (429 when shedding, 503 while draining, 504 past
the per-request deadline); their answers are then memoized. The
``service.verify.memo_hits`` counter, and the same attribute on a traced
request's span, count the properties the memo answered. The other POST
endpoints run directly on the executor — they are single compiles
against the registry's memo and the persistent compile cache.

Graceful shutdown (:meth:`VerificationService.shutdown` with
``drain=True``, the default, wired to SIGINT/SIGTERM by the CLI) stops
accepting connections and new verify work first, then drains every
accepted batch and lets in-flight handlers write their responses: an
accepted request is never dropped.

This is the one front door. The
:class:`~repro.cluster.router.ClusterRouter` *is* a
:class:`VerificationService` that forwards: it inherits the route table
below (request→entry resolution, the error→status table, ``/metrics``,
``/specs``, the 404/405 fallthrough), scopes it to a tenant, adds its own
``/healthz``, ``/cluster/*`` and trace collection, and answers from the
inherited handler when every replica is down. :func:`run_in_thread` is
the thread harness of both, behind one :class:`ServiceHandle`. The HTTP
substrate (connection lifecycle, request parsing, per-endpoint metrics
and spans) lives in :class:`~repro.service.http.HttpServerBase`.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from ..core.resilience import Clock
from ..obs.config import Observability
from ..obs.context import IdSource
from ..obs.metrics import MetricsRegistry
from .batcher import (
    DeadlineExceededError,
    QueueFullError,
    ServiceDrainingError,
    VerifyBatcher,
)
from .http import HttpError, HttpServerBase, json_body
from .registry import TENANT_SEP, SpecEntry, SpecRegistry, UnknownSpecError

__all__ = [
    "VerificationService",
    "ServiceHandle",
    "serve_in_thread",
    "run_in_thread",
    "resolve_entry",
    "traced_obs",
]

#: Hard cap on schedules returned by one ``/schedule`` call.
MAX_SCHEDULES = 10_000

_JSON = "application/json"


def traced_obs(segment: str, ids_seed: int | None = None) -> Observability:
    """Distributed tracing for a front door named ``segment``: every span
    gets a trace id, from ids seeded by ``ids_seed`` (replayable) or random
    ones, plus metrics and bounded span retention."""
    return Observability.enabled(
        trace=True, metrics=True, record=False,
        ids=IdSource(seed=ids_seed), segment=segment, max_spans=10_000,
    )


def resolve_entry(catalog, data) -> SpecEntry:
    """The entry a request body names: ``{"spec": name}`` looked up in
    ``catalog`` (a registry or a tenant's view of one), or ``{"text": ...}``
    resolved inline."""
    name, text = data.get("spec"), data.get("text")
    if (name is None) == (text is None):
        raise HttpError(400, "provide exactly one of 'spec' or 'text'")
    if name is not None:
        if not isinstance(name, str):
            raise HttpError(400, "'spec' must be a string")
        return catalog.get(name)
    if not isinstance(text, str):
        raise HttpError(400, "'text' must be a string")
    return catalog.resolve_inline(text)


class VerificationService(HttpServerBase):
    """The daemon: registry + batcher + HTTP front end, one event loop."""

    metrics_prefix = "service"
    error_statuses = (
        (QueueFullError, 429),
        (ServiceDrainingError, 503),
        (DeadlineExceededError, 504),
        (UnknownSpecError, 404),
    )
    #: The POST endpoints that answer for one resolved entry.
    entry_paths = ("/compile", "/consistency", "/verify", "/schedule")
    #: Every endpoint: a path outside it is 404, a wrong method on it 405.
    paths = ("/healthz", "/metrics", "/specs", "/traces", *entry_paths)

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

    async def _handle(self, method, path, query, headers, body, catalog=None):
        """The route table; ``catalog`` is the registry the spec endpoints
        read (the router passes a tenant's view of it)."""
        if catalog is None:
            catalog = self.registry
        if method == "POST" and path in self.entry_paths:
            data = json_body(body)
            return await self._answer(path, resolve_entry(catalog, data), data)
        if method == "GET":
            if path == "/healthz":
                return 200, {
                    "status": "draining" if self._shutting_down else "ok",
                    "specs": len(self.registry),
                    "queue_depth": self.batcher.depth,
                    "queue_limit": self.batcher.queue_limit,
                }, _JSON
            if path == "/metrics":
                registry = self.obs.metrics or MetricsRegistry()
                if query.get("format") == "json":
                    return 200, registry.to_dict(), _JSON
                return 200, registry.render_prometheus(), \
                    "text/plain; version=0.0.4"
            if path == "/traces":
                return 200, {"traces": self.obs.tracer.trace_ids()}, _JSON
            if path.startswith("/traces/"):
                from ..obs.distributed import segment_spans

                trace_id = path[len("/traces/"):]
                segment = getattr(self.obs.tracer, "segment", "local")
                spans = self.obs.tracer.spans_for(trace_id)
                return 200, {
                    "trace_id": trace_id,
                    "segment": segment,
                    "spans": segment_spans(spans, segment),
                }, _JSON
            if path == "/specs":
                return 200, {"specs": _listing(catalog)}, _JSON
        if path == "/specs" and method == "POST":
            data = json_body(body)
            name, text = data.get("name"), data.get("text")
            if not isinstance(name, str) or not isinstance(text, str):
                raise HttpError(400, "POST /specs needs string 'name' and 'text'")
            if TENANT_SEP in name:  # a tenant's namespace: only its view writes it
                raise HttpError(400, f"spec name may not contain {TENANT_SEP!r}")
            entry = catalog.register(name, text)
            return 200, {"name": name, "version": entry.version}, _JSON
        if path in self.paths:
            raise HttpError(405, f"method {method} not allowed on {path}")
        raise HttpError(404, f"no such endpoint {path}")

    async def _answer(self, path: str, entry: SpecEntry, data):
        """``POST path`` for the resolved ``entry``: the daemon's answer, and
        the router's when every replica is down."""
        if path == "/verify":
            return await self._verify(entry, data)
        if path == "/schedule":
            limit = data.get("limit", 1)
            if not isinstance(limit, int) or limit < 1:
                raise HttpError(400, "'limit' must be a positive integer")
            limit = min(limit, MAX_SCHEDULES)
        loop = asyncio.get_running_loop()
        compiled = await loop.run_in_executor(
            self.executor, self.registry.compiled, entry
        )
        if path == "/compile":
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
            }, _JSON
        if path == "/consistency":
            return 200, {
                "spec": entry.name,
                "consistent": compiled.consistent,
            }, _JSON
        if not compiled.consistent:
            return 200, {"spec": entry.name, "consistent": False,
                         "schedules": []}, _JSON

        def enumerate_schedules():
            out = []
            for schedule in compiled.schedules(limit=limit):
                out.append(list(schedule))
                if len(out) >= limit:
                    break
            return out

        schedules = await loop.run_in_executor(self.executor, enumerate_schedules)
        return 200, {"spec": entry.name, "consistent": True,
                     "schedules": schedules}, _JSON

    async def _verify(self, entry: SpecEntry, data):
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
            return 200, {"spec": entry.name, "results": []}, _JSON
        deadline = data.get("timeout")
        if deadline is not None and not isinstance(deadline, (int, float)):
            raise HttpError(400, "'timeout' must be a number of seconds")
        seed = data.get("seed")
        if seed is not None and not isinstance(seed, int):
            raise HttpError(400, "'seed' must be an integer")
        # A draining daemon answers nothing, from the memo or otherwise:
        # the batcher refuses (and counts) the whole request.
        answers = ([None] * len(props) if self.batcher.draining
                   else self.registry.answers(entry, props, seed))
        missing = [prop for prop, answer in zip(props, answers) if answer is None]
        if missing:
            fresh = iter(await self.batcher.submit(
                entry, missing, deadline=deadline, seed=seed
            ))
            answers = [
                answer if answer is not None
                else self.registry.remember(entry, seed, next(fresh))
                for answer in answers
            ]
        hits = len(props) - len(missing)
        if hits:
            if self.obs.metrics is not None:
                self.obs.metrics.inc("service.verify.memo_hits", hits)
            if self.obs.tracer.enabled:
                self._annotate_request(memo_hits=hits)
        return 200, {
            "spec": entry.name,
            "version": entry.version,
            "results": [
                {
                    "name": name,
                    "property": text,
                    "holds": holds,
                    "witness": list(witness) if witness else None,
                }
                for name, (text, holds, witness) in zip(names, answers)
            ],
        }, _JSON


def _listing(catalog) -> list[dict]:
    """``GET /specs``: the specifications ``catalog`` shows. A tenant's
    ``tenant::name`` entries show only through that tenant's view, as
    only that view registers them."""
    specs = []
    for name in catalog.names():
        if TENANT_SEP in name:
            continue
        try:
            entry = catalog.get(name)
        except UnknownSpecError:
            continue  # raced an unregister
        specs.append({
            "name": name,
            "version": entry.version,
            "properties": [p_name for p_name, _ in entry.spec.properties],
        })
    return specs


# -- the synchronous harness ---------------------------------------------------


class ServiceHandle:
    """A running front door — a daemon, or a cluster router and its
    workers — on a background thread (tests, benchmarks, examples).

    Obtained from :func:`serve_in_thread` or
    :func:`~repro.cluster.router.cluster_in_thread`; ``service`` is the
    daemon or the router. ``stop()`` performs the graceful (draining)
    shutdown by default.
    """

    def __init__(self, service: VerificationService, loop, thread):
        self.service = service
        self._loop = loop
        self._thread = thread
        self.host, self.port = service.address

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def client(self, timeout: float = 30.0, **kwargs):
        from .client import ServiceClient

        return ServiceClient(self.host, self.port, timeout=timeout, **kwargs)

    def kill_worker(self, worker_id: str) -> None:
        """SIGKILL one cluster worker from outside the loop (the chaos lever)."""
        self.service.supervisor.state_of(worker_id).handle.kill()

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
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


def run_in_thread(service: VerificationService, host: str = "127.0.0.1",
                  port: int = 0) -> ServiceHandle:
    """Start ``service`` (a daemon or a cluster router) on a daemon thread
    with its own event loop; returns its :class:`ServiceHandle`.

    ``port=0`` binds an ephemeral port; the bound address is on the
    handle. A failure to start (bind, specs dir, worker spawn) is raised
    here.
    """
    loop = asyncio.new_event_loop()
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


def serve_in_thread(
    host: str = "127.0.0.1", port: int = 0, **service_kwargs
) -> ServiceHandle:
    """Start a :class:`VerificationService` on a daemon thread.

    ``port=0`` binds an ephemeral port; the bound address is on the
    returned handle. The caller talks to it with any HTTP client —
    :meth:`ServiceHandle.client` hands out the bundled blocking one.
    """
    return run_in_thread(VerificationService(**service_kwargs), host, port)
