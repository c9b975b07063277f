"""Request batching and admission control for the verification service.

Verification is the service's expensive operation — each property is an
Apply/Excise compile of ``G ∧ C ∧ ¬Φ`` (Theorem 5.9), NP-hard in the
constraint set. A daemon with a compile cache answers the properties it
has answered before from the registry's answer memo, so a warm read
never reaches the batcher; what arrives here is the properties the memo
lacks (every property, without a cache). Verification is also, for a
service, highly *coalescible*: many concurrent requests ask about the
same specification, often about the same properties. The
:class:`VerifyBatcher` exploits that:

* requests are grouped by the specification's batch key (``name@version``
  from the :class:`~repro.service.registry.SpecRegistry`, so a
  re-registration racing a request can never join the wrong group);
* an idle batcher dispatches a request at once — there is no coalescing
  sleep. While a batch verifies on the executor, a request for the same
  key whose every ``(property, seed)`` pair that batch is already
  verifying *joins* it: it awaits the running batch's results instead
  of queueing. Under Theorem 5.9 a verdict and its witness depend only
  on ``(G, C, Φ)`` and the witness seed, so the shared answer is exactly
  the one the joiner would have computed. Any other request that
  arrives while a batch runs piles into the next one;
* within a batch, duplicate properties are verified **once** and the
  result fanned back out to every waiter, via one
  :func:`~repro.core.verify.verify_properties` call (itself ``jobs``-aware);
* results are bit-identical to per-request :func:`verify_property` calls —
  the batch API carries that determinism contract.

Admission control is explicit: a bounded queue measured in *properties*
(the unit of work), shed-on-full (HTTP 429), reject-while-draining
(HTTP 503), and a per-request deadline checked against an injectable
:class:`~repro.core.resilience.Clock` — a
:class:`~repro.core.resilience.VirtualClock` makes expiry deterministic
in tests (HTTP 504). A joiner occupies no queue slot and has no deadline
to miss: its batch is already dispatched. Expiry of queued requests is
enforced twice: at dispatch time (a batch never verifies dead requests)
and by a periodic *sweep* (:meth:`VerifyBatcher.sweep_expired`, run by
a background task every ``expiry_interval`` seconds) — so a request
whose deadline passes while the queue is parked behind a long batch
gets its 504 promptly, not whenever the next dispatch happens to look.
Graceful shutdown (:meth:`VerifyBatcher.aclose`) stops admissions first,
then drains: every request accepted before the drain began still gets
its verdict. The abrupt one (:meth:`VerifyBatcher.abort`) fails the
queue with 503 and lets only the running batch finish.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any

from ..constraints.algebra import Constraint
from ..core.resilience import Clock, SystemClock
from ..errors import ReproError
from ..obs.context import (
    TraceContext,
    current_trace_context,
    use_trace_context,
)
from .registry import SpecEntry, SpecRegistry

__all__ = [
    "QueueFullError",
    "ServiceDrainingError",
    "DeadlineExceededError",
    "VerifyBatcher",
]


class QueueFullError(ReproError):
    """Admission denied: accepting this request would overflow the queue."""

    def __init__(self, depth: int, limit: int):
        self.depth = depth
        self.limit = limit
        super().__init__(
            f"verification queue is full ({depth}/{limit} properties queued)"
        )


class ServiceDrainingError(ReproError):
    """Admission denied: the service is shutting down."""

    def __init__(self) -> None:
        super().__init__("service is draining; no new work accepted")


class DeadlineExceededError(ReproError):
    """The request's deadline passed before its batch was dispatched."""

    def __init__(self, waited: float, deadline: float):
        self.waited = waited
        self.deadline = deadline
        super().__init__(
            f"request deadline of {deadline:g}s exceeded after {waited:g}s queued"
        )


@dataclass
class _Request:
    """One submitted verification request awaiting its batch."""

    entry: SpecEntry
    props: tuple[Constraint, ...]
    future: asyncio.Future
    enqueued_at: float
    deadline: float | None  # seconds from enqueue, on the injectable clock
    seed: int | None = None
    # The submitter's trace context, captured at submit() time (the HTTP
    # request span). The batch span links every waiter through these.
    ctx: TraceContext | None = None

    def expired(self, now: float) -> bool:
        return self.deadline is not None and (now - self.enqueued_at) > self.deadline


@dataclass
class _Flight:
    """A batch on the executor that identical requests may still join."""

    keys: OrderedDict    # the (property, seed) pairs the batch verifies
    live: list[_Request]  # its waiters; a joiner appends its own request
    span: Any            # the open ``service.verify.batch`` span, or None
    links: list[str]     # span ids of every waiter but the primary


@dataclass
class BatcherStats:
    """Counters the batcher maintains (mirrored into the metrics registry)."""

    submitted: int = 0
    accepted: int = 0
    shed: int = 0
    rejected_draining: int = 0
    expired: int = 0
    batches: int = 0
    verified: int = 0        # unique properties actually verified
    coalesced: int = 0       # properties answered without verification


class VerifyBatcher:
    """Coalesces concurrent verification requests into batched fan-outs.

    Single event loop, many waiters: :meth:`submit` is awaited by the
    HTTP handlers; a background consumer task groups pending requests by
    spec key, runs one ``verify_properties`` per group on ``executor``
    (keeping the loop free to accept more work), and resolves every
    waiter's future with its slice of the batch results. A request that
    the running batch already covers joins it instead of queueing.
    """

    def __init__(
        self,
        registry: SpecRegistry,
        *,
        jobs: int = 1,
        queue_limit: int = 256,
        default_deadline: float | None = 30.0,
        expiry_interval: float = 0.05,
        clock: Clock | None = None,
        executor=None,
        obs=None,
    ):
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if expiry_interval <= 0:
            raise ValueError("expiry_interval must be > 0")
        self.registry = registry
        self.jobs = jobs
        self.queue_limit = queue_limit
        self.default_deadline = default_deadline
        self.expiry_interval = expiry_interval
        self.clock: Clock = clock if clock is not None else SystemClock()
        self.executor = executor
        self.obs = obs
        self.stats = BatcherStats()
        self._pending: OrderedDict[str, list[_Request]] = OrderedDict()
        self._depth = 0  # queued properties across all groups
        self._running: dict[str, _Flight] = {}  # spec key -> batch in flight
        self._wake = asyncio.Event()
        self._task: asyncio.Task | None = None
        self._sweep_task: asyncio.Task | None = None
        self._draining = False

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> None:
        """Spawn the consumer and expiry-sweep tasks on the running loop."""
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="repro-verify-batcher"
            )
        if self._sweep_task is None or self._sweep_task.done():
            self._sweep_task = asyncio.get_running_loop().create_task(
                self._sweep_loop(), name="repro-verify-expiry"
            )

    async def aclose(self) -> None:
        """Stop admissions, drain every accepted request, stop the tasks."""
        self._draining = True
        await self._stop_tasks()
        # Started without a consumer task (tests drive flush() by hand):
        # drain whatever is still queued so accepted work is never dropped.
        await self.flush()

    async def abort(self) -> None:
        """Stop admissions and fail every queued request with
        :class:`ServiceDrainingError`; stop the tasks.

        The abrupt counterpart of :meth:`aclose`. A batch already on the
        executor still answers its waiters and its joiners.
        """
        self._draining = True
        for requests in self._pending.values():
            for request in requests:
                if not request.future.done():
                    request.future.set_exception(ServiceDrainingError())
        self._pending.clear()
        self._depth = 0
        self._gauge("service.queue_depth", 0)
        await self._stop_tasks()

    async def _stop_tasks(self) -> None:
        self._wake.set()
        if self._sweep_task is not None:
            self._sweep_task.cancel()
            await asyncio.gather(self._sweep_task, return_exceptions=True)
            self._sweep_task = None
        if self._task is not None:
            await self._task
            self._task = None

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def depth(self) -> int:
        """Queued properties (the unit the queue limit is measured in)."""
        return self._depth

    # -- submission -----------------------------------------------------------

    async def submit(
        self,
        entry: SpecEntry,
        props,
        *,
        deadline: float | None = None,
        seed: int | None = None,
    ) -> list:
        """Queue ``props`` for ``entry`` and await their verdicts.

        Returns a list of
        :class:`~repro.core.verify.VerificationResult`, in ``props``
        order. Raises :class:`ServiceDrainingError`,
        :class:`QueueFullError`, or :class:`DeadlineExceededError`.

        If the batch running for ``entry`` already verifies every
        ``(prop, seed)`` pair asked for, the request joins it: it takes
        no queue slot, cannot expire, and gets that batch's own result
        objects (or its exception).
        """
        props = tuple(props)
        self.stats.submitted += len(props)
        self._count("service.verify.submitted", len(props))
        if self._draining:
            self.stats.rejected_draining += len(props)
            self._count("service.verify.rejected_draining", len(props))
            raise ServiceDrainingError()
        flight = self._running.get(entry.key)
        if flight is not None and all(
            (prop, seed) in flight.keys for prop in props
        ):
            return await self._join(flight, entry, props, seed)
        cost = max(len(props), 1)
        if self._depth + cost > self.queue_limit:
            self.stats.shed += len(props)
            self._count("service.verify.shed", len(props))
            raise QueueFullError(self._depth, self.queue_limit)
        if deadline is None:
            deadline = self.default_deadline
        request = _Request(
            entry=entry,
            props=props,
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=self.clock.now(),
            deadline=deadline,
            seed=seed,
            ctx=current_trace_context(),
        )
        self._pending.setdefault(entry.key, []).append(request)
        self._depth += cost
        self.stats.accepted += len(props)
        self._gauge("service.queue_depth", self._depth)
        self._wake.set()
        return await request.future

    async def _join(self, flight: _Flight, entry: SpecEntry, props: tuple,
                    seed) -> list:
        self.stats.accepted += len(props)
        self.stats.coalesced += len(props)
        self._count("service.verify.coalesced", len(props))
        # Its own future, so cancelling one joiner cancels nobody else's
        # answer; no deadline, since the batch is already dispatched.
        request = _Request(
            entry=entry,
            props=props,
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=self.clock.now(),
            deadline=None,
            seed=seed,
            ctx=current_trace_context(),
        )
        if flight.span is not None and request.ctx is not None:
            flight.links.append(request.ctx.span_id)
            flight.span.annotate(links=flight.links)
        flight.live.append(request)  # answered with the batch's waiters
        return await request.future

    # -- the consumer ---------------------------------------------------------

    async def _run(self) -> None:
        while True:
            if not self._pending:
                if self._draining:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            await self.flush()

    async def _sweep_loop(self) -> None:
        # The consumer can be parked for a long time — a huge batch
        # hogging the executor while new requests pile up behind it. The
        # sweeper runs beside it so deadline expiry (on the *injectable*
        # clock) is delivered promptly in wall time.
        while not self._draining:
            await asyncio.sleep(self.expiry_interval)
            self.sweep_expired()

    def sweep_expired(self) -> int:
        """Fail every queued request whose deadline has passed; returns
        how many were expired.

        Also the deterministic test seam: submit, advance a
        :class:`~repro.core.resilience.VirtualClock`, call this by hand.
        """
        now = self.clock.now()
        expired = 0
        for key in list(self._pending):
            requests = self._pending[key]
            live: list[_Request] = []
            for request in requests:
                if not request.future.done() and request.expired(now):
                    self._expire(request, now)
                    expired += 1
                else:
                    live.append(request)
            if len(live) != len(requests):
                removed_cost = (
                    sum(max(len(r.props), 1) for r in requests)
                    - sum(max(len(r.props), 1) for r in live)
                )
                self._depth -= removed_cost
                if live:
                    self._pending[key] = live
                else:
                    del self._pending[key]
        if expired:
            self._gauge("service.queue_depth", self._depth)
        return expired

    def _expire(self, request: _Request, now: float) -> None:
        self.stats.expired += len(request.props)
        self._count("service.verify.expired", len(request.props))
        request.future.set_exception(
            DeadlineExceededError(now - request.enqueued_at, request.deadline)
        )

    async def flush(self) -> int:
        """Dispatch pending groups, oldest first, until none is left
        (groups queued while one runs included).

        The test seam: deterministic tests enqueue submits, advance a
        :class:`~repro.core.resilience.VirtualClock`, then flush by hand
        instead of racing the background task. Returns the number of
        groups dispatched.
        """
        dispatched = 0
        while self._pending:
            key, requests = self._pending.popitem(last=False)
            self._depth -= sum(max(len(r.props), 1) for r in requests)
            self._gauge("service.queue_depth", self._depth)
            await self._dispatch(key, requests)
            dispatched += 1
        return dispatched

    async def _dispatch(self, key: str, requests: list[_Request]) -> None:
        now = self.clock.now()
        live: list[_Request] = []
        for request in requests:
            if request.future.done():  # cancelled, or already swept to 504
                continue
            if request.expired(now):
                self._expire(request, now)
                continue
            live.append(request)
        if not live:
            return

        # Dedup: verify each distinct property once per batch. Constraints
        # are hash-consed values, so dict identity is semantic identity.
        unique: OrderedDict[tuple[Constraint, int | None], None] = OrderedDict()
        for request in live:
            for prop in request.props:
                unique.setdefault((prop, request.seed), None)
        total_props = sum(len(r.props) for r in live)
        self.stats.batches += 1
        self.stats.verified += len(unique)
        self.stats.coalesced += total_props - len(unique)
        self._count("service.verify.batches")
        self._count("service.verify.coalesced", total_props - len(unique))
        self._observe("service.verify.batch_size", total_props)
        self._observe("service.verify.batch_unique", len(unique))

        entry = live[0].entry
        loop = asyncio.get_running_loop()
        # One batch span covering the whole dispatch. Its distributed
        # parent is the first waiter's request span; every other waiter,
        # joiners included, is linked through the ``links`` attribute —
        # the cross-request record of who coalesced into this batch.
        tracer = getattr(self.obs, "tracer", None)
        primary = next((r.ctx for r in live if r.ctx is not None), None)
        span_cm = (
            tracer.span(
                "service.verify.batch", ctx=primary, key=key,
                waiters=len(live), unique=len(unique),
            )
            if tracer is not None else nullcontext(None)
        )
        with span_cm as batch_span:
            links = [
                r.ctx.span_id for r in live
                if r.ctx is not None and r.ctx is not primary
            ]
            if batch_span is not None and links:
                batch_span.annotate(links=links)
            batch_ctx = getattr(batch_span, "context", None)
            flight = _Flight(unique, live, batch_span, links)
            self._running[key] = flight
            started = loop.time()
            try:
                results = await loop.run_in_executor(
                    self.executor, self._verify_batch, entry, list(unique),
                    batch_ctx,
                )
            except BaseException as exc:  # compile/verify failure fails batch
                for request in live:  # joiners included
                    if not request.future.cancelled():
                        request.future.set_exception(exc)
                return
            finally:
                if self._running.get(key) is flight:
                    del self._running[key]
                # The exemplar makes this histogram name the spec it was
                # slow for — "top-k slowest specs" in ``repro top``.
                self._observe("service.verify.batch_latency",
                              loop.time() - started, exemplar=key)
        by_prop = dict(zip(unique, results))
        for request in live:  # joiners included
            if not request.future.cancelled():
                request.future.set_result(
                    [by_prop[(prop, request.seed)] for prop in request.props]
                )

    def _verify_batch(self, entry: SpecEntry, keyed_props: list,
                      ctx: TraceContext | None = None) -> list:
        """Runs on the executor thread: one batched verification fan-out.

        ``ctx`` — the batch span's context — is installed for the
        duration, so the ``parallel.*`` spans recorded by
        :mod:`repro.core.parallel` hang under the batch span in the
        distributed tree even though they run on a different thread.
        """
        from ..core.verify import verify_properties

        spec = entry.spec
        # Group by seed (requests rarely differ); each group is one
        # verify_properties call so the common case is a single fan-out.
        results: list = [None] * len(keyed_props)
        by_seed: OrderedDict[int | None, list[int]] = OrderedDict()
        for index, (_, seed) in enumerate(keyed_props):
            by_seed.setdefault(seed, []).append(index)
        with use_trace_context(ctx):
            for seed, indices in by_seed.items():
                verdicts = verify_properties(
                    spec.goal, list(spec.constraints),
                    [keyed_props[i][0] for i in indices],
                    rules=spec.rules, cache=self.registry.cache,
                    jobs=self.jobs, seed=seed, obs=self.obs,
                )
                for index, verdict in zip(indices, verdicts):
                    results[index] = verdict
        return results

    # -- metrics helpers ------------------------------------------------------

    def _count(self, name: str, amount: float = 1) -> None:
        if self.obs is not None and self.obs.metrics is not None and amount:
            self.obs.metrics.inc(name, amount)

    def _gauge(self, name: str, value: float) -> None:
        if self.obs is not None and self.obs.metrics is not None:
            self.obs.metrics.set_gauge(name, value)

    def _observe(self, name: str, value: float,
                 exemplar: str | None = None) -> None:
        if self.obs is not None and self.obs.metrics is not None:
            self.obs.metrics.observe(name, value, exemplar=exemplar)
