"""VerifyBatcher: coalescing, joining, dedup, backpressure, deadlines,
draining.

Driven without the background consumer task wherever determinism matters:
tests enqueue ``submit`` coroutines as tasks, advance a
:class:`~repro.core.resilience.VirtualClock`, and call
:meth:`~repro.service.batcher.VerifyBatcher.flush` by hand — so expiry
and batching decisions never race wall-clock time. A batch that must
stay running while a test acts (to be joined, or to park the queue
behind it) runs on a :class:`GatedExecutor` and finishes only once the
test opens the gate.
"""

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.constraints.parser import parse_constraint
from repro.core.resilience import VirtualClock
from repro.core.verify import verify_property
from repro.obs import Observability
from repro.service.batcher import (
    DeadlineExceededError,
    QueueFullError,
    ServiceDrainingError,
    VerifyBatcher,
)
from repro.service.registry import SpecRegistry

SPEC = """
goal: receive * (credit | stock) * approve
constraint: precedes(credit, approve)
property checked: precedes(credit, approve)
property backwards: precedes(stock, credit)
"""


def run(coro):
    return asyncio.run(coro)


def make_batcher(**kwargs):
    registry = SpecRegistry()
    entry = registry.register("orders", SPEC)
    return VerifyBatcher(registry, **kwargs), entry


class GatedExecutor(ThreadPoolExecutor):
    """Runs each submitted call only once ``gate`` is set."""

    def __init__(self):
        super().__init__(max_workers=1)
        self.gate = threading.Event()

    def submit(self, fn, /, *args, **kwargs):
        def held():
            assert self.gate.wait(timeout=30), "gate never opened"
            return fn(*args, **kwargs)

        return super().submit(held)


async def until(predicate):
    """Yield to the loop until ``predicate()`` holds."""
    for _ in range(1000):
        if predicate():
            return
        await asyncio.sleep(0)
    raise AssertionError("condition never held")


def props_of(entry, *names):
    by_name = dict(entry.spec.properties)
    return [by_name[name] for name in names]


class TestCoalescing:
    def test_identical_requests_verify_once(self):
        async def scenario():
            batcher, entry = make_batcher()
            props = props_of(entry, "checked", "backwards")
            waiters = [
                asyncio.ensure_future(batcher.submit(entry, props))
                for _ in range(8)
            ]
            await asyncio.sleep(0)  # let every submit enqueue
            assert batcher.depth == 16
            await batcher.flush()
            return batcher, await asyncio.gather(*waiters)

        batcher, results = run(scenario())
        # One batch, two unique properties verified, 14 answered for free.
        assert batcher.stats.batches == 1
        assert batcher.stats.verified == 2
        assert batcher.stats.coalesced == 14
        first = results[0]
        assert [r.holds for r in first] == [True, False]
        for other in results[1:]:
            assert [r.holds for r in other] == [True, False]
            # Literally the same result objects: one verification fanned out.
            assert other[0] is first[0] and other[1] is first[1]

    def test_results_are_bit_identical_to_direct_calls(self):
        async def scenario():
            batcher, entry = make_batcher()
            props = props_of(entry, "checked", "backwards")
            waiter = asyncio.ensure_future(batcher.submit(entry, props))
            await asyncio.sleep(0)
            await batcher.flush()
            return entry, props, await waiter

        entry, props, results = run(scenario())
        spec = entry.spec
        for prop, result in zip(props, results):
            direct = verify_property(spec.goal, list(spec.constraints), prop,
                                     rules=spec.rules)
            assert result.holds == direct.holds
            assert result.witness == direct.witness
            assert result.property == direct.property

    def test_different_specs_batch_separately(self):
        async def scenario():
            registry = SpecRegistry()
            orders = registry.register("orders", SPEC)
            claims = registry.register("claims", "goal: submit * review\n"
                                                 "property done: happens(review)\n")
            batcher = VerifyBatcher(registry)
            w1 = asyncio.ensure_future(
                batcher.submit(orders, props_of(orders, "checked")))
            w2 = asyncio.ensure_future(
                batcher.submit(claims, props_of(claims, "done")))
            await asyncio.sleep(0)
            await batcher.flush()
            return batcher, await w1, await w2

        batcher, orders_results, claims_results = run(scenario())
        assert batcher.stats.batches == 2
        assert orders_results[0].holds and claims_results[0].holds

    def test_requests_get_their_slice_in_order(self):
        async def scenario():
            batcher, entry = make_batcher()
            forward = asyncio.ensure_future(
                batcher.submit(entry, props_of(entry, "checked", "backwards")))
            reverse = asyncio.ensure_future(
                batcher.submit(entry, props_of(entry, "backwards", "checked")))
            await asyncio.sleep(0)
            await batcher.flush()
            return await forward, await reverse

        forward, reverse = run(scenario())
        assert [r.holds for r in forward] == [True, False]
        assert [r.holds for r in reverse] == [False, True]

    def test_compile_failure_fails_every_waiter(self):
        from repro.errors import UniqueEventError

        async def scenario():
            registry = SpecRegistry()
            # `a` occurs twice: compilation raises UniqueEventError.
            entry = registry.register("dup", "goal: a * a\n"
                                             "property p: happens(a)\n")
            batcher = VerifyBatcher(registry)
            waiters = [
                asyncio.ensure_future(
                    batcher.submit(entry, props_of(entry, "p")))
                for _ in range(3)
            ]
            await asyncio.sleep(0)
            await batcher.flush()
            return await asyncio.gather(*waiters, return_exceptions=True)

        outcomes = run(scenario())
        assert all(isinstance(o, UniqueEventError) for o in outcomes)


class TestBackpressure:
    def test_queue_overflow_sheds(self):
        async def scenario():
            batcher, entry = make_batcher(queue_limit=3)
            props = props_of(entry, "checked", "backwards")
            first = asyncio.ensure_future(batcher.submit(entry, props))
            await asyncio.sleep(0)  # 2 queued properties
            with pytest.raises(QueueFullError):
                await batcher.submit(entry, props)  # 2 + 2 > 3: shed
            await batcher.flush()
            await first
            # The queue drained: admission reopens.
            second = asyncio.ensure_future(batcher.submit(entry, props))
            await asyncio.sleep(0)
            await batcher.flush()
            await second
            return batcher

        batcher = run(scenario())
        assert batcher.stats.shed == 2
        assert batcher.stats.accepted == 4

    def test_shed_counts_in_metrics(self):
        obs = Observability.enabled(trace=False, record=False)

        async def scenario():
            batcher, entry = make_batcher(queue_limit=1, obs=obs)
            props = props_of(entry, "checked", "backwards")
            with pytest.raises(QueueFullError):
                await batcher.submit(entry, props)

        run(scenario())
        assert obs.metrics.counter("service.verify.shed").value == 2

    def test_draining_rejects_new_work(self):
        async def scenario():
            batcher, entry = make_batcher()
            await batcher.aclose()
            with pytest.raises(ServiceDrainingError):
                await batcher.submit(entry, props_of(entry, "checked"))

        run(scenario())


class TestDeadlines:
    def test_expired_request_gets_504_not_a_verdict(self):
        async def scenario():
            clock = VirtualClock()
            batcher, entry = make_batcher(clock=clock, default_deadline=10.0)
            expired = asyncio.ensure_future(
                batcher.submit(entry, props_of(entry, "checked"), deadline=5.0))
            fresh = asyncio.ensure_future(
                batcher.submit(entry, props_of(entry, "checked")))
            await asyncio.sleep(0)
            clock.advance(7.0)  # past 5s, within the 10s default
            await batcher.flush()
            return (
                await asyncio.gather(expired, return_exceptions=True),
                await fresh,
                batcher,
            )

        (expired,), fresh, batcher = run(scenario())
        assert isinstance(expired, DeadlineExceededError)
        assert expired.deadline == 5.0 and expired.waited == 7.0
        assert fresh[0].holds  # the live request still got its verdict
        assert batcher.stats.expired == 1

    def test_no_deadline_never_expires(self):
        async def scenario():
            clock = VirtualClock()
            batcher, entry = make_batcher(clock=clock, default_deadline=None)
            waiter = asyncio.ensure_future(
                batcher.submit(entry, props_of(entry, "checked")))
            await asyncio.sleep(0)
            clock.advance(1e9)
            await batcher.flush()
            return await waiter

        assert run(scenario())[0].holds


class TestExpirySweep:
    """Deadline expiry must not wait for a dispatch to happen to look.

    Regression: before the sweeper, a request whose deadline passed while
    the queue was parked behind a long batch only learned its fate at the
    *next* dispatch — potentially never. The sweep delivers the 504
    promptly.
    """

    def test_sweep_expired_by_hand_on_virtual_clock(self):
        async def scenario():
            clock = VirtualClock()
            batcher, entry = make_batcher(clock=clock)
            waiter = asyncio.ensure_future(
                batcher.submit(entry, props_of(entry, "checked"),
                               deadline=5.0))
            await asyncio.sleep(0)
            assert batcher.depth == 1
            clock.advance(6.0)
            expired = batcher.sweep_expired()
            result = await asyncio.gather(waiter, return_exceptions=True)
            return batcher, expired, result

        batcher, expired, (result,) = run(scenario())
        assert expired == 1
        assert isinstance(result, DeadlineExceededError)
        # The swept request no longer occupies queue depth or a group.
        assert batcher.depth == 0
        assert not batcher._pending

    def test_sweep_task_delivers_504_behind_a_running_batch(self):
        async def scenario():
            clock = VirtualClock()
            executor = GatedExecutor()
            batcher, entry = make_batcher(
                clock=clock, expiry_interval=0.01, executor=executor,
            )
            batcher.start()
            try:
                running = asyncio.ensure_future(
                    batcher.submit(entry, props_of(entry, "checked")))
                await until(lambda: batcher._running)
                # A property the running batch does not cover: it queues
                # behind the batch, which the consumer cannot leave
                # until the gate opens.
                queued = asyncio.ensure_future(
                    batcher.submit(entry, props_of(entry, "backwards"),
                                   deadline=5.0))
                await asyncio.sleep(0)
                assert batcher.depth == 1
                clock.advance(6.0)  # deadline passes on the injectable clock
                # Only the sweep task can deliver this 504: the consumer
                # is parked inside the held batch.
                result = await asyncio.wait_for(
                    asyncio.gather(queued, return_exceptions=True),
                    timeout=5.0,
                )
                assert batcher.depth == 0
            finally:
                executor.gate.set()
            await batcher.aclose()
            executor.shutdown()
            return result, await running

        (result,), running = run(scenario())
        assert isinstance(result, DeadlineExceededError)
        assert running[0].holds

    def test_sweep_leaves_live_requests_queued(self):
        async def scenario():
            clock = VirtualClock()
            batcher, entry = make_batcher(clock=clock)
            doomed = asyncio.ensure_future(
                batcher.submit(entry, props_of(entry, "checked"),
                               deadline=2.0))
            alive = asyncio.ensure_future(
                batcher.submit(entry, props_of(entry, "backwards"),
                               deadline=100.0))
            await asyncio.sleep(0)
            clock.advance(3.0)
            assert batcher.sweep_expired() == 1
            assert batcher.depth == 1
            await batcher.flush()
            return (
                await asyncio.gather(doomed, return_exceptions=True),
                await alive,
            )

        (doomed,), alive = run(scenario())
        assert isinstance(doomed, DeadlineExceededError)
        assert alive[0].holds is False  # "backwards" got its real verdict

    def test_swept_requests_free_admission_capacity(self):
        async def scenario():
            clock = VirtualClock()
            batcher, entry = make_batcher(clock=clock, queue_limit=2)
            stuck = asyncio.ensure_future(
                batcher.submit(entry, props_of(entry, "checked", "backwards"),
                               deadline=1.0))
            await asyncio.sleep(0)
            with pytest.raises(QueueFullError):
                await batcher.submit(entry, props_of(entry, "checked"))
            clock.advance(2.0)
            batcher.sweep_expired()
            # The expired request's cost was returned to the queue budget.
            fresh = asyncio.ensure_future(
                batcher.submit(entry, props_of(entry, "checked")))
            await asyncio.sleep(0)
            await batcher.flush()
            await asyncio.gather(stuck, return_exceptions=True)
            return await fresh

        fresh = run(scenario())
        assert fresh[0].holds

    def test_expiry_interval_validation(self):
        with pytest.raises(ValueError):
            make_batcher(expiry_interval=0)


class TestDraining:
    def test_aclose_completes_accepted_work(self):
        async def scenario():
            batcher, entry = make_batcher()
            batcher.start()
            waiters = [
                asyncio.ensure_future(
                    batcher.submit(entry, props_of(entry, "checked")))
                for _ in range(5)
            ]
            await asyncio.sleep(0)
            await batcher.aclose()
            results = await asyncio.gather(*waiters)
            return batcher, results

        batcher, results = run(scenario())
        assert all(r[0].holds for r in results)
        assert batcher.depth == 0
        assert batcher.stats.accepted == 5

    def test_background_task_batches_concurrent_submitters(self):
        async def scenario():
            batcher, entry = make_batcher()
            batcher.start()
            props = props_of(entry, "checked")
            results = await asyncio.gather(*[
                batcher.submit(entry, props) for _ in range(6)
            ])
            await batcher.aclose()
            return batcher, results

        batcher, results = run(scenario())
        assert all(r[0].holds for r in results)
        # All six submitters queue in the loop step that wakes the
        # consumer, so they coalesce into one batch without any sleep.
        assert batcher.stats.batches == 1
        assert batcher.stats.verified == 1
        assert batcher.stats.coalesced == 5


class TestJoin:
    """A request the running batch already covers joins it (singleflight)."""

    @staticmethod
    async def dispatch_held(batcher, entry, names=("checked", "backwards"),
                            **submit_kwargs):
        """Submit one request, dispatch it, and leave its batch running on
        the gated executor. Returns the waiter and the flush task."""
        waiter = asyncio.ensure_future(
            batcher.submit(entry, props_of(entry, *names), **submit_kwargs))
        await asyncio.sleep(0)
        flushing = asyncio.ensure_future(batcher.flush())
        await until(lambda: batcher._running)
        return waiter, flushing

    def test_identical_request_shares_the_running_batch(self):
        async def scenario():
            executor = GatedExecutor()
            batcher, entry = make_batcher(executor=executor)
            waiter, flushing = await self.dispatch_held(batcher, entry)
            joiner = asyncio.ensure_future(batcher.submit(
                entry, props_of(entry, "backwards", "checked")))
            await asyncio.sleep(0)
            assert batcher.depth == 0  # joined, not queued
            executor.gate.set()
            await flushing
            assert await batcher.flush() == 0  # nothing left to verify
            executor.shutdown()
            return batcher, await waiter, await joiner

        batcher, first, joined = run(scenario())
        assert batcher.stats.batches == 1
        assert batcher.stats.verified == 2
        # The batch's own result objects, in the joiner's order.
        assert joined[0] is first[1] and joined[1] is first[0]

    def test_cancelled_joiner_leaves_the_others_their_answer(self):
        async def scenario():
            executor = GatedExecutor()
            batcher, entry = make_batcher(executor=executor)
            waiter, flushing = await self.dispatch_held(batcher, entry)
            props = props_of(entry, "checked", "backwards")
            gone = asyncio.ensure_future(batcher.submit(entry, props))
            kept = asyncio.ensure_future(batcher.submit(entry, props))
            await asyncio.sleep(0)
            gone.cancel()
            await asyncio.sleep(0)
            executor.gate.set()
            await flushing
            executor.shutdown()
            outcome = await asyncio.gather(gone, return_exceptions=True)
            return outcome, await waiter, await kept

        (gone,), first, kept = run(scenario())
        assert isinstance(gone, asyncio.CancelledError)
        assert kept[0] is first[0] and kept[1] is first[1]

    def test_failing_batch_raises_its_exception_in_joiners(self):
        from repro.errors import UniqueEventError

        async def scenario():
            registry = SpecRegistry()
            entry = registry.register("dup", "goal: a * a\n"
                                             "property p: happens(a)\n")
            executor = GatedExecutor()
            batcher = VerifyBatcher(registry, executor=executor)
            waiter, flushing = await self.dispatch_held(
                batcher, entry, names=("p",))
            joiners = [
                asyncio.ensure_future(
                    batcher.submit(entry, props_of(entry, "p")))
                for _ in range(2)
            ]
            await asyncio.sleep(0)
            executor.gate.set()
            await flushing
            executor.shutdown()
            return await asyncio.gather(waiter, *joiners,
                                        return_exceptions=True)

        first, *joined = run(scenario())
        assert isinstance(first, UniqueEventError)
        assert all(exc is first for exc in joined)

    def test_other_seed_or_new_version_does_not_join(self):
        async def scenario():
            executor = GatedExecutor()
            batcher, entry = make_batcher(executor=executor)
            waiter, flushing = await self.dispatch_held(batcher, entry)
            props = props_of(entry, "checked", "backwards")
            seeded = asyncio.ensure_future(
                batcher.submit(entry, props, seed=7))
            newer = batcher.registry.register(
                "orders", SPEC.replace("approve\n", "approve * archive\n", 1))
            assert newer.key == "orders@2"
            reregistered = asyncio.ensure_future(
                batcher.submit(newer, props_of(newer, "checked",
                                               "backwards")))
            await asyncio.sleep(0)
            assert batcher.depth == 4  # both queued whole
            executor.gate.set()
            await flushing
            executor.shutdown()
            return (batcher, await waiter, await seeded,
                    await reregistered)

        batcher, first, seeded, reregistered = run(scenario())
        assert batcher.stats.batches == 3
        assert batcher.stats.verified == 6
        assert [r.holds for r in seeded] == [True, False]
        assert [r.holds for r in reregistered] == [True, False]
        assert seeded[1] is not first[1]

    def test_text_registered_again_under_its_name_does_not_join(self):
        # unregister + register gives the name a new version, so a request
        # for the new text cannot join the old text's batch, still held.
        async def scenario():
            registry = SpecRegistry()
            old = registry.register("x", "goal: a * b\n")
            executor = GatedExecutor()
            batcher = VerifyBatcher(registry, executor=executor)
            prop = parse_constraint("happens(b)")
            waiter = asyncio.ensure_future(batcher.submit(old, [prop]))
            await asyncio.sleep(0)
            flushing = asyncio.ensure_future(batcher.flush())
            await until(lambda: batcher._running)
            registry.unregister("x")
            new = registry.register("x", "goal: a * (b + c)\n")
            fresh = asyncio.ensure_future(batcher.submit(new, [prop]))
            await asyncio.sleep(0)
            executor.gate.set()
            await flushing
            executor.shutdown()
            return new, prop, await waiter, await fresh

        new, prop, (first,), (fresh,) = run(scenario())
        assert first.holds
        direct = verify_property(new.spec.goal, list(new.spec.constraints),
                                 prop)
        assert fresh.holds is direct.holds is False
        assert fresh.witness == direct.witness

    def test_partial_overlap_queues_whole(self):
        async def scenario():
            executor = GatedExecutor()
            batcher, entry = make_batcher(executor=executor)
            waiter, flushing = await self.dispatch_held(
                batcher, entry, names=("checked",))
            wider = asyncio.ensure_future(batcher.submit(
                entry, props_of(entry, "checked", "backwards")))
            await asyncio.sleep(0)
            assert batcher.depth == 2
            executor.gate.set()
            await flushing
            executor.shutdown()
            return batcher, await waiter, await wider

        batcher, first, wider = run(scenario())
        assert batcher.stats.batches == 2
        assert batcher.stats.verified == 3  # "checked" is verified again
        assert wider[0] is not first[0]
        assert wider[0].holds and not wider[1].holds

    def test_draining_batcher_answers_503_before_any_join(self):
        async def scenario():
            executor = GatedExecutor()
            batcher, entry = make_batcher(executor=executor)
            batcher.start()
            props = props_of(entry, "checked", "backwards")
            waiter = asyncio.ensure_future(batcher.submit(entry, props))
            await until(lambda: batcher._running)
            closing = asyncio.ensure_future(batcher.aclose())
            await until(lambda: batcher.draining)
            try:
                with pytest.raises(ServiceDrainingError):
                    await batcher.submit(entry, props)
            finally:
                executor.gate.set()
            await closing
            executor.shutdown()
            return batcher, await waiter

        batcher, first = run(scenario())
        assert first[0].holds
        assert batcher.stats.rejected_draining == 2
        assert batcher.stats.coalesced == 0

    def test_joiner_is_admitted_when_the_queue_is_full(self):
        async def scenario():
            executor = GatedExecutor()
            batcher, entry = make_batcher(executor=executor, queue_limit=2)
            waiter, flushing = await self.dispatch_held(batcher, entry)
            props = props_of(entry, "checked", "backwards")
            queued = asyncio.ensure_future(
                batcher.submit(entry, props, seed=3))
            await asyncio.sleep(0)
            assert batcher.depth == 2  # full
            with pytest.raises(QueueFullError):
                await batcher.submit(entry, props, seed=4)
            joiner = asyncio.ensure_future(batcher.submit(entry, props))
            await asyncio.sleep(0)
            executor.gate.set()
            await flushing
            executor.shutdown()
            return await waiter, await joiner, await queued

        first, joined, queued = run(scenario())
        assert joined[0] is first[0] and joined[1] is first[1]
        assert [r.holds for r in queued] == [True, False]

    def test_joiner_never_expires(self):
        async def scenario():
            clock = VirtualClock()
            executor = GatedExecutor()
            batcher, entry = make_batcher(clock=clock, executor=executor)
            waiter, flushing = await self.dispatch_held(batcher, entry)
            joiner = asyncio.ensure_future(batcher.submit(
                entry, props_of(entry, "checked"), deadline=1.0))
            await asyncio.sleep(0)
            clock.advance(10.0)
            swept = batcher.sweep_expired()
            executor.gate.set()
            await flushing
            executor.shutdown()
            return batcher, swept, await waiter, await joiner

        batcher, swept, first, joined = run(scenario())
        assert swept == 0 and batcher.stats.expired == 0
        assert joined[0] is first[0]

    def test_joined_properties_count_as_accepted_and_coalesced(self):
        obs = Observability.enabled(trace=False, record=False)

        async def scenario():
            executor = GatedExecutor()
            batcher, entry = make_batcher(executor=executor, obs=obs)
            waiter, flushing = await self.dispatch_held(batcher, entry)
            joiners = [
                asyncio.ensure_future(batcher.submit(entry, props))
                for props in (props_of(entry, "checked", "backwards"),
                              props_of(entry, "backwards"))
            ]
            await asyncio.sleep(0)
            executor.gate.set()
            await flushing
            executor.shutdown()
            await asyncio.gather(waiter, *joiners)
            return batcher

        stats = run(scenario()).stats
        assert (stats.accepted, stats.verified, stats.coalesced) == (5, 2, 3)
        assert stats.accepted == stats.verified + stats.coalesced
        assert obs.metrics.counter("service.verify.coalesced").value == 3


class TestAbort:
    def test_abort_fails_the_queue_and_empties_it(self):
        obs = Observability.enabled(trace=False, record=False)

        async def scenario():
            batcher, entry = make_batcher(obs=obs)
            waiters = [
                asyncio.ensure_future(batcher.submit(
                    entry, props_of(entry, "checked", "backwards"),
                    seed=seed))
                for seed in range(3)
            ]
            await asyncio.sleep(0)
            assert batcher.depth == 6
            await batcher.abort()
            outcomes = await asyncio.gather(*waiters, return_exceptions=True)
            return batcher, outcomes

        batcher, outcomes = run(scenario())
        assert all(isinstance(o, ServiceDrainingError) for o in outcomes)
        assert batcher.depth == 0
        assert obs.metrics.gauge("service.queue_depth").value == 0
        assert batcher.stats.batches == 0

    def test_abort_lets_the_running_batch_answer(self):
        async def scenario():
            executor = GatedExecutor()
            batcher, entry = make_batcher(executor=executor)
            batcher.start()
            props = props_of(entry, "checked", "backwards")
            waiter = asyncio.ensure_future(batcher.submit(entry, props))
            await until(lambda: batcher._running)
            joiner = asyncio.ensure_future(batcher.submit(entry, props))
            queued = asyncio.ensure_future(
                batcher.submit(entry, props, seed=1))
            await asyncio.sleep(0)
            aborting = asyncio.ensure_future(batcher.abort())
            await until(lambda: queued.done())
            executor.gate.set()
            await aborting
            executor.shutdown()
            return (await waiter, await joiner,
                    await asyncio.gather(queued, return_exceptions=True))

        first, joined, (queued,) = run(scenario())
        assert [r.holds for r in first] == [True, False]
        assert joined[0] is first[0] and joined[1] is first[1]
        assert isinstance(queued, ServiceDrainingError)
