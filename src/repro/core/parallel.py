"""The process pool that answers a batch of whole questions.

Proposition 4.1 and Theorem 5.11 put the whole exponent inside one
question, and one question answers it sequentially, where hash-consing
shares the work across the ``d^N`` branches. Splitting a question's
branches across processes would throw that sharing away, so the only
parallelism is one whole question per worker: the batch forms of
:mod:`repro.core.verify` hand :func:`fan_out` the very function they
would otherwise call in a loop, with the same arguments, so ``jobs=N``
answers what ``jobs=1`` answers.

The pool is a lazily created, reused singleton (one fork per worker per
process lifetime, not per call). Arguments cross the process boundary by
pickle: goals and constraints re-intern on arrival (hash-consed
constructors), so workers receive maximally shared DAGs.
"""

from __future__ import annotations

import atexit
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from ..obs.config import OBS_DISABLED
from ..obs.context import current_trace_context

__all__ = ["resolve_jobs", "fan_out", "shutdown_pool"]


def resolve_jobs(jobs: int) -> int:
    """A ``jobs`` knob as a worker count: ``0`` means all cores
    (``os.cpu_count()``), and a count below 1 clamps to 1 (a caller's
    mistake is not a request for every core)."""
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


# -- the shared worker pool ----------------------------------------------------

_pool: ProcessPoolExecutor | None = None
_pool_jobs = 0


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    """The reused executor, resized (drain + recreate) when ``jobs`` changes."""
    global _pool, _pool_jobs
    if _pool_jobs != jobs:
        shutdown_pool()
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=jobs)
        _pool_jobs = jobs
    return _pool


def shutdown_pool(wait_for_workers: bool = True) -> None:
    """Tear down the shared worker pool (registered via :mod:`atexit`)."""
    global _pool
    if _pool is not None:
        _pool.shutdown(wait=wait_for_workers, cancel_futures=True)
        _pool = None


atexit.register(shutdown_pool)


def _timed(fn, args: tuple):
    """``fn(*args)`` in a worker, with its compute seconds and the pid."""
    started = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - started, os.getpid()


def fan_out(fn, argsets: list[tuple], jobs: int, obs=None) -> list | None:
    """``fn(*args)`` for each of ``argsets``, one pool task each, in order.

    ``fn`` must pickle by reference (a module-level function). ``None``
    tells the caller to answer in a loop instead: ``jobs`` resolves to 1,
    there is only one task, or the pool broke. With ``obs`` active the
    fan-out is one ``parallel.verify_batch`` span from submit to harvest,
    with the ``jobs``/``tasks``/``wall_s``/``busy_s``/``speedup``
    attributes (``busy_s`` sums the workers' compute seconds) and a
    ``parallel.worker`` child per worker process, and it sets the
    ``parallel.jobs``/``parallel.speedup`` gauges.
    """
    jobs = resolve_jobs(jobs)
    if jobs < 2 or len(argsets) < 2:
        return None
    obs = OBS_DISABLED if obs is None else obs
    tracer = obs.tracer
    # Adopt the thread's active trace context (installed by the batcher
    # around its executor call) so this fan-out hangs under the batch
    # span in the distributed tree. None outside a trace.
    ctx = current_trace_context() if tracer.enabled else None
    with tracer.span("parallel.verify_batch", ctx=ctx, jobs=jobs) as span:
        started = time.perf_counter()
        pool = _get_pool(jobs)
        try:
            futures = [pool.submit(_timed, fn, args) for args in argsets]
            harvested = [future.result() for future in futures]
        except BrokenProcessPool:
            shutdown_pool(wait_for_workers=False)
            return None
        wall_s = time.perf_counter() - started
        busy_s = sum(elapsed for _, elapsed, _ in harvested)
        speedup = busy_s / wall_s if wall_s > 0 else 1.0
        if obs.metrics is not None:
            obs.metrics.set_gauge("parallel.jobs", jobs)
            obs.metrics.set_gauge("parallel.speedup", round(speedup, 3))
        if tracer.enabled:
            span.annotate(tasks=len(harvested), wall_s=round(wall_s, 6),
                          busy_s=round(busy_s, 6), speedup=round(speedup, 3))
            for pid in sorted({pid for _, _, pid in harvested}):
                with tracer.span("parallel.worker", pid=pid):
                    pass
    return [result for result, _, _ in harvested]
