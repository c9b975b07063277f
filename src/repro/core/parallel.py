"""Parallel verification: a batch of whole questions across a process pool.

Proposition 4.1 makes consistency and verification NP-complete *in the
constraint set*, and Theorem 5.11's ``O(d^N·|G|)`` blow-up lives in the
``C₁ ∨ C₂`` case of Apply. One question answers that sequentially, where
hash-consing shares the work across the ``d^N`` branches: the yes/no
questions search (:func:`~repro.core.apply.consistent_branch`) and a
failing property's counterexample comes from one compile. Splitting a
single question's branches across processes would throw that sharing
away, so the pool parallelizes only *batches*, one whole question per
worker:

* :func:`verify_properties` — Theorem 5.9 for a batch of properties:
  each property's full sequential
  :func:`~repro.core.verify.verify_property` runs on its own worker;
* :func:`redundant_constraints` — Theorem 5.10 for every constraint at
  once: each constraint's :func:`~repro.core.verify.is_redundant` search
  runs on its own worker.

Both submit through one helper, which harvests the results in order and
falls back to the sequential loop when the pool breaks. Workers share the
persistent :class:`~repro.core.compiler.CompileCache` by directory, so
warm re-verification is a disk hit in every process. Goals and
constraints cross the process boundary by pickle and re-intern on
arrival (hash-consed constructors), so workers receive maximally shared
DAGs.

Determinism contract: ``jobs=1`` runs the sequential loop. ``jobs=N``
runs that loop's body, the same code with the same seed and the same
cache keys, as one pool task per question, so it returns identical
:class:`~repro.core.verify.VerificationResult`s (holds, counterexample,
witness) and identical redundancy listings.

The pool is a lazily created, reused singleton (one fork per worker per
process lifetime, not per call); ``REPRO_JOBS`` supplies the default
degree when a caller passes ``jobs=None``.
"""

from __future__ import annotations

import atexit
import os
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

from ..constraints.algebra import Constraint
from ..ctr.formulas import Goal, event_names
from ..ctr.rules import RuleBase
from ..obs.config import OBS_DISABLED
from ..obs.context import current_trace_context
from .compiler import CompileCache, expand_goal

__all__ = [
    "FanoutStats",
    "resolve_jobs",
    "verify_properties",
    "redundant_constraints",
    "shutdown_pool",
]


# Warn about a malformed $REPRO_JOBS only once per process: the knob is
# consulted on every entry-point call, and a daemon serving thousands of
# requests must not emit thousands of identical warnings.
_warned_jobs_values: set[str] = set()


def _warn_jobs_once(raw: str, reason: str) -> None:
    if raw in _warned_jobs_values:
        return
    _warned_jobs_values.add(raw)
    warnings.warn(
        f"ignoring REPRO_JOBS={raw!r}: {reason}; running sequentially (jobs=1)",
        RuntimeWarning,
        stacklevel=3,
    )


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``jobs`` knob to a concrete worker count.

    ``None`` consults ``$REPRO_JOBS``: whitespace is tolerated around an
    integer (``" 4 "`` is 4), an unset/empty variable means 1 (the
    sequential default), ``0`` means "all cores" (``os.cpu_count()``), and
    a malformed value — non-integer like ``"all"``, or a negative count —
    is clamped to 1 with a once-per-process :class:`RuntimeWarning`
    (never a silent degrade *or* a surprise fork-bomb). An explicit
    ``jobs=0`` likewise means all cores; explicit negatives clamp to 1.
    """
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "")
        stripped = raw.strip()
        if not stripped:
            jobs = 1
        else:
            try:
                jobs = int(stripped)
            except ValueError:
                _warn_jobs_once(raw, "not an integer")
                jobs = 1
            else:
                if jobs < 0:
                    _warn_jobs_once(raw, "negative worker count")
                    jobs = 1
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


# -- the shared worker pool ----------------------------------------------------

_pool: ProcessPoolExecutor | None = None
_pool_jobs = 0


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    """The reused executor, resized (drain + recreate) when ``jobs`` changes."""
    global _pool, _pool_jobs
    if _pool is not None and _pool_jobs != jobs:
        _pool.shutdown(wait=True, cancel_futures=True)
        _pool = None
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=jobs)
        _pool_jobs = jobs
    return _pool


def _reset_pool() -> None:
    global _pool
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None


def shutdown_pool(wait_for_workers: bool = True) -> None:
    """Tear down the shared worker pool (registered via :mod:`atexit`)."""
    global _pool
    if _pool is not None:
        _pool.shutdown(wait=wait_for_workers, cancel_futures=True)
        _pool = None


atexit.register(shutdown_pool)


def _cache_spec(
    cache: CompileCache | str | os.PathLike | None,
) -> tuple[str, int] | None:
    """A pickle-light handle workers rebuild their own :class:`CompileCache` from."""
    cache = CompileCache.coerce(cache)
    if cache is None:
        return None
    return (str(cache.directory), cache.max_entries)


def _worker_cache(spec: tuple[str, int] | None) -> CompileCache | None:
    if spec is None:
        return None
    directory, max_entries = spec
    return CompileCache(directory, max_entries=max_entries)


# -- accounting ----------------------------------------------------------------


@dataclass
class FanoutStats:
    """What one batch fan-out did: how wide and how busy.

    ``tasks`` counts the questions submitted, one per worker task.
    ``busy_s`` sums the workers' compute seconds, so ``busy_s / wall_s``
    is the effective parallel speedup of the fan-out (the
    ``parallel.speedup`` gauge).
    """

    jobs: int = 1
    tasks: int = 0
    wall_s: float = 0.0
    busy_s: float = 0.0
    workers: tuple[int, ...] = ()

    @property
    def speedup(self) -> float:
        return self.busy_s / self.wall_s if self.wall_s > 0 else 1.0


# -- worker entry points (module-level: they cross the pickle boundary) --------


def _verify_one(goal, constraints, prop, cache_spec, seed):
    """One property's full sequential verification (bit-identical to jobs=1)."""
    from .verify import verify_property

    started = time.perf_counter()
    result = verify_property(
        goal, list(constraints), prop,
        cache=_worker_cache(cache_spec), seed=seed,
    )
    return result, time.perf_counter() - started, os.getpid()


def _redundant_one(goal, constraints, position):
    """Theorem 5.10 for the constraint at ``position`` (sequential semantics)."""
    from .verify import is_redundant

    started = time.perf_counter()
    flag = is_redundant(goal, list(constraints), constraints[position])
    return flag, time.perf_counter() - started, os.getpid()


# -- fan-out plumbing ----------------------------------------------------------


def _fan_out(name: str, task, argsets: list[tuple], jobs: int, obs) -> list | None:
    """``task(*args)`` for each of ``argsets`` on the pool, results in order.

    Each task returns ``(result, elapsed, pid)``. ``None`` means the pool
    broke; the caller then answers sequentially. With ``obs`` active the
    fan-out is one span called ``name`` from submit to harvest, with a
    ``parallel.worker`` child per worker process, and sets the
    ``parallel.jobs``/``parallel.speedup`` gauges.
    """
    obs = OBS_DISABLED if obs is None else obs
    tracer = obs.tracer
    ctx = None
    if tracer.enabled:
        # Adopt the thread's active trace context (installed by the
        # batcher around its executor call) so this fan-out hangs under
        # the batch span in the distributed tree. None outside a trace.
        ctx = current_trace_context()
    with tracer.span(name, ctx=ctx, jobs=jobs) as span:
        started = time.perf_counter()
        pool = _get_pool(jobs)
        try:
            futures = [pool.submit(task, *args) for args in argsets]
            harvested = [future.result() for future in futures]
        except BrokenProcessPool:
            _reset_pool()
            harvested = None
        if obs.active:
            done = harvested or []
            stats = FanoutStats(
                jobs=jobs,
                tasks=len(done),
                wall_s=time.perf_counter() - started,
                busy_s=sum(elapsed for _, elapsed, _ in done),
                workers=tuple(sorted({pid for _, _, pid in done})),
            )
            _record_fanout(obs, span, stats)
    if harvested is None:
        return None
    return [result for result, _, _ in harvested]


def _record_fanout(obs, span, stats: FanoutStats) -> None:
    """Feed one fan-out's accounting into the observability sinks."""
    metrics = obs.metrics
    if metrics is not None:
        metrics.set_gauge("parallel.jobs", stats.jobs)
        metrics.set_gauge("parallel.speedup", round(stats.speedup, 3))
    if obs.tracer.enabled:
        span.annotate(tasks=stats.tasks,
                      wall_s=round(stats.wall_s, 6),
                      busy_s=round(stats.busy_s, 6),
                      speedup=round(stats.speedup, 3))
        for pid in stats.workers:
            with obs.tracer.span("parallel.worker", pid=pid):
                pass


# -- the public batch API ------------------------------------------------------


def verify_properties(
    goal: Goal,
    constraints: list[Constraint] | tuple[Constraint, ...],
    props: list[Constraint] | tuple[Constraint, ...],
    rules: RuleBase | None = None,
    jobs: int | None = 1,
    cache: CompileCache | str | os.PathLike | None = None,
    seed: int | None = None,
    obs=None,
) -> list:
    """Theorem 5.9 for a batch of properties, one worker per property.

    Returns :class:`~repro.core.verify.VerificationResult`s in ``props``
    order. Each worker runs the *full sequential* ``verify_property`` —
    same code, same ``seed``, same cache keys — so the results are
    bit-for-bit identical to ``jobs=1``, including counterexample goals
    (re-interned on the way back) and witness schedules, whose event names
    are mapped back onto the goal's own strings.
    """
    from .verify import verify_property

    jobs = resolve_jobs(jobs)
    props = list(props)
    if jobs > 1 and len(props) > 1:
        expanded = expand_goal(goal, rules)
        spec = _cache_spec(cache)
        results = _fan_out(
            "parallel.verify_batch", _verify_one,
            [(expanded, tuple(constraints), prop, spec, seed) for prop in props],
            jobs, obs,
        )
        if results is not None:
            # Unpickled witnesses hold private copies of every event name;
            # share the goal's strings instead, as a jobs=1 witness does.
            names = {name: name for name in event_names(expanded)}
            return [
                result if result.witness is None else replace(
                    result, witness=tuple(names.get(event, event)
                                          for event in result.witness))
                for result in results
            ]
    return [
        verify_property(goal, list(constraints), prop, rules=rules,
                        cache=cache, seed=seed)
        for prop in props
    ]


def redundant_constraints(
    goal: Goal,
    constraints: list[Constraint] | tuple[Constraint, ...],
    rules: RuleBase | None = None,
    jobs: int | None = 1,
    obs=None,
) -> list[Constraint]:
    """Theorem 5.10 for every constraint, one worker per check.

    Each check is the sequential search of
    :func:`~repro.core.verify.is_redundant`; ``jobs=1`` runs them in a
    loop and ``jobs>1`` one per worker, with the identical list returned.
    """
    from .verify import is_redundant

    jobs = resolve_jobs(jobs)
    constraints = list(constraints)
    if jobs > 1 and len(constraints) > 1:
        expanded = expand_goal(goal, rules)
        flags = _fan_out(
            "parallel.redundancy", _redundant_one,
            [(expanded, tuple(constraints), position)
             for position in range(len(constraints))],
            jobs, obs,
        )
        if flags is not None:
            return [phi for phi, flag in zip(constraints, flags) if flag]
    return [phi for phi in constraints
            if is_redundant(goal, constraints, phi, rules=rules)]
