"""Parallel verification: DNF disjunct fan-out across a process pool.

Proposition 4.1 makes consistency/verification NP-complete *in the
constraint set*, and Theorem 5.11's ``O(d^N·|G|)`` blow-up lives entirely
in the ``C₁ ∨ C₂`` case of Apply. That disjunct space is embarrassingly
parallel: with ``C = δ₁ ∧ … ∧ δN`` split into ``∏dᵢ`` pure-conjunctive
branches (:func:`repro.constraints.normalize.split_disjuncts`),

    ``Excise(Apply(C, G)) ≠ ¬path``  iff  some single branch ``b`` has
    ``Excise(Apply(b, G)) ≠ ¬path``,

so each branch compiles and excises independently, with early exit on the
first surviving branch (consistency) or first counterexample branch
(verification). This module is the fan-out layer:

* :func:`check_consistency` — chunked work-stealing probe of the branch
  space over a :class:`~concurrent.futures.ProcessPoolExecutor`, with
  first-success cancellation (pending futures cancelled, running chunks
  drained);
* :func:`verify_properties` — the batch API: each property's full
  sequential :func:`~repro.core.verify.verify_property` runs on its own
  worker, so results are bit-for-bit identical to ``jobs=1`` by
  construction (same code, same seed, same cache keys);
* :func:`redundant_constraints` — Theorem 5.10 for every constraint at
  once; sequentially a loop of N independent searches, here one worker
  per constraint;
* :func:`compile_parallel` — whole-workflow compilation assembled as the
  ``∨`` of per-branch compiles. Trace-equivalent to the sequential
  compile (same execution set, Props 5.2/5.4/5.6) but *not* structurally
  identical — branch token names differ — so it is never stored under the
  sequential result's cache key.

Workers share the persistent :class:`~repro.core.compiler.CompileCache`
by directory: each branch's compile is content-addressed under its own
``(goal, branch)`` key, so warm re-verification is a per-disjunct disk
hit in every process. Goals and constraints cross the process boundary by
pickle and re-intern on arrival (hash-consed constructors), so workers
receive maximally shared DAGs.

Determinism contract: ``jobs=1`` is exactly the sequential code path.
``jobs=N`` returns identical booleans (consistency) and identical
:class:`~repro.core.verify.VerificationResult`s — when a property fails,
the early-exit probe only decides *that* it fails; the canonical most
general counterexample is then materialized by one sequential compile
(cache-assisted), so ``holds``/``counterexample``/``witness`` match
``jobs=1`` bit for bit.

The pool is a lazily created, reused singleton (one fork per worker per
process lifetime, not per call); ``REPRO_JOBS`` supplies the default
degree when a caller passes ``jobs=None``.
"""

from __future__ import annotations

import atexit
import os
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace

from ..constraints.algebra import Constraint
from ..constraints.normalize import ConstraintSplit, negate, split_disjuncts
from ..ctr.formulas import NEG_PATH, Goal, alt, event_names
from ..ctr.rules import RuleBase
from .compiler import CompileCache, CompiledWorkflow, compile_workflow, expand_goal

__all__ = [
    "FanoutStats",
    "ConsistencyOutcome",
    "resolve_jobs",
    "check_consistency",
    "verify_properties",
    "redundant_constraints",
    "compile_parallel",
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
    """What one fan-out did: how wide, how much was pruned, how busy.

    ``disjuncts_total`` is the full branch-space size ``∏dᵢ``;
    ``examined`` counts branches actually compiled (across all workers);
    ``pruned`` is their difference — work early exit avoided. ``busy_s``
    sums per-worker compute seconds, so ``busy_s / wall_s`` is the
    effective parallel speedup of the fan-out (the ``parallel.speedup``
    gauge).
    """

    jobs: int = 1
    disjuncts_total: int = 0
    examined: int = 0
    chunks: int = 0
    early_exit: bool = False
    wall_s: float = 0.0
    busy_s: float = 0.0
    workers: tuple[int, ...] = ()

    @property
    def pruned(self) -> int:
        return max(0, self.disjuncts_total - self.examined)

    @property
    def speedup(self) -> float:
        return self.busy_s / self.wall_s if self.wall_s > 0 else 1.0


@dataclass(frozen=True)
class ConsistencyOutcome:
    """Result of a branch-space consistency probe.

    ``branch_index`` is a surviving branch's mixed-radix index when
    ``consistent`` (with ``jobs>1`` it is whichever witness a worker
    found first, not necessarily the lowest), ``None`` otherwise.
    """

    consistent: bool
    branch_index: int | None
    stats: FanoutStats = field(compare=False, default_factory=FanoutStats)


# -- worker entry points (module-level: they cross the pickle boundary) --------


def _probe_chunk(goal, items, cache_spec):
    """Compile each ``(index, branch)``; stop at the first consistent one."""
    started = time.perf_counter()
    cache = _worker_cache(cache_spec)
    examined = 0
    hit = None
    for index, branch in items:
        examined += 1
        if compile_workflow(goal, list(branch), cache=cache).consistent:
            hit = index
            break
    return {
        "hit": hit,
        "examined": examined,
        "elapsed": time.perf_counter() - started,
        "pid": os.getpid(),
    }


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


def _compile_chunk(goal, items, cache_spec):
    """Fully compile each ``(index, branch)`` (no early exit — all needed)."""
    started = time.perf_counter()
    cache = _worker_cache(cache_spec)
    out = [
        (index, compile_workflow(goal, list(branch), cache=cache))
        for index, branch in items
    ]
    return out, time.perf_counter() - started, os.getpid()


# -- fan-out plumbing ----------------------------------------------------------


def _chunk_size(total: int, jobs: int, requested: int | None) -> int:
    """Default chunking: ~4 chunks per worker so the pool work-steals,
    but early exit never waits on more than one chunk per busy worker."""
    if requested is not None:
        if requested < 1:
            raise ValueError("chunk_size must be >= 1")
        return requested
    return max(1, -(-total // (jobs * 4)))


def _record_fanout(obs, what: str, stats: FanoutStats) -> None:
    """Feed one fan-out's accounting into the observability sinks."""
    if obs is None or not obs.active:
        return
    metrics = obs.metrics
    if metrics is not None:
        metrics.inc("parallel.disjuncts_total", stats.disjuncts_total)
        metrics.inc("parallel.disjuncts_examined", stats.examined)
        metrics.inc("parallel.disjuncts_pruned", stats.pruned)
        if stats.early_exit:
            metrics.inc("parallel.early_exit")
        metrics.set_gauge("parallel.jobs", stats.jobs)
        metrics.set_gauge("parallel.speedup", round(stats.speedup, 3))
    tracer = obs.tracer
    if tracer.enabled:
        # Adopt the thread's active trace context (installed by the
        # batcher around its executor call) so this fan-out hangs under
        # the batch span in the distributed tree. None outside a trace.
        from ..obs.context import current_trace_context

        with tracer.span(f"parallel.{what}", ctx=current_trace_context(),
                         jobs=stats.jobs,
                         disjuncts=stats.disjuncts_total,
                         chunks=stats.chunks) as span:
            span.annotate(examined=stats.examined, pruned=stats.pruned,
                          early_exit=stats.early_exit,
                          wall_s=round(stats.wall_s, 6),
                          busy_s=round(stats.busy_s, 6),
                          speedup=round(stats.speedup, 3))
            for pid in stats.workers:
                with tracer.span("parallel.worker", pid=pid):
                    pass


def _drain_after_hit(futures: list[Future], consumed: set[Future],
                     stats: FanoutStats) -> None:
    """First-success cancellation: cancel what hasn't started, drain the rest.

    Queued futures are cancelled outright; chunks already running finish
    (a chunk is the cancellation granularity) and their accounting is
    still harvested so ``examined``/``busy_s`` stay truthful.
    """
    pending = [f for f in futures if f not in consumed]
    for future in pending:
        future.cancel()
    wait(pending)
    for future in pending:
        if future.cancelled() or future.exception() is not None:
            continue
        result = future.result()
        stats.examined += result["examined"]
        stats.busy_s += result["elapsed"]


# -- the public fan-out API ----------------------------------------------------


def check_consistency(
    goal: Goal,
    constraints: list[Constraint] | tuple[Constraint, ...] = (),
    rules: RuleBase | None = None,
    jobs: int | None = 1,
    cache: CompileCache | str | os.PathLike | None = None,
    obs=None,
    chunk_size: int | None = None,
) -> ConsistencyOutcome:
    """Theorem 5.8 by branch fan-out: is some DNF branch of ``C`` consistent?

    ``jobs=1`` probes branches sequentially in index order (still early
    exits on the first survivor — on consistent specifications that is
    already much cheaper than compiling the full ``d^N`` conjunction);
    ``jobs>1`` fans chunks out across the worker pool and cancels the
    remainder on the first success. The boolean answer equals
    ``compile_workflow(goal, constraints).consistent`` either way.
    """
    jobs = resolve_jobs(jobs)
    expanded = expand_goal(goal, rules)
    split = split_disjuncts(list(constraints))
    stats = FanoutStats(jobs=jobs, disjuncts_total=split.total)
    started = time.perf_counter()
    if jobs == 1 or split.total == 1:
        outcome = _probe_sequential(expanded, split, cache, stats)
    else:
        try:
            outcome = _probe_parallel(expanded, split, jobs, cache, stats,
                                      chunk_size)
        except BrokenProcessPool:
            _reset_pool()
            stats = FanoutStats(jobs=1, disjuncts_total=split.total)
            outcome = _probe_sequential(expanded, split, cache, stats)
    stats.wall_s = time.perf_counter() - started
    if stats.busy_s == 0.0:
        stats.busy_s = stats.wall_s
    _record_fanout(obs, "consistency", stats)
    return outcome


def _probe_sequential(
    expanded: Goal, split: ConstraintSplit, cache, stats: FanoutStats
) -> ConsistencyOutcome:
    cache = CompileCache.coerce(cache)
    for index, branch in split.indexed():
        stats.examined += 1
        if compile_workflow(expanded, list(branch), cache=cache).consistent:
            stats.early_exit = index + 1 < split.total
            return ConsistencyOutcome(True, index, stats)
    return ConsistencyOutcome(False, None, stats)


def _probe_parallel(
    expanded: Goal,
    split: ConstraintSplit,
    jobs: int,
    cache,
    stats: FanoutStats,
    chunk_size: int | None,
) -> ConsistencyOutcome:
    pool = _get_pool(jobs)
    spec = _cache_spec(cache)
    size = _chunk_size(split.total, jobs, chunk_size)
    futures = [
        pool.submit(_probe_chunk, expanded, chunk, spec)
        for chunk in split.chunks(size)
    ]
    stats.chunks = len(futures)
    consumed: set[Future] = set()
    workers: set[int] = set()
    hit: int | None = None
    remaining = set(futures)
    while remaining:
        done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
        for future in done:
            consumed.add(future)
            result = future.result()
            stats.examined += result["examined"]
            stats.busy_s += result["elapsed"]
            workers.add(result["pid"])
            if result["hit"] is not None:
                hit = result["hit"] if hit is None else min(hit, result["hit"])
        if hit is not None:
            break
    stats.workers = tuple(sorted(workers))
    if hit is not None:
        stats.early_exit = stats.examined < split.total
        _drain_after_hit(futures, consumed, stats)
        return ConsistencyOutcome(True, hit, stats)
    return ConsistencyOutcome(False, None, stats)


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
    if jobs == 1 or len(props) <= 1:
        return [
            verify_property(goal, list(constraints), prop, rules=rules,
                            cache=cache, seed=seed)
            for prop in props
        ]
    expanded = expand_goal(goal, rules)
    spec = _cache_spec(cache)
    stats = FanoutStats(jobs=jobs, disjuncts_total=len(props),
                        chunks=len(props))
    started = time.perf_counter()
    pool = _get_pool(jobs)
    try:
        futures = [
            pool.submit(_verify_one, expanded, tuple(constraints), prop, spec,
                        seed)
            for prop in props
        ]
        harvested = [future.result() for future in futures]
    except BrokenProcessPool:
        _reset_pool()
        return [
            verify_property(goal, list(constraints), prop, rules=rules,
                            cache=cache, seed=seed)
            for prop in props
        ]
    # Unpickled witnesses hold private copies of every event name; share
    # the goal's strings instead, as a jobs=1 witness does.
    names = {name: name for name in event_names(expanded)}
    results = []
    workers: set[int] = set()
    for result, elapsed, pid in harvested:
        if result.witness is not None:
            result = replace(result, witness=tuple(
                names.get(event, event) for event in result.witness))
        results.append(result)
        stats.examined += 1
        stats.busy_s += elapsed
        workers.add(pid)
    stats.workers = tuple(sorted(workers))
    stats.wall_s = time.perf_counter() - started
    _record_fanout(obs, "verify_batch", stats)
    return results


def redundant_constraints(
    goal: Goal,
    constraints: list[Constraint] | tuple[Constraint, ...],
    rules: RuleBase | None = None,
    jobs: int | None = 1,
    obs=None,
) -> list[Constraint]:
    """Theorem 5.10 for every constraint, fanned out one worker per check.

    Semantically the same N independent questions the sequential loop in
    :func:`repro.core.verify.redundant_constraints` asks; each worker runs
    that exact sequential check (the search of
    :func:`~repro.core.apply.consistent_branch`), so the returned list is
    identical.
    """
    from .verify import is_redundant

    jobs = resolve_jobs(jobs)
    constraints = list(constraints)
    if jobs == 1 or len(constraints) <= 1:
        return [phi for phi in constraints
                if is_redundant(goal, constraints, phi, rules=rules)]
    expanded = expand_goal(goal, rules)
    stats = FanoutStats(jobs=jobs, disjuncts_total=len(constraints),
                        chunks=len(constraints))
    started = time.perf_counter()
    pool = _get_pool(jobs)
    try:
        futures = [
            pool.submit(_redundant_one, expanded, tuple(constraints), position)
            for position in range(len(constraints))
        ]
        harvested = [future.result() for future in futures]
    except BrokenProcessPool:
        _reset_pool()
        return [phi for phi in constraints
                if is_redundant(goal, constraints, phi, rules=rules)]
    flags = []
    workers: set[int] = set()
    for flag, elapsed, pid in harvested:
        flags.append(flag)
        stats.examined += 1
        stats.busy_s += elapsed
        workers.add(pid)
    stats.workers = tuple(sorted(workers))
    stats.wall_s = time.perf_counter() - started
    _record_fanout(obs, "redundancy", stats)
    return [phi for phi, flag in zip(constraints, flags) if flag]


def compile_parallel(
    goal: Goal,
    constraints: list[Constraint] | tuple[Constraint, ...] = (),
    rules: RuleBase | None = None,
    jobs: int | None = 1,
    cache: CompileCache | str | os.PathLike | None = None,
    obs=None,
    chunk_size: int | None = None,
) -> CompiledWorkflow:
    """Compile ``G ∧ C`` as the ``∨``-assembly of per-branch compiles.

    Every DNF branch of the constraint set compiles on its own worker;
    the results are assembled *in branch-index order* (deterministic for
    a fixed constraint set) as ``alt(...)`` over the branch goals, with
    inconsistent branches absorbed. The assembled workflow has exactly
    the execution set of the sequential compile (Props 5.2/5.4/5.6) but
    is *not* structurally identical — each branch mints its own
    synchronization tokens — so it is cached only at branch granularity,
    never under the sequential result's key.
    """
    jobs = resolve_jobs(jobs)
    expanded = expand_goal(goal, rules)
    split = split_disjuncts(list(constraints))
    if jobs == 1 or split.total == 1:
        return compile_workflow(goal, list(constraints), rules=rules,
                                cache=cache, obs=obs)
    stats = FanoutStats(jobs=jobs, disjuncts_total=split.total)
    started = time.perf_counter()
    pool = _get_pool(jobs)
    spec = _cache_spec(cache)
    size = _chunk_size(split.total, jobs, chunk_size)
    try:
        futures = [
            pool.submit(_compile_chunk, expanded, chunk, spec)
            for chunk in split.chunks(size)
        ]
        stats.chunks = len(futures)
        harvested = [future.result() for future in futures]
    except BrokenProcessPool:
        _reset_pool()
        return compile_workflow(goal, list(constraints), rules=rules,
                                cache=cache, obs=obs)
    compiled: list[tuple[int, CompiledWorkflow]] = []
    workers: set[int] = set()
    for chunk_result, elapsed, pid in harvested:
        compiled.extend(chunk_result)
        stats.examined += len(chunk_result)
        stats.busy_s += elapsed
        workers.add(pid)
    compiled.sort(key=lambda item: item[0])
    stats.workers = tuple(sorted(workers))
    stats.wall_s = time.perf_counter() - started
    _record_fanout(obs, "compile", stats)
    applied = alt(*(branch.applied for _, branch in compiled)) \
        if compiled else NEG_PATH
    assembled = alt(*(branch.goal for _, branch in compiled
                      if branch.consistent)) \
        if any(branch.consistent for _, branch in compiled) else NEG_PATH
    return CompiledWorkflow(
        source=expanded,
        constraints=tuple(constraints),
        applied=applied,
        goal=assembled,
    )


def verify_property_parallel(
    goal: Goal,
    constraints: list[Constraint] | tuple[Constraint, ...],
    prop: Constraint,
    rules: RuleBase | None = None,
    jobs: int | None = 1,
    cache: CompileCache | str | os.PathLike | None = None,
    seed: int | None = None,
    obs=None,
):
    """Theorem 5.9 for one property, deciding ``holds`` by disjunct fan-out.

    The branch space of ``C ∧ ¬Φ`` is probed in parallel with
    first-failure early exit: any surviving branch proves the property
    violated. When it *holds* the result is immediate and identical to
    ``jobs=1``; when it fails, one canonical sequential compile
    (cache-assisted — its branch probes have already warmed nothing it
    needs, but re-verification will hit) materializes the same most
    general counterexample and witness the sequential path reports.
    """
    from .verify import VerificationResult, verify_property

    negated = negate(prop)
    outcome = check_consistency(
        goal, list(constraints) + [negated], rules=rules, jobs=jobs,
        cache=cache, obs=obs,
    )
    if not outcome.consistent:
        return VerificationResult(property=prop, holds=True)
    return verify_property(goal, list(constraints), prop, rules=rules,
                           cache=cache, seed=seed)
