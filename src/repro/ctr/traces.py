"""Enumerable trace semantics for unique-event concurrent-Horn goals.

Under assumption (2) of the paper — significant events are elementary
updates that apply in *every* state — the valid executions of a goal are
fully characterised by the sequences of events they emit. This module
enumerates that set exactly:

* ``⊗`` concatenates traces,
* ``|`` shuffles (interleaves) them,
* ``∨`` unions them,
* ``⊙`` forces its body's trace to appear as a contiguous block,
* ``◇`` contributes the empty trace iff its body is executable at all,
* ``send``/``receive`` restrict the shuffles: a ``receive(t)`` step is only
  valid after the matching ``send(t)`` — the interleavings violating this
  are discarded, and the surviving traces are projected onto significant
  events.

Enumeration is exponential in the parallel width of the goal. That is by
design: this module is the *semantic oracle* used by the test-suite to
validate the Apply/Excise compiler (``traces(Apply(C,G)) == {t ∈ traces(G) :
t ⊨ C}``) and by the brute-force baselines. Scalable execution goes through
:mod:`repro.core.scheduler` (on the flat tables of :mod:`repro.ctr.kernel`)
instead.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Union

from ..errors import SpecificationError
from .formulas import (
    Atom,
    Choice,
    Concurrent,
    Empty,
    Goal,
    Isolated,
    NegPath,
    Path,
    Possibility,
    Receive,
    Send,
    Serial,
    Test,
)

__all__ = [
    "traces",
    "iter_traces",
    "is_executable",
    "count_traces",
    "TraceCount",
    "TooManyTracesError",
]

# A low-level step is an event name, a ("send", token) / ("recv", token)
# marker, or a Block wrapping a completed isolated sub-trace.
_Step = Union[str, tuple]


class _Block(tuple):
    """A contiguous (isolated) run of steps, shuffled as a single unit."""

    __slots__ = ()


class TooManyTracesError(SpecificationError):
    """Raised when enumeration exceeds the caller-supplied budget."""

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"trace enumeration exceeded the budget of {limit} sequences")


@lru_cache(maxsize=65536)
def _shuffle_pair(xs: tuple, ys: tuple) -> frozenset:
    """All interleavings of the two step sequences ``xs`` and ``ys``."""
    if not xs:
        return frozenset((ys,))
    if not ys:
        return frozenset((xs,))
    first_x, rest_x = xs[0], xs[1:]
    first_y, rest_y = ys[0], ys[1:]
    out = set()
    for tail in _shuffle_pair(rest_x, ys):
        out.add((first_x,) + tail)
    for tail in _shuffle_pair(xs, rest_y):
        out.add((first_y,) + tail)
    return frozenset(out)


def _shuffle_sets(trace_sets: list[frozenset], budget: list[int]) -> frozenset:
    result: frozenset = frozenset(((),))
    for ts in trace_sets:
        merged = set()
        for left in result:
            for right in ts:
                pair = _shuffle_pair(left, right)
                # Charge interleavings as they are *generated*, before
                # dedup/filtering: the budget bounds work done, not just
                # sequences that happen to survive.
                budget[0] -= len(pair)
                if budget[0] < 0:
                    raise TooManyTracesError(budget[1])
                merged |= pair
        result = frozenset(merged)
    return result


def _concat_sets(trace_sets: list[frozenset], budget: list[int]) -> frozenset:
    result: frozenset = frozenset(((),))
    for ts in trace_sets:
        budget[0] -= len(result) * len(ts)
        if budget[0] < 0:
            raise TooManyTracesError(budget[1])
        result = frozenset(left + right for left in result for right in ts)
    return result


def _step_traces(goal: Goal, budget: list[int]) -> frozenset:
    """Raw step sequences of ``goal`` (tokens unvalidated, blocks unflattened)."""
    if isinstance(goal, Atom):
        return frozenset(((goal.name,),))
    if isinstance(goal, Send):
        return frozenset(((("send", goal.token),),))
    if isinstance(goal, Receive):
        return frozenset(((("recv", goal.token),),))
    if isinstance(goal, (Test, Empty)):
        # Statically passable, emits nothing.
        return frozenset(((),))
    if isinstance(goal, NegPath):
        return frozenset()
    if isinstance(goal, Path):
        raise SpecificationError(
            "the proposition `path` admits arbitrary executions and cannot be "
            "enumerated; it belongs in constraints, not goals"
        )
    if isinstance(goal, Possibility):
        return frozenset(((),)) if is_executable(goal.body) else frozenset()
    if isinstance(goal, Isolated):
        inner = _step_traces(goal.body, budget)
        wrapped = set()
        for t in inner:
            wrapped.add((_Block(t),) if len(t) > 1 else t)
        return frozenset(wrapped)
    if isinstance(goal, (Serial, Concurrent)):
        # Generation is charged inside the set combinators (it dominates
        # the surviving-result size, so a second node-level charge would
        # only double-count the same work).
        combine = _concat_sets if isinstance(goal, Serial) else _shuffle_sets
        return combine([_step_traces(p, budget) for p in goal.parts], budget)
    if isinstance(goal, Choice):
        merged: set = set()
        for p in goal.parts:
            merged |= _step_traces(p, budget)
        result = frozenset(merged)
    else:  # pragma: no cover - future node kinds
        raise TypeError(f"cannot enumerate {type(goal).__name__}")

    budget[0] -= len(result)
    if budget[0] < 0:
        raise TooManyTracesError(budget[1])
    return result


def _flatten(steps: Iterable[_Step]):
    for step in steps:
        if isinstance(step, _Block):
            yield from _flatten(step)
        else:
            yield step


def _validate_and_project(steps: Iterable[_Step]) -> tuple[str, ...] | None:
    """Check send-before-receive, drop markers; None if the order is invalid."""
    sent: set[str] = set()
    events: list[str] = []
    for step in _flatten(steps):
        if isinstance(step, tuple):
            kind, token = step
            if kind == "send":
                sent.add(token)
            else:  # "recv"
                if token not in sent:
                    return None
        else:
            events.append(step)
    return tuple(events)


def traces(goal: Goal, max_traces: int = 200_000) -> frozenset[tuple[str, ...]]:
    """All valid event sequences of ``goal``.

    ``max_traces`` bounds the intermediate enumeration; exceeding it raises
    :class:`TooManyTracesError` rather than consuming unbounded memory.
    """
    budget = [max_traces, max_traces]
    try:
        raw = _step_traces(goal, budget)
        out = set()
        for t in raw:
            projected = _validate_and_project(t)
            if projected is not None:
                out.add(projected)
        return frozenset(out)
    finally:
        # Bound the module-level shuffle cache between enumerations: one
        # wide goal can park tens of thousands of interleaving frozensets
        # in it, which a long test session would otherwise retain forever.
        if _shuffle_pair.cache_info().currsize > 8192:
            _shuffle_pair.cache_clear()


# -- lazy enumeration ----------------------------------------------------------
#
# The eager `traces()` above materializes the whole set before answering
# anything, so existence questions on wide concurrent goals used to cost —
# and, past the budget, *fail* with TooManyTracesError — despite the first
# interleaving already being the answer. The generators below produce
# candidate step sequences one at a time: `is_executable` stops at the
# first valid trace, and `count_traces` saturates instead of raising.


class _LazySeq:
    """A memoized, re-iterable view over a one-shot generator.

    Product/shuffle composition iterates every part many times; caching
    what the underlying generator has produced keeps each part's traces
    computed once while staying lazy past the prefix actually consumed.
    """

    __slots__ = ("_gen", "_cache", "_done")

    def __init__(self, gen):
        self._gen = gen
        self._cache: list = []
        self._done = False

    def __iter__(self):
        index = 0
        while True:
            if index < len(self._cache):
                yield self._cache[index]
            elif self._done:
                return
            else:
                try:
                    item = next(self._gen)
                except StopIteration:
                    self._done = True
                    return
                self._cache.append(item)
                yield item
            index += 1


def _iter_shuffle_pair(xs: tuple, ys: tuple):
    """Interleavings of two step sequences, lazily, first-fit first."""
    if not xs:
        yield ys
        return
    if not ys:
        yield xs
        return
    for tail in _iter_shuffle_pair(xs[1:], ys):
        yield (xs[0],) + tail
    for tail in _iter_shuffle_pair(xs, ys[1:]):
        yield (ys[0],) + tail


def _iter_raw(goal: Goal):
    """Candidate step sequences of ``goal``, generated lazily.

    May yield duplicates (``∨`` branches can overlap, distinct
    interleavings can project to the same event sequence); callers dedup.
    Token validity is *not* checked here — see :func:`iter_traces`.
    """
    if isinstance(goal, Atom):
        yield (goal.name,)
        return
    if isinstance(goal, Send):
        yield (("send", goal.token),)
        return
    if isinstance(goal, Receive):
        yield (("recv", goal.token),)
        return
    if isinstance(goal, (Test, Empty)):
        yield ()
        return
    if isinstance(goal, NegPath):
        return
    if isinstance(goal, Path):
        raise SpecificationError(
            "the proposition `path` admits arbitrary executions and cannot be "
            "enumerated; it belongs in constraints, not goals"
        )
    if isinstance(goal, Possibility):
        if is_executable(goal.body):
            yield ()
        return
    if isinstance(goal, Isolated):
        for t in _iter_raw(goal.body):
            yield (_Block(t),) if len(t) > 1 else t
        return
    if isinstance(goal, Choice):
        for part in goal.parts:
            yield from _iter_raw(part)
        return
    if isinstance(goal, Serial):
        parts = [_LazySeq(_iter_raw(p)) for p in goal.parts]

        def concat(index: int):
            if index == len(parts):
                yield ()
                return
            for head in parts[index]:
                for tail in concat(index + 1):
                    yield head + tail

        yield from concat(0)
        return
    if isinstance(goal, Concurrent):
        parts = [_LazySeq(_iter_raw(p)) for p in goal.parts]

        def shuffle(index: int):
            if index < 0:
                yield ()
                return
            for left in shuffle(index - 1):
                for right in parts[index]:
                    yield from _iter_shuffle_pair(left, right)

        yield from shuffle(len(parts) - 1)
        return
    raise TypeError(f"cannot enumerate {type(goal).__name__}")  # pragma: no cover


def iter_traces(goal: Goal, max_traces: int = 200_000):
    """Lazily yield the distinct valid event sequences of ``goal``.

    Candidates are produced one interleaving at a time, validated
    (send-before-receive) and deduplicated on the fly, so consumers that
    stop early — existence checks, top-k sampling — never pay for the
    full enumeration. ``max_traces`` bounds the number of *candidates
    examined*; if the generator is still being consumed when the budget
    runs out, :class:`TooManyTracesError` is raised at that point.
    """
    remaining = max_traces
    seen: set[tuple[str, ...]] = set()
    for raw in _iter_raw(goal):
        remaining -= 1
        if remaining < 0:
            raise TooManyTracesError(max_traces)
        projected = _validate_and_project(raw)
        if projected is not None and projected not in seen:
            seen.add(projected)
            yield projected


def is_executable(goal: Goal, max_traces: int = 200_000) -> bool:
    """True iff ``goal`` has at least one valid execution.

    Short-circuits on the first valid trace — a wide concurrent goal
    whose trace set dwarfs ``max_traces`` still answers ``True``
    immediately. :class:`TooManyTracesError` is raised only when the
    budget is exhausted with *no* valid trace found and candidates remain,
    i.e. when the question genuinely cannot be answered within budget.
    """
    for _ in iter_traces(goal, max_traces=max_traces):
        return True
    return False


class TraceCount(int):
    """An execution count that knows whether it is exact or saturated.

    Behaves as a plain ``int`` (the count, or the lower bound when
    ``exact`` is False) so existing arithmetic and comparisons keep
    working.
    """

    exact: bool

    def __new__(cls, value: int, exact: bool = True) -> "TraceCount":
        self = super().__new__(cls, value)
        self.exact = exact
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        suffix = "" if self.exact else "+ (saturated)"
        return f"TraceCount({int(self)}{suffix})"


def count_traces(goal: Goal, max_traces: int = 200_000) -> TraceCount:
    """Number of distinct valid event sequences of ``goal``.

    When enumeration exceeds ``max_traces`` candidates the count observed
    so far is returned as a *saturated lower bound* — ``TraceCount(n,
    exact=False)`` — rather than propagating the budget exception: "at
    least n" answers the question the caller asked, a traceback does not.
    """
    count = 0
    try:
        for _ in iter_traces(goal, max_traces=max_traces):
            count += 1
    except TooManyTracesError:
        return TraceCount(count, exact=False)
    return TraceCount(count, exact=True)
