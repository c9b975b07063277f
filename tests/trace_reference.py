"""K1's timing comparator: the lazy half of the retired trace enumerator.

The library answers trace queries on the flat kernel
(:mod:`repro.ctr.kernel`), and its differential tests judge the kernel
against the step machine (:mod:`repro.ctr.machine`). This module keeps
the object enumeration that K1 (``benchmarks/bench_kernel.py``) times the
kernel's ``count_traces`` against, and nothing else calls it.

It is not an oracle. It builds each part's candidate step sequences,
shuffles them, then checks send-before-receive, so it judges a ``◇``
body on its own, as if no token had been sent:
``send(t1) * <receive(t1)>`` has no trace here and one (the empty trace)
on the kernel and the machine. K1's goal holds no ``◇`` and no ``⊙``, and
K1 asserts that this count equals the kernel's.
"""

from __future__ import annotations

from typing import Iterable, Union

from repro.ctr.formulas import (
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
from repro.ctr.kernel import TraceCount
from repro.errors import SpecificationError, TooManyTracesError

__all__ = ["iter_traces", "is_executable", "count_traces"]

# A low-level step is an event name, a ("send", token) / ("recv", token)
# marker, or a Block wrapping a completed isolated sub-trace.
_Step = Union[str, tuple]


class _Block(tuple):
    """A contiguous (isolated) run of steps, shuffled as a single unit."""

    __slots__ = ()


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
