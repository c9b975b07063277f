"""Executable step semantics for concurrent-Horn goals.

This is the run-time half of the CTR proof theory the paper relies on: an
SLD-style *residuation* machine that executes a goal one elementary step at
a time. Proving a concurrent-Horn goal and executing it are the same
operation in CTR, and this module is that operation.

A :class:`Config` is a pair ``(goal, tokens)``: the residual goal still to
be executed, plus the set of synchronization tokens already ``send``-ed.
Steps come in two flavours:

* **event steps**, labelled with the significant event they emit;
* **silent steps** (label ``None``): ``send``/``receive`` firings, passed
  transition :class:`~repro.ctr.formulas.Test` conditions, and ``◇`` checks.

Isolation (``⊙``) is honoured by wrapping a partially-executed isolated
body in the internal :class:`Running` marker; while a ``Running`` region
exists inside a concurrent composition, only steps from within it are
offered, which is precisely "execute without interleaving". An isolated
block is all-or-nothing, so a body step is offered only if the body can
then complete on its own: a block never starts that it cannot finish.

The machine is deliberately *non-deterministic*: :meth:`Machine.successors`
returns every option. It is the reference interpreter and the semantic
oracle: the kernel (:mod:`repro.ctr.kernel`), which answers every
production query, runs the same step rules over flat tables and is
tested against it, while the paper's comparator baselines (passive
validation, model checking, the automaton scheduler) run on it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from ..errors import SpecificationError, TooManyTracesError
from .formulas import (
    EMPTY,
    NEG_PATH,
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
    par,
)

__all__ = ["Config", "Machine", "Running", "machine_traces", "can_complete"]


@dataclass(frozen=True, slots=True)
class Running(Goal):
    """Internal marker: an isolated region that has started executing."""

    body: Goal

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"running({self.body})"


@dataclass(frozen=True, slots=True, eq=False)
class Tail(Goal):
    """Internal marker: the suffix ``parts[start:]`` of a serial goal.

    Residuation steps through a serial composition once per event; slicing
    ``parts[1:]`` each time would make a length-n schedule Θ(n²). ``Tail``
    shares the original parts tuple and just advances an index, so a flat
    chain is executed in amortised constant time per step.

    Equality/hashing are *identity-based on the shared tuple*: within one
    machine run every ``Tail`` over the same serial node shares that
    node's parts object, so configs deduplicate exactly; across unrelated
    goals a missed merge merely costs a duplicate configuration, never
    correctness.
    """

    parts: tuple[Goal, ...]
    start: int

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Tail)
            and self.parts is other.parts
            and self.start == other.start
        )

    def __hash__(self) -> int:
        return hash((id(self.parts), self.start))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return "tail(" + " * ".join(str(p) for p in self.parts[self.start:]) + ")"


@dataclass(frozen=True, slots=True)
class Config:
    """A machine configuration: residual goal plus the tokens sent so far."""

    goal: Goal
    tokens: frozenset[str] = frozenset()

    def with_goal(self, goal: Goal) -> "Config":
        return Config(goal, self.tokens)


# A step is (label, successor config); label None marks a silent step.
Step = tuple[Optional[str], Config]

TestHook = Callable[[Test], bool]


def _has_running(goal: Goal) -> bool:
    if isinstance(goal, Running):
        return True
    if isinstance(goal, (Serial, Concurrent, Choice)):
        return any(_has_running(p) for p in goal.parts)
    if isinstance(goal, Tail):
        return any(_has_running(p) for p in goal.parts[goal.start:])
    if isinstance(goal, Isolated):
        return _has_running(goal.body)
    return False


def _nullable(goal: Goal) -> bool:
    """Can ``goal`` complete without taking any step at all?"""
    if isinstance(goal, Empty):
        return True
    if isinstance(goal, Choice):
        return any(_nullable(p) for p in goal.parts)
    if isinstance(goal, (Serial, Concurrent)):
        return all(_nullable(p) for p in goal.parts)
    if isinstance(goal, Tail):
        return all(_nullable(p) for p in goal.parts[goal.start:])
    if isinstance(goal, Isolated):
        return _nullable(goal.body)
    return False


class Machine:
    """Step-semantics interpreter for a single goal.

    Parameters
    ----------
    goal:
        The concurrent-Horn goal to execute. ``path`` literals are
        rejected (they belong in constraints).
    test_hook:
        Optional callable deciding transition conditions at run time. The
        default treats every :class:`Test` as passable, which is the
        static-analysis reading (sound, not complete — Section 7).
    """

    def __init__(self, goal: Goal, test_hook: TestHook | None = None):
        for node in _walk(goal):
            if isinstance(node, Path):
                raise SpecificationError("`path` cannot appear in an executable goal")
        self.goal = goal
        self.test_hook = test_hook
        # ⊙ admission is judged with every condition passing (see
        # _isolated_steps), by a hook-free twin.
        self._static = self if test_hook is None else Machine(goal)

    # -- public API ---------------------------------------------------------

    def initial(self) -> Config:
        return Config(self.goal, frozenset())

    def steps(self, config: Config) -> list[Step]:
        """All single steps (silent and event) available from ``config``."""
        return list(self._steps(config.goal, config.tokens))

    def successors(self, config: Config) -> dict[str, set[Config]]:
        """Event-labelled successor configs, silent steps already closed over.

        For each significant event ``e`` that can occur next, returns every
        configuration reachable by firing ``e`` after some silent prefix.
        """
        result: dict[str, set[Config]] = {}
        for closed in self.silent_closure(config):
            for label, nxt in self._steps(closed.goal, closed.tokens):
                if label is not None:
                    result.setdefault(label, set()).add(nxt)
        return result

    def silent_closure(self, config: Config) -> set[Config]:
        """All configurations reachable from ``config`` via silent steps."""
        seen = {config}
        frontier = [config]
        while frontier:
            current = frontier.pop()
            for label, nxt in self._steps(current.goal, current.tokens):
                if label is None and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def is_final(self, config: Config) -> bool:
        """Can ``config`` complete using silent steps only?"""
        return any(_nullable(c.goal) or isinstance(c.goal, Empty)
                   for c in self.silent_closure(config))

    def can_complete(self, config: Config) -> bool:
        """Is there *any* full execution from ``config``? (exhaustive search)"""
        seen: set[Config] = set()
        stack = [config]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            if _nullable(current.goal):
                return True
            for _label, nxt in self._steps(current.goal, current.tokens):
                if nxt not in seen:
                    stack.append(nxt)
        return False

    # -- step derivation ----------------------------------------------------

    def _steps(self, goal: Goal, tokens: frozenset[str]) -> Iterator[Step]:
        if isinstance(goal, Atom):
            yield goal.name, Config(EMPTY, tokens)
            return

        if isinstance(goal, Send):
            yield None, Config(EMPTY, tokens | {goal.token})
            return

        if isinstance(goal, Receive):
            if goal.token in tokens:
                yield None, Config(EMPTY, tokens)
            return

        if isinstance(goal, Test):
            passable = True
            if self.test_hook is not None:
                passable = self.test_hook(goal)
            if passable:
                yield None, Config(EMPTY, tokens)
            return

        if isinstance(goal, Possibility):
            # ◇T: succeed silently iff T could run to completion from here.
            # The hypothetical run may consume tokens but its effects are
            # discarded (possibility is a test, not an execution).
            if self.can_complete(Config(goal.body, tokens)):
                yield None, Config(EMPTY, tokens)
            return

        if isinstance(goal, (Empty, NegPath)):
            return

        if isinstance(goal, Isolated):
            yield from self._isolated_steps(goal.body, tokens)
            return

        if isinstance(goal, Running):
            if _nullable(goal.body):
                # The isolated region may end here (e.g. a trailing optional
                # branch): release the isolation lock silently.
                yield None, Config(EMPTY, tokens)
            yield from self._isolated_steps(goal.body, tokens)
            return

        if isinstance(goal, (Serial, Tail)):
            parts = goal.parts
            start = goal.start if isinstance(goal, Tail) else 0
            head = parts[start]
            for label, nxt in self._steps(head, tokens):
                yield label, Config(_residual_serial(nxt.goal, parts, start), nxt.tokens)
            if _nullable(head):
                yield from self._steps(_tail_goal(parts, start + 1), tokens)
            return

        if isinstance(goal, Concurrent):
            running = [i for i, p in enumerate(goal.parts) if _has_running(p)]
            indices = running if running else range(len(goal.parts))
            for i in indices:
                for label, nxt in self._steps(goal.parts[i], tokens):
                    others = goal.parts[:i] + goal.parts[i + 1:]
                    yield label, Config(_repar(nxt.goal, others), nxt.tokens)
            return

        if isinstance(goal, Choice):
            for part in goal.parts:
                yield from self._steps(part, tokens)
            return

        raise TypeError(f"cannot execute {type(goal).__name__}")  # pragma: no cover

    def _isolated_steps(self, body: Goal, tokens: frozenset[str]) -> Iterator[Step]:
        """``body``'s steps, kept inside its ``⊙`` block: only those after
        which the body can still complete on its own, every condition
        passing (the kernel's ``_finishes`` says why), so a block starts
        only if it can finish."""
        for label, nxt in self._steps(body, tokens):
            if _is_done(nxt.goal):
                yield label, Config(EMPTY, nxt.tokens)
            elif self._static.can_complete(nxt):
                yield label, Config(Running(nxt.goal), nxt.tokens)


def _is_done(goal: Goal) -> bool:
    return isinstance(goal, Empty)


def _tail_goal(parts: tuple[Goal, ...], start: int) -> Goal:
    """The goal ``parts[start:]`` without copying the tuple."""
    remaining = len(parts) - start
    if remaining <= 0:
        return EMPTY
    if remaining == 1:
        return parts[start]
    return Tail(parts, start)


def _residual_serial(head_residual: Goal, parts: tuple[Goal, ...], start: int) -> Goal:
    """Residual of a serial goal after its head (``parts[start]``) stepped.

    Equivalent to ``seq(head_residual, *parts[start + 1:])`` but O(1) on
    the hot path (head fully consumed) — residuation rebuilds this spine
    once per event, so the generic constructor would make a length-n run
    quadratic in both copying and hashing.
    """
    if isinstance(head_residual, Empty):
        return _tail_goal(parts, start + 1)
    if isinstance(head_residual, NegPath):
        return NEG_PATH
    rest = parts[start + 1:]
    if not rest:
        return head_residual
    if isinstance(head_residual, Serial):
        return Serial(head_residual.parts + rest)
    if isinstance(head_residual, Tail):
        return Serial(head_residual.parts[head_residual.start:] + rest)
    return Serial((head_residual,) + rest)


def _repar(part_residual: Goal, others: tuple[Goal, ...]) -> Goal:
    return par(part_residual, *others)


def _walk(goal: Goal) -> Iterator[Goal]:
    stack = [goal]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (Serial, Concurrent, Choice)):
            stack.extend(node.parts)
        elif isinstance(node, (Isolated, Possibility, Running)):
            stack.append(node.body)


def can_complete(goal: Goal, test_hook: TestHook | None = None) -> bool:
    """True iff ``goal`` has at least one full execution (machine search)."""
    machine = Machine(goal, test_hook)
    return machine.can_complete(machine.initial())


def machine_traces(goal: Goal, limit: int = 200_000) -> frozenset[tuple[str, ...]]:
    """All event traces, enumerated by exhaustive machine search.

    The oracle for the kernel's :func:`repro.ctr.kernel.traces`: the two
    must agree on every goal (the differential tests assert this).
    ``limit`` bounds the ``(prefix, config)`` pairs explored.
    """
    machine = Machine(goal)
    out: set[tuple[str, ...]] = set()
    seen: set[tuple[tuple[str, ...], Config]] = set()
    stack: list[tuple[tuple[str, ...], Config]] = [((), machine.initial())]
    while stack:
        prefix, config = stack.pop()
        if (prefix, config) in seen:
            continue
        seen.add((prefix, config))
        if len(seen) > limit:
            raise TooManyTracesError(limit)
        if _nullable(config.goal):
            out.add(prefix)
        for label, nxt in machine.steps(config):
            new_prefix = prefix if label is None else prefix + (label,)
            stack.append((new_prefix, nxt))
    return frozenset(out)
