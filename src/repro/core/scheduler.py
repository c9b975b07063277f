"""The pro-active workflow scheduler (Section 4).

Because compilation "compiles the constraints into" the goal, the scheduler
never evaluates a temporal constraint at run time: it simply walks the
compiled goal. At every stage it exposes the set of events *eligible to
start* (:meth:`Scheduler.eligible`); firing one (:meth:`Scheduler.fire`)
advances the residual goal. Every sequence the scheduler can produce is an
allowed execution, and every allowed execution can be produced — soundness
and completeness are property-tested against the trace semantics.

Implementation: a lazy subset construction over the flat kernel of
:mod:`repro.ctr.kernel`. Each scheduler runs on its goal lowered once into
integer tables — or on a program already lowered, which is how
:meth:`~repro.core.compiler.CompiledWorkflow.scheduler` shares one
immutable program across every scheduler of a compile. Its state is the
set of kernel states ``(residual, token_mask)`` compatible with the
events fired so far, built from plain ints and tuples, and silent
``send``/``receive``/``◇``/test steps are closed over on demand. On
compiled (excised) goals, whose choices are token-free or already
hoisted, the state set stays small and a full path costs time linear in
the original graph — the paper's scheduling bound (Thm 5.11).

Every cache — the successor table, the kernel's steps table (each
sub-residual's steps, derived once and shared by every state that
contains it) and the viability memo — belongs to the scheduler and dies
with it. Transition conditions (:class:`~repro.ctr.formulas.Test` nodes)
go to ``test_hook`` as the kernel steps them; the hook reads a live
database that may change between calls, so with a hook on a goal that
has conditions neither a successor nor a step is reused from one call to
the next, exactly as :class:`~repro.ctr.machine.Machine` recomputes every
step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from ..ctr.formulas import Goal
from ..ctr.kernel import KernelProgram, lower_goal
from ..ctr.traces import TooManyTracesError
from ..errors import IneligibleEventError, SchedulingError, SpecificationError

__all__ = ["Scheduler", "SchedulerMark", "SchedulerStats", "seeded_strategy"]

#: Entries of the successor table before it is cleared, together with
#: the steps table (bounds memory on exhaustive enumerations of large
#: schedule spaces).
_SUCC_CACHE_MAX = 65536


def seeded_strategy(seed: int) -> Callable[[frozenset[str]], str]:
    """A deterministic pseudo-random pick for :meth:`Scheduler.run`.

    Draws from a :class:`random.Random` seeded with ``seed`` over the
    *sorted* eligible set, so the same seed replays the same schedule on
    any machine and in any process — the witness-determinism contract of
    :func:`repro.core.verify.verify_property`'s ``seed`` parameter.
    """
    import random

    rng = random.Random(seed)
    return lambda events: rng.choice(sorted(events))


@dataclass
class SchedulerStats:
    """Run-time accounting of one scheduler's work, fed to the metrics
    registry by the engine at the end of a run.

    ``configs_expanded`` counts kernel states whose successors were asked
    for in :meth:`Scheduler.eligible` — the quantity the paper's
    linear-scheduling bound is about; ``viability_nodes`` counts memo
    entries decided by the failover query, the price of each reroute.
    """

    steps: int = 0
    eligible_calls: int = 0
    configs_expanded: int = 0
    rewinds: int = 0
    viability_checks: int = 0
    viability_nodes: int = 0


@dataclass(frozen=True, slots=True)
class SchedulerMark:
    """An O(1) mid-run checkpoint of a :class:`Scheduler`.

    Captures the (immutable) state set by reference plus the history
    depth; :meth:`Scheduler.rewind` restores both. Unlike
    :meth:`Scheduler.snapshot` this is not serializable — it is the cheap
    in-memory restore point the engine journals at every choice point for
    choice-branch failover.
    """

    state: frozenset
    depth: int


def _thaw(residual):
    """A JSON-decoded residual back to its tuple form."""
    if isinstance(residual, list):
        return tuple(_thaw(part) for part in residual)
    return residual


class Scheduler:
    """Step-by-step executor of a compiled workflow goal.

    ``goal`` is a goal, or a :class:`~repro.ctr.kernel.KernelProgram`
    already lowered from one. ``test_hook`` decides transition
    conditions at run time (the engine passes one that evaluates each
    :class:`~repro.ctr.formulas.Test` against its database); without one
    every condition passes, the static reading.

    >>> from repro.ctr.formulas import atoms
    >>> a, b = atoms("a b")
    >>> s = Scheduler(a >> b)
    >>> sorted(s.eligible())
    ['a']
    >>> s.fire("a"); sorted(s.eligible())
    ['b']
    """

    def __init__(self, goal: Goal | KernelProgram, test_hook=None):
        program = (goal if isinstance(goal, KernelProgram)
                   else lower_goal(goal))
        self._program = program
        # A goal without conditions never calls the hook: its steps are
        # the static ones, and every table outlives the query.
        self._test = test_hook if program.tests else None
        self._live = self._test is not None
        self._succ: dict = {}
        self._step_table: dict = {}
        self._initial = frozenset((program.initial(),))
        self._state = self._initial
        self._history: list[str] = []
        self._viability_key: frozenset[int] | None = None
        self._viability_memo: dict = {}
        self.stats = SchedulerStats()

    def _successors(self, state) -> dict:
        """``state``'s event-id-labelled successors, through the table."""
        succ = self._succ.get(state)
        if succ is None:
            succ = self._program.successors(state, self._test,
                                            self._step_table)
            if len(self._succ) >= _SUCC_CACHE_MAX:
                self._forget()
            self._succ[state] = succ
        return succ

    def _is_final(self, state) -> bool:
        return self._program.is_final(state, self._test, self._step_table)

    def _forget(self) -> None:
        self._succ.clear()
        self._step_table.clear()

    def _begin(self) -> None:
        """Start a query: with live conditions, forget everything derived
        from earlier answers of the hook (the kernel's ``⊙`` verdicts, kept
        under the key ``None``, hold for any answer and stay)."""
        if self._live:
            verdicts = self._step_table.get(None, {})
            self._forget()
            self._step_table[None] = verdicts
            self._viability_key = None

    def _names(self, ids) -> frozenset[str]:
        names = self._program.events
        return frozenset(names[e] for e in ids)

    # -- introspection -------------------------------------------------------

    @property
    def history(self) -> tuple[str, ...]:
        """The events fired so far, in order."""
        return tuple(self._history)

    def eligible(self) -> frozenset[str]:
        """Events that may start now (the paper's "events eligible to start")."""
        self._begin()
        stats = self.stats
        stats.eligible_calls += 1
        stats.configs_expanded += len(self._state)
        events: set[int] = set()
        for state in self._state:
            events.update(self._successors(state))
        return self._names(events)

    def can_finish(self) -> bool:
        """May the workflow terminate successfully right now?"""
        self._begin()
        return any(self._is_final(state) for state in self._state)

    @property
    def finished(self) -> bool:
        """No event is eligible any more (the run is over)."""
        return not self.eligible()

    # -- driving -------------------------------------------------------------

    def fire(self, event: str) -> None:
        """Record that ``event`` has started/occurred, advancing the state."""
        self._begin()
        event_id = self._program.event_ids.get(event)
        next_state: set = set()
        if event_id is not None:
            for state in self._state:
                next_state.update(self._successors(state).get(event_id, ()))
        if not next_state:
            raise IneligibleEventError(event, self.eligible())
        self._state = frozenset(next_state)
        self._history.append(event)
        self.stats.steps += 1

    def reset(self) -> None:
        """Return to the initial state."""
        self._state = self._initial
        self._history = []

    # -- marks (cheap mid-run restore points) ----------------------------------

    def mark(self) -> SchedulerMark:
        """An O(1) restore point for :meth:`rewind` (state ref + history depth)."""
        return SchedulerMark(self._state, len(self._history))

    def rewind(self, mark: SchedulerMark) -> None:
        """Return to a mark taken earlier on this run, truncating the history."""
        self._state = mark.state
        del self._history[mark.depth:]
        self.stats.rewinds += 1

    # -- branch viability ------------------------------------------------------

    def viable(self, avoid: frozenset[str] = frozenset()) -> bool:
        """Can the workflow still complete without ever firing ``avoid``?

        This is the failover query: when an activity dies permanently, the
        engine asks — from successively earlier restore points — whether the
        compiled goal keeps a ``∨``-alternative path around the dead events.
        With transition conditions (:class:`~repro.ctr.formulas.Test`
        nodes) the answer is evaluated against the *current* database, so
        it is exact for static goals and a sound approximation otherwise.
        """
        self._begin()
        avoid_ids = self._event_ids(avoid)
        memo = self._viability(avoid_ids)
        return any(
            self._state_viable(s, avoid_ids, memo) for s in self._state
        )

    def viable_events(self, avoid: frozenset[str] = frozenset()) -> frozenset[str]:
        """Eligible events that keep completion possible while avoiding ``avoid``.

        A subset of :meth:`eligible`: events in ``avoid`` are excluded, and
        so is any event all of whose successor states dead-end against the
        avoided set. Firing only returned events can therefore never strand
        the run on a branch that needs a dead activity.
        """
        self._begin()
        avoid_ids = self._event_ids(avoid)
        memo = self._viability(avoid_ids)
        out: set[int] = set()
        for state in self._state:
            for event, targets in self._successors(state).items():
                if event in avoid_ids or event in out:
                    continue
                if any(self._state_viable(t, avoid_ids, memo) for t in targets):
                    out.add(event)
        return self._names(out)

    def _event_ids(self, names: frozenset[str]) -> frozenset[int]:
        ids = self._program.event_ids
        # Events the goal never fires can be avoided for free.
        return frozenset(ids[n] for n in names if n in ids)

    def _viability(self, avoid: frozenset[int]) -> dict:
        """The memo table for ``avoid`` (reset whenever the avoided set
        changes, and by every query under live conditions)."""
        self.stats.viability_checks += 1
        if self._viability_key != avoid:
            self._viability_key = avoid
            self._viability_memo = {}
        return self._viability_memo

    def _state_viable(self, state, avoid: frozenset[int], memo: dict) -> bool:
        cached = memo.get(state)
        if cached is not None:
            return cached
        # Iterative memoized post-order DFS: schedules can be thousands of
        # events deep, well past the recursion limit.
        children: dict = {}
        expanding: set = set()
        stack = [state]
        while stack:
            current = stack[-1]
            if current in memo:
                stack.pop()
                continue
            if current not in expanding:
                expanding.add(current)
                if self._is_final(current):
                    memo[current] = True
                    stack.pop()
                    continue
                kids = [
                    target
                    for event, targets in self._successors(current).items()
                    if event not in avoid
                    for target in targets
                ]
                children[current] = kids
                pending = [k for k in kids if k not in memo and k not in expanding]
                if pending:
                    stack.extend(pending)
                    continue
            # Post-order visit: every decidable child is decided; children
            # still expanding are on a cycle and count as non-viable.
            memo[current] = any(memo.get(k, False) for k in children[current])
            self.stats.viability_nodes += 1
            stack.pop()
        return memo[state]

    # -- persistence -----------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-serializable checkpoint of the run (for crash recovery).

        Captures the event history and the kernel states — plain
        ``(residual, token_mask)`` pairs of ints and tuples, which JSON
        stores as nested lists — plus the goal's event alphabet. Residuals
        name the lowered goal's node ids, so only a scheduler over the same
        goal can resume from it; the alphabet lets :meth:`restore` refuse a
        snapshot from another workflow.
        """
        return {
            "events": list(self._program.events),
            "history": list(self._history),
            "states": [list(state) for state in sorted(self._state, key=repr)],
        }

    def restore(self, snapshot: dict) -> None:
        """Resume from a :meth:`snapshot` taken on an equivalent scheduler."""
        if snapshot["events"] != list(self._program.events):
            raise SpecificationError(
                "snapshot was taken on a different workflow"
            )
        self._history = list(snapshot["history"])
        self._state = frozenset(
            (_thaw(residual), mask) for residual, mask in snapshot["states"]
        )

    def run(
        self,
        strategy: Callable[[frozenset[str]], str] | None = None,
        max_steps: int = 100_000,
    ) -> tuple[str, ...]:
        """Drive the workflow to completion, returning the schedule.

        ``strategy`` picks the next event among the eligible set; the
        default picks the lexicographically smallest, which is
        deterministic and always safe on a compiled goal.
        """
        pick = strategy or (lambda events: min(events))
        for _ in range(max_steps):
            events = self.eligible()
            if not events:
                if self.can_finish():
                    return self.history
                raise SchedulingError(
                    "workflow is stuck: no eligible event and cannot finish "
                    "(was the goal excised?)"
                )
            self.fire(pick(events))
        raise SchedulingError(f"workflow did not finish within {max_steps} steps")

    # -- exhaustive enumeration ------------------------------------------------

    def enumerate_schedules(self, limit: int = 200_000) -> Iterator[tuple[str, ...]]:
        """Yield every allowed complete event sequence (depth-first, sorted).

        Enumeration is linear in the path length per schedule; the *number*
        of schedules can of course be exponential, hence ``limit``. The
        walk keeps an explicit stack, so schedules of any length enumerate
        without recursion.
        """
        self._begin()
        names = self._program.events
        produced = 0
        seen_outputs: set[tuple[str, ...]] = set()
        # (state set, prefix) frames; children are pushed in reverse-sorted
        # order so schedules come out in lexicographic event order.
        stack = [(self._state, tuple(self._history))]
        while stack:
            state, prefix = stack.pop()
            if any(self._is_final(s) for s in state):
                if prefix not in seen_outputs:
                    seen_outputs.add(prefix)
                    produced += 1
                    if produced > limit:
                        raise TooManyTracesError(limit)
                    yield prefix
            events: dict[int, set] = {}
            for s in state:
                for event, targets in self._successors(s).items():
                    events.setdefault(event, set()).update(targets)
            for event in sorted(events, key=lambda e: names[e], reverse=True):
                stack.append(
                    (frozenset(events[event]), prefix + (names[event],))
                )
