"""Static analysis of (compiled) workflow goals: designer feedback.

The paper emphasises design-time feedback ("the workflow designers can be
given a feedback that might help them find the bug in their
specifications"). Beyond the G_fail culprit of Excise, this module
extracts three structural reports from a goal — typically the *compiled*
goal, where the constraints have already pruned the impossible behaviour:

* :func:`possible_events` — events occurring in at least one execution;
* :func:`mandatory_events` — events occurring in *every* execution;
* :func:`dead_activities` — activities of the source workflow that no
  legal execution can reach (usually a sign of an over-constrained
  specification);
* :func:`guaranteed_orderings` — pairs ``(e, f)`` such that ``e`` precedes
  ``f`` in every execution where both occur. The analysis uses the serial
  structure only, so it is a sound under-approximation on goals containing
  ``send``/``receive`` tokens (tokens can only *add* orderings).

Possible, mandatory and dead events are the ``may``/``must`` masks of the
goal's occurrence table (:class:`~repro.ctr.formulas.EventMasks`, the one
Apply reads), so they cost one entry per distinct node. The orderings are
computed once per distinct node too, and read each part's events off the
same table.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ctr.formulas import Choice, Concurrent, EventMasks, Goal, Isolated, Serial, event_names
from .compiler import CompiledWorkflow

__all__ = [
    "possible_events",
    "mandatory_events",
    "dead_activities",
    "guaranteed_orderings",
    "WorkflowReport",
    "analyze",
]

_Pairs = frozenset[tuple[str, str]]


def possible_events(goal: Goal) -> frozenset[str]:
    """Events that occur in at least one execution of ``goal``: its
    :func:`~repro.ctr.formulas.event_names`."""
    return event_names(goal)


def mandatory_events(goal: Goal) -> frozenset[str]:
    """Events that occur in *every* execution of ``goal``.

    ``¬path`` has no executions, so vacuously every event is mandatory
    there; by convention we return the empty set for it (callers should
    check consistency first).
    """
    table = EventMasks()
    return table.names(table.occurrence(goal)[2])


def dead_activities(compiled: CompiledWorkflow) -> frozenset[str]:
    """Source activities that no legal execution can reach."""
    table = EventMasks()
    _, source, _ = table.occurrence(compiled.source)
    _, legal, _ = table.occurrence(compiled.goal)
    return table.names(source & ~legal)


def guaranteed_orderings(goal: Goal) -> _Pairs:
    """Pairs ``(e, f)``: ``e`` precedes ``f`` whenever both occur.

    Derived from the serial structure: inside ``e₁ ⊗ … ⊗ eₙ`` every event
    of an earlier part precedes every event of a later part; a pair is
    *guaranteed* if the ordering holds in every choice alternative in
    which both events can occur together.
    """
    table = EventMasks()
    table.occurrence(goal)
    both_possible, ordered = _orderings(goal, table, {})
    return frozenset(pair for pair in ordered if pair in both_possible)


def _orderings(
    goal: Goal, table: EventMasks, memo: dict[int, tuple[_Pairs, _Pairs]]
) -> tuple[_Pairs, _Pairs]:
    """(pairs that may co-occur, pairs e<f ordered whenever they co-occur).

    ``table`` holds every node of the goal (so ids stay valid for
    ``memo``, which maps a node's id to its answer).
    """
    found = memo.get(id(goal))
    if found is not None:
        return found
    if isinstance(goal, Isolated):
        result = _orderings(goal.body, table, memo)
    elif isinstance(goal, (Serial, Concurrent)):
        serial = isinstance(goal, Serial)
        co: set[tuple[str, str]] = set()
        ordered: set[tuple[str, str]] = set()
        before: frozenset[str] = frozenset()
        for part in goal.parts:
            part_co, part_ordered = _orderings(part, table, memo)
            co |= part_co
            ordered |= part_ordered
            part_events = table.names(table.masks[id(part)][1])
            for earlier in before:
                for later in part_events:
                    if earlier != later:
                        co.add((earlier, later))
                        co.add((later, earlier))
                        if serial:
                            ordered.add((earlier, later))
            before |= part_events
        result = frozenset(co), frozenset(ordered)
    elif isinstance(goal, Choice):
        results = [_orderings(p, table, memo) for p in goal.parts]
        co = set().union(*(r[0] for r in results))
        # A pair stays guaranteed iff no alternative can realise the pair
        # unordered or reversed: ordered(e,f) holds overall when every
        # alternative that may co-realise (e,f) orders them (e,f).
        ordered = {
            pair for pair in co
            if all(pair not in part_co or pair in part_ordered
                   for part_co, part_ordered in results)
        }
        result = frozenset(co), frozenset(ordered)
    else:
        result = frozenset(), frozenset()
    memo[id(goal)] = result
    return result


@dataclass(frozen=True)
class WorkflowReport:
    """Designer-facing summary of a compiled workflow."""

    consistent: bool
    possible: frozenset[str]
    mandatory: frozenset[str]
    optional: frozenset[str]
    dead: frozenset[str]
    orderings: frozenset[tuple[str, str]]

    def describe(self) -> str:
        """A readable multi-line summary."""
        lines = [f"consistent: {self.consistent}"]
        lines.append("mandatory: " + (", ".join(sorted(self.mandatory)) or "-"))
        lines.append("optional:  " + (", ".join(sorted(self.optional)) or "-"))
        lines.append("dead:      " + (", ".join(sorted(self.dead)) or "-"))
        shown = sorted(self.orderings)[:12]
        rendered = ", ".join(f"{a}<{b}" for a, b in shown)
        suffix = " …" if len(self.orderings) > len(shown) else ""
        lines.append(f"orderings: {rendered or '-'}{suffix}")
        return "\n".join(lines)


def analyze(compiled: CompiledWorkflow) -> WorkflowReport:
    """Full static report over a compiled workflow."""
    table = EventMasks()
    _, source, _ = table.occurrence(compiled.source)
    if not compiled.consistent:
        return WorkflowReport(
            consistent=False,
            possible=frozenset(),
            mandatory=frozenset(),
            optional=frozenset(),
            dead=table.names(source),
            orderings=frozenset(),
        )
    _, may, must = table.occurrence(compiled.goal)
    return WorkflowReport(
        consistent=True,
        possible=table.names(may),
        mandatory=table.names(must),
        optional=table.names(may & ~must),
        dead=table.names(source & ~may),
        orderings=guaranteed_orderings(compiled.goal),
    )
