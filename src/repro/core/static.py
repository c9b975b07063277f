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
computed once per distinct node too, as per-event masks over the same
table's bits, and decoded to name pairs once at the end.
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
    _, ordered = _orderings(goal, table, {})
    return frozenset((e, f) for e, bit in table.bits.items()
                     for f in table.names(ordered.get(bit, 0)))


def _orderings(goal: Goal, table: EventMasks, memo: dict) -> tuple[dict, dict]:
    """Per event bit ``e``: (the events that may co-occur with ``e``, the
    events ``e`` precedes whenever both occur), as masks over ``table``'s
    bits. ``memo`` maps the id of a node in ``table`` to its answer.
    """
    found = memo.get(id(goal))
    if found is not None:
        return found
    if isinstance(goal, Isolated):
        return _orderings(goal.body, table, memo)
    co, ordered = {}, {}
    if isinstance(goal, (Serial, Concurrent)):
        events = [table.masks[id(part)][1] for part in goal.parts]
        after = [0] * len(events)  # after[i]: the events of the parts after part i
        for i in range(len(events) - 1, 0, -1):
            after[i - 1] = after[i] | events[i]
        before = 0
        for part, mask, later in zip(goal.parts, events, after):
            part_co, part_ordered = _orderings(part, table, memo)
            _union(co, part_co)
            _union(ordered, part_ordered)
            for e in _bits(mask):
                co[e] = co.get(e, 0) | (before | later) & ~e
                if isinstance(goal, Serial):
                    ordered[e] = ordered.get(e, 0) | later & ~e
            before |= mask
    elif isinstance(goal, Choice):
        # A pair stays guaranteed iff no alternative realises it unordered or reversed.
        loose = {}
        for part in goal.parts:
            part_co, part_ordered = _orderings(part, table, memo)
            _union(co, part_co)
            _union(loose, {e: m & ~part_ordered.get(e, 0) for e, m in part_co.items()})
        ordered = {e: m & ~loose[e] for e, m in co.items()}
    memo[id(goal)] = co, ordered
    return co, ordered


def _union(into: dict, masks: dict) -> None:
    for e, mask in masks.items():
        into[e] = into.get(e, 0) | mask


def _bits(mask: int):
    while mask:
        yield mask & -mask
        mask &= mask - 1


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
