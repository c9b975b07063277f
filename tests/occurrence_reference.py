"""The recursive event-set definitions, the reference for the occurrence table.

Definition 3.1's compositional unique-event check (observation (3)), the
event names of a goal, and the possible events, mandatory events and
guaranteed orderings of the static reports, each written as its own walk
over the goal's parts, with no shared table. The library reads all of them
off :class:`repro.ctr.formulas.EventMasks`; :func:`occurrence_mismatches`
names every library answer that differs from these.

Shared by the tier-1 slice (``tests/core/test_occurrence_table.py``) and
the E5e gate (``benchmarks/bench_sat.py``), which run it over different
inputs, with :func:`folded` to draw goals that break the unique-event
property.
"""

from repro.core.compiler import CompiledWorkflow
from repro.core.static import (
    analyze,
    dead_activities,
    guaranteed_orderings,
    mandatory_events,
    possible_events,
)
from repro.ctr.formulas import (
    Atom,
    Choice,
    Concurrent,
    Isolated,
    NegPath,
    Possibility,
    Serial,
    event_names,
    subgoals,
)
from repro.ctr.unique import check_unique_events, is_unique_event_goal, occurring_events
from repro.errors import UniqueEventError


def reference_occurring_events(goal):
    """The events that may occur; raises at the first overlap of two
    ``⊗``/``|`` parts, parts left to right, each checked as it is met."""
    if isinstance(goal, Atom):
        return frozenset((goal.name,))
    if isinstance(goal, Possibility):
        reference_occurring_events(goal.body)
        return frozenset()
    if isinstance(goal, Isolated):
        return reference_occurring_events(goal.body)
    if isinstance(goal, (Serial, Concurrent)):
        seen = set()
        for part in goal.parts:
            part_events = reference_occurring_events(part)
            overlap = seen & part_events
            if overlap:
                raise UniqueEventError(min(overlap))
            seen |= part_events
        return frozenset(seen)
    if isinstance(goal, Choice):
        union = set()
        for part in goal.parts:
            union |= reference_occurring_events(part)
        return frozenset(union)
    return frozenset()


def reference_event_names(goal):
    names = set()
    seen = set()

    def visit(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        if isinstance(node, Atom):
            names.add(node.name)
        elif not isinstance(node, Possibility):
            for child in subgoals(node):
                visit(child)

    visit(goal)
    return frozenset(names)


def reference_possible_events(goal):
    if isinstance(goal, NegPath):
        return frozenset()
    if isinstance(goal, Atom):
        return frozenset((goal.name,))
    if isinstance(goal, Possibility):
        return frozenset()
    if isinstance(goal, Isolated):
        return reference_possible_events(goal.body)
    if isinstance(goal, (Serial, Concurrent, Choice)):
        out = frozenset()
        for part in goal.parts:
            out |= reference_possible_events(part)
        return out
    return frozenset()


def reference_mandatory_events(goal):
    if isinstance(goal, (NegPath, Possibility)):
        return frozenset()
    if isinstance(goal, Atom):
        return frozenset((goal.name,))
    if isinstance(goal, Isolated):
        return reference_mandatory_events(goal.body)
    if isinstance(goal, (Serial, Concurrent)):
        out = frozenset()
        for part in goal.parts:
            out |= reference_mandatory_events(part)
        return out
    if isinstance(goal, Choice):
        parts = [reference_mandatory_events(p) for p in goal.parts]
        out = parts[0]
        for p in parts[1:]:
            out &= p
        return out
    return frozenset()


def reference_guaranteed_orderings(goal):
    both_possible, ordered = _reference_orderings(goal)
    return frozenset(pair for pair in ordered if pair in both_possible)


def _reference_orderings(goal):
    """(pairs that may co-occur, pairs e<f ordered whenever they co-occur),
    with each part's events walked afresh."""
    if isinstance(goal, Atom):
        return frozenset(), frozenset()
    if isinstance(goal, (NegPath, Possibility)):
        return frozenset(), frozenset()
    if isinstance(goal, Isolated):
        return _reference_orderings(goal.body)

    if isinstance(goal, Serial):
        co = set()
        ordered = set()
        seen_before = frozenset()
        for part in goal.parts:
            part_co, part_ordered = _reference_orderings(part)
            co |= part_co
            ordered |= part_ordered
            part_events = reference_possible_events(part)
            for earlier in seen_before:
                for later in part_events:
                    if earlier != later:
                        co.add((earlier, later))
                        co.add((later, earlier))
                        ordered.add((earlier, later))
            seen_before |= part_events
        return frozenset(co), frozenset(ordered)

    if isinstance(goal, Concurrent):
        co = set()
        ordered = set()
        events_so_far = frozenset()
        for part in goal.parts:
            part_co, part_ordered = _reference_orderings(part)
            co |= part_co
            ordered |= part_ordered
            part_events = reference_possible_events(part)
            for a in events_so_far:
                for b in part_events:
                    if a != b:
                        co.add((a, b))
                        co.add((b, a))
            events_so_far |= part_events
        return frozenset(co), frozenset(ordered)

    if isinstance(goal, Choice):
        results = [_reference_orderings(p) for p in goal.parts]
        co = set().union(*(r[0] for r in results))
        ordered = set()
        for e, f in co:
            fine = True
            for part_co, part_ordered in results:
                if (e, f) in part_co and (e, f) not in part_ordered:
                    fine = False
                    break
            if fine:
                ordered.add((e, f))
        return frozenset(co), frozenset(ordered)

    return frozenset(), frozenset()


def folded(goal, k):
    """``goal`` with event ``e<i>`` renamed ``e<(i - 1) % k + 1>``, every
    node rebuilt with its own class, so events collide where they did not:
    a generated goal that breaks the unique-event property, often more than
    once."""
    if isinstance(goal, Atom):
        return Atom(f"e{(int(goal.name[1:]) - 1) % k + 1}")
    if isinstance(goal, (Serial, Concurrent, Choice)):
        return type(goal)(tuple(folded(part, k) for part in goal.parts))
    if isinstance(goal, (Isolated, Possibility)):
        return type(goal)(folded(goal.body, k))
    return goal


def unique_verdict(check, goal):
    """``None`` when ``check(goal)`` passes, else the event it names."""
    try:
        check(goal)
    except UniqueEventError as error:
        return error.event
    return None


def goal_mismatches(goal):
    """The table-backed functions whose answer on ``goal`` is not the
    reference's (the unique-event verdict includes the event named)."""
    expected = unique_verdict(reference_occurring_events, goal)
    found = []
    if unique_verdict(check_unique_events, goal) != expected:
        found.append("check_unique_events")
    if unique_verdict(occurring_events, goal) != expected:
        found.append("occurring_events")
    elif expected is None and occurring_events(goal) != reference_occurring_events(goal):
        found.append("occurring_events")
    if is_unique_event_goal(goal) != (expected is None):
        found.append("is_unique_event_goal")
    checks = (
        ("event_names", event_names, reference_event_names),
        ("possible_events", possible_events, reference_possible_events),
        ("mandatory_events", mandatory_events, reference_mandatory_events),
        ("guaranteed_orderings", guaranteed_orderings, reference_guaranteed_orderings),
    )
    found.extend(name for name, table_read, reference in checks
                 if table_read(goal) != reference(goal))
    return found


def occurrence_mismatches(source, constraints, applied, compiled):
    """:func:`goal_mismatches` on the three goals of one compile, then
    ``dead_activities`` and ``analyze`` on the compile itself."""
    found = [f"{label}:{name}"
             for label, goal in (("source", source), ("applied", applied),
                                 ("compiled", compiled))
             for name in goal_mismatches(goal)]
    workflow = CompiledWorkflow(source=source, constraints=tuple(constraints),
                                applied=applied, goal=compiled)
    dead = reference_possible_events(source) - reference_possible_events(compiled)
    if dead_activities(workflow) != dead:
        found.append("dead_activities")
    report = analyze(workflow)
    if workflow.consistent:
        possible = reference_possible_events(compiled)
        mandatory = reference_mandatory_events(compiled)
        expected = (possible, mandatory, possible - mandatory, dead,
                    reference_guaranteed_orderings(compiled))
    else:
        empty = frozenset()
        expected = (empty, empty, empty, reference_possible_events(source), empty)
    if (report.possible, report.mandatory, report.optional, report.dead,
            report.orderings) != expected:
        found.append("analyze")
    return found
