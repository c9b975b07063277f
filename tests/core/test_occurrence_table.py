"""The occurrence table answers every "which events occur" question.

The unique-event check (Definition 3.1), ``event_names`` and the static
reports read the ``may``/``must`` masks of
:class:`~repro.ctr.formulas.EventMasks`, the table Apply runs on. Each
answer must equal the recursive definition in
``tests/occurrence_reference.py``, on the source goal, the applied goal
and the compiled goal of generated specs, and, on goals that break the
unique-event property, the check must name the event the recursive check
names.
"""

import random

from repro.constraints.algebra import disj, must
from repro.core.apply import _ApplyMemo, apply_all
from repro.core.excise import excise
from repro.ctr.formulas import (
    Concurrent,
    EventMasks,
    Possibility,
    Serial,
    alt,
    atoms,
    par,
    seq,
)
from repro.ctr.unique import check_unique_events
from repro.graph.generators import random_goal
from tests.core.test_normal_forms import SEEDS, _spec
from tests.occurrence_reference import (
    folded,
    goal_mismatches,
    occurrence_mismatches,
    reference_occurring_events,
    unique_verdict,
)

A, B, C, D = atoms("a b c d")


def test_table_reads_are_the_recursive_definitions():
    mismatches = []
    for seed in SEEDS:
        goal, constraints, _ = _spec(seed)
        applied = apply_all(constraints, goal)
        found = occurrence_mismatches(goal, constraints, applied, excise(applied))
        if found:
            mismatches.append((seed, found))
    assert mismatches == []


def _colliding(seed):
    """A goal of 4–9 events folded onto 2–4 names, so most draws break the
    unique-event property, many of them more than once; every third one
    tests a folded goal in a ``◇`` first."""
    rng = random.Random(seed)
    n = 4 + seed % 6
    goal = folded(random_goal(n, rng=rng, p_choice=0.3, p_isolated=0.3,
                              p_possible=0.2), rng.randint(2, 4))
    if seed % 3 == 0:
        hidden = folded(random_goal(n, rng=rng, p_choice=0.3), rng.randint(2, 4))
        goal = Serial((Possibility(hidden), goal))
    return goal


def test_check_names_the_event_the_recursive_check_names():
    mismatches = []
    violations = 0
    for seed in SEEDS:
        goal = _colliding(seed)
        violations += unique_verdict(reference_occurring_events, goal) is not None
        if goal_mismatches(goal):
            mismatches.append(seed)
    assert mismatches == []
    assert violations > len(SEEDS) // 2


def test_duplicate_inside_a_possibility_body():
    goal = seq(A, Possibility(seq(B, par(C, B))))
    assert unique_verdict(check_unique_events, goal) == "b"
    assert goal_mismatches(goal) == []
    # A ◇ body never occurs, so it may repeat an event of its context.
    assert unique_verdict(check_unique_events, seq(B, Possibility(B))) is None


def test_first_violation_in_the_order_of_the_recursive_check():
    # The outer ⊗ meets its repeated a before it enters b | b, although
    # b | b is entered into the table before the outer ⊗ is.
    first = Serial((A, A, Concurrent((B, B))))
    # Here b ⊗ b is met before the outer | reaches its repeated a.
    second = Concurrent((A, Serial((B, B)), Serial((C, A))))
    for goal, event in ((first, "a"), (second, "b")):
        assert unique_verdict(check_unique_events, goal) == event
        assert unique_verdict(reference_occurring_events, goal) == event
        assert goal_mismatches(goal) == []


def test_shared_violating_node_is_met_at_its_first_occurrence():
    shared = par(C, C)
    goal = alt(seq(D, shared), seq(shared, Serial((A, A))))
    assert unique_verdict(check_unique_events, goal) == "c"
    assert goal_mismatches(goal) == []


def test_possibility_body_is_recorded_and_its_masks_stay_empty():
    # The table records a ◇ body, the ◇ keeps empty masks, and Apply's
    # primitive cases do not enter it.
    goal = seq(A, Possibility(seq(B, C)), D)
    memo = _ApplyMemo()
    _, may, must_ = memo.occurrence(goal)
    assert memo.names(may) == memo.names(must_) == {"a", "d"}
    assert memo.masks[id(goal.parts[1])][1:] == (0, 0)
    assert id(goal.parts[1].body) in memo.masks
    assert apply_all([disj(must("b"), must("a"))], goal) is goal
    assert isinstance(memo, EventMasks)
