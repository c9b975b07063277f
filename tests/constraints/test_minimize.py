"""Tests for constraint-set minimization."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.constraints.algebra import must, order
from repro.constraints.klein import klein_order
from repro.constraints.minimize import minimize_constraints
from repro.core.apply import apply_all
from repro.core.excise import excise
from repro.core.verify import redundant_constraints
from repro.ctr.formulas import atoms, event_names
from repro.ctr.machine import machine_traces
from repro.ctr.simplify import is_failure
from repro.errors import TooManyTracesError
from repro.workflows.release import release_specification
from tests.conftest import constraints_over, unique_event_goals

A, B, C = atoms("a b c")


def legal_traces(goal, constraints):
    compiled = excise(apply_all(list(constraints), goal))
    return frozenset() if is_failure(compiled) else machine_traces(compiled)


class TestMinimize:
    def test_drops_implied_constraint(self):
        # Since a and b always occur in this goal, each constraint implies
        # the other *relative to the workflow* - exactly one survives.
        goal = (A | B) >> C
        constraints = [order("a", "b"), klein_order("a", "b")]
        minimal = minimize_constraints(goal, constraints)
        assert len(minimal) == 1
        assert legal_traces(goal, minimal) == legal_traces(goal, constraints)

    def test_keeps_independent_constraints(self):
        goal = A | B | C
        constraints = [order("a", "b"), order("b", "c")]
        assert minimize_constraints(goal, constraints) == constraints

    def test_structurally_implied_dropped(self):
        goal = A >> B
        constraints = [klein_order("a", "b"), must("a")]
        assert minimize_constraints(goal, constraints) == []

    def test_mutually_redundant_pair_keeps_one(self):
        # Each implies the other here (both hold structurally), but a
        # batch filter would drop both; greedy keeps the semantics.
        goal = (A | B) >> C
        constraints = [order("a", "b"), order("a", "b") & must("c")]
        minimal = minimize_constraints(goal, constraints)
        assert legal_traces(goal, minimal) == legal_traces(goal, constraints)
        assert len(minimal) <= len(constraints)

    def test_prefer_ranks_removal_order(self):
        goal = (A | B) >> C
        c_strong = order("a", "b")
        c_weak = klein_order("a", "b")
        # Prefer keeping the weak one: removal attempted on c_strong first,
        # which is NOT implied by the weak one, so both orders still end
        # with the strong constraint retained.
        minimal = minimize_constraints(
            goal, [c_strong, c_weak], prefer=lambda c: 1.0 if c == c_weak else 0.0
        )
        assert legal_traces(goal, minimal) == legal_traces(goal, [c_strong, c_weak])

    def test_release_pipeline_shrinks(self):
        goal, constraints = release_specification()
        minimal = minimize_constraints(goal, constraints)
        assert len(minimal) < len(constraints)
        assert redundant_constraints(goal, minimal) == []


class TestMinimizeProperties:
    @settings(max_examples=30, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_semantics_preserved(self, goal, data):
        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        constraints = [data.draw(constraints_over(events)) for _ in range(3)]
        # Sync tokens can make the trace set explode combinatorially; skip
        # such examples up front (past a small budget) or when a
        # constrained compile still blows the enumeration budget.
        try:
            machine_traces(goal, 20_000)
        except TooManyTracesError:
            assume(False)
        minimal = minimize_constraints(goal, constraints)
        try:
            before = legal_traces(goal, constraints)
            after = legal_traces(goal, minimal)
        except TooManyTracesError:
            assume(False)
        assert after == before
        assert len(minimal) <= len(constraints)

    @settings(max_examples=20, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_result_is_irredundant(self, goal, data):
        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        constraints = [data.draw(constraints_over(events)) for _ in range(3)]
        minimal = minimize_constraints(goal, constraints)
        assert redundant_constraints(goal, minimal) == []
