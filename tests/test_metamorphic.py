"""Metamorphic properties of the compiler: algebraic laws it must respect.

These tests never compare against a hand-computed expected value; instead
they check that *related inputs produce related outputs* — permutation
invariance, idempotence, monotonicity — which catches whole classes of
bugs the example-based tests cannot.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.algebra import conj
from repro.constraints.implication import implies
from repro.core.apply import apply_all
from repro.core.compiler import compile_workflow
from repro.core.excise import excise
from repro.ctr.formulas import event_names
from repro.ctr.machine import machine_traces
from repro.ctr.simplify import is_failure
from tests.conftest import constraints_over, unique_event_goals


def compiled_traces(goal, constraints):
    compiled = excise(apply_all(list(constraints), goal))
    return frozenset() if is_failure(compiled) else machine_traces(compiled, 2_000_000)


def events_of(goal, data=None):
    events = tuple(sorted(event_names(goal))) or ("e1", "e2")
    if len(events) == 1:
        events = events + ("e_other",)
    return events


class TestPermutationInvariance:
    @settings(max_examples=50, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_constraint_order_is_irrelevant(self, goal, data):
        events = events_of(goal)
        c1 = data.draw(constraints_over(events))
        c2 = data.draw(constraints_over(events))
        assert compiled_traces(goal, [c1, c2]) == compiled_traces(goal, [c2, c1])

    @settings(max_examples=50, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_set_equals_conjunction(self, goal, data):
        events = events_of(goal)
        c1 = data.draw(constraints_over(events))
        c2 = data.draw(constraints_over(events))
        if c1 == c2:
            return
        assert compiled_traces(goal, [c1, c2]) == compiled_traces(goal, [conj(c1, c2)])


class TestIdempotence:
    @settings(max_examples=50, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_applying_twice_changes_nothing(self, goal, data):
        constraint = data.draw(constraints_over(events_of(goal)))
        once = compiled_traces(goal, [constraint])
        twice = compiled_traces(goal, [constraint, constraint])
        assert once == twice

    @settings(max_examples=50, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_recompiling_compiled_goal_is_identity(self, goal, data):
        constraint = data.draw(constraints_over(events_of(goal)))
        compiled = compile_workflow(goal, [constraint])
        if not compiled.consistent:
            return
        recompiled = compile_workflow(compiled.goal)
        assert machine_traces(recompiled.goal) == machine_traces(compiled.goal)


class TestMonotonicity:
    @settings(max_examples=50, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_more_constraints_never_add_behaviour(self, goal, data):
        events = events_of(goal)
        c1 = data.draw(constraints_over(events))
        c2 = data.draw(constraints_over(events))
        assert compiled_traces(goal, [c1, c2]) <= compiled_traces(goal, [c1])

    @settings(max_examples=50, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_compiled_is_subset_of_source(self, goal, data):
        constraint = data.draw(constraints_over(events_of(goal)))
        assert compiled_traces(goal, [constraint]) <= machine_traces(goal, 2_000_000)


class TestImpliedConstraints:
    @settings(max_examples=40, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_implied_constraint_is_a_noop(self, goal, data):
        events = events_of(goal)
        c1 = data.draw(constraints_over(events))
        c2 = data.draw(constraints_over(events))
        if not implies(c1, c2, events=events):
            return
        assert compiled_traces(goal, [c1]) == compiled_traces(goal, [c1, c2])


class TestGoalSymmetry:
    @settings(max_examples=40, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_choice_commutes(self, goal, data):
        from repro.ctr.formulas import alt, atoms

        constraint = data.draw(constraints_over(events_of(goal)))
        (other,) = atoms("zz_other")
        left = alt(goal, other)
        right = alt(other, goal)
        assert compiled_traces(left, [constraint]) == compiled_traces(right, [constraint])
