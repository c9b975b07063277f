"""Tests for the explicit-state model-checking baseline."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.modelcheck import model_check_consistency, model_check_property
from repro.constraints.algebra import must, order
from repro.constraints.klein import klein_order
from repro.constraints.satisfy import satisfies
from repro.core.verify import is_consistent, verify_property
from repro.ctr.formulas import atoms, event_names
from repro.ctr.machine import machine_traces
from repro.graph.generators import parallel_chains
from tests.conftest import constraints_over, unique_event_goals

A, B, C = atoms("a b c")


class TestConsistency:
    def test_consistent_with_witness(self):
        result = model_check_consistency(A | B, [order("a", "b")])
        assert result.holds
        assert result.witness == ("a", "b")

    def test_inconsistent(self):
        result = model_check_consistency(A >> B, [order("b", "a")])
        assert not result.holds
        assert result.witness is None

    def test_state_count_reported(self):
        result = model_check_consistency(parallel_chains(3, 2), [])
        assert result.states_explored > 0

    @settings(max_examples=40, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_agrees_with_apply_based_consistency(self, goal, data):
        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        constraint = data.draw(constraints_over(events))
        result = model_check_consistency(goal, [constraint])
        assert result.holds == is_consistent(goal, [constraint])
        if result.holds:
            assert result.witness in machine_traces(goal)
            assert satisfies(result.witness, constraint)


class TestPropertyChecking:
    def test_holding_property(self):
        result = model_check_property(A >> B, [], order("a", "b"))
        assert result.holds

    def test_violated_property_gives_counterexample(self):
        result = model_check_property(A | B, [], order("a", "b"))
        assert not result.holds
        assert result.witness == ("b", "a")

    def test_constraints_restrict_executions(self):
        goal = A | B | C
        # Unconstrained, "a before b" can fail; with klein_order(a,b) as a
        # background constraint it still can (if only b occurs... both always
        # occur here), actually klein == order when both always occur.
        assert not model_check_property(goal, [], order("a", "b")).holds
        assert model_check_property(goal, [klein_order("a", "b")], order("a", "b")).holds

    @settings(max_examples=30, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_agrees_with_apply_based_verification(self, goal, data):
        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        background = data.draw(constraints_over(events))
        prop = data.draw(constraints_over(events))
        mc = model_check_property(goal, [background], prop)
        apply_based = verify_property(goal, [background], prop)
        assert mc.holds == apply_based.holds


class TestStateExplosion:
    def test_states_grow_with_parallel_width(self):
        counts = [
            model_check_consistency(parallel_chains(w, 2), [must("t1_1")]).states_explored
            for w in (1, 2, 3)
        ]
        assert counts[0] < counts[1] < counts[2]
