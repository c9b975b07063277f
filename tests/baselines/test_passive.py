"""Tests for the passive-scheduling baseline."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.passive import (
    PassiveScheduler,
    generate_and_test_consistency,
    validate_sequence,
)
from repro.constraints.algebra import absent, must, order
from repro.constraints.satisfy import Verdict, satisfies
from repro.core.verify import is_consistent
from repro.ctr.formulas import atoms, event_names
from repro.ctr.machine import machine_traces
from tests.conftest import constraints_over, unique_event_goals

A, B, C = atoms("a b c")


class TestPassiveScheduler:
    def test_accepts_valid_stream(self):
        ps = PassiveScheduler([order("a", "b")])
        assert ps.accept("a") is Verdict.UNKNOWN
        assert ps.accept("b") is Verdict.TRUE
        assert ps.finish()

    def test_rejects_violation_immediately(self):
        ps = PassiveScheduler([order("a", "b")])
        assert ps.accept("b") is Verdict.FALSE

    def test_finish_resolves_unknowns(self):
        ps = PassiveScheduler([must("a")])
        ps.accept("b")
        assert not ps.finish()  # 'a' never arrived

    def test_reset(self):
        ps = PassiveScheduler([absent("a")])
        ps.accept("a")
        ps.reset()
        assert ps.history == ()
        assert ps.accept("b") is Verdict.UNKNOWN

    def test_history(self):
        ps = PassiveScheduler([])
        ps.accept("x")
        ps.accept("y")
        assert ps.history == ("x", "y")


class TestValidateSequence:
    @settings(max_examples=60, deadline=None)
    @given(st.permutations(["a", "b", "c", "d"]), st.data())
    def test_matches_satisfies(self, sequence, data):
        constraint = data.draw(constraints_over(("a", "b", "c", "d")))
        sequence = tuple(sequence)
        assert validate_sequence(sequence, [constraint]) == satisfies(
            sequence, constraint
        )

    def test_multiple_constraints(self):
        constraints = [order("a", "b"), absent("z")]
        assert validate_sequence(("a", "b"), constraints)
        assert not validate_sequence(("a", "b", "z"), constraints)


class TestGenerateAndTest:
    def test_finds_witness(self):
        witness = generate_and_test_consistency(A | B, [order("a", "b")])
        assert witness == ("a", "b")

    def test_detects_inconsistency(self):
        witness = generate_and_test_consistency(
            A | B, [order("a", "b"), order("b", "a")]
        )
        assert witness is None

    @settings(max_examples=40, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_agrees_with_proactive_consistency(self, goal, data):
        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        constraint = data.draw(constraints_over(events))
        witness = generate_and_test_consistency(goal, [constraint])
        proactive = is_consistent(goal, [constraint])
        assert (witness is not None) == proactive
        if witness is not None:
            assert witness in machine_traces(goal)
            assert satisfies(witness, constraint)
