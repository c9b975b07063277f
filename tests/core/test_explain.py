"""Tests for the rejection-explanation diagnostics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.algebra import absent, must, order
from repro.core.compiler import compile_workflow
from repro.core.explain import explain_rejection, is_allowed
from repro.ctr.formulas import atoms, event_names
from tests.conftest import constraints_over, unique_event_goals

A, B, C, D = atoms("a b c d")


class TestIsAllowed:
    def test_accepts_legal_schedule(self):
        compiled = compile_workflow((A | B) >> C, [order("a", "b")])
        assert is_allowed(compiled, ("a", "b", "c"))

    def test_rejects_constraint_violation(self):
        compiled = compile_workflow((A | B) >> C, [order("a", "b")])
        assert not is_allowed(compiled, ("b", "a", "c"))

    def test_rejects_incomplete(self):
        compiled = compile_workflow(A >> B)
        assert not is_allowed(compiled, ("a",))


class TestExplanations:
    def test_allowed_sequence(self):
        compiled = compile_workflow(A >> B)
        explanation = explain_rejection(compiled, ("a", "b"))
        assert explanation.allowed
        assert "allowed" in explanation.describe()

    def test_unknown_event(self):
        compiled = compile_workflow(A >> B)
        explanation = explain_rejection(compiled, ("a", "zzz"))
        assert not explanation.allowed
        assert explanation.unknown_events == ("zzz",)
        assert "unknown events" in explanation.describe()

    def test_control_flow_divergence(self):
        compiled = compile_workflow(A >> B >> C)
        explanation = explain_rejection(compiled, ("a", "c"))
        assert explanation.diverges_at == 1
        assert explanation.eligible_instead == {"b"}
        assert "diverges at step 2" in explanation.describe()

    def test_incomplete_sequence(self):
        compiled = compile_workflow(A >> B)
        explanation = explain_rejection(compiled, ("a",))
        assert explanation.incomplete
        assert "stops before" in explanation.describe()

    def test_violated_constraint_named(self):
        constraints = [order("a", "b"), absent("d")]
        compiled = compile_workflow(A | B | C, constraints)
        explanation = explain_rejection(compiled, ("b", "a", "c"))
        assert explanation.violated_constraints == (order("a", "b"),)
        assert "precedes(a, b)" in explanation.describe()

    def test_multiple_violations(self):
        constraints = [order("a", "b"), must("c")]
        compiled = compile_workflow(A | B | (C + D), constraints)
        explanation = explain_rejection(compiled, ("b", "a", "d"))
        assert set(explanation.violated_constraints) == set(constraints)


class TestSoundness:
    @settings(max_examples=50, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_explanations_agree_with_semantics(self, goal, data):
        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        constraint = data.draw(constraints_over(events))
        compiled = compile_workflow(goal, [constraint])
        if not compiled.consistent:
            return
        legal = set(compiled.schedules(limit=20_000))
        candidate = data.draw(st.permutations(list(events)))
        candidate = tuple(candidate)
        explanation = explain_rejection(compiled, candidate)
        assert explanation.allowed == (candidate in legal)
        if not explanation.allowed and not explanation.unknown_events:
            # The explanation must give at least one concrete reason.
            assert (
                explanation.diverges_at is not None
                or explanation.incomplete
                or explanation.violated_constraints
                or explanation.notes
            )
