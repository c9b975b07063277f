"""Tests for trigger (ECA rule) compilation into the control flow."""

import pytest

from repro.ctr.formulas import Atom, Test, atoms, seq
from repro.ctr.machine import machine_traces
from repro.errors import RecursionError_
from repro.graph.triggers import Trigger, apply_triggers

A, B, C = atoms("a b c")
REACT = Atom("react")


class TestUnconditional:
    def test_action_appended_after_event(self):
        got = apply_triggers(A >> B, [Trigger("a", REACT)])
        assert got == A >> REACT >> B

    def test_every_occurrence_rewritten(self):
        goal = (A >> B) + (C >> A)
        got = apply_triggers(goal, [Trigger("a", REACT)])
        assert got == (A >> REACT >> B) + (C >> A >> REACT)

    def test_multiple_triggers_on_same_event(self):
        r2 = Atom("react2")
        got = apply_triggers(A, [Trigger("a", REACT), Trigger("a", r2)])
        assert got == A >> REACT >> r2


class TestConditional:
    def test_guarded_action_shape(self):
        got = apply_triggers(A, [Trigger("a", REACT, condition="low")])
        assert got == A >> (seq(Test("low"), REACT) + Test("not_low"))

    def test_negated_predicate_generated(self):
        pred = lambda db: db.contains("x", 1)  # noqa: E731
        trigger = Trigger("a", REACT, condition="low", predicate=pred)
        got = apply_triggers(A, [trigger])
        branch = got.parts[1]
        negative_test = branch.parts[1]
        assert negative_test.name == "not_low"

        class FakeDb:
            def contains(self, *args):
                return False

        assert negative_test.predicate(FakeDb()) is True

    def test_semantics(self):
        got = apply_triggers(A >> B, [Trigger("a", REACT, condition="low")])
        assert machine_traces(got) == {("a", "react", "b"), ("a", "b")}


class TestCascades:
    def test_cascading_triggers_expand(self):
        t1 = Trigger("a", Atom("b2"))
        t2 = Trigger("b2", Atom("c2"))
        got = apply_triggers(A, [t1, t2])
        assert got == A >> Atom("b2") >> Atom("c2")

    def test_cyclic_cascade_rejected(self):
        t1 = Trigger("a", Atom("b2"))
        t2 = Trigger("b2", Atom("a"))
        with pytest.raises(RecursionError_):
            apply_triggers(A, [t1, t2])

    def test_self_trigger_rejected(self):
        with pytest.raises(RecursionError_):
            apply_triggers(A, [Trigger("a", Atom("a"))])
