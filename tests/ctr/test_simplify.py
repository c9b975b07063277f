"""Tests for the ¬path-absorption tautologies and structural simplification."""

from hypothesis import given

from repro.ctr.formulas import (
    EMPTY,
    NEG_PATH,
    Choice,
    Concurrent,
    Isolated,
    Possibility,
    Serial,
    atoms,
)
from repro.ctr.machine import machine_traces
from repro.ctr.simplify import is_failure, simplify
from tests.conftest import unique_event_goals

A, B, C = atoms("a b c")


class TestTautologies:
    def test_negpath_absorbs_serial_left(self):
        assert simplify(Serial((NEG_PATH, A))) is NEG_PATH

    def test_negpath_absorbs_serial_right(self):
        assert simplify(Serial((A, NEG_PATH))) is NEG_PATH

    def test_negpath_absorbs_concurrent(self):
        assert simplify(Concurrent((A, NEG_PATH))) is NEG_PATH

    def test_negpath_vanishes_in_choice(self):
        assert simplify(Choice((A, NEG_PATH))) == A

    def test_all_negpath_choice_fails(self):
        assert simplify(Choice((NEG_PATH, NEG_PATH))) is NEG_PATH

    def test_nested_absorption(self):
        goal = Serial((A, Choice((Serial((B, NEG_PATH)), C))))
        assert simplify(goal) == Serial((A, C))


class TestStructural:
    def test_flattening(self):
        goal = Serial((Serial((A, B)), C))
        assert simplify(goal) == Serial((A, B, C))

    def test_isolated_over_failure(self):
        assert simplify(Isolated(NEG_PATH)) is NEG_PATH

    def test_isolated_over_leaf_is_noop(self):
        assert simplify(Isolated(A)) == A

    def test_isolated_idempotent(self):
        assert simplify(Isolated(Isolated(A >> B))) == Isolated(A >> B)

    def test_isolated_over_empty(self):
        assert simplify(Isolated(EMPTY)) is EMPTY

    def test_possibility_over_failure(self):
        assert simplify(Possibility(NEG_PATH)) is NEG_PATH

    def test_possibility_idempotent(self):
        assert simplify(Possibility(Possibility(A >> B))) == Possibility(A >> B)

    def test_possibility_over_empty(self):
        assert simplify(Possibility(EMPTY)) is EMPTY

    def test_is_failure(self):
        assert is_failure(NEG_PATH)
        assert not is_failure(A)


class TestProperties:
    @given(unique_event_goals(max_events=4))
    def test_idempotent(self, goal):
        once = simplify(goal)
        assert simplify(once) == once

    @given(unique_event_goals(max_events=4))
    def test_preserves_traces(self, goal):
        assert machine_traces(simplify(goal)) == machine_traces(goal)
