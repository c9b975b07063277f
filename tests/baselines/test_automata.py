"""Tests for the constraint → DFA compilation."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.automata import ConstraintAutomaton, ProductAutomaton
from repro.constraints.algebra import (
    SerialConstraint,
    absent,
    conj,
    disj,
    must,
    order,
    serial,
)
from repro.constraints.satisfy import satisfies
from repro.errors import SpecificationError
from tests.conftest import constraints_over

EVENTS = ("a", "b", "c", "d")


def all_sequences(events=EVENTS, max_len=4):
    for size in range(max_len + 1):
        for subset in itertools.combinations(events, size):
            yield from itertools.permutations(subset)


class TestConstraintAutomaton:
    def test_must(self):
        dfa = ConstraintAutomaton.build(must("a"))
        assert dfa.accepts(("a",))
        assert not dfa.accepts(("b",))

    def test_absent(self):
        dfa = ConstraintAutomaton.build(absent("a"))
        assert dfa.accepts(())
        assert not dfa.accepts(("a",))

    def test_order(self):
        dfa = ConstraintAutomaton.build(order("a", "b"))
        assert dfa.accepts(("a", "b"))
        assert not dfa.accepts(("b", "a"))
        assert not dfa.accepts(("a",))

    def test_violation_is_a_sink(self):
        dfa = ConstraintAutomaton.build(order("a", "b"))
        state = dfa.initial()
        state = dfa.step(state, "b")  # premature: permanent violation
        state = dfa.step(state, "a")
        state = dfa.step(state, "b")  # unique events would forbid this anyway
        assert not dfa.accepting(state)

    def test_alphabet(self):
        dfa = ConstraintAutomaton.build(conj(order("a", "b"), must("c")))
        assert dfa.alphabet == frozenset({"a", "b", "c"})

    def test_irrelevant_events_ignored(self):
        dfa = ConstraintAutomaton.build(order("a", "b"))
        assert dfa.accepts(("x", "a", "y", "b", "z"))

    def test_long_serial_normalized(self):
        dfa = ConstraintAutomaton.build(serial("a", "b", "c"))
        assert dfa.accepts(("a", "b", "c"))
        assert not dfa.accepts(("a", "c", "b"))

    def test_duplicate_serial_rejected(self):
        # algebra.SerialConstraint refuses duplicates at construction; the
        # automaton re-validates as defense in depth against constraints
        # deserialized or built around __post_init__.
        dup = SerialConstraint.__new__(SerialConstraint)
        object.__setattr__(dup, "events", ("a", "b", "a"))
        with pytest.raises(SpecificationError):
            ConstraintAutomaton.build(dup)

    @settings(max_examples=80, deadline=None)
    @given(constraints_over(EVENTS))
    def test_agrees_with_satisfies(self, constraint):
        dfa = ConstraintAutomaton.build(constraint)
        for sequence in all_sequences():
            assert dfa.accepts(sequence) == satisfies(sequence, constraint)


class TestNestedAcceptance:
    """Regression: acceptance over nested Or/And combinations.

    ``conj``/``disj`` flatten only same-kind nestings, so an Or inside an
    And (and vice versa) survives into the automaton's acceptance
    evaluation — exactly the shapes the memoized ``accepting()`` walks.
    """

    def test_or_inside_and(self):
        constraint = conj(disj(must("a"), must("b")), disj(must("c"), absent("a")))
        dfa = ConstraintAutomaton.build(constraint)
        for sequence in all_sequences(("a", "b", "c"), max_len=3):
            assert dfa.accepts(sequence) == satisfies(sequence, constraint)
        assert dfa.accepts(("b",))
        assert dfa.accepts(("a", "c"))
        assert not dfa.accepts(("a",))
        assert not dfa.accepts(())

    def test_and_inside_or(self):
        constraint = disj(conj(must("a"), order("b", "c")), conj(absent("b"), must("d")))
        dfa = ConstraintAutomaton.build(constraint)
        for sequence in all_sequences(max_len=4):
            assert dfa.accepts(sequence) == satisfies(sequence, constraint)
        assert dfa.accepts(("a", "b", "c"))
        assert dfa.accepts(("d",))
        assert not dfa.accepts(("a", "c", "b"))
        assert not dfa.accepts(("b", "d"))

    def test_accepting_memoized(self):
        dfa = ConstraintAutomaton.build(conj(disj(must("a"), must("b")), must("c")))
        state = dfa.initial()
        first = dfa.accepting(state)
        assert dfa._accept_cache
        assert dfa.accepting(state) == first
        state = dfa.step(dfa.step(state, "a"), "c")
        assert dfa.accepting(state)
        assert dfa.accepting(state)


class TestProductAutomaton:
    def test_product_accepts_intersection(self):
        product = ProductAutomaton.build([order("a", "b"), absent("c")])
        assert product.accepts(("a", "b"))
        assert not product.accepts(("a", "b", "c"))
        assert not product.accepts(("b", "a"))

    def test_empty_product_accepts_everything(self):
        product = ProductAutomaton.build([])
        assert product.accepts(("x", "y"))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(constraints_over(EVENTS), min_size=1, max_size=3))
    def test_agrees_with_conjunction(self, constraints):
        product = ProductAutomaton.build(constraints)
        for sequence in all_sequences(max_len=3):
            expected = all(satisfies(sequence, c) for c in constraints)
            assert product.accepts(sequence) == expected
