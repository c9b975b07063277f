"""Tests for concurrent-Horn rules and sub-workflow expansion."""

import pytest

from repro.ctr.formulas import Atom, Choice, atoms
from repro.ctr.machine import machine_traces
from repro.ctr.rules import Rule, RuleBase
from repro.errors import RecursionError_, SpecificationError

A, B, C, D = atoms("a b c d")


class TestExpansion:
    def test_single_rule(self):
        rb = RuleBase([Rule("sub", A >> B)])
        assert rb.expand(Atom("sub") >> C) == A >> B >> C

    def test_multiple_bodies_become_choice(self):
        rb = RuleBase([Rule("sub", A), Rule("sub", B)])
        assert rb.expand(Atom("sub")) == Choice((A, B))

    def test_nested_expansion(self):
        rb = RuleBase([Rule("outer", Atom("inner") >> C), Rule("inner", A | B)])
        assert rb.expand(Atom("outer")) == (A | B) >> C

    def test_expansion_preserves_semantics(self):
        rb = RuleBase([Rule("sub", A + B)])
        goal = Atom("sub") >> C
        assert machine_traces(rb.expand(goal)) == {("a", "c"), ("b", "c")}

    def test_unrelated_atoms_untouched(self):
        rb = RuleBase([Rule("sub", A)])
        assert rb.expand(C >> D) == C >> D

    def test_definition_accessor(self):
        rb = RuleBase([Rule("sub", A), Rule("sub", B)])
        assert rb.definition("sub") == Choice((A, B))
        with pytest.raises(SpecificationError):
            rb.definition("nope")

    def test_heads_and_bodies(self):
        rb = RuleBase([Rule("x", A), Rule("y", B)])
        assert rb.heads == frozenset({"x", "y"})
        assert rb.bodies("x") == (A,)


class TestRecursionDetection:
    def test_direct_recursion(self):
        with pytest.raises(RecursionError_):
            RuleBase([Rule("w", Atom("w") >> A)])

    def test_mutual_recursion(self):
        with pytest.raises(RecursionError_) as info:
            RuleBase([Rule("x", Atom("y")), Rule("y", Atom("x"))])
        assert "x" in info.value.cycle and "y" in info.value.cycle

    def test_add_rolls_back_on_recursion(self):
        rb = RuleBase([Rule("x", A)])
        with pytest.raises(RecursionError_):
            rb.add(Rule("x", Atom("x")))
        # The failed rule was not kept.
        assert rb.bodies("x") == (A,)

    def test_recursion_through_choice(self):
        with pytest.raises(RecursionError_):
            RuleBase([Rule("w", A + (Atom("w") >> B))])

    def test_dag_of_rules_is_fine(self):
        rb = RuleBase(
            [
                Rule("top", Atom("mid1") >> Atom("mid2")),
                Rule("mid1", Atom("leaf")),
                Rule("mid2", Atom("leaf2")),
                Rule("leaf", A),
                Rule("leaf2", B),
            ]
        )
        assert rb.expand(Atom("top")) == A >> B


class TestValidation:
    def test_empty_head_rejected(self):
        with pytest.raises(SpecificationError):
            Rule("", A)
