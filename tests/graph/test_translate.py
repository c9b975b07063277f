"""Tests for the CFG → concurrent-Horn translation (formula (1))."""

import pytest

from repro.ctr.formulas import Test, atoms
from repro.ctr.machine import machine_traces
from repro.ctr.parser import parse_goal
from repro.ctr.pretty import pretty
from repro.errors import SpecificationError
from repro.graph.cfg import ControlFlowGraph
from repro.graph.translate import to_goal
from repro.workflows.figure1 import figure1_goal

A, B, C, D = atoms("a b c d")


class TestBasicShapes:
    def test_chain(self):
        g = ControlFlowGraph()
        g.add_arc("a", "b")
        g.add_arc("b", "c")
        assert to_goal(g) == A >> B >> C

    def test_and_diamond(self):
        g = ControlFlowGraph()
        g.add_arc("s", "a")
        g.add_arc("s", "b")
        g.add_arc("a", "t")
        g.add_arc("b", "t")
        goal = to_goal(g)
        s, t = atoms("s t")
        assert goal == s >> (A | B) >> t

    def test_or_diamond(self):
        g = ControlFlowGraph()
        g.set_split("s", "or")
        g.add_arc("s", "a")
        g.add_arc("s", "b")
        g.add_arc("a", "t")
        g.add_arc("b", "t")
        goal = to_goal(g)
        assert machine_traces(goal) == {("s", "a", "t"), ("s", "b", "t")}

    def test_unbalanced_branches(self):
        g = ControlFlowGraph()
        g.add_arc("s", "a")
        g.add_arc("s", "t")
        g.add_arc("a", "b")
        g.add_arc("b", "t")
        # s splits into (a ⊗ b) and the direct arc; both join at t... but a
        # direct arc makes this a parallel between a chain and nothing -
        # still series-parallel.
        goal = to_goal(g)
        assert ("s", "a", "b", "t") in machine_traces(goal)


class TestConditions:
    def test_condition_becomes_test(self):
        g = ControlFlowGraph()
        g.add_arc("a", "b", condition="ok")
        goal = to_goal(g)
        assert goal == A >> Test("ok") >> B

    def test_predicate_carried(self):
        pred = lambda db: True  # noqa: E731
        g = ControlFlowGraph()
        g.add_arc("a", "b", condition="ok", predicate=pred)
        goal = to_goal(g)
        test_node = goal.parts[1]
        assert isinstance(test_node, Test)
        assert test_node.predicate is pred


class TestFigure1:
    def test_matches_paper_formula(self):
        # Formula (1) of the paper, in the ASCII syntax.
        expected = parse_goal(
            "a * (cond1? * b * ((d * cond3? * h) + e) * j"
            " | cond2? * c * ((f * i * cond4?) + (g * cond5?))) * k"
        )
        assert machine_traces(figure1_goal()) == machine_traces(expected)

    def test_renders_compactly(self):
        text = pretty(figure1_goal())
        assert text.startswith("a * (")
        assert text.endswith(") * k")


class TestRejection:
    def test_non_series_parallel_rejected(self):
        # The "N" graph: s->a, s->b, a->t, a->u? Classic non-SP shape:
        g = ControlFlowGraph()
        g.add_arc("s", "a")
        g.add_arc("s", "b")
        g.add_arc("a", "c")
        g.add_arc("b", "c")
        g.add_arc("b", "d")
        g.add_arc("c", "t")
        g.add_arc("d", "t")
        with pytest.raises(SpecificationError):
            to_goal(g)

    def test_cyclic_rejected(self):
        g = ControlFlowGraph()
        g.add_arc("a", "b")
        g.add_arc("b", "c")
        g.add_arc("c", "b")
        with pytest.raises(SpecificationError):
            to_goal(g)
