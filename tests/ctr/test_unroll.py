"""Tests for bounded loop unrolling (Section 7 extension)."""

import pytest

from repro.constraints.algebra import disj, must
from repro.core.compiler import compile_workflow
from repro.ctr.formulas import Atom, atoms
from repro.ctr.machine import machine_traces
from repro.ctr.rules import Rule
from repro.ctr.unique import is_unique_event_goal
from repro.ctr.unroll import bounded_loop, occurrence_names, recursive_heads, unroll
from repro.errors import SpecificationError

A, B, C = atoms("a b c")
TRY, DONE = atoms("try done")


class TestRecursiveHeads:
    def test_self_recursion(self):
        rules = [Rule("w", A + (B >> Atom("w")))]
        assert recursive_heads(rules) == {"w"}

    def test_mutual_recursion(self):
        rules = [Rule("x", Atom("y") + A), Rule("y", Atom("x") + B)]
        assert recursive_heads(rules) == {"x", "y"}

    def test_non_recursive(self):
        rules = [Rule("top", Atom("sub")), Rule("sub", A)]
        assert recursive_heads(rules) == frozenset()


class TestUnroll:
    def test_simple_loop(self):
        # w ← done ∨ (try ⊗ w): retry up to k times.
        rules = [Rule("w", DONE + (TRY >> Atom("w")))]
        base = unroll(rules, bound=2)
        goal = base.expand(Atom("w"))
        assert is_unique_event_goal(goal)
        assert machine_traces(goal) == {
            ("done",),
            ("try#1", "done"),
            ("try#1", "try#2", "done"),
        }

    def test_zero_bound_keeps_base_case_only(self):
        rules = [Rule("w", DONE + (TRY >> Atom("w")))]
        goal = unroll(rules, bound=0).expand(Atom("w"))
        assert machine_traces(goal) == {("done",)}

    def test_no_base_case_rejected(self):
        rules = [Rule("w", TRY >> Atom("w"))]
        with pytest.raises(SpecificationError):
            unroll(rules, bound=3)

    def test_negative_bound_rejected(self):
        with pytest.raises(SpecificationError):
            unroll([Rule("w", A)], bound=-1)

    def test_non_recursive_rules_untouched(self):
        rules = [Rule("top", Atom("sub") >> C), Rule("sub", A + B)]
        base = unroll(rules, bound=5)
        assert base.expand(Atom("top")) == (A + B) >> C

    def test_mutual_recursion_unrolls(self):
        # ping ← stop ∨ (p ⊗ pong);  pong ← q ⊗ ping
        rules = [
            Rule("ping", Atom("stop") + (Atom("p") >> Atom("pong"))),
            Rule("pong", Atom("q") >> Atom("ping")),
        ]
        goal = unroll(rules, bound=4).expand(Atom("ping"))
        got = machine_traces(goal)
        assert ("stop",) in got
        # One full ping->pong->ping round: p, q, then stop (renamed per level).
        assert any(t[0].startswith("p#") and t[-1].startswith("stop") for t in got)
        assert is_unique_event_goal(goal)

    def test_unrolled_loops_compile_with_constraints(self):
        rules = [Rule("retry", DONE + (TRY >> Atom("retry")))]
        goal = unroll(rules, bound=3).expand(Atom("retry"))
        # "at least one attempt happens"
        attempted = disj(*(must(name) for name in occurrence_names("try", 3)))
        compiled = compile_workflow(goal, [attempted])
        assert compiled.consistent
        assert all("try#1" in schedule for schedule in compiled.schedules())


class TestBoundedLoop:
    def test_traces(self):
        goal = bounded_loop(TRY, 2, DONE)
        assert machine_traces(goal) == {
            ("done",),
            ("try#1", "done"),
            ("try#1", "try#2", "done"),
        }

    def test_empty_exit(self):
        goal = bounded_loop(A, 2)
        assert machine_traces(goal) == {(), ("a#1",), ("a#1", "a#2")}

    def test_compound_body(self):
        goal = bounded_loop(A >> B, 2, C)
        assert ("a#1", "b#1", "a#2", "b#2", "c") in machine_traces(goal)
        assert is_unique_event_goal(goal)

    def test_negative_bound_rejected(self):
        with pytest.raises(SpecificationError):
            bounded_loop(A, -1)

    def test_occurrence_names(self):
        assert occurrence_names("e", 3) == ["e#1", "e#2", "e#3"]
