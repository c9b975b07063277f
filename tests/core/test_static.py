"""Tests for the static analysis reports."""

from hypothesis import given, settings

from repro.constraints.algebra import absent, must, order
from repro.core.compiler import compile_workflow
from repro.core.static import (
    analyze,
    dead_activities,
    guaranteed_orderings,
    mandatory_events,
    possible_events,
)
from repro.ctr.formulas import NEG_PATH, Isolated, Possibility, atoms
from repro.ctr.machine import machine_traces
from tests.conftest import unique_event_goals

A, B, C, D = atoms("a b c d")


class TestEventSets:
    def test_possible(self):
        assert possible_events(A >> (B + C)) == {"a", "b", "c"}
        assert possible_events(NEG_PATH) == frozenset()
        assert possible_events(Possibility(A) >> B) == {"b"}

    def test_mandatory(self):
        assert mandatory_events(A >> (B + C)) == {"a"}
        assert mandatory_events(A | B) == {"a", "b"}
        assert mandatory_events((A >> B) + (B >> C)) == {"b"}
        assert mandatory_events(Isolated(A >> B)) == {"a", "b"}

    @settings(max_examples=60, deadline=None)
    @given(unique_event_goals(max_events=5))
    def test_against_trace_semantics(self, goal):
        all_traces = machine_traces(goal)
        expected_possible = {e for t in all_traces for e in t}
        expected_mandatory = (
            set.intersection(*(set(t) for t in all_traces)) if all_traces else set()
        )
        assert possible_events(goal) == expected_possible
        assert mandatory_events(goal) == expected_mandatory


class TestDeadActivities:
    def test_constraint_kills_branch(self):
        compiled = compile_workflow(A >> (B + C), [absent("b")])
        assert dead_activities(compiled) == {"b"}

    def test_nothing_dead_without_constraints(self):
        compiled = compile_workflow(A >> (B + C))
        assert dead_activities(compiled) == frozenset()


class TestOrderings:
    def test_serial(self):
        got = guaranteed_orderings(A >> B >> C)
        assert ("a", "b") in got and ("b", "c") in got and ("a", "c") in got
        assert ("b", "a") not in got

    def test_concurrent_has_no_order(self):
        assert guaranteed_orderings(A | B) == frozenset()

    def test_choice_agreement(self):
        # Both alternatives order a before b: guaranteed.
        agree = (A >> B) + (A >> C >> B)
        assert ("a", "b") in guaranteed_orderings(agree)
        # Alternatives disagree: not guaranteed.
        disagree = (A >> B) + (B >> A)
        assert ("a", "b") not in guaranteed_orderings(disagree)

    @settings(max_examples=50, deadline=None)
    @given(unique_event_goals(max_events=4, allow_isolated=False))
    def test_sound_against_traces(self, goal):
        got = guaranteed_orderings(goal)
        for e, f in got:
            for trace in machine_traces(goal):
                if e in trace and f in trace:
                    assert trace.index(e) < trace.index(f)


class TestAnalyze:
    def test_report_fields(self):
        compiled = compile_workflow(A >> (B + C), [absent("b"), must("a")])
        report = analyze(compiled)
        assert report.consistent
        assert report.mandatory == {"a", "c"}
        assert report.optional == frozenset()
        assert report.dead == {"b"}
        assert ("a", "c") in report.orderings

    def test_inconsistent_report(self):
        compiled = compile_workflow(A >> B, [order("b", "a")])
        report = analyze(compiled)
        assert not report.consistent
        assert report.dead == {"a", "b"}

    def test_describe_is_readable(self):
        compiled = compile_workflow(A >> (B + C), [absent("b")])
        text = analyze(compiled).describe()
        assert "mandatory" in text and "dead" in text and "b" in text
