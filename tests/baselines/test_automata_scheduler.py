"""Tests for the automata-synthesis scheduling baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.automata_scheduler import AutomatonScheduler
from repro.constraints.algebra import absent, must, order
from repro.constraints.satisfy import satisfies
from repro.core.compiler import compile_workflow
from repro.ctr.formulas import atoms, event_names
from repro.ctr.machine import machine_traces
from repro.errors import IneligibleEventError, InconsistentWorkflowError
from tests.conftest import constraints_over, unique_event_goals

A, B, C, D = atoms("a b c d")


def language(scheduler: AutomatonScheduler, limit: int = 10_000):
    """All complete schedules of the pruned automaton (DFS)."""
    out = set()

    def dfs(state, prefix):
        if state in scheduler.accepting:
            out.add(prefix)
            assert len(out) <= limit
        for event, target in sorted(scheduler.transitions.get(state, {}).items()):
            dfs(target, prefix + (event,))

    dfs(scheduler.initial_state, ())
    return out


class TestSynthesis:
    def test_simple_schedule(self):
        scheduler = AutomatonScheduler.build(A | B, [order("a", "b")])
        assert scheduler.run() == ("a", "b")

    def test_inconsistent_raises(self):
        with pytest.raises(InconsistentWorkflowError):
            AutomatonScheduler.build(A >> B, [order("b", "a")])

    def test_pruning_removes_dead_ends(self):
        # Unconstrained, c could fire first; with must(b) in force, firing
        # the c branch would be a dead end (b unreachable) - it must be
        # pruned from the eligible set up front.
        goal = (B + C) >> A
        scheduler = AutomatonScheduler.build(goal, [must("b")])
        assert scheduler.eligible() == {"b"}

    def test_state_count_reported(self):
        scheduler = AutomatonScheduler.build(A | B | C, [])
        assert scheduler.state_count >= 4


class TestScheduling:
    def test_stepping(self):
        scheduler = AutomatonScheduler.build((A | B) >> C, [order("a", "b")])
        assert scheduler.eligible() == {"a"}
        scheduler.fire("a")
        assert scheduler.eligible() == {"b"}
        scheduler.fire("b")
        scheduler.fire("c")
        assert scheduler.can_finish()
        assert scheduler.history == ("a", "b", "c")

    def test_ineligible_raises(self):
        scheduler = AutomatonScheduler.build(A >> B, [])
        with pytest.raises(IneligibleEventError):
            scheduler.fire("b")

    def test_reset(self):
        scheduler = AutomatonScheduler.build(A >> B, [])
        scheduler.fire("a")
        scheduler.reset()
        assert scheduler.history == ()
        assert scheduler.eligible() == {"a"}


class TestAgreementWithCompiledScheduler:
    @settings(max_examples=40, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_same_language(self, goal, data):
        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        constraint = data.draw(constraints_over(events))
        compiled = compile_workflow(goal, [constraint])
        if not compiled.consistent:
            with pytest.raises(InconsistentWorkflowError):
                AutomatonScheduler.build(goal, [constraint])
            return
        scheduler = AutomatonScheduler.build(goal, [constraint])
        assert language(scheduler) == set(compiled.schedules())

    def test_schedules_satisfy_constraints(self):
        constraints = [order("a", "b"), absent("d")]
        scheduler = AutomatonScheduler.build(A | B | (C + D), constraints)
        for schedule in language(scheduler):
            assert all(satisfies(schedule, c) for c in constraints)
            assert schedule in machine_traces(A | B | (C + D))
