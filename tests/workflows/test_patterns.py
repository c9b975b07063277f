"""Tests for the workflow control-flow pattern catalogue."""

import pytest

from repro.constraints.algebra import must
from repro.core.compiler import compile_workflow
from repro.ctr.formulas import atoms, seq
from repro.ctr.machine import machine_traces
from repro.ctr.unique import is_unique_event_goal
from repro.workflows.patterns import (
    deferred_choice,
    exclusive_choice,
    interleaved_routing,
    milestone,
    multi_choice,
    parallel_split,
    sequence,
)

A, B, C, D = atoms("a b c d")


class TestBasicPatterns:
    def test_sequence(self):
        assert machine_traces(sequence(A, B, C)) == {("a", "b", "c")}

    def test_parallel_split_synchronizes(self):
        goal = seq(parallel_split(A, B), C)
        got = machine_traces(goal)
        # c only after BOTH branches completed (synchronization).
        assert got == {("a", "b", "c"), ("b", "a", "c")}

    def test_exclusive_choice(self):
        assert machine_traces(exclusive_choice(A, B, C)) == {("a",), ("b",), ("c",)}


class TestMultiChoice:
    def test_all_nonempty_subsets(self):
        got = machine_traces(multi_choice(A, B))
        assert got == {("a",), ("b",), ("a", "b"), ("b", "a")}

    def test_synchronizing_merge(self):
        goal = seq(multi_choice(A, B), C)
        got = machine_traces(goal)
        assert ("a", "c") in got
        assert ("a", "b", "c") in got
        # The merge always waits for every chosen branch.
        assert all(t[-1] == "c" for t in got)

    def test_three_branches_subset_count(self):
        goal = multi_choice(A, B, C)
        singles = {t for t in machine_traces(goal) if len(t) == 1}
        assert singles == {("a",), ("b",), ("c",)}
        assert ("a", "b", "c") in machine_traces(goal)

    def test_needs_a_branch(self):
        with pytest.raises(ValueError):
            multi_choice()

    def test_unique_event(self):
        assert is_unique_event_goal(multi_choice(A, B, C))


class TestInterleavedRouting:
    def test_compound_activities_never_overlap(self):
        got = machine_traces(interleaved_routing(A >> B, C >> D))
        assert got == {("a", "b", "c", "d"), ("c", "d", "a", "b")}

    def test_single_events_fully_interleave(self):
        # Single steps are atomic anyway: same as parallel.
        assert machine_traces(interleaved_routing(A, B)) == {("a", "b"), ("b", "a")}


class TestDeferredChoice:
    def test_scheduler_defers_until_commitment(self):
        from repro.core.scheduler import Scheduler

        goal = deferred_choice(A >> B, A >> C)
        scheduler = Scheduler(goal)
        scheduler.fire("a")  # both alternatives still live
        assert scheduler.eligible() == {"b", "c"}


class TestMilestone:
    def test_guarded_activity_waits(self):
        reach, guarded = milestone(B, "m")
        goal = (A >> reach) | guarded
        assert machine_traces(goal) == {("a", "b")}

    def test_unreached_milestone_blocks_forever(self):
        _reach, guarded = milestone(B, "m")
        goal = A | guarded  # nothing ever sends the token
        assert machine_traces(goal) == frozenset()

    def test_compiles_with_constraints(self):
        reach, guarded = milestone(B, "m")
        goal = (A >> reach) | guarded
        compiled = compile_workflow(goal, [must("b")])
        assert compiled.consistent
        assert list(compiled.schedules()) == [("a", "b")]
