"""Tests for scheduler checkpoint/resume."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.algebra import order
from repro.core.compiler import compile_workflow
from repro.core.scheduler import Scheduler
from repro.ctr.formulas import Isolated, atoms, event_names
from repro.errors import SpecificationError
from repro.graph.generators import serial_chain
from tests.conftest import constraints_over, unique_event_goals

A, B, C, D = atoms("a b c d")


def round_trip(snapshot: dict) -> dict:
    return json.loads(json.dumps(snapshot))


class TestSnapshotRestore:
    def test_mid_run_resume(self):
        compiled = compile_workflow((A | B) >> (C + D), [order("a", "b")])
        scheduler = compiled.scheduler()
        scheduler.fire("a")
        snapshot = round_trip(scheduler.snapshot())

        resumed = compiled.scheduler()
        resumed.restore(snapshot)
        assert resumed.history == ("a",)
        assert resumed.eligible() == scheduler.eligible() == {"b"}
        resumed.fire("b")
        resumed.fire("c")
        assert resumed.can_finish()

    def test_snapshot_is_json_serializable(self):
        scheduler = Scheduler(serial_chain(10))
        for _ in range(4):
            scheduler.fire(min(scheduler.eligible()))
        text = json.dumps(scheduler.snapshot())
        assert "e5" in text

    def test_resume_mid_isolated_region(self):
        scheduler = Scheduler(Isolated(A >> B) | C)
        scheduler.fire("a")
        snapshot = round_trip(scheduler.snapshot())
        resumed = Scheduler(Isolated(A >> B) | C)
        resumed.restore(snapshot)
        # Isolation must survive the round trip: c still has to wait.
        assert resumed.eligible() == {"b"}
        resumed.fire("b")
        assert resumed.eligible() == {"c"}

    def test_tokens_survive(self):
        compiled = compile_workflow(A | B, [order("a", "b")])
        scheduler = compiled.scheduler()
        scheduler.fire("a")
        resumed = compiled.scheduler()
        resumed.restore(round_trip(scheduler.snapshot()))
        assert resumed.eligible() == {"b"}

    def test_initial_snapshot(self):
        scheduler = Scheduler(A >> B)
        resumed = Scheduler(A >> B)
        resumed.restore(round_trip(scheduler.snapshot()))
        assert resumed.eligible() == {"a"}

    def test_refuses_another_goal_over_the_same_events(self):
        # Its states would name nodes of other tables: resumed, a * (b + c)
        # * d would run a b c d, which is no execution of it.
        scheduler = Scheduler(A >> (B | C) >> D)
        scheduler.fire("a")
        scheduler.fire("b")
        snapshot = round_trip(scheduler.snapshot())
        with pytest.raises(SpecificationError):
            Scheduler(A >> (B + C) >> D).restore(snapshot)

    def test_refuses_a_snapshot_without_a_digest(self):
        snapshot = round_trip(Scheduler(A >> B).snapshot())
        del snapshot["digest"]
        with pytest.raises(SpecificationError):
            Scheduler(A >> B).restore(snapshot)


class TestEquivalenceProperty:
    @settings(max_examples=40, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_resumed_scheduler_matches_original(self, goal, data):
        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        constraint = data.draw(constraints_over(events))
        compiled = compile_workflow(goal, [constraint])
        if not compiled.consistent:
            return
        scheduler = compiled.scheduler()
        steps = data.draw(st.integers(0, 3))
        for _ in range(steps):
            eligible = scheduler.eligible()
            if not eligible:
                break
            scheduler.fire(min(eligible))

        resumed = compiled.scheduler()
        resumed.restore(round_trip(scheduler.snapshot()))
        assert resumed.eligible() == scheduler.eligible()
        assert resumed.can_finish() == scheduler.can_finish()
        if not scheduler.finished:
            assert resumed.run() == scheduler.run()
