"""Tests for the pro-active scheduler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.satisfy import satisfies
from repro.core.compiler import compile_workflow
from repro.core import scheduler as scheduler_module
from repro.core.scheduler import Scheduler
from repro.constraints.algebra import order
from repro.ctr.formulas import Atom, Isolated, Test, atoms, event_names, seq
from repro.ctr.traces import traces
from repro.graph.generators import serial_chain
from repro.errors import IneligibleEventError
from tests.conftest import constraints_over, unique_event_goals
from tests.proactive import dead_end_states, isolation_spec

A, B, C, D = atoms("a b c d")


class TestStepping:
    def test_eligible_initially(self):
        assert Scheduler((A | B) >> C).eligible() == {"a", "b"}

    def test_fire_advances(self):
        s = Scheduler(A >> B)
        s.fire("a")
        assert s.eligible() == {"b"}
        assert s.history == ("a",)

    def test_ineligible_event_raises(self):
        s = Scheduler(A >> B)
        with pytest.raises(IneligibleEventError) as info:
            s.fire("b")
        assert info.value.event == "b"
        assert "a" in info.value.eligible

    def test_can_finish(self):
        s = Scheduler(A)
        assert not s.can_finish()
        s.fire("a")
        assert s.can_finish()
        assert s.finished

    def test_reset(self):
        s = Scheduler(A >> B)
        s.fire("a")
        s.reset()
        assert s.eligible() == {"a"}
        assert s.history == ()

    def test_choice_commitment(self):
        s = Scheduler((A >> B) + (C >> D))
        s.fire("c")
        assert s.eligible() == {"d"}

    def test_shared_choice_keeps_worlds(self):
        # Firing 'a' is compatible with both alternatives; 'b' then 'c' vs
        # 'c' must both remain possible.
        goal = (A >> B >> C) + (A >> C)
        s = Scheduler(goal)
        s.fire("a")
        assert s.eligible() == {"b", "c"}
        s.fire("c")
        assert s.can_finish()

    def test_isolation_scheduling(self):
        s = Scheduler(Isolated(A >> B) | C)
        s.fire("a")
        assert s.eligible() == {"b"}  # block is running, c must wait
        s.fire("b")
        assert s.eligible() == {"c"}


class TestMarkRewind:
    def test_rewind_restores_state_and_history(self):
        s = Scheduler((A | B) >> (C + D))
        s.fire("a")
        mark = s.mark()
        s.fire("b")
        s.fire("c")
        assert s.history == ("a", "b", "c")
        s.rewind(mark)
        assert s.history == ("a",)
        assert s.eligible() == {"b"}
        s.fire("b")
        assert s.eligible() == {"c", "d"}

    def test_rewind_to_origin(self):
        s = Scheduler(A >> B)
        origin = s.mark()
        s.fire("a")
        s.rewind(origin)
        assert s.history == ()
        assert s.eligible() == {"a"}


class TestViability:
    def test_viable_with_empty_avoid_everywhere(self):
        s = Scheduler((A | B) >> (C + D))
        assert s.viable(frozenset())
        assert s.viable_events(frozenset()) == s.eligible()

    def test_viable_events_filters_dead_branch(self):
        s = Scheduler(A >> (C + D))
        s.fire("a")
        assert s.eligible() == {"c", "d"}
        assert s.viable_events(frozenset({"c"})) == {"d"}
        assert s.viable(frozenset({"c"}))

    def test_not_viable_when_every_path_needs_the_event(self):
        s = Scheduler(A >> B >> C)
        assert not s.viable(frozenset({"b"}))
        assert s.viable_events(frozenset({"b"})) == frozenset()

    def test_viability_after_commitment(self):
        # Before choosing, 'a' is avoidable (take the d-branch); once
        # committed to the c-branch it no longer is. Past events do not
        # count: avoiding the already-fired 'c' stays viable.
        s = Scheduler((C >> A) + (D >> B))
        assert s.viable(frozenset({"a"}))
        s.fire("c")
        assert not s.viable(frozenset({"a"}))
        assert s.viable(frozenset({"c", "d"}))

    def test_viability_on_concurrent_branches(self):
        s = Scheduler((A + B) | (C + D))
        avoid = frozenset({"a", "c"})
        assert s.viable(avoid)
        assert s.viable_events(avoid) == {"b", "d"}

    def test_viability_on_deep_chains(self):
        # The viability walk is iterative: a long forced chain must not
        # hit the interpreter recursion limit.
        from repro.ctr.formulas import seq as seq_

        chain = seq_(*(Atom(f"x{i}") for i in range(3000)))
        s = Scheduler(chain)
        assert s.viable(frozenset())
        assert not s.viable(frozenset({"x2999"}))

    @settings(max_examples=50, deadline=None)
    @given(unique_event_goals(max_events=4))
    def test_viable_events_matches_exhaustive_traces(self, goal):
        # An event is viable iff some complete trace from here avoids the
        # avoided set; check against the enumerable ground truth.
        import itertools

        events = sorted(event_names(goal))
        s = Scheduler(goal)
        for avoid_pair in itertools.chain([()], itertools.combinations(events, 1)):
            avoid = frozenset(avoid_pair)
            expected = {
                t[0] for t in traces(goal) if t and not (set(t) & avoid)
            }
            assert s.viable_events(avoid) == expected


class TestRun:
    def test_default_strategy_is_lexicographic(self):
        assert Scheduler(B | A | C).run() == ("a", "b", "c")

    def test_custom_strategy(self):
        schedule = Scheduler(B | A | C).run(strategy=max)
        assert schedule == ("c", "b", "a")

    def test_tokens_enforced_during_run(self):
        compiled = compile_workflow(A | B, [order("b", "a")])
        assert compiled.scheduler().run() == ("b", "a")


class TestEnumeration:
    def test_enumerates_all_traces(self):
        goal = (A | B) >> (C + D)
        got = set(Scheduler(goal).enumerate_schedules())
        assert got == set(traces(goal))

    def test_enumeration_respects_limit(self):
        from repro.ctr.traces import TooManyTracesError

        goal = A | B | C | D
        with pytest.raises(TooManyTracesError):
            list(Scheduler(goal).enumerate_schedules(limit=3))

    @settings(max_examples=60, deadline=None)
    @given(unique_event_goals(max_events=4))
    def test_scheduler_sound_and_complete(self, goal):
        got = set(Scheduler(goal).enumerate_schedules())
        assert got == set(traces(goal))


class TestLiveConditionsAcrossQueries:
    """With a live ``test_hook`` no derived step outlives the query that
    derived it: a condition flipping between two queries is seen by the
    second, whichever queries they are."""

    def _gate(self):
        ready = {"flag": False}
        goal = seq(A, Test("ready"), B + seq(C, Test("ready")))
        return Scheduler(goal, test_hook=lambda test: ready["flag"]), ready

    def test_eligible_then_eligible(self):
        s, ready = self._gate()
        s.fire("a")
        assert s.eligible() == frozenset()
        ready["flag"] = True
        assert s.eligible() == {"b", "c"}
        ready["flag"] = False
        assert s.eligible() == frozenset()

    def test_eligible_then_can_finish(self):
        s, ready = self._gate()
        s.fire("a")
        ready["flag"] = True
        assert s.eligible() == {"b", "c"}
        s.fire("c")
        ready["flag"] = False
        assert s.eligible() == frozenset()
        assert not s.can_finish()
        ready["flag"] = True
        assert s.can_finish()
        assert s.run() == ("a", "c")

    def test_viability_and_enumeration(self):
        s, ready = self._gate()
        s.fire("a")
        assert not s.viable()
        assert list(s.enumerate_schedules()) == []
        ready["flag"] = True
        assert s.viable()
        assert s.viable_events(frozenset({"b"})) == {"c"}
        assert list(s.enumerate_schedules()) == [("a", "b"), ("a", "c")]


class TestBoundedCaches:
    """Clearing the successor and steps tables on overflow changes no
    answer, only how much is recomputed."""

    def _both(self, monkeypatch, query):
        expected = query()
        monkeypatch.setattr(scheduler_module, "_SUCC_CACHE_MAX", 3)
        assert query() == expected
        return expected

    def test_long_run(self, monkeypatch):
        compiled = compile_workflow(
            serial_chain(300), [order("e10", "e200"), order("e5", "e290")]
        )

        def run():
            scheduler = compiled.scheduler()
            return scheduler.run(), scheduler.stats

        schedule, _stats = self._both(monkeypatch, run)
        assert len(schedule) == 300

    def test_full_enumeration(self, monkeypatch):
        goal = (A | B | (C >> D)) + (D >> (A | B))
        compiled = compile_workflow(goal, [order("a", "b")])
        schedules = self._both(
            monkeypatch, lambda: list(compiled.schedules())
        )
        assert schedules == sorted(
            t for t in traces(goal) if t.index("a") < t.index("b")
        )


class TestLongWorkflows:
    def test_schedules_of_a_1500_event_serial_workflow(self):
        # Enumeration walks an explicit stack: one frame per event would
        # exceed the interpreter's recursion limit here.
        compiled = compile_workflow(serial_chain(1500), [])
        expected = tuple(f"e{i}" for i in range(1, 1501))
        assert list(compiled.schedules(limit=2)) == [expected]


class TestCompiledNeverStuck:
    """On an excised goal, the scheduler can always finish what it starts."""

    @settings(max_examples=50, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_greedy_run_completes(self, goal, data):
        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        constraint = data.draw(constraints_over(events))
        compiled = compile_workflow(goal, [constraint])
        if not compiled.consistent:
            return
        schedule = compiled.scheduler().run()
        assert schedule in traces(goal)
        assert satisfies(schedule, constraint)

    def test_every_eligible_event_lies_on_an_allowed_execution(self):
        # Section 4's pro-active guarantee, at every reachable state of a
        # seeded corpus with ⊙ blocks and ◇ tests: what the scheduler
        # offers is exactly what can still complete.
        consistent = violations = 0
        for seed in range(1000):
            compiled = compile_workflow(*isolation_spec(seed))
            if compiled.consistent:
                consistent += 1
                violations += dead_end_states(compiled.scheduler())[1]
        assert consistent > 400
        assert violations == 0

