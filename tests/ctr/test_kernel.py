"""Differential tests for the flat kernel and the scheduler built on it.

Every query the kernel answers — traces, executability, counting, and,
through :class:`~repro.core.scheduler.Scheduler`, eligible sets, runs,
schedule enumeration, viability and verification witnesses — is checked
against the oracle, the step semantics of :class:`~repro.ctr.machine.Machine`,
over randomly generated goals, constraint sets and transition conditions,
and over seeded goals of shapes Apply never builds (tokens reused and
inside ``◇`` bodies, :mod:`tests.proactive`).
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.constraints.algebra import must, order
from repro.constraints.satisfy import satisfies
from repro.core import parallel
from repro.core.compiler import compile_workflow
from repro.core.scheduler import Scheduler, seeded_strategy
from repro.core.verify import verify_properties, verify_property
from repro.ctr.formulas import (
    PATH,
    Atom,
    Choice,
    Concurrent,
    Isolated,
    Serial,
    Test,
    alt,
    atoms,
    event_names,
    par,
    seq,
)
from repro.ctr.kernel import lower_goal
from repro.ctr.machine import Machine, can_complete, machine_traces
from repro.errors import (
    IneligibleEventError,
    SchedulingError,
    SpecificationError,
    TooManyTracesError,
)
from tests.conftest import constraints_over, unique_event_goals
from tests.proactive import kernel_divergences, with_tokens

A, B, C = atoms("a b c")

MAX = 20_000


def _crash_worker(*argv, **kw):  # pragma: no cover - runs in the worker
    import os

    os._exit(1)


def _oracle_traces(goal):
    try:
        return machine_traces(goal, MAX)
    except TooManyTracesError:
        assume(False)


# -- the Machine subset construction (what the scheduler must agree with) -----


def _machine_eligible(machine, configs) -> frozenset[str]:
    events: set[str] = set()
    for config in configs:
        events.update(machine.successors(config))
    return frozenset(events)


def _machine_fire(machine, configs, event):
    return frozenset(
        target
        for config in configs
        for target in machine.successors(config).get(event, ())
    )


def _machine_run(goal, pick=min) -> tuple[str, ...]:
    machine = Machine(goal)
    configs = frozenset((machine.initial(),))
    history: list[str] = []
    while True:
        events = _machine_eligible(machine, configs)
        if not events:
            if any(machine.is_final(c) for c in configs):
                return tuple(history)
            raise SchedulingError("stuck")
        event = pick(events)
        configs = _machine_fire(machine, configs, event)
        history.append(event)


def _guarded(goal, names):
    """``goal`` with every atom in ``names`` preceded by a condition."""
    if isinstance(goal, Atom):
        return seq(Test(f"t_{goal.name}"), goal) if goal.name in names else goal
    if isinstance(goal, Serial):
        return seq(*(_guarded(p, names) for p in goal.parts))
    if isinstance(goal, Concurrent):
        return par(*(_guarded(p, names) for p in goal.parts))
    if isinstance(goal, Choice):
        return alt(*(_guarded(p, names) for p in goal.parts))
    if isinstance(goal, Isolated):
        return Isolated(_guarded(goal.body, names))
    return goal


class TestLowering:
    def test_path_rejected(self):
        with pytest.raises(SpecificationError):
            lower_goal(A >> PATH)

    def test_conditions_are_kept(self):
        guard = Test("ready")
        program = lower_goal(seq(A, guard, B))
        assert program.tests == (guard,)


class TestDifferentialQueries:
    @settings(max_examples=60, deadline=None)
    @given(unique_event_goals(max_events=4))
    def test_traces_identical(self, goal):
        expected = _oracle_traces(goal)
        assert lower_goal(goal).traces(max_traces=MAX) == expected

    @settings(max_examples=60, deadline=None)
    @given(unique_event_goals(max_events=4))
    def test_is_executable_identical(self, goal):
        assert lower_goal(goal).is_executable() == can_complete(goal)

    @settings(max_examples=60, deadline=None)
    @given(unique_event_goals(max_events=4))
    def test_count_traces_identical(self, goal):
        expected = _oracle_traces(goal)
        actual = lower_goal(goal).count_traces(max_traces=MAX)
        assume(actual.exact)
        assert int(actual) == len(expected)

    def test_count_saturates(self):
        program = lower_goal((A | B) >> C)
        full = program.count_traces()
        assert full.exact and int(full) == 2
        # Saturated counts are lower bounds that depend on the search
        # order; only the *exact* counts are bit-identical.
        capped = program.count_traces(max_traces=1)
        assert not capped.exact
        assert int(capped) <= int(full)


class TestShapesApplyNeverBuilds:
    """Choice-free goals with ``⊙`` blocks, ``◇`` tests and ``t1``/``t2``
    tokens, reused and (``into_tests``) inside ``◇`` bodies: the shapes
    where Excise's defects hid. K5 (``benchmarks/bench_kernel.py``) runs
    seeds 0–2,999 of both generators."""

    @pytest.mark.parametrize("into_tests", [False, True])
    def test_kernel_equals_the_machine(self, into_tests):
        diverging = {}
        for seed in range(80):
            wrong = kernel_divergences(with_tokens(seed, into_tests))
            if wrong:
                diverging[seed] = wrong
        assert diverging == {}


class TestDifferentialScheduling:
    @settings(max_examples=60, deadline=None)
    @given(unique_event_goals(max_events=4))
    def test_eligible_and_run(self, goal):
        machine = Machine(goal)
        initial = frozenset((machine.initial(),))
        scheduler = Scheduler(goal)
        assert scheduler.eligible() == _machine_eligible(machine, initial)
        assert scheduler.can_finish() == any(
            machine.is_final(c) for c in initial
        )
        try:
            expected = _machine_run(goal)
        except SchedulingError:
            with pytest.raises(SchedulingError):
                scheduler.run()
            return
        assert scheduler.run() == expected
        assert expected in _oracle_traces(goal)

    @settings(max_examples=40, deadline=None)
    @given(unique_event_goals(max_events=4), st.integers(0, 2**16))
    def test_seeded_run_identical(self, goal, seed):
        try:
            expected = _machine_run(goal, seeded_strategy(seed))
        except SchedulingError:
            assume(False)
        assert Scheduler(goal).run(strategy=seeded_strategy(seed)) == expected

    @settings(max_examples=40, deadline=None)
    @given(unique_event_goals(max_events=4))
    def test_enumerate_schedules_in_order(self, goal):
        # Depth-first in sorted event order is lexicographic tuple order.
        expected = sorted(_oracle_traces(goal))
        assert list(Scheduler(goal).enumerate_schedules(limit=MAX)) == expected

    @settings(max_examples=40, deadline=None)
    @given(unique_event_goals(max_events=4))
    def test_viable_events_identical(self, goal):
        scheduler = Scheduler(goal)
        full = _oracle_traces(goal)
        for avoid in (frozenset(), frozenset({"e1"}), frozenset({"e1", "e2"})):
            avoiding = [t for t in full if not set(t) & avoid]
            assert scheduler.viable(avoid) == bool(avoiding)
            assert scheduler.viable_events(avoid) == {t[0] for t in avoiding if t}

    def test_fire_rejects_ineligible(self):
        scheduler = Scheduler(A >> B)
        with pytest.raises(IneligibleEventError):
            scheduler.fire("b")
        scheduler.fire("a")
        scheduler.fire("b")
        assert scheduler.finished
        assert scheduler.history == ("a", "b")


def _compiled_goal(goal, data):
    """``goal`` compiled under one random constraint (so its states carry
    token masks), or ``None`` when that specification is inconsistent."""
    events = tuple(sorted(event_names(goal)))
    if len(events) < 2:
        events += ("e_other",)
    compiled = compile_workflow(goal, [data.draw(constraints_over(events))])
    return compiled.goal if compiled.consistent else None


class TestStepsTable:
    """One steps table shared across a whole walk is a memo, nothing more."""

    @settings(max_examples=60, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_shared_table_equals_fresh_derivation(self, goal, data):
        names = sorted(event_names(goal))
        guards = data.draw(st.sets(st.sampled_from(names)))
        passing = data.draw(st.sets(st.sampled_from(names)))

        def hook(test):
            return test.name[len("t_"):] in passing

        walks = [(goal, None), (_guarded(goal, guards), hook)]
        compiled = _compiled_goal(goal, data)
        if compiled is not None:
            walks.append((compiled, None))
        for walked, test in walks:
            program = lower_goal(walked)
            table: dict = {}
            seen = {program.initial()}
            stack = list(seen)
            while stack:
                state = stack.pop()
                successors = program.successors(state, test, table)
                assert successors == program.successors(state, test)
                assert program.is_final(state, test, table) == \
                    program.is_final(state, test)
                for targets in successors.values():
                    fresh = targets - seen
                    seen |= fresh
                    stack.extend(fresh)

    @settings(max_examples=40, deadline=None)
    @given(unique_event_goals(min_events=2, max_events=4), st.data())
    def test_token_bearing_queries_equal_the_oracle(self, goal, data):
        compiled = _compiled_goal(goal, data)
        assume(compiled is not None)
        expected = _oracle_traces(compiled)
        program = lower_goal(compiled)
        assert program.traces(max_traces=MAX) == expected
        assert program.is_executable() == bool(expected)
        count = program.count_traces(max_traces=MAX)
        assert count.exact and int(count) == len(expected)
        assert list(Scheduler(compiled).enumerate_schedules(limit=MAX)) == \
            sorted(expected)
        assert Scheduler(compiled).run() == _machine_run(compiled)


class TestLiveConditions:
    @settings(max_examples=60, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_eligible_sets_match_machine_while_predicates_flip(self, goal, data):
        names = sorted(event_names(goal))
        guarded = _guarded(goal, data.draw(st.sets(st.sampled_from(names))))
        conditions = [f"t_{name}" for name in names]
        passing: set[str] = set()

        def hook(test):
            return test.name in passing

        scheduler = Scheduler(guarded, test_hook=hook)
        machine = Machine(guarded, test_hook=hook)
        configs = frozenset((machine.initial(),))
        for _ in range(len(names) + 1):
            passing.clear()
            passing.update(data.draw(st.sets(st.sampled_from(conditions))))
            eligible = scheduler.eligible()
            assert eligible == _machine_eligible(machine, configs)
            assert scheduler.can_finish() == any(
                machine.is_final(c) for c in configs
            )
            if not eligible:
                break
            event = data.draw(st.sampled_from(sorted(eligible)))
            scheduler.fire(event)
            configs = _machine_fire(machine, configs, event)

    def test_condition_blocks_until_it_holds(self):
        ready = {"flag": False}
        goal = seq(A, Test("ready"), B)
        scheduler = Scheduler(goal, test_hook=lambda test: ready["flag"])
        scheduler.fire("a")
        assert scheduler.eligible() == frozenset()
        ready["flag"] = True
        assert scheduler.eligible() == {"b"}


class TestDifferentialVerification:
    @settings(max_examples=25, deadline=None)
    @given(unique_event_goals(min_events=2, max_events=4), st.data())
    def test_witness_is_a_violating_trace(self, goal, data):
        events = tuple(sorted(event_names(goal)))
        assume(len(events) >= 2)
        constraints = [data.draw(constraints_over(events))]
        prop = data.draw(constraints_over(events))
        legal = [t for t in _oracle_traces(goal)
                 if all(satisfies(t, c) for c in constraints)]
        result = verify_property(goal, constraints, prop)
        assert result.holds == all(satisfies(t, prop) for t in legal)
        if not result.holds:
            assert result.witness in legal
            assert not satisfies(result.witness, prop)

    def test_verify_properties_jobs2_identical(self):
        goal = (A | B) >> C
        constraints = [order("a", "b")]
        props = [must("c"), order("b", "a"), must("z"), order("a", "c")]
        sequential = verify_properties(goal, constraints, props, jobs=1)
        fanned = verify_properties(goal, constraints, props, jobs=2)
        assert fanned == sequential

    def test_worker_crash_falls_back_to_sequential(self, monkeypatch):
        # Every submitted task kills its worker; the BrokenProcessPool
        # fallback must still answer, sequentially.
        parallel.shutdown_pool(wait_for_workers=False)
        monkeypatch.setattr(parallel, "_timed", _crash_worker)
        goal = (A | B) >> C
        try:
            results = verify_properties(goal, [], [must("c"), must("z")],
                                        jobs=2)
        finally:
            parallel.shutdown_pool(wait_for_workers=False)
        assert [r.holds for r in results] == [True, False]
