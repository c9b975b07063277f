"""Property tests for the run-time engine over random specifications."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.satisfy import satisfies
from repro.core.compiler import compile_workflow
from repro.core.engine import WorkflowEngine, random_strategy
from repro.core.resilience import ChaosOracle
from repro.ctr.formulas import event_names
from repro.ctr.machine import machine_traces
from repro.db.oracle import TransitionOracle, insert_op
from repro.db.state import Database
from repro.errors import ExecutionError
from tests.conftest import constraints_over, unique_event_goals


def build_oracle(events):
    oracle = TransitionOracle()
    for event in events:
        oracle.register(event, insert_op("happened", event))
    return oracle


class TestEngineProperties:
    @settings(max_examples=50, deadline=None)
    @given(unique_event_goals(max_events=5), st.data())
    def test_random_runs_are_legal_and_logged(self, goal, data):
        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        constraint = data.draw(constraints_over(events))
        compiled = compile_workflow(goal, [constraint])
        if not compiled.consistent:
            return
        seed = data.draw(st.integers(0, 2**16))
        db = Database()
        engine = WorkflowEngine(
            compiled,
            oracle=build_oracle(events),
            db=db,
            strategy=random_strategy(seed=seed),
        )
        report = engine.run()

        # The schedule is a legal execution of the source that satisfies
        # the constraint.
        assert report.schedule in machine_traces(goal)
        assert satisfies(report.schedule, constraint)

        # The log replays the schedule, and every fired event left its
        # mark in the database.
        assert db.log.events() == report.schedule
        for event in report.schedule:
            assert db.contains("happened", event)

    @settings(max_examples=30, deadline=None)
    @given(unique_event_goals(max_events=4), st.integers(0, 2**16))
    def test_different_seeds_stay_legal(self, goal, seed):
        compiled = compile_workflow(goal)
        engine = WorkflowEngine(compiled, strategy=random_strategy(seed=seed))
        report = engine.run()
        assert report.completed
        assert report.schedule in machine_traces(goal)


class TestFaultInjectionProperties:
    """For a fault at *every* schedule position, a run either reroutes to a
    legal, constraint-satisfying completion or aborts atomically."""

    @settings(max_examples=40, deadline=None)
    @given(unique_event_goals(max_events=5), st.data())
    def test_every_fault_position_is_survived_or_atomic(self, goal, data):
        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        constraint = data.draw(constraints_over(events))
        compiled = compile_workflow(goal, [constraint])
        if not compiled.consistent:
            return
        baseline = WorkflowEngine(compiled, oracle=build_oracle(events)).run()
        for index in range(len(baseline.schedule)):
            db = Database()
            db.insert("pre", "existing")
            pristine = db.snapshot()
            chaos = ChaosOracle(build_oracle(events)).fail_at(index)
            engine = WorkflowEngine(compiled, oracle=chaos, db=db)
            try:
                report = engine.run()
            except ExecutionError:
                # No alternative branch: failure atomicity — the database,
                # including its log, is exactly the pre-run state.
                assert db.snapshot() == pristine
            else:
                # A ∨-alternative existed: the rerouted completion is still
                # a legal execution satisfying the constraint.
                assert report.completed
                assert report.schedule in machine_traces(goal)
                assert satisfies(report.schedule, constraint)
                assert report.reroutes
                assert db.log.events() == report.schedule
