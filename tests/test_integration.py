"""Cross-module integration tests: the grand agreement properties.

Four independent implementations must agree on every specification:

1. the Apply/Excise compiler + pro-active scheduler (the paper's system);
2. the step machine's traces filtered by constraint satisfaction
   (the oracle);
3. the passive baseline (generate-and-test + per-event validation);
4. the explicit-state model checker over constraint automata.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ControlFlowGraph,
    Database,
    WorkflowEngine,
    atoms,
    compile_workflow,
    event_names,
    is_consistent,
    order,
    satisfies,
    to_goal,
    verify_property,
)
from repro.baselines.modelcheck import model_check_consistency
from repro.baselines.passive import generate_and_test_consistency, validate_sequence
from repro.ctr.machine import machine_traces
from tests.conftest import constraints_over, unique_event_goals


class TestFourWayAgreement:
    @settings(max_examples=50, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_consistency_agreement(self, goal, data):
        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        constraints = [data.draw(constraints_over(events))]

        oracle = any(
            all(satisfies(t, c) for c in constraints) for t in machine_traces(goal)
        )
        compiled = compile_workflow(goal, constraints)
        passive = generate_and_test_consistency(goal, constraints) is not None
        model_checked = model_check_consistency(goal, constraints).holds

        assert compiled.consistent == oracle
        assert passive == oracle
        assert model_checked == oracle

    @settings(max_examples=40, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_every_compiled_schedule_validates_passively(self, goal, data):
        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        constraints = [data.draw(constraints_over(events))]
        compiled = compile_workflow(goal, constraints)
        if not compiled.consistent:
            return
        for schedule in compiled.schedules(limit=5_000):
            assert validate_sequence(schedule, constraints)
            assert schedule in machine_traces(goal)


class TestEndToEndPipeline:
    def test_graph_to_execution(self):
        """CFG → goal → compile → schedule → execute, in one flow."""
        g = ControlFlowGraph()
        g.add_arc("receive_order", "check_credit")
        g.add_arc("receive_order", "check_stock")
        g.add_arc("check_credit", "approve")
        g.add_arc("check_stock", "approve")

        goal = to_goal(g)
        constraints = [order("check_credit", "check_stock")]
        compiled = compile_workflow(goal, constraints)
        assert compiled.consistent

        engine = WorkflowEngine(compiled, db=Database())
        report = engine.run()
        assert report.schedule == (
            "receive_order",
            "check_credit",
            "check_stock",
            "approve",
        )
        assert report.database.log.events() == report.schedule

    def test_verification_pipeline(self):
        a, b, c = atoms("a b c")
        goal = a >> (b | c)
        result = verify_property(goal, [order("b", "c")], order("a", "c"))
        assert result.holds
        assert is_consistent(goal, [order("b", "c")])

    def test_inconsistent_graph_reported_before_runtime(self):
        a, b = atoms("a b")
        compiled = compile_workflow(a >> b, [order("b", "a")])
        assert not compiled.consistent
        assert list(compiled.schedules()) == []
