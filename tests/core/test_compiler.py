"""Tests for the end-to-end compilation pipeline."""

import pytest

from repro.constraints.algebra import must, order
from repro.core.compiler import compile_workflow
from repro.ctr.formulas import PATH, atoms
from repro.ctr.rules import Rule, RuleBase
from repro.errors import InconsistentWorkflowError, SpecificationError, UniqueEventError

A, B, C, D = atoms("a b c d")


class TestCompileWorkflow:
    def test_unconstrained(self):
        compiled = compile_workflow(A >> (B | C))
        assert compiled.consistent
        assert compiled.goal == A >> (B | C)

    def test_consistent_spec(self):
        compiled = compile_workflow((A | B) >> C, [order("a", "b")])
        assert compiled.consistent
        assert sorted(compiled.schedules()) == [("a", "b", "c")]

    def test_inconsistent_spec(self):
        compiled = compile_workflow(A >> B, [order("b", "a")])
        assert not compiled.consistent
        assert list(compiled.schedules()) == []

    def test_require_consistent_raises(self):
        compiled = compile_workflow(A >> B, [order("b", "a")])
        with pytest.raises(InconsistentWorkflowError):
            compiled.require_consistent()
        with pytest.raises(InconsistentWorkflowError):
            compiled.scheduler()

    def test_unique_event_violation_detected(self):
        with pytest.raises(UniqueEventError):
            compile_workflow(A >> A)

    def test_path_in_a_goal_is_a_specification_error(self):
        # `path` admits arbitrary executions: it belongs in constraints.
        with pytest.raises(SpecificationError, match="not goals"):
            compile_workflow(A >> PATH)

    def test_rules_are_expanded(self):
        rules = RuleBase([Rule("sub", B + C)])
        compiled = compile_workflow(A >> atoms("sub")[0], rules=rules)
        assert compiled.source == A >> (B + C)

    def test_rule_expansion_checked_for_uniqueness(self):
        rules = RuleBase([Rule("sub", A)])
        with pytest.raises(UniqueEventError):
            compile_workflow(A >> atoms("sub")[0], rules=rules)

    def test_sizes(self):
        compiled = compile_workflow((A | B) >> C, [order("a", "b")])
        assert compiled.applied_size >= compiled.compiled_size > 0

    def test_constraints_recorded(self):
        constraints = [order("a", "b"), must("c")]
        compiled = compile_workflow((A | B) >> C, constraints)
        assert compiled.constraints == tuple(constraints)

    def test_applied_kept_even_when_inconsistent(self):
        compiled = compile_workflow(A >> B, [order("b", "a")])
        # Apply's output (the knotted goal) is retained for inspection.
        assert compiled.applied_size > 0


class TestLoweredProgram:
    def test_schedulers_share_one_lowered_program(self):
        from repro.core.scheduler import Scheduler

        compiled = compile_workflow((A | B | (C + D)), [order("b", "a")])
        first, second = compiled.scheduler(), compiled.scheduler()
        assert first._program is second._program is compiled.program
        # Each scheduler keeps its own tables, so a new one starts cold.
        assert first._succ is not second._succ
        assert first._step_table is not second._step_table
        assert first.run() == Scheduler(compiled.goal).run()
        assert second.run(strategy=max) == \
            Scheduler(compiled.goal).run(strategy=max)
        assert list(compiled.schedules()) == \
            list(Scheduler(compiled.goal).enumerate_schedules())
        assert len(list(compiled.schedules())) > 1
