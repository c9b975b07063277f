"""Tests for sub-workflow-scoped compilation (Section 7)."""

import pytest

from repro.constraints.algebra import absent, disj, must, order
from repro.constraints.satisfy import satisfies
from repro.core.compiler import compile_workflow
from repro.core.modular import compile_modular
from repro.ctr.formulas import Atom, atoms, goal_size
from repro.ctr.machine import machine_traces
from repro.ctr.rules import Rule, RuleBase
from repro.errors import ConstraintError, InconsistentWorkflowError

A, B, C, D, E, F = atoms("a b c d e f")


def simple_rules():
    return RuleBase(
        [
            Rule("left", A + B),
            Rule("right", C + D),
        ]
    )


class TestEquivalence:
    def test_matches_monolithic_compilation(self):
        rules = simple_rules()
        goal = Atom("left") >> Atom("right")
        scoped = {"left": [must("a")], "right": [absent("c")]}
        modular = compile_modular(goal, rules, scoped)
        monolithic = compile_workflow(
            goal, [must("a"), absent("c")], rules=rules
        )
        assert machine_traces(modular.goal) == machine_traces(monolithic.goal)

    def test_top_level_constraints_apply_after(self):
        rules = simple_rules()
        goal = Atom("left") | Atom("right")
        modular = compile_modular(
            goal, rules, {"left": [must("a")]}, top_level=[order("a", "c")]
        )
        got = machine_traces(modular.goal)
        want = {
            t
            for t in machine_traces(rules.expand(goal))
            if satisfies(t, must("a")) and satisfies(t, order("a", "c"))
        }
        assert got == want

    def test_nested_subworkflows_keep_child_compilation(self):
        rules = RuleBase(
            [
                Rule("inner", A + B),
                Rule("outer", Atom("inner") >> C),
            ]
        )
        goal = Atom("outer") >> D
        modular = compile_modular(goal, rules, {"inner": [absent("a")]})
        assert machine_traces(modular.goal) == {("b", "c", "d")}


class TestScoping:
    def test_out_of_scope_constraint_rejected(self):
        rules = simple_rules()
        with pytest.raises(ConstraintError) as info:
            compile_modular(Atom("left"), rules, {"left": [must("c")]})
        assert "c" in str(info.value)

    def test_unknown_scope_rejected(self):
        rules = simple_rules()
        with pytest.raises(ConstraintError):
            compile_modular(Atom("left"), rules, {"nonexistent": [must("a")]})

    def test_inconsistent_scope_reported_with_name(self):
        rules = simple_rules()
        with pytest.raises(InconsistentWorkflowError) as info:
            compile_modular(
                Atom("left"), rules, {"left": [must("a"), must("b")]}
            )
        assert "left" in str(info.value)

    def test_empty_scope_key_means_top_level(self):
        rules = simple_rules()
        goal = Atom("left")
        modular = compile_modular(goal, rules, {"": [absent("b")]})
        assert machine_traces(modular.goal) == {("a",)}


class TestSizeReduction:
    """The Section 7 claim: scoped compilation confines the d^N blow-up."""

    @staticmethod
    def _workload(n_subs: int):
        rules = RuleBase()
        goal_parts = []
        scoped = {}
        flat_constraints = []
        for i in range(n_subs):
            x, y = Atom(f"x{i}"), Atom(f"y{i}")
            head = f"sub{i}"
            rules.add(Rule(head, x | y))
            goal_parts.append(Atom(head))
            constraint = disj(order(f"x{i}", f"y{i}"), order(f"y{i}", f"x{i}"))
            scoped[head] = [constraint]
            flat_constraints.append(constraint)
        from repro.ctr.formulas import seq

        return seq(*goal_parts), rules, scoped, flat_constraints

    def test_modular_is_smaller_and_equivalent(self):
        goal, rules, scoped, flat = self._workload(4)
        modular = compile_modular(goal, rules, scoped)
        monolithic = compile_workflow(goal, flat, rules=rules)
        assert machine_traces(modular.goal) == machine_traces(monolithic.goal)
        # Monolithic pays d^N across scopes; modular pays d per scope.
        assert goal_size(modular.goal) < goal_size(monolithic.goal)

    def test_blowup_ratio_grows_with_scopes(self):
        ratios = []
        for n in (2, 4):
            goal, rules, scoped, flat = self._workload(n)
            modular = compile_modular(goal, rules, scoped)
            monolithic = compile_workflow(goal, flat, rules=rules)
            ratios.append(goal_size(monolithic.goal) / goal_size(modular.goal))
        assert ratios[1] > ratios[0] > 1.0
