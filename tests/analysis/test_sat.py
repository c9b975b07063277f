"""Tests for the Proposition 4.1 SAT reduction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sat import (
    Cnf,
    assignment_from_schedule,
    brute_force_sat,
    cnf_to_workflow,
    random_cnf,
    workflow_consistency_sat,
)
from repro.constraints.algebra import Or, Primitive
from repro.core.compiler import compile_workflow
from repro.ctr.unique import is_unique_event_goal


class TestCnf:
    def test_evaluate(self):
        cnf = Cnf(2, ((1, -2), (2,)))
        assert cnf.evaluate({1: True, 2: True})
        assert not cnf.evaluate({1: False, 2: False})

    def test_literal_validation(self):
        with pytest.raises(ValueError):
            Cnf(1, ((2,),))
        with pytest.raises(ValueError):
            Cnf(1, ((0,),))

    def test_random_cnf_shape(self):
        cnf = random_cnf(5, 7, seed=1)
        assert cnf.n_vars == 5
        assert len(cnf.clauses) == 7
        assert all(len(c) == 3 for c in cnf.clauses)
        assert all(len({abs(l) for l in c}) == 3 for c in cnf.clauses)

    def test_random_cnf_needs_enough_vars(self):
        with pytest.raises(ValueError):
            random_cnf(2, 1, k=3)


class TestBruteForce:
    def test_satisfiable(self):
        cnf = Cnf(2, ((1, 2),))
        assignment = brute_force_sat(cnf)
        assert assignment is not None
        assert cnf.evaluate(assignment)

    def test_unsatisfiable(self):
        cnf = Cnf(1, ((1,), (-1,)))
        assert brute_force_sat(cnf) is None


class TestReduction:
    def test_goal_shape(self):
        cnf = Cnf(3, ((1, 2, 3),))
        goal, constraints = cnf_to_workflow(cnf)
        assert is_unique_event_goal(goal)
        assert len(constraints) == 1
        # Existence constraints only: disjunctions of positive primitives.
        for constraint in constraints:
            assert isinstance(constraint, Or)
            for leaf in constraint.parts:
                assert isinstance(leaf, Primitive) and leaf.positive

    def test_satisfiable_cnf_is_consistent(self):
        cnf = Cnf(2, ((1, 2), (-1, 2)))
        goal, constraints = cnf_to_workflow(cnf)
        assert compile_workflow(goal, constraints).consistent

    def test_unsatisfiable_cnf_is_inconsistent(self):
        cnf = Cnf(1, ((1,), (-1,)))
        goal, constraints = cnf_to_workflow(cnf)
        assert not compile_workflow(goal, constraints).consistent

    def test_extracted_assignment_satisfies(self):
        cnf = Cnf(3, ((1, -2, 3), (-1, 2, -3), (1, 2, 3)))
        assignment = workflow_consistency_sat(cnf)
        assert assignment is not None
        assert cnf.evaluate(assignment)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 5), st.integers(1, 8))
    def test_agrees_with_brute_force(self, seed, n_vars, n_clauses):
        cnf = random_cnf(n_vars, n_clauses, seed=seed)
        via_workflow = workflow_consistency_sat(cnf)
        via_brute = brute_force_sat(cnf)
        assert (via_workflow is not None) == (via_brute is not None)
        if via_workflow is not None:
            assert cnf.evaluate(via_workflow)


class TestEdgeCases:
    def test_no_variables(self):
        cnf = Cnf(0, ())
        assert brute_force_sat(cnf) == {}
        assert workflow_consistency_sat(cnf) == {}
        goal, _ = cnf_to_workflow(cnf)
        assert compile_workflow(goal, []).consistent

    @pytest.mark.parametrize("n_vars", [0, 2])
    def test_empty_clause_is_false(self, n_vars):
        cnf = Cnf(n_vars, ((1,), ()) if n_vars else ((),))
        assert brute_force_sat(cnf) is None
        goal, constraints = cnf_to_workflow(cnf)
        assert not compile_workflow(goal, constraints).consistent
        assert workflow_consistency_sat(cnf) is None


class TestAssignmentExtraction:
    def test_reads_polarities(self):
        schedule = ("x2_false", "x1_true")
        assignment = assignment_from_schedule(schedule, 3)
        assert assignment == {1: True, 2: False, 3: False}
