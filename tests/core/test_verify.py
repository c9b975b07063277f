"""Tests for consistency, verification, and redundancy (Theorems 5.8-5.10)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.algebra import absent, disj, must, order
from repro.constraints.klein import causes, klein_order
from repro.constraints.satisfy import satisfies
from repro.core.verify import (
    is_consistent,
    is_redundant,
    redundant_constraints,
    verify_property,
)
from repro.ctr.formulas import PATH, atoms, event_names
from repro.ctr.machine import machine_traces
from repro.errors import SpecificationError
from tests.conftest import constraints_over, unique_event_goals

A, B, C, D = atoms("a b c d")


class TestConsistency:
    def test_consistent(self):
        assert is_consistent((A | B) >> C, [order("a", "b")])

    def test_inconsistent_order_cycle(self):
        assert not is_consistent(A | B, [order("a", "b"), order("b", "a")])

    def test_inconsistent_missing_event(self):
        assert not is_consistent(A >> B, [must("z")])

    def test_unconstrained_always_consistent(self):
        assert is_consistent(A >> B)

    @settings(max_examples=60, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_matches_brute_force(self, goal, data):
        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        constraint = data.draw(constraints_over(events))
        brute = any(satisfies(t, constraint) for t in machine_traces(goal))
        assert is_consistent(goal, [constraint]) == brute


class TestPathInAGoal:
    def test_consistency_refuses_path(self):
        with pytest.raises(SpecificationError, match="not goals"):
            is_consistent(A >> PATH, [order("a", "b")])

    def test_failing_verification_refuses_path(self):
        with pytest.raises(SpecificationError, match="not goals"):
            verify_property(A | PATH, [], must("b"))


class TestVerification:
    def test_property_holds(self):
        # With a ⊗ b serial, "a before b" always holds.
        result = verify_property(A >> B, [], order("a", "b"))
        assert result.holds
        assert result.counterexample is None
        assert bool(result)

    def test_property_fails_with_witness(self):
        result = verify_property(A | B, [], order("a", "b"))
        assert not result.holds
        assert result.witness is not None
        # The witness is a real execution of the workflow violating Φ.
        assert result.witness in machine_traces(A | B)
        assert not satisfies(result.witness, order("a", "b"))

    def test_counterexample_is_most_general(self):
        result = verify_property(A | B | C, [], klein_order("a", "b"))
        assert not result.holds
        # Exactly the executions violating Φ survive in the counterexample.
        violating = {
            t for t in machine_traces(A | B | C) if not satisfies(t, klein_order("a", "b"))
        }
        assert machine_traces(result.counterexample) == violating

    def test_constraints_narrow_the_executions(self):
        # Unconstrained, "c last" fails; constraining b before c first makes
        # a ⊗ (b|c) satisfy "b before c" always? No - but adding the order
        # constraint itself makes the property trivially hold.
        goal = A >> (B | C)
        assert not verify_property(goal, [], order("b", "c")).holds
        assert verify_property(goal, [order("b", "c")], order("b", "c")).holds

    @settings(max_examples=50, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_matches_brute_force(self, goal, data):
        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        background = data.draw(constraints_over(events))
        prop = data.draw(constraints_over(events))
        legal = [t for t in machine_traces(goal) if satisfies(t, background)]
        brute = all(satisfies(t, prop) for t in legal)
        result = verify_property(goal, [background], prop)
        assert result.holds == brute
        if not result.holds:
            assert result.witness in set(legal)
            assert not satisfies(result.witness, prop)


class TestRedundancy:
    def test_implied_constraint_is_redundant(self):
        goal = (A | B) >> C
        constraints = [order("a", "b"), klein_order("a", "b")]
        # Klein's order is implied by the stronger order constraint.
        assert is_redundant(goal, constraints, klein_order("a", "b"))

    def test_independent_constraint_is_not_redundant(self):
        goal = A | B | C
        constraints = [order("a", "b"), causes("b", "c")]
        assert not is_redundant(goal, constraints, causes("b", "c"))

    def test_structurally_implied_constraint(self):
        # The graph itself forces a before b: any constraint saying so is
        # redundant.
        goal = A >> B
        constraints = [klein_order("a", "b"), absent("z")]
        assert is_redundant(goal, constraints, klein_order("a", "b"))

    def test_phi_must_be_member(self):
        with pytest.raises(ValueError):
            is_redundant(A >> B, [must("a")], must("b"))

    def test_redundant_constraints_listing(self):
        goal = A >> B
        constraints = [klein_order("a", "b"), must("a")]
        redundant = redundant_constraints(goal, constraints)
        # Both hold structurally: each is implied even without the other.
        assert klein_order("a", "b") in redundant
        assert must("a") in redundant


class TestRedundancyDuplicates:
    def test_duplicate_occurrence_is_redundant(self):
        # With hash-consing the two ∇a literals are the same object; removing
        # *every* occurrence used to leave nothing behind, so the duplicate
        # was wrongly reported as non-redundant. One copy must remain.
        goal = A >> B
        constraints = [must("a"), must("a")]
        assert is_redundant(goal, constraints, must("a"))

    def test_duplicate_listing_reports_both_occurrences(self):
        goal = A >> B
        constraints = [causes("a", "b"), causes("a", "b")]
        assert redundant_constraints(goal, constraints) == constraints

    def test_single_occurrence_still_uses_the_rest(self):
        # Sanity check the fix removes exactly one: with a lone non-implied
        # constraint the answer stays False.
        goal = A | B | C
        constraints = [order("a", "b"), causes("b", "c")]
        assert not is_redundant(goal, constraints, causes("b", "c"))


class TestWitnessSeed:
    def test_seeded_witness_is_stable_and_violating(self):
        goal = (A | B) >> C
        prop = order("c", "a")
        first = verify_property(goal, [], prop, seed=42)
        second = verify_property(goal, [], prop, seed=42)
        assert not first.holds
        assert first.witness == second.witness
        assert first.witness in machine_traces(goal)
        assert not satisfies(first.witness, prop)

    def test_different_seeds_may_differ_but_all_violate(self):
        goal = (A | B | C) >> D
        prop = must("z")
        for seed in range(5):
            result = verify_property(goal, [], prop, seed=seed)
            assert not result.holds
            assert result.witness in machine_traces(goal)
