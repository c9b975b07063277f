"""Tests for the synthetic workload generators."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.constraints.algebra import Constraint, constraint_events
from repro.ctr.formulas import Isolated, Possibility, Test, event_names, goal_size, walk_unique
from repro.ctr.pretty import pretty
from repro.ctr.unique import is_unique_event_goal
from repro.graph.generators import (
    or_tree,
    parallel_chains,
    random_constraints,
    random_goal,
    serial_chain,
)


class TestStructuredFamilies:
    def test_serial_chain(self):
        goal = serial_chain(4)
        assert goal_size(goal) == 5
        assert event_names(goal) == frozenset({"e1", "e2", "e3", "e4"})

    def test_serial_chain_of_one(self):
        assert goal_size(serial_chain(1)) == 1

    def test_parallel_chains(self):
        goal = parallel_chains(3, 2)
        assert len(event_names(goal)) == 6
        assert is_unique_event_goal(goal)

    def test_or_tree(self):
        goal = or_tree(3)
        assert len(event_names(goal)) == 8

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            serial_chain(0)
        with pytest.raises(ValueError):
            parallel_chains(0, 3)


class TestRandomGoal:
    @given(st.integers(1, 12), st.integers(0, 2**31))
    def test_unique_event_by_construction(self, n, seed):
        goal = random_goal(n, seed=seed)
        assert is_unique_event_goal(goal)
        assert len(event_names(goal)) == n

    def test_seed_reproducibility(self):
        assert random_goal(8, seed=11) == random_goal(8, seed=11)

    def test_different_seeds_differ(self):
        goals = {random_goal(8, seed=s) for s in range(10)}
        assert len(goals) > 1

    def test_default_goals_are_unchanged(self):
        # Drawn before the ⊙/◇/condition knobs existed: at probability 0
        # they draw no random number.
        assert pretty(random_goal(8, seed=11)) == "e5 | e4 | e3 + e7 * e8 + e6 + e2 + e1"
        assert pretty(random_goal(12, seed=7)) == (
            "(e12 | e5) * (e9 + e4) | e7 + e11 + e8 + e1 + e10 + e3 * (e2 | e6)")
        rng = random.Random(4)
        random_goal(9, rng=rng)
        assert rng.random() == 0.4310430172933071

    @given(st.integers(1, 8), st.integers(0, 2**31))
    def test_isolation_possibility_and_conditions(self, n, seed):
        goal = random_goal(n, seed=seed, p_isolated=0.5, p_possible=0.5, p_condition=0.5)
        assert is_unique_event_goal(goal)
        assert len(event_names(goal)) == n

    def test_decorations_are_drawn(self):
        goal = random_goal(6, seed=1, p_isolated=1.0, p_possible=1.0, p_condition=1.0)
        kinds = {type(node) for node in walk_unique(goal)}
        assert {Isolated, Possibility, Test} <= kinds
        assert all(node.predicate is None for node in walk_unique(goal)
                   if isinstance(node, Test))


class TestRandomConstraints:
    @given(st.integers(0, 2**31), st.integers(1, 6))
    def test_constraints_use_goal_vocabulary(self, seed, count):
        events = [f"e{i}" for i in range(1, 6)]
        constraints = random_constraints(events, count, seed=seed)
        assert len(constraints) == count
        for c in constraints:
            assert isinstance(c, Constraint)
            assert constraint_events(c) <= set(events)

    def test_needs_two_events(self):
        with pytest.raises(ValueError):
            random_constraints(["only"], 1, seed=0)

    def test_seed_reproducibility(self):
        events = [f"e{i}" for i in range(1, 6)]
        assert random_constraints(events, 5, seed=3) == random_constraints(
            events, 5, seed=3
        )
