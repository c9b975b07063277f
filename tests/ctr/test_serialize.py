"""Tests for JSON serialization of goals, constraints, and rules."""

import json

import pytest
from hypothesis import given

from repro.constraints.algebra import conj, disj, must, order, serial
from repro.ctr.formulas import (
    EMPTY,
    NEG_PATH,
    PATH,
    Isolated,
    Possibility,
    Receive,
    Send,
    Test,
    atoms,
)
from repro.ctr.rules import Rule, RuleBase
from repro.ctr.serialize import (
    constraint_from_dict,
    constraint_to_dict,
    goal_from_dict,
    goal_from_shared_dict,
    goal_to_dict,
    goal_to_shared_dict,
    goals_from_shared_dict,
    goals_to_shared_dict,
    rules_from_dict,
    rules_to_dict,
    specification_from_dict,
    specification_to_dict,
)
from repro.errors import SpecificationError
from tests.conftest import constraints_over, unique_event_goals

A, B, C = atoms("a b c")


def json_round_trip(data):
    return json.loads(json.dumps(data))


class TestGoals:
    @given(unique_event_goals(max_events=6))
    def test_round_trip(self, goal):
        assert goal_from_dict(json_round_trip(goal_to_dict(goal))) == goal

    def test_special_nodes(self):
        goal = Isolated(A >> Send("t")) | (Receive("t") >> Possibility(B) >> Test("c"))
        assert goal_from_dict(goal_to_dict(goal)) == goal

    def test_sentinels(self):
        for sentinel in (EMPTY, PATH, NEG_PATH):
            assert goal_from_dict(goal_to_dict(sentinel)) == sentinel

    def test_test_predicate_dropped(self):
        goal = Test("cond", predicate=lambda db: True)
        loaded = goal_from_dict(goal_to_dict(goal))
        assert loaded == Test("cond")
        assert loaded.predicate is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecificationError):
            goal_from_dict({"kind": "quantum"})


class TestSharedEncoding:
    @given(unique_event_goals(max_events=6))
    def test_round_trip_is_canonical_identity(self, goal):
        # Not just equality: decoding re-interns, so the loaded goal IS
        # the canonical node for its structure.
        assert goal_from_shared_dict(json_round_trip(goal_to_shared_dict(goal))) is goal

    def test_shared_subterms_are_encoded_once(self):
        from repro.ctr.formulas import alt, dag_size, par, seq

        shared = par(A, B)
        goal = alt(seq(shared, C), seq(C, shared), Isolated(shared))
        data = goal_to_shared_dict(goal)
        assert len(data["nodes"]) == dag_size(goal)
        loaded = goal_from_shared_dict(json_round_trip(data))
        assert loaded is goal
        assert dag_size(loaded) == dag_size(goal)

    def test_tree_encoding_expands_what_shared_does_not(self):
        from repro.ctr.formulas import alt, par

        shared = A >> B
        goal = alt(*(par(shared, atoms(f"x{i}")[0]) for i in range(8)))
        tree = json.dumps(goal_to_dict(goal))
        dag = json.dumps(goal_to_shared_dict(goal))
        assert tree.count('"kind": "serial"') > dag.count('"kind": "serial"')

    def test_special_nodes(self):
        goal = Isolated(A >> Send("t")) | (Receive("t") >> Possibility(B) >> Test("c"))
        assert goal_from_shared_dict(goal_to_shared_dict(goal)) is goal

    def test_multi_root_table_shares_between_goals(self):
        from repro.ctr.formulas import par, seq

        one = seq(par(A, B), C)
        two = par(par(A, B), C)
        data = goals_to_shared_dict({"one": one, "two": two})
        names = {n.get("name") for n in data["nodes"]}
        assert {"a", "b", "c"} <= names
        assert len(data["nodes"]) == 6  # a, b, c, par(a,b) shared, + 2 roots
        loaded = goals_from_shared_dict(json_round_trip(data))
        assert loaded["one"] is one
        assert loaded["two"] is two

    def test_dangling_reference_rejected(self):
        nodes = [{"kind": "atom", "name": "a"}, {"kind": "atom", "name": "b"}]
        for root in (5, -1):  # -1 would pick the last node
            with pytest.raises(SpecificationError):
                goal_from_shared_dict({"nodes": nodes, "root": root})
            with pytest.raises(SpecificationError):
                goals_from_shared_dict({"nodes": nodes, "roots": {"goal": root}})

    def test_forward_reference_rejected(self):
        with pytest.raises(SpecificationError):
            goal_from_shared_dict({
                "nodes": [{"kind": "serial", "parts": [1, 2]},
                          {"kind": "atom", "name": "a"},
                          {"kind": "atom", "name": "b"}],
                "root": 0,
            })

    def test_malformed_parts_rejected(self):
        nodes = [{"kind": "atom", "name": "a"}, {"kind": "atom", "name": "b"}]
        for composite in (
            {"kind": "choice", "parts": ["zero", 0]},
            {"kind": "serial", "parts": [-1, 0]},  # would decode to b ⊗ a
            {"kind": "concurrent", "parts": [0]},  # one part
        ):
            with pytest.raises(SpecificationError):
                goal_from_shared_dict({"nodes": nodes + [composite], "root": 2})


class TestConstraints:
    @given(constraints_over(("a", "b", "c", "d")))
    def test_round_trip(self, constraint):
        assert constraint_from_dict(json_round_trip(constraint_to_dict(constraint))) == constraint

    def test_nested(self):
        c = disj(conj(must("a"), order("b", "c")), serial("a", "b", "c"))
        assert constraint_from_dict(constraint_to_dict(c)) == c

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecificationError):
            constraint_from_dict({"kind": "modal"})


class TestRulesAndSpecifications:
    def test_rules_round_trip(self):
        rules = RuleBase([Rule("sub", A + B), Rule("sub", C), Rule("other", A >> B)])
        loaded = rules_from_dict(json_round_trip(rules_to_dict(rules)))
        assert loaded.heads == rules.heads
        assert loaded.bodies("sub") == rules.bodies("sub")

    def test_specification_round_trip(self):
        rules = RuleBase([Rule("sub", B + C)])
        goal = A >> atoms("sub")[0]
        constraints = [must("a"), order("b", "c")]
        data = json_round_trip(specification_to_dict(goal, constraints, rules))
        loaded_goal, loaded_constraints, loaded_rules = specification_from_dict(data)
        assert loaded_goal == goal
        assert loaded_constraints == constraints
        assert loaded_rules is not None and loaded_rules.heads == {"sub"}

    def test_specification_without_rules(self):
        data = specification_to_dict(A >> B, [must("a")])
        assert "rules" not in data
        _goal, _constraints, rules = specification_from_dict(json_round_trip(data))
        assert rules is None
