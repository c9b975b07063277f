"""Unit tests for the CTR formula AST and its smart constructors."""

import pytest

from repro.ctr.formulas import (
    EMPTY,
    NEG_PATH,
    PATH,
    Atom,
    Choice,
    Concurrent,
    Empty,
    Isolated,
    NegPath,
    Possibility,
    Receive,
    Send,
    Serial,
    Test,
    alt,
    atom,
    atoms,
    event_names,
    goal_size,
    is_concurrent_horn,
    par,
    seq,
    subgoals,
    walk,
)

A, B, C, D = atoms("a b c d")


class TestAtoms:
    def test_atom_builder(self):
        assert atom("x") == Atom("x")

    def test_atoms_from_string(self):
        assert atoms("a b c") == (Atom("a"), Atom("b"), Atom("c"))

    def test_atoms_with_commas(self):
        assert atoms("a, b,c") == (Atom("a"), Atom("b"), Atom("c"))

    def test_atoms_from_iterable(self):
        assert atoms(["x", "y"]) == (Atom("x"), Atom("y"))

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Atom("")

    def test_atoms_are_hashable_and_equal(self):
        assert Atom("a") == Atom("a")
        assert hash(Atom("a")) == hash(Atom("a"))
        assert Atom("a") != Atom("b")


class TestOperatorDsl:
    def test_rshift_builds_serial(self):
        assert A >> B == Serial((A, B))

    def test_or_builds_concurrent(self):
        assert (A | B) == Concurrent((A, B))

    def test_add_builds_choice(self):
        assert (A + B) == Choice((A, B))

    def test_mixed_expression(self):
        goal = A >> (B | C) >> D
        assert isinstance(goal, Serial)
        assert goal.parts == (A, Concurrent((B, C)), D)


class TestSmartConstructors:
    def test_seq_flattens(self):
        assert seq(seq(A, B), C) == Serial((A, B, C))

    def test_par_flattens(self):
        assert par(par(A, B), C) == Concurrent((A, B, C))

    def test_alt_flattens(self):
        assert alt(alt(A, B), C) == Choice((A, B, C))

    def test_seq_unit(self):
        assert seq(A) == A
        assert seq() is EMPTY
        assert seq(A, EMPTY, B) == Serial((A, B))

    def test_par_unit(self):
        assert par(A) == A
        assert par(A, EMPTY) == A

    def test_alt_dedupes(self):
        assert alt(A, A) == A
        assert alt(A, B, A) == Choice((A, B))

    def test_neg_path_absorbs_serial(self):
        assert seq(A, NEG_PATH, B) is NEG_PATH

    def test_neg_path_absorbs_concurrent(self):
        assert par(A, NEG_PATH) is NEG_PATH

    def test_neg_path_identity_for_choice(self):
        assert alt(A, NEG_PATH) == A
        assert alt(NEG_PATH, NEG_PATH) is NEG_PATH

    def test_raw_constructors_require_arity(self):
        with pytest.raises(ValueError):
            Serial((A,))
        with pytest.raises(ValueError):
            Concurrent((A,))
        with pytest.raises(ValueError):
            Choice((A,))


class TestTraversal:
    def test_subgoals_of_composites(self):
        assert subgoals(A >> B) == (A, B)
        assert subgoals(Isolated(A)) == (A,)
        assert subgoals(Possibility(A)) == (A,)

    def test_subgoals_of_leaves(self):
        assert subgoals(A) == ()
        assert subgoals(Send("t")) == ()

    def test_walk_preorder(self):
        goal = A >> (B | C)
        nodes = list(walk(goal))
        assert nodes[0] == goal
        assert Atom("a") in nodes
        assert Concurrent((B, C)) in nodes

    def test_goal_size(self):
        assert goal_size(A) == 1
        assert goal_size(A >> B) == 3
        assert goal_size(A >> (B | C)) == 5
        assert goal_size(Isolated(A >> B)) == 4


class TestEventNames:
    def test_simple(self):
        assert event_names(A >> (B | C)) == frozenset({"a", "b", "c"})

    def test_send_receive_test_are_not_events(self):
        goal = seq(A, Send("t"), Receive("t"), Test("cond"))
        assert event_names(goal) == frozenset({"a"})

    def test_possibility_excluded_by_default(self):
        goal = Possibility(B) >> A
        assert event_names(goal) == frozenset({"a"})


class TestConcurrentHornCheck:
    def test_goals_are_concurrent_horn(self):
        assert is_concurrent_horn(A >> (B | C) + D)
        assert is_concurrent_horn(Isolated(A) >> Possibility(B))

    def test_path_literals_are_not(self):
        assert not is_concurrent_horn(PATH)
        assert not is_concurrent_horn(seq(A, B) if False else NEG_PATH)

    def test_leaf_kinds(self):
        assert is_concurrent_horn(Send("x"))
        assert is_concurrent_horn(Test("c"))
        assert is_concurrent_horn(EMPTY)


class TestMiscNodes:
    def test_empty_singleton_identity(self):
        assert Empty() == EMPTY
        assert isinstance(NEG_PATH, NegPath)

    def test_test_predicate_not_in_equality(self):
        assert Test("c", predicate=lambda db: True) == Test("c")
        assert hash(Test("c", predicate=lambda db: True)) == hash(Test("c"))

    def test_str_forms(self):
        assert str(Atom("a")) == "a"
        assert str(Send("t")) == "send(t)"
        assert str(Receive("t")) == "receive(t)"
        assert str(Test("c")) == "c?"
