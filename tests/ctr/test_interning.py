"""Tests for hash-consing: interning, identity, pickling, and GC behavior."""

import copy
import gc
import pickle

import pytest
from hypothesis import given, settings

from repro.ctr.formulas import (
    EMPTY,
    NEG_PATH,
    PATH,
    Atom,
    Choice,
    Concurrent,
    Isolated,
    Possibility,
    Receive,
    Send,
    Serial,
    Test,
    alt,
    atoms,
    dag_size,
    goal_size,
    intern_table_size,
    interning,
    interning_enabled,
    par,
    seq,
    set_interning,
    sharing_ratio,
)
from repro.ctr.simplify import simplify
from tests.conftest import unique_event_goals

A, B, C = atoms("a b c")


class TestCanonicalIdentity:
    def test_equal_atoms_are_the_same_object(self):
        assert Atom("pay") is Atom("pay")

    def test_equal_composites_are_the_same_object(self):
        assert (A >> B) is (A >> B)
        assert par(A, B) is par(A, B)
        assert alt(A, B) is alt(A, B)
        assert Isolated(A >> B) is Isolated(A >> B)
        assert Possibility(A) is Possibility(A)
        assert Send("xi1") is Send("xi1")
        assert Receive("xi1") is Receive("xi1")
        assert Test("ok") is Test("ok")

    def test_different_structures_are_different(self):
        assert Atom("a") is not Atom("b")
        assert seq(A, B) is not seq(B, A)
        assert seq(A, B) is not par(A, B)

    def test_sentinels_are_singletons(self):
        assert PATH is type(PATH)()
        assert NEG_PATH is type(NEG_PATH)()
        assert EMPTY is type(EMPTY)()

    def test_structural_equality_implies_identity(self):
        left = seq(par(A, B), alt(A >> B, C))
        right = seq(par(A, B), alt(A >> B, C))
        assert left == right
        assert left is right
        assert hash(left) == hash(right)

    def test_shared_subterms_collapse(self):
        shared = A >> B
        goal = alt(seq(shared, C), par(shared, C))
        assert dag_size(goal) < goal_size(goal)
        assert sharing_ratio(goal) > 1.0

    def test_copy_and_deepcopy_return_self(self):
        goal = seq(par(A, B), C)
        assert copy.copy(goal) is goal
        assert copy.deepcopy(goal) is goal

    def test_nodes_are_frozen(self):
        goal = A >> B
        with pytest.raises(Exception):
            goal.parts = ()
        with pytest.raises(Exception):
            del goal.parts
        with pytest.raises(Exception):
            A.name = "z"


class TestInterningToggle:
    def test_disabled_constructors_allocate_fresh(self):
        with interning(False):
            assert not interning_enabled()
            one, two = Atom("toggled"), Atom("toggled")
            assert one == two
            assert one is not two
        assert interning_enabled()

    def test_off_and_on_goals_are_structurally_equal(self):
        with interning(False):
            plain = seq(par(A, B), alt(A >> B, C))
        interned = seq(par(A, B), alt(A >> B, C))
        assert plain == interned
        assert hash(plain) == hash(interned)

    def test_set_interning_returns_previous(self):
        assert set_interning(False) is True
        try:
            assert set_interning(False) is False
        finally:
            set_interning(True)

    def test_composites_keep_their_predicated_tests(self):
        first = seq(Test("ok", predicate=lambda db: True), A)
        p2 = lambda db: False  # noqa: E731
        second = seq(Test("ok", predicate=p2), A)
        assert second == first
        assert second.parts[0].predicate is p2

    def test_uninterned_goals_work_in_interned_composites(self):
        with interning(False):
            leaf = Atom("mixed")
        goal = seq(leaf, B)
        assert goal == seq(Atom("mixed"), B)


class TestPickling:
    def test_pickle_round_trip_reinterns(self):
        goal = seq(par(A, B), alt(A >> B, C), Send("xi1"), Receive("xi1"))
        clone = pickle.loads(pickle.dumps(goal))
        assert clone is goal

    def test_pickle_preserves_sharing(self):
        shared = par(A, B)
        goal = alt(seq(shared, C), seq(C, shared))
        clone = pickle.loads(pickle.dumps(goal))
        assert clone is goal
        assert dag_size(clone) == dag_size(goal)

    def test_predicated_test_pickles_without_predicate(self):
        probe = Test("guard", predicate=lambda db: True)
        clone = pickle.loads(pickle.dumps(probe))
        assert clone == probe
        assert clone.predicate is None


class TestWeakTable:
    def test_unreferenced_goals_are_collected(self):
        def build():
            return seq(Atom("gc_only_1"), Atom("gc_only_2"), Atom("gc_only_3"))

        goal = build()
        gc.collect()
        before = intern_table_size()
        del goal
        gc.collect()
        assert intern_table_size() < before

    def test_live_goals_stay_canonical(self):
        goal = seq(Atom("kept_1"), Atom("kept_2"))
        gc.collect()
        assert seq(Atom("kept_1"), Atom("kept_2")) is goal


class TestReprClipping:
    def test_small_goal_repr_is_full(self):
        assert "a" in repr(A >> B) and "b" in repr(A >> B)

    def test_huge_goal_repr_is_bounded(self):
        goal = alt(*(Atom(f"wide{i}") for i in range(200)))
        for _ in range(12):
            goal = alt(seq(goal, Atom("x0")), par(goal, Atom("y0")))
        text = repr(goal)
        assert len(text) < 1000
        assert "…" in text

    def test_deep_goal_repr_is_bounded(self):
        goal = Atom("deep")
        for i in range(64):
            goal = Isolated(alt(goal, Atom(f"d{i}")))
        assert len(repr(goal)) < 1000


class TestSimplifyFixpoints:
    @settings(max_examples=80, deadline=None)
    @given(unique_event_goals(max_events=5))
    def test_interning_preserves_simplify_fixpoints(self, goal):
        interned = simplify(goal)
        # Idempotence: a simplified interned goal is its own fixpoint.
        assert simplify(interned) is interned
        # The same simplification with interning off is structurally equal:
        # hash-consing changes representation, never results.
        with interning(False):
            plain = simplify(goal)
        assert plain == interned

    @settings(max_examples=40, deadline=None)
    @given(unique_event_goals(max_events=4))
    def test_pickle_round_trip_of_simplified_goal(self, goal):
        interned = simplify(goal)
        assert pickle.loads(pickle.dumps(interned)) is interned


class TestRawConstructorValidation:
    def test_serial_requires_two_parts(self):
        with pytest.raises(ValueError):
            Serial((A,))

    def test_concurrent_requires_two_parts(self):
        with pytest.raises(ValueError):
            Concurrent(())

    def test_choice_requires_two_parts(self):
        with pytest.raises(ValueError):
            Choice((A,))


class TestStructuralEqualityWithoutInterning:
    """Equality/hash must stay structural — and iterative — when interning
    is off: set/dict membership, the pass-level caches, and ``alt()``'s
    dedup all rely on it (the regression behind the `interning(False)`
    seam)."""

    def test_membership_across_distinct_objects(self):
        with interning(False):
            a1, a2 = Atom("a"), Atom("a")
            assert a1 is not a2
            assert a1 == a2 and hash(a1) == hash(a2)
            assert a2 in {a1}
            assert {a1: 1}[a2] == 1

    def test_event_names_unaffected_by_duplicates(self):
        from repro.ctr.formulas import event_names

        with interning(False):
            goal = seq(Atom("a"), par(Atom("b"), Atom("a")))
            assert event_names(goal) == frozenset({"a", "b"})

    def test_alt_dedups_structural_duplicates(self):
        with interning(False):
            g = alt(seq(Atom("a"), Atom("b")), seq(Atom("a"), Atom("b")))
            assert not isinstance(g, Choice)  # collapsed to one branch

    def test_deep_goals_compare_without_recursion_error(self):
        # Regression: __eq__/__hash__ used to recurse one Python frame per
        # AST level, so structurally equal non-interned goals a few hundred
        # nodes deep raised RecursionError instead of comparing.
        def deep(n, name):
            g = Atom(name)
            for _ in range(n):
                g = Possibility(Isolated(g))
            return g

        with interning(False):
            g1, g2 = deep(2000, "a"), deep(2000, "a")
            assert g1 is not g2
            assert g1 == g2
            assert hash(g1) == hash(g2)
            assert g1 != deep(2000, "b")

    def test_cross_mode_equality(self):
        # A canonical node and a non-interned twin are interchangeable.
        canonical = seq(A, B)
        with interning(False):
            twin = seq(Atom("a"), Atom("b"))
        assert canonical is not twin
        assert canonical == twin
        assert twin in {canonical}

    def test_toggling_mid_pipeline_compiles_identically(self):
        # The scenario from the issue: flip the context manager in the
        # middle of a compile pipeline and the answers must not change.
        from repro.constraints.algebra import order
        from repro.core.compiler import compile_workflow
        from repro.ctr.machine import machine_traces

        goal = par(A, B) >> C
        constraints = [order("a", "b")]
        reference = compile_workflow(goal, constraints)
        with interning(False):
            goal_off = par(Atom("a"), Atom("b")) >> Atom("c")
            compiled_off = compile_workflow(goal_off, [order("a", "b")])
        assert compiled_off.consistent == reference.consistent
        assert machine_traces(compiled_off.goal) == machine_traces(reference.goal)
