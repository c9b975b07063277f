"""Tests for the refutation that answers holding properties without a
compile (:func:`repro.core.apply.refutes`, asked first by
:func:`repro.core.verify.verify_property`)."""

import pytest

from repro.constraints.algebra import SerialConstraint, absent, conj, disj, must, order
from repro.constraints.klein import klein_order
from repro.constraints.normalize import negate
from repro.core import verify
from repro.core.apply import _AFTER, _APART, _BEFORE, _LOOSE, _ApplyMemo, apply_all, refutes
from repro.core.compiler import CompileCache, compile_workflow, expand_goal
from repro.core.excise import excise
from repro.core.static import _orderings
from repro.core.verify import verify_properties, verify_property
from repro.ctr.formulas import PATH, Atom, alt, atoms, par, seq
from repro.ctr.simplify import is_failure
from repro.errors import SpecificationError, UniqueEventError
from tests.proactive import search_spec, verification_faults, verification_spec

A, B, C, D = atoms("a b c d")

#: Seeds of the tier-1 slice of E5f (the gate runs 0–9,999).
SLICE = range(500)


@pytest.fixture
def compiles(monkeypatch):
    """Counts the compiles ``verify_property`` asks for."""
    calls = []
    real = verify.compile_workflow

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify, "compile_workflow", counting)
    return calls


def _self_order(event):
    """``∇e ⊗ ∇e``, which ``order`` refuses to build; Apply reads it as ``∇e``."""
    leaf = SerialConstraint.__new__(SerialConstraint)
    object.__setattr__(leaf, "events", (event, event))
    return leaf


class TestRefuted:
    def test_refuted_property_neither_compiles_nor_caches(self, compiles, tmp_path):
        cache = CompileCache(tmp_path / "cache")
        result = verify_property(A >> B, [], order("a", "b"), cache=cache)
        assert result.holds
        assert result.counterexample is None and result.witness is None
        assert compiles == []
        assert len(cache) == 0 and cache.hits == cache.misses == 0

    def test_dead_disjuncts_refute(self):
        # ¬order(a, b) = ¬∇a ∨ ¬∇b ∨ ∇b⊗∇a: every disjunct is dead on a ⊗ b.
        assert refutes([negate(order("a", "b"))], A >> B)
        assert not refutes([negate(order("a", "b"))], A | B)

    def test_a_repeated_constraint_closes_a_two_cycle(self):
        either = disj(order("a", "b"), order("b", "a"))
        assert refutes([either, negate(either)], A | B)
        assert not refutes([either], A | B)

    def test_a_cycle_through_the_structure(self):
        # c ⊗ (a | b): the forced edges a → b and b → c close a cycle with
        # the structural order c → a.
        goal = C >> (A | B)
        assert refutes([order("a", "b"), order("b", "c")], goal)
        assert not compile_workflow(goal, [order("a", "b"), order("b", "c")]).consistent
        assert not refutes([order("a", "b")], goal)

    def test_forced_events_that_never_co_occur(self):
        goal = (A + B) | (C + D)
        assert refutes([order("a", "c"), order("b", "d")], goal)
        assert not compile_workflow(goal, [order("a", "c"), order("b", "d")]).consistent

    def test_a_live_conjunction_adds_its_parts(self):
        goal = (A | B) >> C
        spec = [disj(absent("c"), absent("a"),
                     conj(order("a", "b"), order("b", "a")))]
        assert refutes(spec, goal)
        assert not refutes([disj(absent("c"), conj(order("a", "b"), must("c")))], goal)

    def test_a_satisfied_disjunct_drops_its_conjunct(self):
        goal = A >> (B | C)
        assert not refutes([disj(order("a", "b"), must("z"))], goal)


class TestLeftToTheCompile:
    def test_non_unique_goal_still_raises(self):
        # ¬∇a is dead on a ⊗ a, but the compile must name the clash.
        with pytest.raises(UniqueEventError):
            verify_property(A >> A, [], must("a"))
        assert not refutes([absent("a")], A >> A)

    def test_goal_holding_path_still_raises(self):
        with pytest.raises(SpecificationError, match="not goals"):
            verify_property(A >> PATH, [], must("a"))
        assert not refutes([absent("a")], A >> PATH)

    def test_non_unique_expansion_raises_with_rules(self):
        from repro.ctr.rules import Rule, RuleBase

        rules = RuleBase()
        rules.add(Rule("sub", A))
        with pytest.raises(UniqueEventError):
            verify_property(seq(A, Atom("sub")), [], must("a"), rules=rules)

    def test_self_order_reads_as_must(self, compiles):
        # Apply satisfies ∇a⊗∇a wherever a occurs; read as dead, the leaf
        # would refute every property.
        goal = A | B
        constraints = [_self_order("a")]
        result = verify_property(goal, constraints, order("b", "a"))
        assert not result.holds
        assert compile_workflow(goal, constraints + [negate(order("b", "a"))]).consistent
        assert len(compiles) == 1
        assert not refutes(constraints, A + B)
        assert refutes(constraints, B)

    def test_self_order_adds_no_edge(self):
        # A self-edge would close a cycle; Apply reads the leaf as ∇a.
        goal = (A + B) | C | D
        constraints = [_self_order("a")]
        result = verify_property(goal, constraints, order("d", "c"))
        assert not result.holds
        assert compile_workflow(goal, constraints + [negate(order("d", "c"))]).consistent
        assert verify_property(goal, constraints, must("a")).holds


class TestOldParallelBatch:
    """The 16 properties S2 timed before this refutation: each holds."""

    def test_every_property_is_refuted(self, compiles):
        pairs = [(f"p{i}", f"q{i}") for i in range(1, 8)]
        goal = seq(par(*(Atom(e) for pair in pairs for e in pair)),
                   *(Atom(f"pad{i}") for i in range(6)))
        constraints = [disj(order(p, q), order(q, p)) for p, q in pairs]
        props = ([disj(order(p, q), order(q, p)) for p, q in pairs]
                 + [must(f"pad{i}") for i in range(6)]
                 + [order("pad0", "pad3"), order("pad1", "pad4"),
                    order("pad2", "pad5")])
        results = verify_properties(goal, constraints, props)
        assert all(result.holds for result in results)
        assert compiles == []


def _relation(co, ordered, a, b):
    if not co.get(a, 0) & b:
        return _APART
    if ordered.get(a, 0) & b:
        return _BEFORE
    if ordered.get(b, 0) & a:
        return _AFTER
    return _LOOSE


def test_pair_query_is_the_static_orderings():
    """:meth:`_ApplyMemo.ordering` against ``core/static.py``'s all-pairs
    masks, on every pair of events of E5e's source, applied and compiled
    goals."""
    pairs = mismatches = 0
    for seed in SLICE:
        goal, constraints = search_spec(seed)
        source = expand_goal(goal)
        applied = apply_all(constraints, source)
        for node in (source, applied, excise(applied)):
            if is_failure(node):
                continue
            memo = _ApplyMemo()
            _, may, _ = memo.occurrence(node)
            co, ordered = _orderings(node, memo, {})
            bits = [bit for bit in memo.bits.values() if may & bit]
            for a in bits:
                for b in bits:
                    if a != b:
                        pairs += 1
                        mismatches += (memo.ordering(node, a, b)
                                       != _relation(co, ordered, a, b))
    assert pairs > 10_000
    assert mismatches == 0


def test_pair_query_on_a_choice():
    goal = alt(A >> B, B >> A, C)
    memo = _ApplyMemo()
    memo.occurrence(goal)
    a, b, c = memo.bit("a"), memo.bit("b"), memo.bit("c")
    assert memo.ordering(goal, a, b) == _LOOSE
    assert memo.ordering(goal, a, c) == _APART
    assert verify_property(goal, [], klein_order("a", "b")).holds is False


def test_theorem_59_slice():
    """E5f's relation on seeds 0–499: no divergence, no witness fault, and
    most holding properties refuted without a compile."""
    holding = refuted = 0
    for seed in SLICE:
        holds, was_refuted, faults = verification_faults(*verification_spec(seed))
        assert faults == [], (seed, faults)
        assert holds or not was_refuted
        holding += holds
        refuted += was_refuted
    assert refuted >= holding * 0.8
