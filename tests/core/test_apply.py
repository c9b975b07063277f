"""Tests for the Apply transformation (Definitions 5.1/5.3/5.5).

The load-bearing property is Propositions 5.2/5.4/5.6: ``Apply(C, T) ≡
T ∧ C``, checked exactly against the trace-semantics oracle.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.constraints.algebra import (
    absent,
    conj,
    disj,
    must,
    order,
    serial,
)
from repro.constraints.normalize import normalize
from repro.constraints.satisfy import satisfies
from repro.core.apply import _apply, _ApplyMemo, _sync, apply_all, apply_constraint
from repro.core.excise import excise
from repro.core.sync import TokenFactory, sync_order
from repro.ctr.formulas import (
    Atom,
    Choice,
    Concurrent,
    Isolated,
    NegPath,
    Possibility,
    Serial,
    Test,
    alt,
    atoms,
    event_names,
    par,
    seq,
)
from repro.ctr.simplify import is_failure
from repro.ctr.traces import traces
from repro.ctr.unique import is_unique_event_goal
from tests.apply_reference import _reference_sync, reference_apply_all
from tests.conftest import constraints_over, unique_event_goals

A, B, C, D, ETA, GAMMA, DELTA = atoms("a b c d eta gamma delta")


def compiled_traces(goal, constraints, max_traces=3_000_000):
    compiled = excise(apply_all(list(constraints), goal))
    if is_failure(compiled):
        return frozenset()
    return traces(compiled, max_traces=max_traces)


def oracle_traces(goal, constraints, max_traces=3_000_000):
    return frozenset(
        t
        for t in traces(goal, max_traces=max_traces)
        if all(satisfies(t, c) for c in constraints)
    )


class TestPrimitivePositive:
    def test_on_matching_atom(self):
        assert apply_constraint(must("a"), A) == A

    def test_on_other_atom(self):
        assert is_failure(apply_constraint(must("a"), B))

    def test_selects_choice_branch(self):
        assert apply_constraint(must("a"), A + B) == A

    def test_keeps_shared_branches(self):
        goal = (A >> B) + (B >> A)
        assert apply_constraint(must("a"), goal) == goal

    def test_paper_worked_example(self):
        # Apply(∇α, γ ⊗ (α ∨ β ∨ η) ⊗ δ) = γ ⊗ α ⊗ δ
        goal = GAMMA >> (A + B + ETA) >> DELTA
        assert apply_constraint(must("a"), goal) == GAMMA >> A >> DELTA

    def test_possibility_cannot_discharge(self):
        assert is_failure(apply_constraint(must("a"), Possibility(A)))

    def test_through_isolation(self):
        goal = Isolated(A + B)
        assert apply_constraint(must("a"), goal) == A  # ⊙a simplifies to a


class TestPrimitiveNegative:
    def test_on_matching_atom(self):
        assert is_failure(apply_constraint(absent("a"), A))

    def test_prunes_choice_branch(self):
        assert apply_constraint(absent("a"), A + B) == B

    def test_kills_serial_containing_event(self):
        assert is_failure(apply_constraint(absent("a"), A >> B))

    def test_keeps_possibility(self):
        goal = Possibility(A) >> B
        assert apply_constraint(absent("a"), goal) == goal


class TestOrderConstraints:
    def test_example_4_choice(self):
        # Apply(∇α ⊗ ∇β, γ ∨ (β ⊗ α)) keeps only the β⊗α branch, knotted.
        goal = GAMMA + (B >> A)
        applied = apply_constraint(order("a", "b"), goal)
        assert traces(applied) == frozenset()  # receive before send
        assert is_failure(excise(applied))

    def test_example_4_parallel(self):
        goal = A | B | C
        applied = apply_constraint(order("a", "b"), goal)
        got = traces(applied)
        assert got == {t for t in traces(goal) if t.index("a") < t.index("b")}

    def test_order_requires_both(self):
        assert compiled_traces(A + B, [order("a", "b")]) == frozenset()

    def test_serial_longer_than_two(self):
        goal = A | B | C
        assert compiled_traces(goal, [serial("a", "b", "c")]) == {("a", "b", "c")}


class TestComplexConstraints:
    def test_conjunction_is_sequential_application(self):
        goal = A | B | C
        both = apply_constraint(conj(order("a", "b"), order("b", "c")), goal)
        assert traces(both) == {("a", "b", "c")}

    def test_disjunction_duplicates(self):
        goal = A | B
        applied = apply_constraint(disj(order("a", "b"), order("b", "a")), goal)
        assert isinstance(applied, Choice)
        assert traces(applied) == {("a", "b"), ("b", "a")}

    def test_inconsistent_conjunction(self):
        goal = A >> B
        assert is_failure(
            excise(apply_constraint(conj(order("a", "b"), order("b", "a")), goal))
        )

    def test_constraint_on_missing_event(self):
        assert is_failure(apply_constraint(must("zzz"), A >> B))
        assert apply_constraint(absent("zzz"), A >> B) == A >> B


class TestApplyAll:
    def test_empty_set_is_identity(self):
        goal = A >> (B | C)
        assert apply_all([], goal) == goal

    def test_short_circuits_on_failure(self):
        assert is_failure(apply_all([must("a"), must("zzz"), must("b")], A >> B))


class TestCentralTheorem:
    """Propositions 5.2/5.4/5.6 + Theorem 5.8, property-tested exactly."""

    @settings(max_examples=120, deadline=None)
    @given(unique_event_goals(max_events=5), st.data())
    def test_apply_equals_constrained_execution(self, goal, data):
        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        constraint = data.draw(constraints_over(events))
        assert compiled_traces(goal, [constraint]) == oracle_traces(goal, [constraint])

    @settings(max_examples=60, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_multiple_constraints(self, goal, data):
        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        constraints = [data.draw(constraints_over(events)) for _ in range(2)]
        assert compiled_traces(goal, constraints) == oracle_traces(goal, constraints)

    @settings(max_examples=80, deadline=None)
    @given(unique_event_goals(max_events=5), st.data())
    def test_apply_preserves_unique_events(self, goal, data):
        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        constraint = data.draw(constraints_over(events))
        applied = apply_constraint(constraint, goal)
        if not is_failure(applied):
            assert is_unique_event_goal(applied)


@st.composite
def decorated_goals(draw):
    """``unique_event_goals`` with ◇ bodies, ⊙ blocks and tests mixed in.

    A ◇ body ranges over the goal's own events: hypothetical occurrences
    must neither discharge ``∇α`` nor be deleted by ``¬∇α``.
    """
    base = draw(unique_event_goals(max_events=5))
    events = sorted(event_names(base))

    def decorate(node):
        if isinstance(node, Serial):
            node = seq(*(decorate(part) for part in node.parts))
        elif isinstance(node, Concurrent):
            node = par(*(decorate(part) for part in node.parts))
        elif isinstance(node, Choice):
            node = alt(*(decorate(part) for part in node.parts))
        elif isinstance(node, Isolated):
            node = Isolated(decorate(node.body))
        kind = draw(st.sampled_from(["keep", "keep", "keep", "isolate", "test", "possible"]))
        if kind == "isolate":
            return Isolated(node)
        if kind == "test":
            return seq(Test(draw(st.sampled_from(["t1", "t2"]))), node)
        if kind == "possible":
            hypothetical = [Atom(e) for e in draw(st.lists(
                st.sampled_from(events), min_size=1, max_size=2, unique=True))]
            return par(node, Possibility(seq(*hypothetical)))
        return node

    return decorate(base)


@st.composite
def mixed_constraints(draw, events, depth=0):
    """∇, ¬∇ and order leaves under nested ∧ and ∨."""
    kinds = ["must", "absent", "order"] + (["and", "or"] if depth < 2 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "must":
        return must(draw(st.sampled_from(events)))
    if kind == "absent":
        return absent(draw(st.sampled_from(events)))
    if kind == "order":
        first, second = draw(st.permutations(events))[:2]
        return order(first, second)
    parts = draw(st.lists(mixed_constraints(events, depth + 1), min_size=2, max_size=3))
    return conj(*parts) if kind == "and" else disj(*parts)


class TestOccurrenceMasks:
    """The masks only skip work: the pruned Apply builds the reference node."""

    @settings(max_examples=200, deadline=None)
    @given(decorated_goals(), st.data())
    def test_pruned_apply_is_the_reference_walk(self, goal, data):
        # One event the goal lacks, so ∇/¬∇ of a missing event is covered.
        events = sorted(event_names(goal)) + ["e_missing"]
        if data.draw(st.booleans()):
            # Carry send/receive pairs into the goal under test.
            first, second = data.draw(st.permutations(events))[:2]
            goal = apply_all([order(first, second)], goal, TokenFactory(prefix="pre"))
            assume(not isinstance(goal, NegPath))
        assert is_unique_event_goal(goal)
        constraints = data.draw(st.lists(mixed_constraints(events), min_size=1, max_size=3))
        pruned = apply_all(constraints, goal, TokenFactory())
        assert pruned is reference_apply_all(constraints, goal, TokenFactory())

    @settings(max_examples=200, deadline=None)
    @given(decorated_goals(), st.data())
    def test_order_walk_is_the_whole_goal_walk(self, goal, data):
        # Compared before any simplify, which would flatten a rebuilt ⊗
        # the walk left nested.
        events = sorted(event_names(goal)) + ["e_missing"]
        first, second = data.draw(st.permutations(events))[:2]
        assert sync_order(first, second, goal, "t") is _reference_sync(first, second, goal, "t")

    @settings(max_examples=200, deadline=None)
    @given(decorated_goals(), st.data())
    def test_order_walk_records_the_masks_occurrence_computes(self, goal, data):
        events = sorted(event_names(goal))
        assume(len(events) >= 2)
        first, second = data.draw(st.permutations(events))[:2]
        constraints = [order(first, second)] + data.draw(
            st.lists(mixed_constraints(events + ["e_missing"]), max_size=2))
        memo = _ApplyMemo()
        tokens = TokenFactory()
        for constraint in constraints:
            goal = _apply(normalize(constraint), goal, tokens, memo)
        for node, may, must_ in memo.masks.values():
            fresh = _ApplyMemo()
            _, fresh_may, fresh_must = fresh.occurrence(node)
            assert memo.names(may) == fresh.names(fresh_may)
            assert memo.names(must_) == fresh.names(fresh_must)
            # _apply_must reads the children's entries without computing them.
            if isinstance(node, (Serial, Concurrent, Choice)):
                assert all(id(part) in memo.masks for part in node.parts)
            elif isinstance(node, Isolated):
                assert id(node.body) in memo.masks

    def test_order_walk_leaves_mask_free_subgoals_alone(self):
        a, b, d = atoms("a b d")
        chain = seq(*atoms(f"c{i}" for i in range(1, 2001)))
        goal = seq(par(a, b), par(chain, d))
        memo = _ApplyMemo()
        memo.occurrence(goal)
        before = len(memo.masks)
        synced = _sync("a", "b", goal, "t", memo)
        # send(t), receive(t), a ⊗ send(t), receive(t) ⊗ b, their | and the
        # root ⊗: the 2,001-atom part is neither rebuilt nor walked.
        assert len(memo.masks) - before == 6
        assert synced.parts[1] is goal.parts[1]
        assert synced is _reference_sync("a", "b", goal, "t")
        assert sync_order("a", "b", goal, "t") is synced
