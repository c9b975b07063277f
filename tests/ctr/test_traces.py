"""Tests for the public trace queries ``traces``, ``count_traces`` and
``is_executable``, which the flat kernel answers."""

import pytest
from hypothesis import given, settings

import repro
from repro.ctr import count_traces, is_executable, traces
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
from repro.ctr.machine import can_complete, machine_traces
from repro.ctr.parser import parse_goal
from repro.errors import SpecificationError, TooManyTracesError
from tests.conftest import unique_event_goals

A, B, C, D = atoms("a b c d")


class TestConnectives:
    def test_atom(self):
        assert traces(A) == {("a",)}

    def test_serial_concatenates(self):
        assert traces(A >> B >> C) == {("a", "b", "c")}

    def test_choice_unions(self):
        assert traces(A + B) == {("a",), ("b",)}

    def test_concurrent_shuffles(self):
        assert traces(A | B) == {("a", "b"), ("b", "a")}

    def test_three_way_shuffle_count(self):
        assert count_traces(A | B | C) == 6

    def test_shuffle_of_chains(self):
        got = traces((A >> B) | C)
        assert got == {("a", "b", "c"), ("a", "c", "b"), ("c", "a", "b")}

    def test_empty_goal(self):
        assert traces(EMPTY) == {()}

    def test_neg_path_has_no_traces(self):
        assert traces(NEG_PATH) == frozenset()
        assert not is_executable(NEG_PATH)

    def test_path_is_rejected(self):
        with pytest.raises(SpecificationError):
            traces(PATH)


class TestIsolation:
    def test_isolated_block_is_contiguous(self):
        got = traces(Isolated(A >> B) | C)
        assert got == {("a", "b", "c"), ("c", "a", "b")}
        assert ("a", "c", "b") not in got

    def test_isolated_single_step_is_transparent(self):
        assert traces(Isolated(A) | B) == traces(A | B)

    def test_nested_isolation(self):
        got = traces(Isolated(Isolated(A >> B) >> C) | D)
        # the whole outer block is contiguous
        assert ("a", "b", "d", "c") not in got
        assert ("a", "b", "c", "d") in got
        assert ("d", "a", "b", "c") in got


class TestCommunication:
    def test_send_receive_orders_branches(self):
        goal = (A >> Send("t")) | (Receive("t") >> B)
        assert traces(goal) == {("a", "b")}

    def test_unmatched_receive_deadlocks(self):
        assert traces(Receive("t") >> A) == frozenset()

    def test_unmatched_send_is_harmless(self):
        assert traces(Send("t") >> A) == {("a",)}

    def test_cross_knot_has_no_traces(self):
        goal = (Receive("x") >> A >> Send("y")) | (Receive("y") >> B >> Send("x"))
        assert traces(goal) == frozenset()

    def test_tokens_are_projected_out(self):
        goal = Send("t") >> A >> Receive("t")
        assert traces(goal) == {("a",)}


class TestPossibilityAndTests:
    def test_possibility_consumes_nothing(self):
        assert traces(Possibility(A) >> B) == {("b",)}

    def test_impossible_possibility_kills_execution(self):
        assert traces(Possibility(NEG_PATH) >> B) == frozenset()

    def test_possibility_of_deadlock_kills_execution(self):
        assert traces(Possibility(Receive("nope")) >> B) == frozenset()

    def test_test_is_transparent_statically(self):
        assert traces(Test("cond") >> A) == {("a",)}

    def test_possibility_reads_the_tokens_sent_before_it(self):
        goal = parse_goal("send(t1) * <receive(t1)>")
        assert traces(goal) == repro.traces(goal) == {()}
        assert is_executable(goal) is True
        count = count_traces(goal)
        assert count == 1 and count.exact

    def test_possibility_bodies_read_tokens_from_other_branches(self):
        goal = parse_goal(
            "send(t1) * e2 * send(t2) | e3 | [<receive(t1) * e1> * e1 * e6]"
            " | [<e6> * receive(t2) * e4 * e5]"
        )
        expected = machine_traces(goal)
        assert len(expected) == 12
        assert traces(goal) == expected


class TestBudget:
    def test_budget_exceeded_raises(self):
        wide = atoms([f"w{i}" for i in range(8)])
        goal = wide[0]
        for w in wide[1:]:
            goal = goal | w
        with pytest.raises(TooManyTracesError):
            traces(goal, max_traces=10)

    def test_count_traces(self):
        assert count_traces(A + B + C) == 3


class TestMachineAgreement:
    """The kernel's traces and the step machine's must agree."""

    @settings(max_examples=60, deadline=None)
    @given(unique_event_goals(max_events=5))
    def test_machine_equals_traces(self, goal):
        assert machine_traces(goal) == traces(goal)

    def test_agreement_with_tokens(self):
        goal = (A >> Send("t")) | (Receive("t") >> B) | C
        assert machine_traces(goal) == traces(goal)

    def test_agreement_with_isolation(self):
        goal = Isolated(A >> B) | (C >> D)
        assert machine_traces(goal) == traces(goal)


def _parallel_chains(chains: int, length: int):
    """``chains`` disjoint serial chains of ``length`` events, in parallel."""
    from repro.ctr.formulas import par, seq

    return par(*[
        seq(*atoms(" ".join(f"c{i}e{j}" for j in range(length))))
        for i in range(chains)
    ])


class TestLazyEnumeration:
    """Regression: budget-bounded questions must answer, not raise.

    ``is_executable``/``count_traces`` used to enumerate the full trace
    set eagerly and propagate :class:`TooManyTracesError` once a wide
    goal's interleavings outgrew the budget — even though one valid trace
    (existence) or the traces seen so far (a lower bound) already answer
    the question asked.
    """

    # 6 chains of 4 events: multinomial(24; 4,4,4,4,4,4) ≈ 10^15
    # interleavings — hopeless to enumerate, trivial to answer about.
    WIDE = staticmethod(lambda: _parallel_chains(6, 4))

    def test_is_executable_short_circuits_on_wide_goal(self):
        # The search stops at the first state that completes, far inside
        # the budget.
        assert is_executable(self.WIDE(), max_traces=100) is True

    def test_eager_oracle_still_raises_past_budget(self):
        # Smaller wide goal (1680 interleavings): traces() builds the
        # whole set, so past its budget it raises.
        with pytest.raises(TooManyTracesError):
            traces(_parallel_chains(3, 3), max_traces=100)

    def test_count_traces_saturates_instead_of_raising(self):
        wide = self.WIDE()
        count = count_traces(wide, max_traces=200)
        assert not count.exact
        assert count >= 1  # a usable lower bound, not a traceback
        assert isinstance(count, int)

    def test_count_traces_exact_within_budget(self):
        count = count_traces(A | B | C)
        assert count == 6
        assert count.exact

    def test_is_executable_with_unsatisfiable_tokens(self):
        # receive with no matching send: no interleaving is valid, and the
        # short-circuit must still conclude False.
        goal = Receive("ghost") >> A
        assert is_executable(goal) is False

    @settings(max_examples=30, deadline=None)
    @given(unique_event_goals(max_events=4))
    def test_existence_agrees_with_the_machine(self, goal):
        assert is_executable(goal) == can_complete(goal)
