"""Edge-case tests for Excise's precedence-graph machinery."""

from repro.core.excise import excise, flat_executable
from repro.ctr.formulas import (
    EMPTY,
    Isolated,
    Possibility,
    Receive,
    Send,
    atoms,
    seq,
    walk,
)
from repro.ctr.machine import can_complete, machine_traces
from repro.ctr.parser import parse_goal
from repro.ctr.simplify import is_failure
from tests.proactive import with_tokens

A, B, C, D = atoms("a b c d")


class TestNestedIsolation:
    def test_token_into_doubly_nested_block(self):
        inner = Isolated(Receive("t") >> A)
        goal = Isolated(inner >> B) | (C >> Send("t"))
        # Send must precede the OUTERMOST block (it cannot pause either).
        assert flat_executable(goal)
        assert machine_traces(goal) == {("c", "a", "b")}

    def test_deadlock_through_nesting(self):
        inner = Isolated(Receive("t") >> A)
        goal = seq(Isolated(inner >> B), Send("t"))
        assert not flat_executable(goal)

    def test_send_escaping_block(self):
        goal = Isolated(A >> Send("t")) | (Receive("t") >> B)
        assert flat_executable(goal)
        assert machine_traces(goal) == {("a", "b")}

    def test_siblings_in_same_block_unaffected(self):
        goal = Isolated(seq(Send("t"), A, Receive("t"), B))
        assert flat_executable(goal)


class TestTokenEdgeCases:
    def test_multiple_tokens_chain(self):
        goal = (
            (A >> Send("t1"))
            | (Receive("t1") >> B >> Send("t2"))
            | (Receive("t2") >> C >> Send("t3"))
            | (Receive("t3") >> D)
        )
        assert flat_executable(goal)
        assert machine_traces(goal) == {("a", "b", "c", "d")}

    def test_duplicate_token_falls_back_to_search(self):
        # Hand-written goals may reuse a token; the linear graph check
        # cannot represent that, so Excise falls back to machine search.
        goal = (Send("t") >> A) | (Send("t") >> B) | (Receive("t") >> C)
        assert flat_executable(goal) == can_complete(goal)

    def test_duplicate_tokens_agree_with_the_machine(self):
        # Excise decides a goal that reuses a token on the kernel; the
        # machine's exhaustive search is the oracle.
        reused = disagreements = 0
        for seed in range(3000):
            goal = with_tokens(seed)
            sends = [node.token for node in walk(goal) if isinstance(node, Send)]
            reused += len(sends) != len(set(sends))
            disagreements += flat_executable(goal) != can_complete(goal)
        assert disagreements == 0
        assert reused > 500

    def test_tokens_in_possibility_bodies_agree_with_the_machine(self):
        # A ◇ body that holds a token reads the tokens sent before the
        # test; Excise decides such a goal on the kernel, where the machine
        # reads it too.
        in_tests = disagreements = 0
        for seed in range(3000):
            goal = with_tokens(seed, into_tests=True)
            in_tests += any(
                isinstance(node, (Send, Receive))
                for test in walk(goal) if isinstance(test, Possibility)
                for node in walk(test.body)
            )
            disagreements += flat_executable(goal) != can_complete(goal)
        assert disagreements == 0
        assert in_tests > 100

    def test_possibility_body_reads_the_tokens_sent_before_it(self):
        goal = parse_goal(
            "send(t1) * e2 * send(t2) | e3 | [<receive(t1) * e1> * e1 * e6]"
            " | [<e6> * receive(t2) * e4 * e5]"
        )
        assert can_complete(goal)
        assert flat_executable(goal)
        assert excise(goal) == goal

    def test_choice_feeding_a_possibility_body_is_entangled(self):
        # The ◇ passes only after the send, so only that branch survives.
        goal = parse_goal("(send(t1) + a) * <receive(t1)> * b")
        assert excise(goal) == parse_goal("send(t1) * <receive(t1)> * b")

    def test_self_deadlock_minimal(self):
        assert not flat_executable(seq(Receive("t"), Send("t")))

    def test_empty_goal(self):
        assert flat_executable(EMPTY)
        assert excise(EMPTY) is EMPTY


class TestPossibilityInExcise:
    def test_dead_possibility_in_branch_pruned(self):
        dead = Possibility(Receive("nope")) >> A
        assert is_failure(excise(dead))
        assert excise(dead + B) == B

    def test_nested_possibility_bodies_checked(self):
        dead_inner = Possibility(Possibility(Receive("nope")) >> A)
        assert is_failure(excise(dead_inner >> B))

    def test_live_possibility_kept(self):
        goal = Possibility(A + B) >> C
        assert excise(goal) == goal


class TestChoiceInteractions:
    def test_deeply_nested_local_choices(self):
        dead = Receive("x") >> A >> Send("x")
        goal = seq(C, seq(D, (dead + B)))
        assert excise(goal) == seq(C, D, B)

    def test_chain_of_entangled_choices(self):
        # Three choices, each viable only in one combination with the next.
        a1 = Send("p") >> A
        a2 = A.__class__("a2") >> Receive("q")
        b1 = Receive("p") >> B >> Send("q")
        b2 = B.__class__("b2")
        goal = (a1 + a2) | (b1 + b2)
        result = excise(goal)
        assert machine_traces(result) == machine_traces(goal)
        assert not is_failure(result)

    def test_all_entangled_combinations_dead(self):
        a1 = Receive("q") >> A >> Send("p")
        b1 = Receive("p") >> B >> Send("q")
        goal = (a1 + (Receive("r") >> C)) | b1
        assert is_failure(excise(goal))

