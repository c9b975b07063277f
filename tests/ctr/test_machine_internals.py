"""Edge-case tests for the machine's internal residual representations."""

from repro.ctr.formulas import Isolated, Receive, Send, atoms, seq
from repro.ctr.machine import Config, Machine, Tail, machine_traces
from repro.graph.generators import serial_chain

A, B, C, D = atoms("a b c d")


class TestTailRepresentation:
    def test_tail_equality_is_identity_on_parts(self):
        shared = (A, B, C)
        assert Tail(shared, 1) == Tail(shared, 1)
        assert Tail(shared, 1) != Tail(shared, 2)
        # Equal-content but distinct tuples: deliberately unequal (the
        # machine only ever compares Tails over shared tuples).
        assert Tail((A, B, C), 1) != Tail((A, B, C), 1) or (A, B, C) is (A, B, C)

    def test_tail_hash_consistent_with_eq(self):
        shared = (A, B, C)
        assert hash(Tail(shared, 1)) == hash(Tail(shared, 1))

    def test_long_chain_steps_through_tails(self):
        goal = serial_chain(50)
        machine = Machine(goal)
        config = machine.initial()
        for i in range(1, 51):
            successors = machine.successors(config)
            assert sorted(successors) == [f"e{i}"]
            (config,) = successors[f"e{i}"]
        assert machine.is_final(config)

    def test_tail_with_composite_head_mid_chain(self):
        # Stepping into a composite head must still produce correct residuals.
        goal = seq(A, (B | C), D)
        assert machine_traces(goal) == {("a", "b", "c", "d"), ("a", "c", "b", "d")}

    def test_tail_inside_choice_worlds(self):
        goal = seq(A, B, C) + seq(A, C, B)
        assert machine_traces(goal) == {("a", "b", "c"), ("a", "c", "b")}


class TestSilentChains:
    def test_long_silent_prefix(self):
        goal = seq(Send("t1"), Send("t2"), Receive("t1"), Receive("t2"), A)
        assert machine_traces(goal) == {("a",)}

    def test_interleaved_send_receive_ladder(self):
        # t1 -> t2 -> t3 ladder across three branches.
        left = seq(A, Send("t1"))
        middle = seq(Receive("t1"), B, Send("t2"))
        right = seq(Receive("t2"), C)
        goal = left | middle | right
        assert machine_traces(goal) == {("a", "b", "c")}

    def test_tokens_inside_isolated_region(self):
        goal = Isolated(seq(Send("t"), A, Receive("t"), B)) | C
        assert machine_traces(goal) == {("a", "b", "c"), ("c", "a", "b")}


class TestConfigSets:
    def test_successors_merge_duplicate_targets(self):
        # Two silent paths leading to the same configuration collapse.
        goal = seq(Send("t"), A) + seq(Send("t"), A)
        machine = Machine(goal)
        successors = machine.successors(machine.initial())
        assert set(successors) == {"a"}
        assert len(successors["a"]) == 1

    def test_config_distinguished_by_tokens(self):
        c1 = Config(A, frozenset())
        c2 = Config(A, frozenset({"t"}))
        assert len({c1, c2}) == 2
