"""Tests for the sync transformation and token factory (Definition 5.3)."""

from repro.core.sync import TokenFactory, sync_order
from repro.ctr.formulas import Possibility, Receive, Send, atoms
from repro.ctr.machine import machine_traces

A, B, C = atoms("a b c")


class TestTokenFactory:
    def test_fresh_tokens_are_distinct(self):
        factory = TokenFactory()
        assert factory.fresh() != factory.fresh()

    def test_prefix(self):
        factory = TokenFactory(prefix="tk")
        assert factory.fresh().startswith("tk")


class TestSyncOrder:
    def test_injects_send_after_alpha(self):
        got = sync_order("a", "b", A | B, "t")
        assert got == (A >> Send("t")) | (Receive("t") >> B)

    def test_rewrites_every_occurrence(self):
        goal = (A >> C) + (C >> A)
        got = sync_order("a", "b", goal, "t")
        assert got == ((A >> Send("t")) >> C) + (C >> (A >> Send("t")))

    def test_semantics_orders_events(self):
        goal = A | B | C
        synced = sync_order("a", "b", goal, "t")
        got = machine_traces(synced)
        assert got == {t for t in machine_traces(goal) if t.index("a") < t.index("b")}

    def test_serial_wrong_order_deadlocks(self):
        synced = sync_order("a", "b", B >> A, "t")
        assert machine_traces(synced) == frozenset()

    def test_possibility_bodies_untouched(self):
        goal = Possibility(A) >> B
        assert sync_order("a", "b", goal, "t") == Possibility(A) >> Receive("t") >> B

    def test_unrelated_events_untouched(self):
        assert sync_order("x", "y", A >> B, "t") == A >> B
