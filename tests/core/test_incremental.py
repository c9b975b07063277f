"""Tests for incremental recompilation."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.constraints.algebra import absent, must, order
from repro.core.compiler import compile_workflow
from repro.core.incremental import add_constraint, add_constraints
from repro.ctr.formulas import atoms, event_names
from repro.ctr.machine import machine_traces
from repro.errors import TooManyTracesError
from tests.conftest import constraints_over, unique_event_goals

A, B, C, D = atoms("a b c d")


class TestBasics:
    def test_add_constraint_prunes(self):
        compiled = compile_workflow(A >> (B + C))
        updated = add_constraint(compiled, absent("b"))
        assert machine_traces(updated.goal) == {("a", "c")}
        assert updated.constraints == (absent("b"),)

    def test_add_order_constraint_syncs(self):
        compiled = compile_workflow(A | B | C)
        updated = add_constraint(compiled, order("a", "b"))
        assert machine_traces(updated.goal) == {
            t for t in machine_traces(A | B | C) if t.index("a") < t.index("b")
        }

    def test_detects_new_inconsistency(self):
        compiled = compile_workflow(A >> B, [must("a")])
        updated = add_constraint(compiled, order("b", "a"))
        assert not updated.consistent

    def test_inconsistent_stays_inconsistent(self):
        compiled = compile_workflow(A >> B, [order("b", "a")])
        updated = add_constraint(compiled, must("a"))
        assert not updated.consistent
        assert len(updated.constraints) == 2

    def test_empty_addition_is_identity(self):
        compiled = compile_workflow(A >> B, [must("a")])
        assert add_constraints(compiled, []) is compiled

    def test_source_is_preserved(self):
        compiled = compile_workflow(A >> (B + C))
        updated = add_constraint(compiled, absent("b"))
        assert updated.source == compiled.source


class TestTokenFreshness:
    def test_new_sync_tokens_do_not_collide(self):
        compiled = compile_workflow(A | B | C | D, [order("a", "b")])
        updated = add_constraint(compiled, order("c", "d"))
        from repro.ctr.formulas import Send, walk

        tokens = [n.token for n in walk(updated.goal) if isinstance(n, Send)]
        assert len(tokens) == len(set(tokens))
        assert updated.consistent

    def test_no_collision_after_two_incremental_steps(self):
        # Regression: re-seeding must account for the tokens minted by
        # *previous* incremental steps, not just the original compile —
        # a collision here pairs a new receive with an old send and
        # silently deadlocks (or wrongly orders) the schedule.
        from repro.ctr.formulas import Receive, Send, walk

        E, F = atoms("e f")
        goal = A | B | C | D | E | F
        step0 = compile_workflow(goal, [order("a", "b")])
        step1 = add_constraint(step0, order("c", "d"))
        step2 = add_constraint(step1, order("e", "f"))

        sends = [n.token for n in walk(step2.goal) if isinstance(n, Send)]
        receives = [n.token for n in walk(step2.goal) if isinstance(n, Receive)]
        assert len(sends) == len(set(sends)) == 3
        assert sorted(sends) == sorted(receives)

        batch = compile_workflow(goal, [order("a", "b"), order("c", "d"),
                                        order("e", "f")])
        assert set(step2.schedules()) == set(batch.schedules())

    def test_embedded_tokens_are_collected_from_nodes_not_names(self):
        # The avoid-set is built from the actual send/receive nodes, so a
        # hand-assembled goal already containing xi1 forces the next mint
        # to skip it — regardless of any naming-convention parsing.
        from repro.core.compiler import CompiledWorkflow
        from repro.core.incremental import used_tokens
        from repro.ctr.formulas import Receive, Send, seq

        goal = seq(A, Send("xi1"), Receive("xi1"), B) | (C | D)
        compiled = CompiledWorkflow(source=goal, constraints=(),
                                    applied=goal, goal=goal)
        assert used_tokens(goal) == {"xi1"}
        updated = add_constraint(compiled, order("c", "d"))
        assert updated.consistent
        tokens = used_tokens(updated.goal)
        assert len(tokens) == 2  # xi1 plus exactly one genuinely fresh token


class TestEquivalenceWithFullRecompilation:
    @settings(max_examples=60, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_incremental_equals_batch(self, goal, data):
        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        first = data.draw(constraints_over(events))
        second = data.draw(constraints_over(events))

        incremental = add_constraint(compile_workflow(goal, [first]), second)
        batch = compile_workflow(goal, [first, second])

        assert incremental.consistent == batch.consistent
        if batch.consistent:
            try:
                expected = machine_traces(batch.goal)
                actual = machine_traces(incremental.goal)
            except TooManyTracesError:
                # Sync tokens can make the trace set explode combinatorially;
                # reject such examples rather than time the comparison out.
                assume(False)
            assert actual == expected
