"""Tests for the saga/compensation encoding (Section 7 failure semantics)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.satisfy import satisfies
from repro.core.compiler import compile_workflow
from repro.core.saga import SagaStep, saga_goal, saga_invariants
from repro.core.verify import verify_property
from repro.ctr.formulas import EMPTY, Atom, atoms
from repro.ctr.machine import machine_traces
from repro.ctr.unique import is_unique_event_goal

PAY = SagaStep("pay")
SHIP = SagaStep("ship")
BILL = SagaStep("bill")


class TestSagaGoal:
    def test_empty_saga(self):
        assert saga_goal([]) is EMPTY

    def test_single_step_traces(self):
        got = machine_traces(saga_goal([PAY]))
        assert got == {
            ("start_pay", "commit_pay"),
            ("start_pay", "abort_pay"),
        }

    def test_two_step_compensation(self):
        got = machine_traces(saga_goal([PAY, SHIP]))
        assert ("start_pay", "commit_pay", "start_ship", "commit_ship") in got
        assert ("start_pay", "commit_pay", "start_ship", "abort_ship", "undo_pay") in got
        assert ("start_pay", "abort_pay") in got
        # An aborted first step compensates nothing.
        assert all("undo_pay" not in t or "abort_ship" in t for t in got)

    def test_three_step_reverse_order(self):
        got = machine_traces(saga_goal([PAY, SHIP, BILL]))
        failing = next(t for t in got if "abort_bill" in t)
        assert failing.index("undo_ship") < failing.index("undo_pay")

    def test_success_and_failure_continuations(self):
        ok, bad = atoms("celebrate apologize")
        got = machine_traces(saga_goal([PAY], on_success=ok, on_failure=bad))
        assert ("start_pay", "commit_pay", "celebrate") in got
        assert ("start_pay", "abort_pay", "apologize") in got

    def test_unique_event(self):
        assert is_unique_event_goal(saga_goal([PAY, SHIP, BILL]))


class TestSagaInvariants:
    def test_all_invariants_verified(self):
        """Theorem 5.9 proves the saga pattern correct, invariant by invariant."""
        steps = [PAY, SHIP, BILL]
        goal = saga_goal(steps)
        for name, invariant in saga_invariants(steps):
            result = verify_property(goal, [], invariant)
            assert result.holds, f"invariant violated: {name} ({result.witness})"

    def test_invariants_hold_on_every_trace(self):
        steps = [PAY, SHIP]
        goal = saga_goal(steps)
        for trace in machine_traces(goal):
            for name, invariant in saga_invariants(steps):
                assert satisfies(trace, invariant), (name, trace)

    def test_broken_saga_is_caught(self):
        """Drop one compensation from the goal: verification must notice."""
        pay, ship = PAY, SHIP
        broken = (
            Atom(pay.start)
            >> (
                (Atom(pay.commit)
                 >> Atom(ship.start)
                 >> (Atom(ship.commit) + Atom(ship.abort)))  # forgot undo_pay!
                + Atom(pay.abort)
            )
        )
        failures = [
            name
            for name, invariant in saga_invariants([pay, ship])
            if not verify_property(broken, [], invariant).holds
        ]
        assert any("undoes committed" in name for name in failures)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 4))
    def test_saga_composes_with_compiler(self, n_steps):
        steps = [SagaStep(f"s{i}") for i in range(n_steps)]
        goal = saga_goal(steps)
        invariants = [c for _name, c in saga_invariants(steps)]
        compiled = compile_workflow(goal, invariants)
        # The invariants already hold, so compilation must not prune anything.
        assert compiled.consistent
        assert machine_traces(compiled.goal) == machine_traces(goal)
