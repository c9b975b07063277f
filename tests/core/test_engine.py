"""Tests for the workflow run-time engine."""

import pytest

from repro.constraints.algebra import order
from repro.constraints.satisfy import satisfies
from repro.core.compiler import compile_workflow
from repro.core.engine import ExecutionReport, WorkflowEngine, random_strategy
from repro.core.resilience import (
    ChaosOracle,
    ResiliencePolicy,
    RetryPolicy,
    VirtualClock,
)
from repro.core.saga import SagaStep, saga_goal, saga_invariants
from repro.ctr.formulas import Atom, Test, atoms, seq
from repro.ctr.traces import traces
from repro.db.oracle import TransitionOracle, delete_op, insert_op
from repro.db.state import Database
from repro.errors import ExecutionError, RetryExhaustedError, SchedulingError

A, B, C = atoms("a b c")


def make_engine(goal, constraints=(), oracle=None, db=None, strategy=None,
                policies=None, clock=None):
    compiled = compile_workflow(goal, list(constraints))
    return WorkflowEngine(compiled, oracle=oracle, db=db, strategy=strategy,
                          policies=policies, clock=clock)


class TestExecution:
    def test_events_are_logged(self):
        engine = make_engine(A >> B)
        report = engine.run()
        assert report.completed
        assert report.schedule == ("a", "b")
        assert report.database.log.events() == ("a", "b")

    def test_updates_are_applied(self):
        oracle = TransitionOracle()
        oracle.register("a", insert_op("orders", 1, "open"))
        oracle.register("b", delete_op("orders", 1, "open"))
        engine = make_engine(A >> B, oracle=oracle)
        report = engine.run()
        assert report.database.query("orders") == []

    def test_constraints_shape_execution(self):
        engine = make_engine(B | A, [order("b", "a")])
        report = engine.run()
        assert report.schedule == ("b", "a")

    def test_random_strategy_still_legal(self):
        engine = make_engine((A | B) >> C, [order("a", "b")],
                             strategy=random_strategy(seed=7))
        report = engine.run()
        assert report.schedule == ("a", "b", "c")

    def test_report_truthiness(self):
        report = ExecutionReport(schedule=(), database=Database(), completed=True)
        assert report
        assert not ExecutionReport(schedule=(), database=Database(), completed=False)


class TestTransitionConditions:
    def test_predicate_gates_branch_at_runtime(self):
        low = Test("low_stock", predicate=lambda db: db.contains("stock", "low"))
        ok = Test("stock_ok", predicate=lambda db: not db.contains("stock", "low"))
        goal = A >> (seq(low, B) + seq(ok, C))

        db = Database()
        db.insert("stock", "low")
        engine = make_engine(goal, db=db)
        report = engine.run()
        assert report.schedule == ("a", "b")

        engine2 = make_engine(goal, db=Database())
        assert engine2.run().schedule == ("a", "c")

    def test_condition_reacts_to_updates(self):
        # The 'a' activity inserts the flag the later test reads.
        flag = Test("flagged", predicate=lambda db: db.contains("flag", "on"))
        unflagged = Test("not_flagged", predicate=lambda db: not db.contains("flag", "on"))
        goal = A >> (seq(flag, B) + seq(unflagged, C))
        oracle = TransitionOracle()
        oracle.register("a", insert_op("flag", "on"))
        engine = make_engine(goal, oracle=oracle)
        assert engine.run().schedule == ("a", "b")

    def test_same_shaped_workflows_keep_their_own_predicates(self):
        # Tests with one name compare equal whatever their predicates, so
        # the second workflow must not be handed the first one's nodes.
        def branching(take_b):
            go = Test("go", predicate=lambda db: take_b)
            stop = Test("stop", predicate=lambda db: not take_b)
            return A >> (seq(go, B) + seq(stop, C))

        via_b, via_c = branching(True), branching(False)
        assert make_engine(via_b).run().schedule == ("a", "b")
        assert make_engine(via_c).run().schedule == ("a", "c")


class TestFailureAtomicity:
    def test_failed_activity_rolls_back(self):
        def boom(db):
            raise RuntimeError("disk on fire")

        oracle = TransitionOracle()
        oracle.register("a", insert_op("t", 1))
        oracle.register("b", boom)
        db = Database()
        db.insert("pre", "existing")
        engine = make_engine(A >> B, oracle=oracle, db=db)
        with pytest.raises(ExecutionError) as info:
            engine.run()
        assert info.value.activity == "b"
        # Rollback: the 'a' insert and all log records are gone...
        assert not db.contains("t", 1)
        assert db.log.events() == ()
        # ...but pre-existing data survives.
        assert db.contains("pre", "existing")


class TestStepwise:
    def test_manual_driving(self):
        engine = make_engine((A | B) >> C, [order("a", "b")])
        assert engine.eligible() == {"a"}
        engine.fire("a")
        assert engine.eligible() == {"b"}
        engine.fire("b")
        engine.fire("c")
        assert engine.db.log.events() == ("a", "b", "c")

    def test_failed_fire_rewinds_the_schedule(self):
        chaos = ChaosOracle()
        chaos.fail_event("a", attempts=1)
        engine = make_engine(A >> B, oracle=chaos)
        with pytest.raises(RetryExhaustedError):
            engine.fire("a")
        # The event did not happen: it is still eligible and can be retried.
        assert engine.eligible() == {"a"}
        engine.fire("a")
        engine.fire("b")
        assert engine.db.log.events() == ("a", "b")


class TestRollbackOnAnyFailure:
    """Regression: every abnormal exit restores the checkpoint, not just
    ExecutionError (the seed engine leaked partial state on SchedulingError)."""

    def test_scheduling_error_restores_checkpoint(self):
        gate = Test("gate", predicate=lambda db: db.contains("flag", "on"))
        oracle = TransitionOracle()
        oracle.register("a", insert_op("t", 1))
        db = Database()
        db.insert("pre", "existing")
        engine = make_engine(A >> seq(gate, B), oracle=oracle, db=db)
        with pytest.raises(SchedulingError):
            engine.run()  # 'a' fires, then the false gate leaves it stuck
        assert not db.contains("t", 1)
        assert db.log.events() == ()
        assert db.contains("pre", "existing")

    def test_step_limit_restores_checkpoint(self):
        oracle = TransitionOracle()
        oracle.register("a", insert_op("t", 1))
        db = Database()
        engine = make_engine(A >> B >> C, oracle=oracle, db=db)
        with pytest.raises(SchedulingError):
            engine.run(max_steps=1)
        assert not db.contains("t", 1)
        assert db.log.events() == ()


class TestFailureDiagnostics:
    """Regression: execution errors carry the partial schedule and the
    eligible set at the point of failure."""

    def test_execution_error_carries_context(self):
        def boom(db):
            raise RuntimeError("disk on fire")

        oracle = TransitionOracle()
        oracle.register("b", boom)
        engine = make_engine(A >> B >> C, oracle=oracle)
        with pytest.raises(ExecutionError) as info:
            engine.run()
        assert info.value.schedule == ("a", "b")
        assert info.value.eligible == frozenset({"b"})


class TestRetry:
    def test_transient_failure_retried_with_backoff(self):
        oracle = TransitionOracle()
        oracle.register("b", insert_op("t", 1))
        chaos = ChaosOracle(oracle)
        chaos.fail_event("b", attempts=2, corrupt=True)
        policies = ResiliencePolicy()
        policies.register("b", RetryPolicy.exponential(3, base_delay=0.1))
        clock = VirtualClock()
        engine = make_engine(A >> B, oracle=chaos, policies=policies,
                             clock=clock)
        report = engine.run()
        assert report.completed
        assert report.schedule == ("a", "b")
        assert report.attempts == {"a": 1, "b": 3}
        assert report.retries == 2
        assert report.failures_survived == 2
        # Exponential backoff on the virtual clock: 0.1 + 0.2.
        assert report.elapsed == pytest.approx(0.3)
        # Corrupt attempts wrote dirty state; per-attempt rollback hid it.
        assert report.database.log.events() == ("a", "b")
        assert "retried: b x3" in report.summary()

    def test_retries_exhausted_raises(self):
        chaos = ChaosOracle()
        chaos.fail_event("a")
        policies = ResiliencePolicy(default=RetryPolicy.fixed(2, delay=0.5))
        engine = make_engine(Atom("a"), oracle=chaos, policies=policies)
        with pytest.raises(RetryExhaustedError) as info:
            engine.run()
        assert info.value.activity == "a"
        assert info.value.attempts == 2

    def test_timeout_counts_as_failure_and_retries(self):
        clock = VirtualClock()
        calls = {"n": 0}

        def slow_once(db):
            calls["n"] += 1
            if calls["n"] == 1:
                clock.sleep(5.0)  # simulated long-running first attempt

        oracle = TransitionOracle()
        oracle.register("a", slow_once)
        policies = ResiliencePolicy()
        policies.register("a", RetryPolicy(max_attempts=2, timeout=1.0))
        engine = make_engine(A >> B, oracle=oracle, policies=policies,
                             clock=clock)
        report = engine.run()
        assert report.attempts["a"] == 2
        assert report.failures[0].kind == "ActivityTimeoutError"
        # The timed-out attempt's log record was rolled back.
        assert report.database.log.events() == ("a", "b")

    def test_summary_reports_backoff_slept(self):
        chaos = ChaosOracle()
        chaos.fail_event("a", attempts=2)
        policies = ResiliencePolicy(
            default=RetryPolicy(max_attempts=3, base_delay=0.1, multiplier=2.0)
        )
        clock = VirtualClock()
        engine = make_engine(A >> B, oracle=chaos, policies=policies,
                             clock=clock)
        report = engine.run()
        # Failed attempts 1 and 2 back off 0.1s and 0.2s before succeeding.
        assert report.backoff == pytest.approx(0.3)
        assert "backoff: 0.3s slept between retries" in report.summary()

    def test_summary_names_reroute_target(self):
        chaos = ChaosOracle()
        chaos.fail_event("a")
        engine = make_engine((A + B) >> C, oracle=chaos)
        report = engine.run()
        assert report.schedule == ("b", "c")
        assert report.reroutes[0].target == "b"
        assert "via 'b'" in report.summary()

    def test_untroubled_run_reports_zero_backoff(self):
        report = make_engine(A >> B).run()
        assert report.backoff == 0.0
        assert report.summary() == ""


class TestFailover:
    """Acceptance: a workflow with a viable ∨-alternative completes via
    choice-branch failover, and the result is a legal, constraint-
    satisfying schedule."""

    def test_failover_to_alternative_branch(self):
        d = Atom("d")
        goal = (A | B) >> (C + d)
        constraint = order("a", "b")
        chaos = ChaosOracle()
        chaos.fail_event("c")
        engine = make_engine(goal, [constraint], oracle=chaos)
        report = engine.run()
        assert report.completed
        assert report.schedule == ("a", "b", "d")
        assert report.schedule in traces(goal)
        assert satisfies(report.schedule, constraint)
        assert len(report.reroutes) == 1
        assert report.reroutes[0].failed_event == "c"
        assert engine.dead_events == {"c"}

    def test_failover_rolls_back_the_discarded_branch(self):
        d = Atom("d")
        goal = A >> ((C >> B) + d)
        oracle = TransitionOracle()
        oracle.register("c", insert_op("branch", "taken"))
        chaos = ChaosOracle(oracle)
        chaos.fail_event("b")
        engine = make_engine(goal, oracle=chaos)
        report = engine.run()
        assert report.schedule == ("a", "d")
        # 'c' fired before 'b' died; the reroute rolled its effects back.
        assert not report.database.contains("branch", "taken")
        assert report.database.log.events() == ("a", "d")
        assert report.reroutes[0].discarded == ("c",)
        assert report.reroutes[0].resumed_depth == 1

    def test_retry_then_failover(self):
        d = Atom("d")
        chaos = ChaosOracle()
        chaos.fail_event("c")  # permanent: outlives the retry budget
        policies = ResiliencePolicy(
            default=RetryPolicy.fixed(3, delay=0.1))
        clock = VirtualClock()
        engine = make_engine(A >> (C + d), oracle=chaos, policies=policies,
                             clock=clock)
        report = engine.run()
        assert report.schedule == ("a", "d")
        assert report.attempts["c"] == 3
        assert len(report.reroutes) == 1
        assert report.elapsed == pytest.approx(0.2)  # two backoff sleeps

    def test_saga_compensates_committed_steps(self):
        """Acceptance: saga compensation rides on the same mechanism —
        the abort branch *is* the ∨-alternative."""
        steps = [SagaStep("pay"), SagaStep("ship")]
        oracle = TransitionOracle()
        oracle.register("commit_pay", insert_op("paid", "order-1"))
        oracle.register("undo_pay", delete_op("paid", "order-1"))
        chaos = ChaosOracle(oracle)
        chaos.fail_event("commit_ship")

        def optimistic(eligible, db):
            # Prefer commits; first_strategy would pick abort_* by name.
            commits = [e for e in eligible if not e.startswith("abort_")]
            return min(commits or sorted(eligible))

        engine = make_engine(saga_goal(steps), oracle=chaos,
                             strategy=optimistic)
        report = engine.run()
        assert report.schedule == (
            "start_pay", "commit_pay", "start_ship", "abort_ship", "undo_pay")
        # The committed payment was *compensated*, not blindly rolled back:
        # commit_pay stays in the log, undo_pay reversed its effect.
        assert report.database.query("paid") == []
        assert report.database.log.events() == report.schedule
        for name, invariant in saga_invariants(steps):
            assert satisfies(report.schedule, invariant), name

    def test_no_alternative_aborts_atomically(self):
        """Acceptance: with no ∨-alternative anywhere, the run aborts and
        the database (including the log) returns to the pre-run state."""
        oracle = TransitionOracle()
        oracle.register("a", insert_op("t", 1))
        chaos = ChaosOracle(oracle)
        chaos.fail_event("b")
        db = Database()
        db.insert("pre", "existing")
        engine = make_engine(A >> B >> C, oracle=chaos, db=db)
        with pytest.raises(RetryExhaustedError) as info:
            engine.run()
        assert info.value.dead == frozenset({"b"})
        assert "no alternative" in str(info.value)
        assert info.value.schedule == ("a", "b")
        assert not db.contains("t", 1)
        assert db.log.events() == ()
        assert db.contains("pre", "existing")
