"""Tests for Excise: knot detection and removal."""

import gc
import os
import sys
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sat import cnf_to_workflow, random_cnf
from repro.constraints.satisfy import satisfies
from repro.core.apply import apply_all
from repro.core.excise import ExciseStats, excise, flat_executable, has_knot
from repro.ctr.formulas import (
    EMPTY,
    NEG_PATH,
    Atom,
    Isolated,
    Possibility,
    Receive,
    Send,
    alt,
    atoms,
    event_names,
    intern_table_size,
    par,
    seq,
)
from repro.ctr.simplify import is_failure
from repro.ctr.traces import is_executable, traces
from repro.workflows.figure1 import example_5_7
from tests.conftest import constraints_over, unique_event_goals

A, B, C, D = atoms("a b c d")


class TestFlatExecutable:
    def test_plain_goal(self):
        assert flat_executable(A >> B)

    def test_serial_knot(self):
        assert not flat_executable(Receive("t") >> A >> Send("t"))

    def test_parallel_ok(self):
        assert flat_executable((A >> Send("t")) | (Receive("t") >> B))

    def test_cross_knot(self):
        goal = (Receive("x") >> A >> Send("y")) | (Receive("y") >> B >> Send("x"))
        assert not flat_executable(goal)

    def test_receive_without_send_is_dead(self):
        assert not flat_executable(Receive("orphan") >> A)

    def test_send_without_receive_is_fine(self):
        assert flat_executable(Send("unused") >> A)

    def test_isolation_blocks_midway_waits(self):
        # send must happen before the isolated block starts; here the block
        # precedes the send structurally in the same chain: deadlock.
        goal = Isolated(Receive("t") >> A) >> Send("t")
        assert not flat_executable(goal)

    def test_isolation_ok_when_send_first(self):
        goal = (C >> Send("t")) | Isolated(Receive("t") >> A >> B)
        assert flat_executable(goal)

    def test_dead_possibility_body(self):
        assert not flat_executable(Possibility(Receive("never")) >> A)

    def test_empty(self):
        assert flat_executable(EMPTY)
        assert not flat_executable(NEG_PATH)


class TestExcise:
    def test_distributes_over_choice(self):
        dead = Receive("t") >> A >> Send("t")
        assert excise(dead + B) == B

    def test_all_dead_is_negpath(self):
        dead1 = Receive("t") >> A >> Send("t")
        dead2 = Receive("u") >> B >> Send("u")
        assert is_failure(excise(dead1 + dead2))

    def test_example_5_7(self):
        goal, constraints = example_5_7()
        compiled = excise(apply_all(constraints, goal))
        gamma, eta = atoms("gamma eta")
        assert compiled == gamma >> eta

    def test_local_choice_pruning(self):
        dead = Receive("t") >> A >> Send("t")
        goal = C >> (dead + B) >> D
        assert excise(goal) == C >> B >> D

    def test_mandatory_dead_subgoal(self):
        dead = Receive("t") >> A >> Send("t")
        assert is_failure(excise(C >> dead))

    def test_entangled_choice_nonrectangular_hoists(self):
        # alternative a1 works only with b1, a2 only with b2.
        a1 = Send("x") >> A >> Receive("y")
        a2 = Send("y") >> A.__class__("a2") >> Receive("x")
        b1 = Receive("x") >> B >> Send("y")
        b2 = Receive("y") >> B.__class__("b2") >> Send("x")
        goal = (a1 + a2) | (b1 + b2)
        result = excise(goal)
        assert not is_failure(result)
        assert traces(result) == traces(goal)

    def test_has_knot(self):
        dead = Receive("t") >> A >> Send("t")
        assert has_knot(dead + B)
        assert not has_knot(A + B)


class TestExciseProperties:
    @settings(max_examples=80, deadline=None)
    @given(unique_event_goals(max_events=5))
    def test_identity_on_token_free_goals(self, goal):
        # A token-free unique-event goal is always executable.
        assert excise(goal) == goal

    @settings(max_examples=60, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_excise_preserves_traces(self, goal, data):
        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        constraint = data.draw(constraints_over(events))
        applied = apply_all([constraint], goal)
        excised = excise(applied)
        if is_failure(excised):
            assert not is_executable(applied)
        else:
            assert traces(excised) == traces(applied)

    @settings(max_examples=40, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_excise_is_idempotent(self, goal, data):
        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        constraint = data.draw(constraints_over(events))
        excised = excise(apply_all([constraint], goal))
        assert excise(excised) == excised

    @settings(max_examples=40, deadline=None)
    @given(unique_event_goals(max_events=4), st.data())
    def test_excised_goals_have_no_dead_alternatives(self, goal, data):
        """Soundness of the compiled representation: every top-level
        alternative of the excised goal is executable."""
        from repro.ctr.formulas import Choice

        events = tuple(sorted(event_names(goal))) or ("e1", "e2")
        if len(events) == 1:
            events = events + ("e_other",)
        constraint = data.draw(constraints_over(events))
        excised = excise(apply_all([constraint], goal))
        if is_failure(excised):
            return
        alternatives = excised.parts if isinstance(excised, Choice) else (excised,)
        for alternative in alternatives:
            assert is_executable(alternative)


def _knotted(i):
    """A goal with a local dead choice and two entangled choices."""
    a1 = seq(Send(f"x{i}"), Atom(f"a{i}"), Receive(f"y{i}"))
    a2 = seq(Send(f"y{i}"), Atom(f"a{i}_2"), Receive(f"x{i}"))
    b1 = seq(Receive(f"x{i}"), Atom(f"b{i}"), Send(f"y{i}"))
    b2 = seq(Receive(f"y{i}"), Atom(f"b{i}_2"), Send(f"x{i}"))
    dead = seq(Receive(f"t{i}"), Atom(f"d{i}"), Send(f"t{i}"))
    return seq(Atom(f"c{i}"), alt(dead, Atom(f"e{i}")), par(alt(a1, a2), alt(b1, b2)))


def _excise_on_threads(n_threads, timeout_s):
    """Excise Prop 4.1 and knotted goals alone, then on ``n_threads`` threads.

    Returns the stats rows that differ from the lone runs, the threads
    still alive after ``timeout_s`` and the exceptions the threads raised.
    """
    work = [_knotted(i) for i in range(10)]
    for seed in range(10):
        goal, constraints = cnf_to_workflow(random_cnf(5, 21, seed=seed))
        work.append(apply_all(constraints, goal))
    expected = []
    for goal in work:
        stats = ExciseStats()
        excise(goal, stats)
        expected.append(stats)

    rows = [None] * n_threads
    errors = []

    def worker(slot):
        try:
            row = []
            for goal in work:
                stats = ExciseStats()
                excise(goal, stats)
                row.append(stats)
            rows[slot] = row
        except Exception as exc:  # reported by the caller's assertion
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(n_threads)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout_s)
    finally:
        sys.setswitchinterval(previous)
    alive = [thread for thread in threads if thread.is_alive()]
    wrong = [row for row in rows if row != expected]
    return wrong, alive, errors


class TestConcurrentPasses:
    def test_threads_share_no_pass_state(self):
        # Interleaved passes must neither count into each other's stats
        # nor leave a memo behind that pins nodes in the intern table.
        gc.collect()
        before = intern_table_size()
        wrong, alive, errors = _excise_on_threads((os.cpu_count() or 1) + 2, 60)
        assert not alive
        assert not errors
        assert not wrong
        gc.collect()
        assert intern_table_size() == before
