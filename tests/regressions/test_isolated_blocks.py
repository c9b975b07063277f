"""A ``⊙`` block starts only if it can finish.

Excise leaves a ``receive`` inside an isolated block when its ``send``
lies outside (its precedence check routes the token through the block's
boundary). An isolated block is all-or-nothing, so the kernel and the
machine offer a block's first step only when the body can then complete
on its own; before that, both goals below let the block start ahead of
the sender and the run got stuck inside it. Whether the body can finish
is judged with every condition passing: a condition inside the block is
read only after the block's own activities have run.
"""

import pytest

from repro.constraints.algebra import order, serial
from repro.core.compiler import compile_workflow
from repro.core.engine import WorkflowEngine
from repro.core.scheduler import Scheduler
from repro.ctr.formulas import Isolated, Receive, Send, Test, atoms, par, seq
from repro.ctr.kernel import KernelProgram
from repro.ctr.machine import Machine, machine_traces
from repro.db.oracle import TransitionOracle, insert_op
from repro.db.state import Database

E1, E2, E3, E4 = atoms("e1 e2 e3 e4")


def _assert_runs(goal, constraints, schedule):
    compiled = compile_workflow(goal, constraints)
    scheduler = compiled.scheduler()
    assert scheduler.eligible() == scheduler.viable_events()
    assert scheduler.run() == schedule
    assert set(compiled.schedules()) == machine_traces(compiled.goal)


def test_receive_under_a_concurrent_part_of_the_block():
    # [e1 * (receive(xi1) * e2 | e3)] | e4 * send(xi1)
    goal = par(Isolated(seq(E1, par(E2, E3))), E4)
    _assert_runs(goal, [order("e4", "e2")], ("e4", "e1", "e2", "e3"))


def test_receive_in_a_serial_block():
    # [e1 * receive(xi1) * e2] | e3 * send(xi1) | e4
    goal = par(Isolated(seq(E1, E2)), E3, E4)
    _assert_runs(goal, [serial("e3", "e2")], ("e3", "e1", "e2", "e4"))


def test_a_condition_the_block_itself_sets():
    # ⊙(a ⊗ flag ⊗ b) where a inserts the flag: at the start the flag
    # reads false, yet the block must start.
    a, b = atoms("a b")
    flag = Test("flag", predicate=lambda db: db.contains("flag", "on"))
    goal = Isolated(seq(a, flag, b))
    oracle = TransitionOracle()
    oracle.register("a", insert_op("flag", "on"))
    engine = WorkflowEngine(compile_workflow(goal, []), oracle=oracle)
    assert engine.run().schedule == ("a", "b")

    db = Database()
    machine = Machine(goal, test_hook=lambda test: test.predicate(db))
    assert set(machine.successors(machine.initial())) == {"a"}


@pytest.mark.parametrize("hook", [None, lambda test: True],
                         ids=["static", "live"])
def test_a_path_through_a_block_decides_each_body_state_once(monkeypatch,
                                                             hook):
    # ⊙((receive(t) ⊗ a) | (ok? ⊗ e0 ⊗ … ⊗ e199 ⊗ send(t))) | y: until
    # send(t) runs, whether the body can finish takes a search. Its
    # verdicts are memoized per body state, also across the queries of a
    # live hook, so the run derives O(k) step sets, not a search of the
    # rest of the body at every step.
    k = 200
    derived = 0
    steps = KernelProgram._steps

    def counting(self, *args):
        nonlocal derived
        derived += 1
        return steps(self, *args)

    monkeypatch.setattr(KernelProgram, "_steps", counting)
    events = atoms(" ".join(f"e{i}" for i in range(k)))
    a, y = atoms("a y")
    ok = Test("ok", predicate=lambda db: True)
    body = par(seq(Receive("t"), a), seq(ok, *events, Send("t")))
    schedule = Scheduler(par(Isolated(body), y), test_hook=hook).run()
    assert schedule[:1] + schedule[-3:] == ("e0", "e199", "a", "y")
    assert len(schedule) == k + 2
    assert derived < 5 * k


def test_a_block_waiting_for_an_outside_token_is_refused_without_search(
        monkeypatch):
    # [receive(xi1) * e1 | e2 | … | e16] | e0 * send(xi1): no step of the
    # block may come before e0. The body's 2^16 states need not be
    # searched to show it: xi1 is neither in the mask nor sent in a block.
    events = atoms(" ".join(f"e{i}" for i in range(17)))
    goal = par(Isolated(par(*events[1:])), events[0])
    scheduler = compile_workflow(goal, [order("e0", "e1")]).scheduler()
    derived = 0
    steps = KernelProgram._steps

    def counting(self, *args):
        nonlocal derived
        derived += 1
        return steps(self, *args)

    monkeypatch.setattr(KernelProgram, "_steps", counting)
    assert scheduler.eligible() == {"e0"}
    assert derived < 100
