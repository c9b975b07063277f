"""R1/R2: the cost of resilient execution.

R1 measures the happy-path price of the resilience layer: the engine
journals restore points only at choice points, so on a fault-free run it
should cost within 5% of a bare scheduler+oracle loop (checkpoint, fire,
execute — no policies, no journal, no accounting). The two arms are timed
in alternation, so drift in the host's speed over the run reaches both.

R2 measures recovery: time to complete a workflow of n binary choices as
an increasing fraction of the preferred branches is permanently dead,
forcing one choice-branch failover (scheduler rewind + database restore)
per dead branch.
"""

import random
import time

from conftest import save_table, time_best_of

from repro.analysis.metrics import render_table
from repro.core.compiler import compile_workflow
from repro.core.engine import WorkflowEngine
from repro.core.resilience import ChaosOracle
from repro.ctr.formulas import Atom, alt, seq
from repro.db.oracle import TransitionOracle, insert_op
from repro.db.state import Database
from repro.graph.generators import serial_chain


def _chain_oracle(length: int) -> TransitionOracle:
    oracle = TransitionOracle()
    for i in range(1, length + 1):
        oracle.register(f"e{i}", insert_op("done", f"e{i}"))
    return oracle


def _bare_run(compiled, oracle):
    """The seed-engine loop: checkpoint, fire, execute; nothing else."""
    db = Database()
    checkpoint = db.snapshot()
    scheduler = compiled.scheduler()
    try:
        while True:
            events = scheduler.eligible()
            if not events:
                break
            event = min(events)
            scheduler.fire(event)
            oracle.execute(event, db)
    except Exception:
        db.restore(checkpoint)
        raise
    return scheduler.history


def _interleaved_best_of(first, second, rounds: int) -> tuple[float, float]:
    """Best wall-clock seconds of each function, the two timed in alternation.

    The order flips every round, so neither arm always runs right after
    the other.
    """
    best = [float("inf"), float("inf")]
    arms = (first, second)
    for round_ in range(rounds):
        for index in (0, 1) if round_ % 2 == 0 else (1, 0):
            start = time.perf_counter()
            arms[index]()
            best[index] = min(best[index], time.perf_counter() - start)
    return best[0], best[1]


def test_r1_happy_path_overhead(benchmark):
    lengths = [50, 100, 200, 400]
    rows = []
    bare_total = engine_total = 0.0
    for length in lengths:
        compiled = compile_workflow(serial_chain(length), [])
        oracle = _chain_oracle(length)

        def engine_run():
            return WorkflowEngine(compiled, oracle=oracle, db=Database()).run()

        assert len(engine_run().schedule) == length
        bare, full = _interleaved_best_of(
            lambda: _bare_run(compiled, oracle), engine_run, rounds=21
        )
        bare_total += bare
        engine_total += full
        rows.append([length, bare * 1e3, full * 1e3, (full / bare - 1) * 100])

    compiled = compile_workflow(serial_chain(100), [])
    oracle = _chain_oracle(100)
    benchmark(lambda: WorkflowEngine(compiled, oracle=oracle, db=Database()).run())

    overhead = engine_total / bare_total - 1
    save_table(
        "R1_resilience_overhead",
        render_table(
            "R1: resilient engine vs bare scheduler+oracle loop (fault-free)",
            ["chain length", "bare ms", "engine ms", "overhead %"],
            rows,
            note=(
                f"aggregate happy-path overhead: {overhead * 100:.1f}% "
                "(restore points are journaled only at choice points; a "
                "serial chain has none)."
            ),
        ),
    )
    assert overhead <= 0.05, (
        f"happy-path overhead {overhead * 100:.1f}% exceeds the 5% budget"
    )


def test_r2_recovery_latency_vs_fault_rate(benchmark):
    n = 60
    goal = seq(*(alt(Atom(f"a{i}"), Atom(f"b{i}")) for i in range(n)))
    compiled = compile_workflow(goal, [])
    rng = random.Random(42)
    rows = []
    for rate in [0.0, 0.1, 0.25, 0.5, 1.0]:
        dead = [f"a{i}" for i in range(n) if rng.random() < rate]

        def run():
            chaos = ChaosOracle()
            for event in dead:
                chaos.fail_event(event)
            return WorkflowEngine(compiled, oracle=chaos).run()

        report = run()
        assert report.completed
        assert len(report.reroutes) == len(dead)
        elapsed = time_best_of(run, repeats=5)
        rows.append([rate, len(report.reroutes), elapsed * 1e3])

    benchmark(lambda: WorkflowEngine(compiled, oracle=ChaosOracle()).run())

    save_table(
        "R2_recovery_latency",
        render_table(
            f"R2: completion time vs fraction of dead preferred branches "
            f"({n} binary choices)",
            ["fault rate", "reroutes", "total ms"],
            rows,
            note=(
                "every dead branch costs one failover: scheduler rewind to "
                "the choice point, database restore, and a re-filtered "
                "eligible set avoiding all dead events."
            ),
        ),
    )
