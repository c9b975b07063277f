"""K: the flat kernel vs the object interpreters.

Two gates over N=7 concurrent workloads (seven parallel tasks with
order constraints — 7! interleavings before pruning):

* **K1 — speedup:** the kernel answers the verify-side query
  (``count_traces`` over the compiled goal, two constraints) at least 5x
  faster than the object trace enumeration kept as K1's comparator in
  ``tests/trace_reference.py``, and both count the same traces. The
  object enumeration shuffles every interleaving the Apply-transformed
  goal denotes before filtering; the kernel's pruned integer-table search
  never materializes a prefix the constraints already killed — each added
  constraint *slows* the object enumeration and *speeds* the kernel.
* **K2 — zero divergence:** against the oracle, the step machine (N=6
  keeps its search CI-sized): kernel traces equal ``machine_traces``; the
  scheduler's enumeration is exactly the sorted trace set and its default
  run the lexicographically smallest trace; every verification witness
  is a legal trace violating its property; batched
  ``verify_properties`` at ``jobs=2`` equals ``jobs=1``.
* **K4 — the pro-active guarantee:** over 10,000 seeded specs (random
  goals over 3–7 events with ``⊙`` density 0/0.3/0.6 and ``◇`` tests on
  every fourth seed, 1–3 random constraints), every reachable scheduler
  state of every consistent compile offers exactly the events that can
  still complete: ``eligible() == viable_events()`` (the specs and walk
  of ``tests/proactive.py``; tier-1 runs seeds 0–999).
* **K5 — the kernel is the machine on shapes Apply never builds:** over
  3,000 seeds of each of ``tests/proactive.py``'s two token generators
  (choice-free goals over 2–6 events with ``⊙`` blocks, ``◇`` tests and
  ``t1``/``t2`` tokens, reused, and in the second generator inside ``◇``
  bodies too), the kernel's ``traces``, exact ``count_traces``,
  ``is_executable`` and the scheduler's ``enumerate_schedules`` equal the
  step machine's answers on every goal (tier-1 runs seeds 0–79).
* **K6 — a witness walks events, not token steps:** on S2's goal (seven
  concurrent pairs, each ordered one way or the other, and a pad of
  six), the witness of each of 15 failing properties — ``pᵢ`` before
  ``qᵢ`` and ``qᵢ`` before ``pᵢ`` for i = 1…7, and the property whose
  violation orients every pair p-first — satisfies ``C ∧ ¬Φ`` by
  ``baselines/passive.py``, replays on the step machine, and is
  extracted expanding at most 8 kernel states per eligible set
  (``SchedulerStats.configs_expanded ≤ 8 × eligible_calls``; tier-1 runs
  two of the 15 in ``tests/ctr/test_fusion.py``). The lowering fuses
  each ``receive(ξ)* ⊗ α ⊗ send(ζ)*`` into one guarded step, so the
  scheduler's state sets carry no interleaving of pending token steps.

The sweep is saved machine-readably as ``results/BENCH_kernel.json``.
"""

from __future__ import annotations

import json
import time

from bench_apply_size import _PAIRS, _pair_goal, _width_d_constraint
from conftest import RESULTS_DIR, save_table, time_best_of

from repro.analysis.metrics import render_table
from repro.constraints.algebra import conj, must, order
from repro.constraints.normalize import negate
from repro.constraints.satisfy import satisfies
from repro.core.compiler import compile_workflow
from repro.core.scheduler import Scheduler
from repro.core.verify import verify_properties, verify_property
from repro.ctr.formulas import event_names
from repro.ctr.kernel import is_executable, lower_goal
from repro.ctr.machine import machine_traces
from repro.graph.generators import parallel_chains
from tests.proactive import (
    dead_end_states,
    isolation_spec,
    kernel_divergences,
    witness_cost,
    with_tokens,
)
from tests.trace_reference import count_traces

N = 7
ENUM_LIMIT = 500_000_000
_cache: dict = {}


def _workload(n: int = N, ncons: int = 2):
    goal = parallel_chains(n, 1)
    names = sorted(event_names(goal))
    constraints = [order(names[2 * i], names[2 * i + 1]) for i in range(ncons)]
    return goal, names, constraints


def _measure() -> dict:
    if _cache:
        return _cache

    # Verify-side workload: two order constraints; the object engine
    # still finishes its shuffle in CI time (one repeat, ~6s).
    goal_v, _, cons_v = _workload(ncons=2)
    compiled_v = compile_workflow(goal_v, cons_v)
    assert compiled_v.consistent
    started = time.perf_counter()
    program_v = lower_goal(compiled_v.goal)
    lower_s = time.perf_counter() - started
    object_counts = []
    obj_count_s = time_best_of(
        lambda: object_counts.append(count_traces(compiled_v.goal, ENUM_LIMIT)),
        repeats=1,
    )
    ker_count_s = time_best_of(lambda: program_v.count_traces(ENUM_LIMIT))

    _cache.update({
        "n": N,
        "verify_constraints": len(cons_v),
        "legal_traces": int(program_v.count_traces(ENUM_LIMIT)),
        "object_count": int(object_counts[0]),
        "lower_ms": lower_s * 1e3,
        "verify": {
            "object_s": obj_count_s,
            "kernel_s": ker_count_s,
            "speedup": obj_count_s / ker_count_s,
        },
    })
    return _cache


def test_k1_kernel_5x_on_verify():
    results = _measure()
    verify = results["verify"]
    save_table(
        "K1_kernel",
        render_table(
            f"K1: flat kernel vs object trace enumeration at N={results['n']} "
            f"({results['verify_constraints']} constraints, "
            f"{results['legal_traces']} legal traces)",
            ["query", "object ms", "kernel ms", "speedup"],
            [["count_traces", verify["object_s"] * 1e3,
              verify["kernel_s"] * 1e3, verify["speedup"]]],
            note=f"one-time lowering {results['lower_ms']:.2f}ms; the "
            "object enumeration (tests/trace_reference.py, "
            f"{results['object_count']} traces) shuffles every interleaving "
            "of the Apply-transformed goal, the kernel's integer-table "
            "search prunes constraint-dead prefixes as it walks.",
        ),
    )
    assert results["object_count"] == results["legal_traces"], (
        f"the comparator counts {results['object_count']} traces, "
        f"the kernel {results['legal_traces']}"
    )
    assert verify["speedup"] >= 5.0, (
        f"verify-side speedup {verify['speedup']:.1f}x < 5x"
    )


def test_k2_zero_divergence():
    goal6, names, cons6 = _workload(n=6, ncons=2)
    compiled6 = compile_workflow(goal6, cons6)
    expected = machine_traces(compiled6.goal, ENUM_LIMIT)
    assert lower_goal(compiled6.goal).traces(ENUM_LIMIT) == expected
    assert list(Scheduler(compiled6.goal).enumerate_schedules(ENUM_LIMIT)) == \
        sorted(expected)
    assert Scheduler(compiled6.goal).run() == min(expected)

    props = [must(names[0]), order(names[1], names[0]), must("never_happens")]
    legal = [t for t in machine_traces(goal6, ENUM_LIMIT)
             if all(satisfies(t, c) for c in cons6)]
    for prop in props:
        result = verify_property(goal6, cons6, prop)
        assert result.holds == all(satisfies(t, prop) for t in legal)
        if not result.holds:
            assert result.witness in legal
            assert not satisfies(result.witness, prop)
    assert verify_properties(goal6, cons6, props, jobs=2) == \
        verify_properties(goal6, cons6, props, jobs=1)
    _cache.setdefault("divergence", 0)


K4_SPECS = 10_000


def test_k4_every_eligible_event_can_complete():
    started = time.perf_counter()
    consistent = states = violations = 0
    for seed in range(K4_SPECS):
        compiled = compile_workflow(*isolation_spec(seed))
        if compiled.consistent:
            consistent += 1
            reached, bad = dead_end_states(compiled.scheduler())
            states += reached
            violations += bad
    _cache["eligible_is_viable"] = {
        "specs": K4_SPECS,
        "consistent": consistent,
        "states": states,
        "violations": violations,
        "wall_s": round(time.perf_counter() - started, 1),
    }
    assert violations == 0, f"{violations} states offer a dead-end event"


K5_SEEDS = 3_000


def test_k5_kernel_equals_the_machine():
    started = time.perf_counter()
    goals = executable = diverging = 0
    for into_tests in (False, True):
        for seed in range(K5_SEEDS):
            goal = with_tokens(seed, into_tests)
            goals += 1
            executable += is_executable(goal)
            diverging += bool(kernel_divergences(goal))
    _cache["kernel_is_machine"] = {
        "goals": goals,
        "executable": executable,
        "divergences": diverging,
        "wall_s": round(time.perf_counter() - started, 1),
    }
    assert diverging == 0, f"{diverging} of {goals} goals diverge"


K6_STATES_PER_CALL = 8


def test_k6_witness_walks_events_not_token_steps():
    goal = _pair_goal(7, padding=6)
    constraints = [_width_d_constraint(i, d=2) for i in range(7)]
    props = [order(a, b) for p, q in _PAIRS for a, b in ((p, q), (q, p))]
    props.append(negate(conj(*(order(p, q) for p, q in _PAIRS))))
    started = time.perf_counter()
    faulty, calls, configs = [], [], []
    for prop in props:
        _, stats, faults = witness_cost(goal, constraints, prop)
        calls.append(stats.eligible_calls)
        configs.append(stats.configs_expanded)
        bound = K6_STATES_PER_CALL * stats.eligible_calls
        if faults or stats.configs_expanded > bound:
            faulty.append((str(prop), faults, stats.configs_expanded,
                           stats.eligible_calls))
    _cache["witness_cost"] = {
        "properties": len(props),
        "eligible_calls": [min(calls), max(calls)],
        "configs_expanded": [min(configs), max(configs)],
        "bound": f"configs_expanded <= {K6_STATES_PER_CALL} x eligible_calls",
        "faulty": len(faulty),
        "wall_s": round(time.perf_counter() - started, 2),
    }
    assert not faulty, f"{len(faulty)} witnesses fail: {faulty}"


def test_emit_json():
    results = dict(_measure())
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_kernel.json"
    out.write_text(json.dumps(results, indent=2) + "\n")
