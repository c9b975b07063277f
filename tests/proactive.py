"""Seeded sweeps shared by tier-1 and the benchmarks.

* Section 4's pro-active guarantee: one spec generator and one state
  walk, run by the tier-1 sweep (``tests/core/test_scheduler.py``) and
  the K4 gate over different seed ranges.
* The kernel against the step machine on shapes Apply never builds:
  choice-free goals with tokens reused and inside ``◇`` bodies, run by
  ``tests/ctr/test_kernel.py`` (seeds 0–79), the K5 gate (0–2,999) and
  Excise's tests (``tests/core/test_excise_edges.py``).
* Theorem 5.9 as a checked relation: E5c's specs with an order
  disjunction and a property, run by ``tests/core/test_refutation.py``
  (seeds 0–499) and the E5f gate of ``benchmarks/bench_sat.py``
  (0–9,999); and the cost of a witness, run by
  ``tests/ctr/test_fusion.py`` and the K6 gate of
  ``benchmarks/bench_kernel.py`` on S2's goal.
"""

import random

from repro.baselines.passive import validate_sequence
from repro.constraints.algebra import absent, disj, must, order
from repro.constraints.normalize import negate
from repro.core.apply import refutes
from repro.core.compiler import compile_workflow, expand_goal
from repro.core.scheduler import Scheduler
from repro.core.verify import verify_property
from repro.ctr.formulas import (
    Atom,
    Concurrent,
    Isolated,
    Possibility,
    Receive,
    Send,
    Serial,
    event_names,
    isolated,
    par,
    seq,
)
from repro.ctr.kernel import count_traces, is_executable, traces
from repro.ctr.machine import Machine, can_complete, machine_traces
from repro.graph.generators import random_constraints, random_goal


def isolation_spec(seed):
    """A random goal over 3–7 events, ⊙ density 0/0.3/0.6 and ◇ 0.2 on
    every fourth seed, with 1–3 random constraints."""
    rng = random.Random(seed)
    goal = random_goal(3 + seed % 5, rng=rng,
                       p_isolated=(0.0, 0.3, 0.6)[seed % 3],
                       p_possible=0.2 if seed % 4 == 0 else 0.0)
    events = sorted(event_names(goal))
    return goal, random_constraints(events, rng.randint(1, 3), rng=rng)


def dead_end_states(scheduler) -> tuple[int, int]:
    """Reachable states, and those whose eligible set differs from
    ``viable_events()``."""
    start = scheduler.mark()
    seen = {start.state}
    stack = [start]
    dead_ends = 0
    while stack:
        mark = stack.pop()
        scheduler.rewind(mark)
        eligible = scheduler.eligible()
        dead_ends += eligible != scheduler.viable_events()
        for event in eligible:
            scheduler.fire(event)
            after = scheduler.mark()
            if after.state not in seen:
                seen.add(after.state)
                stack.append(after)
            scheduler.rewind(mark)
    return len(seen), dead_ends


def sprinkled(goal, rng, into_tests=False):
    """``goal`` with sends and receives of ``t1``/``t2`` before or after
    some of its atoms, inside ``◇`` bodies too when ``into_tests`` (Apply
    puts no token there; a hand-written goal may)."""
    if isinstance(goal, Atom):
        steps = [goal]
        for _ in range(rng.choice((0, 0, 1, 2))):
            step = rng.choice((Send, Receive))(rng.choice(("t1", "t2")))
            steps.insert(rng.randint(0, len(steps)), step)
        return seq(*steps)
    if isinstance(goal, (Serial, Concurrent)):
        build = seq if isinstance(goal, Serial) else par
        return build(*(sprinkled(part, rng, into_tests) for part in goal.parts))
    if isinstance(goal, Isolated):
        return isolated(sprinkled(goal.body, rng, into_tests))
    if isinstance(goal, Possibility) and into_tests:
        return Possibility(sprinkled(goal.body, rng, into_tests))
    return goal


def with_tokens(seed, into_tests=False):
    """A choice-free goal of 2–6 events with ``⊙`` blocks and ``◇`` tests,
    tokens sprinkled over it."""
    rng = random.Random(seed)
    goal = random_goal(2 + seed % 5, rng=rng, p_choice=0, p_isolated=0.3,
                       p_possible=0.1)
    return sprinkled(goal, rng, into_tests)


def kernel_divergences(goal) -> list[str]:
    """The queries the kernel answers differently from the step machine on
    ``goal``: ``traces``, the exact ``count_traces``, ``is_executable``
    and the scheduler's ``enumerate_schedules``."""
    expected = machine_traces(goal)
    count = count_traces(goal)
    agrees = {
        "traces": traces(goal) == expected,
        "count_traces": count.exact and count == len(expected),
        "is_executable": is_executable(goal) == can_complete(goal),
        "enumerate_schedules":
            list(Scheduler(goal).enumerate_schedules()) == sorted(expected),
    }
    return [query for query, same in agrees.items() if not same]


def search_spec(seed):
    """E5c's spec (E5c–E5f): a random goal and 1–4 constraints over its
    events."""
    rng = random.Random(seed)
    goal = random_goal(rng.randint(2, 6), rng=rng, p_choice=0.3,
                       p_isolated=0.2, p_possible=0.1, p_condition=0.1)
    events = sorted(event_names(goal)) + ["e_missing"]
    constraints = random_constraints(events, rng.randint(1, 3), rng=rng)
    constraints = [negate(c) if rng.random() < 0.2 else c for c in constraints]
    if rng.random() < 0.6:
        chosen = rng.sample(events, rng.randint(2, min(3, len(events))))
        constraints.append(disj(*(must(e) if rng.random() < 0.5 else absent(e)
                                  for e in chosen)))
    return goal, constraints


def verification_spec(seed):
    """E5f's spec: :func:`search_spec`'s, plus an order disjunction
    ``p⊗q ∨ q⊗p`` over two of its goal's events and a property, both drawn
    from an RNG of their own. The property is one of the constraints
    (3 in 10) or a random constraint, and is negated 1 in 5."""
    goal, constraints = search_spec(seed)
    rng = random.Random(f"e5f-{seed}")
    events = sorted(event_names(goal))
    p, q = rng.sample(events, 2)
    constraints = constraints + [disj(order(p, q), order(q, p))]
    if rng.random() < 0.3:
        prop = rng.choice(constraints)
    else:
        prop = random_constraints(events + ["e_missing"], 1, rng=rng)[0]
    if rng.random() < 0.2:
        prop = negate(prop)
    return goal, constraints, prop


def replays(goal, sequence) -> bool:
    """Is ``sequence`` a complete run of ``goal`` on the step machine?"""
    machine = Machine(goal)
    configs = {machine.initial()}
    for event in sequence:
        configs = {nxt for config in configs
                   for nxt in machine.successors(config).get(event, ())}
        if not configs:
            return False
    return any(machine.is_final(config) for config in configs)


def verification_faults(goal, constraints, prop) -> tuple[bool, bool, list[str]]:
    """``verify_property`` on one spec, checked as Theorem 5.9 states it:
    ``(holds, refuted, faults)``.

    ``refuted`` says whether :func:`~repro.core.apply.refutes` answered
    the property without a compile. ``faults`` names each check it fails:
    ``verdict`` when ``holds`` is not the inconsistency of the compile of
    ``G ∧ C ∧ ¬Φ``, and for a failing property ``passive`` when its
    witness violates ``C ∧ ¬Φ`` by ``baselines/passive.py``, ``machine``
    when it is no complete run of the goal on the step machine.
    """
    result = verify_property(goal, constraints, prop)
    violating = list(constraints) + [negate(prop)]
    faults = []
    if result.holds == compile_workflow(goal, violating).consistent:
        faults.append("verdict")
    if not result.holds:
        faults += _witness_faults(goal, violating, result.witness)
    return result.holds, refutes(violating, goal), faults


def _witness_faults(goal, violating, witness) -> list[str]:
    faults = []
    if not validate_sequence(tuple(witness), violating):
        faults.append("passive")
    if not replays(expand_goal(goal), witness):
        faults.append("machine")
    return faults


def witness_cost(goal, constraints, prop):
    """The default witness of a failing ``prop``, the
    :class:`~repro.core.scheduler.SchedulerStats` of the run that extracts
    it from the compile of ``G ∧ C ∧ ¬Φ``, and the checks it fails:
    ``passive`` and ``machine`` as in :func:`verification_faults`,
    ``verify`` when ``verify_property`` returns another witness."""
    violating = list(constraints) + [negate(prop)]
    scheduler = compile_workflow(goal, violating).scheduler()
    witness = scheduler.run()
    faults = _witness_faults(goal, violating, witness)
    if verify_property(goal, constraints, prop).witness != witness:
        faults.append("verify")
    return witness, scheduler.stats, faults
