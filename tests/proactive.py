"""Seeded sweeps shared by tier-1 and ``benchmarks/bench_kernel.py``.

* Section 4's pro-active guarantee: one spec generator and one state
  walk, run by the tier-1 sweep (``tests/core/test_scheduler.py``) and
  the K4 gate over different seed ranges.
* The kernel against the step machine on shapes Apply never builds:
  choice-free goals with tokens reused and inside ``◇`` bodies, run by
  ``tests/ctr/test_kernel.py`` (seeds 0–79), the K5 gate (0–2,999) and
  Excise's tests (``tests/core/test_excise_edges.py``).
"""

import random

from repro.core.scheduler import Scheduler
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
from repro.ctr.machine import can_complete, machine_traces
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
