"""The seeded sweep of Section 4's pro-active guarantee.

One spec generator and one state walk, shared by the tier-1 sweep
(``tests/core/test_scheduler.py``) and the K4 gate
(``benchmarks/bench_kernel.py``), which run it over different seed
ranges.
"""

import random

from repro.ctr.formulas import event_names
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
