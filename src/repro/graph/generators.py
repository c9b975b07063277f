"""Workload generators: random and structured workflows for benches and tests.

The paper has no empirical section, so the benchmark harness needs
synthetic workloads whose *parameters* map onto the quantities in the
theorems: graph size ``|G|``, constraint-set size ``N``, disjunct width
``d``, parallel width (for the state-explosion comparison), and path
length (for the scheduling comparison). This module provides:

* structured families — :func:`serial_chain`, :func:`parallel_chains`,
  :func:`or_tree` — with exactly controllable size/width;
* :func:`random_goal` — random series-parallel unique-event goals, with
  ``⊙`` blocks, ``◇`` tests and transition conditions mixed in on request;
* :func:`random_constraints` — random CONSTR constraints over a goal's
  events, drawn from the idioms of Section 3.

All randomness is driven by an explicit seed for reproducibility.
"""

from __future__ import annotations

import itertools
import random

from ..constraints import algebra, klein
from ..constraints.algebra import Constraint
from ..ctr.formulas import Atom, Goal, Isolated, Possibility, Test, alt, atoms, par, seq

__all__ = [
    "serial_chain",
    "parallel_chains",
    "or_tree",
    "random_goal",
    "random_constraints",
    "event_names_of",
]


def serial_chain(length: int, prefix: str = "e") -> Goal:
    """``e1 ⊗ e2 ⊗ … ⊗ e_length``."""
    if length < 1:
        raise ValueError("length must be >= 1")
    return seq(*atoms([f"{prefix}{i}" for i in range(1, length + 1)]))


def parallel_chains(width: int, length: int, prefix: str = "t") -> Goal:
    """``width`` concurrent serial chains of ``length`` events each.

    Event ``t{i}_{j}`` is step ``j`` of chain ``i``. This is the classic
    state-explosion workload: the interleaving space has
    ``(width·length)! / (length!)^width`` states.
    """
    if width < 1 or length < 1:
        raise ValueError("width and length must be >= 1")
    chains = [serial_chain(length, prefix=f"{prefix}{i}_") for i in range(1, width + 1)]
    return par(*chains)


def or_tree(depth: int, prefix: str = "o") -> Goal:
    """A binary OR-tree of depth ``depth`` with distinct leaf events."""
    counter = [0]

    def build(level: int) -> Goal:
        if level == 0:
            counter[0] += 1
            return Atom(f"{prefix}{counter[0]}")
        return alt(build(level - 1), build(level - 1))

    return build(depth)


def random_goal(
    n_events: int,
    seed: int | None = None,
    rng: random.Random | None = None,
    p_choice: float = 0.25,
    p_parallel: float = 0.35,
    max_fan: int = 3,
    prefix: str = "e",
    p_isolated: float = 0.0,
    p_possible: float = 0.0,
    p_condition: float = 0.0,
) -> Goal:
    """A random series-parallel unique-event goal over ``n_events`` events.

    Recursively partitions the event vocabulary and picks a connective:
    choice with probability ``p_choice``, concurrent with ``p_parallel``,
    serial otherwise. Every generated goal satisfies the unique-event
    property by construction (sibling subtrees get disjoint events).

    Then, with these probabilities, a composite node becomes a ``⊙`` block
    (``p_isolated``), and any node is preceded by a ``◇`` test of one
    event of the goal (``p_possible``, hypothetical, so still unique-event)
    or by a fresh predicate-free transition condition (``p_condition``).
    A probability of 0 draws no random number, so the default goals are
    those drawn without these knobs.
    """
    if rng is None:
        rng = random.Random(seed)
    names = [f"{prefix}{i}" for i in range(1, n_events + 1)]
    conditions = itertools.count(1)

    def build(events: list[str]) -> Goal:
        if len(events) == 1:
            node: Goal = Atom(events[0])
        else:
            fan = rng.randint(2, min(max_fan, len(events)))
            groups = _partition(events, fan, rng)
            parts = [build(g) for g in groups]
            roll = rng.random()
            if roll < p_choice:
                node = alt(*parts)
            elif roll < p_choice + p_parallel:
                node = par(*parts)
            else:
                node = seq(*parts)
            if p_isolated and rng.random() < p_isolated:
                node = Isolated(node)
        if p_possible and rng.random() < p_possible:
            node = seq(Possibility(Atom(rng.choice(names))), node)
        if p_condition and rng.random() < p_condition:
            node = seq(Test(f"cond{next(conditions)}"), node)
        return node

    return build(names)


def _partition(items: list[str], groups: int, rng: random.Random) -> list[list[str]]:
    shuffled = items[:]
    rng.shuffle(shuffled)
    # One item per group guaranteed, remainder spread randomly.
    buckets: list[list[str]] = [[shuffled[i]] for i in range(groups)]
    for item in shuffled[groups:]:
        buckets[rng.randrange(groups)].append(item)
    return buckets


_CONSTRAINT_KINDS = (
    "order",
    "klein_order",
    "klein_existence",
    "must",
    "absent",
    "mutex",
    "causes",
    "serial3",
)


def random_constraints(
    events: list[str] | tuple[str, ...],
    count: int,
    seed: int | None = None,
    rng: random.Random | None = None,
    kinds: tuple[str, ...] = _CONSTRAINT_KINDS,
) -> list[Constraint]:
    """``count`` random CONSTR constraints over the given event names."""
    if rng is None:
        rng = random.Random(seed)
    events = list(events)
    if len(events) < 2:
        raise ValueError("need at least two events to build constraints")
    out: list[Constraint] = []
    for _ in range(count):
        kind = rng.choice(kinds)
        if kind == "serial3" and len(events) >= 3:
            a, b, c = rng.sample(events, 3)
            out.append(algebra.serial(a, b, c))
            continue
        a, b = rng.sample(events, 2)
        if kind == "order":
            out.append(algebra.order(a, b))
        elif kind == "klein_order":
            out.append(klein.klein_order(a, b))
        elif kind == "klein_existence":
            out.append(klein.klein_existence(a, b))
        elif kind == "must":
            out.append(algebra.must(a))
        elif kind == "absent":
            out.append(algebra.absent(a))
        elif kind == "mutex":
            out.append(klein.mutually_exclusive(a, b))
        else:  # "causes", and the fallback for serial3 with 2 events
            out.append(klein.causes(a, b))
    return out


def event_names_of(goal: Goal) -> list[str]:
    """Sorted event vocabulary of a goal (convenience for the generators)."""
    from ..ctr.formulas import event_names

    return sorted(event_names(goal))
