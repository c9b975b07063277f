"""Shared fixtures and hypothesis strategies for the test-suite.

The central strategies generate *unique-event* concurrent-Horn goals and
CONSTR constraints over their vocabulary, so the compiler equation

    traces(Excise(Apply(C, G)))  ==  { t in traces(G) : t |= C }

can be property-tested exactly against the step machine's traces.
"""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from repro.constraints import algebra, klein
from repro.ctr.formulas import Atom, Goal, Isolated, alt, par, seq

EVENT_POOL = tuple(f"e{i}" for i in range(1, 9))


@st.composite
def unique_event_goals(
    draw,
    min_events: int = 1,
    max_events: int = 5,
    allow_isolated: bool = True,
    allow_shared_choice: bool = True,
) -> Goal:
    """A random unique-event goal over a small fixed vocabulary."""
    n = draw(st.integers(min_events, max_events))
    events = list(EVENT_POOL[:n])

    def build(evts: list[str], depth: int) -> Goal:
        if len(evts) == 1:
            leaf: Goal = Atom(evts[0])
            if allow_isolated and depth > 0 and draw(st.booleans()) and draw(st.booleans()):
                return leaf  # bare atoms are not worth isolating
            return leaf
        kinds = ["seq", "par", "alt"]
        if allow_shared_choice:
            kinds.append("alt_shared")
        kind = draw(st.sampled_from(kinds))
        if kind == "alt_shared":
            # Both alternatives range over the same events with (likely)
            # different structure: the interesting choice-sharing case.
            left = build_plain(evts, depth + 1)
            right = build_plain(evts, depth + 1)
            return alt(left, right)
        split = draw(st.integers(1, len(evts) - 1))
        left_events, right_events = evts[:split], evts[split:]
        left = build(left_events, depth + 1)
        right = build(right_events, depth + 1)
        if kind == "seq":
            combined = seq(left, right)
        elif kind == "par":
            combined = par(left, right)
        else:
            combined = alt(left, right)
        if (
            allow_isolated
            and kind == "seq"
            and depth > 0
            and draw(st.integers(0, 9)) == 0
        ):
            return Isolated(combined)
        return combined

    def build_plain(evts: list[str], depth: int) -> Goal:
        """Choice-free structure over ``evts`` (used inside shared choices)."""
        if len(evts) == 1:
            return Atom(evts[0])
        split = draw(st.integers(1, len(evts) - 1))
        left = build_plain(evts[:split], depth + 1)
        right = build_plain(evts[split:], depth + 1)
        return seq(left, right) if draw(st.booleans()) else par(left, right)

    return build(events, 0)


@st.composite
def constraints_over(draw, events: tuple[str, ...] = EVENT_POOL[:5]):
    """One random CONSTR constraint over the given events."""
    kind = draw(
        st.sampled_from(
            [
                "must",
                "absent",
                "order",
                "serial3",
                "klein_order",
                "klein_existence",
                "mutex",
                "causes",
                "and",
                "or",
            ]
        )
    )
    pick2 = lambda: draw(st.permutations(list(events)))[:2]  # noqa: E731
    if kind == "must":
        return algebra.must(draw(st.sampled_from(list(events))))
    if kind == "absent":
        return algebra.absent(draw(st.sampled_from(list(events))))
    if kind == "order":
        a, b = pick2()
        return algebra.order(a, b)
    if kind == "serial3" and len(events) >= 3:
        a, b, c = draw(st.permutations(list(events)))[:3]
        return algebra.serial(a, b, c)
    if kind == "klein_order":
        a, b = pick2()
        return klein.klein_order(a, b)
    if kind == "klein_existence":
        a, b = pick2()
        return klein.klein_existence(a, b)
    if kind == "mutex":
        a, b = pick2()
        return klein.mutually_exclusive(a, b)
    if kind == "causes":
        a, b = pick2()
        return klein.causes(a, b)
    if kind == "and":
        a, b = pick2()
        c, d = pick2()
        return algebra.conj(algebra.must(a), klein.klein_order(c, d))
    # "or" and the serial3 fallback
    a, b = pick2()
    return algebra.disj(algebra.order(a, b), algebra.absent(a))


@pytest.fixture
def figure1():
    """The paper's Figure 1 specification."""
    from repro.workflows.figure1 import figure1_constraints, figure1_goal

    return figure1_goal(), figure1_constraints()
