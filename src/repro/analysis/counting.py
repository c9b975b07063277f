"""Counting execution paths without enumerating them.

"Enumerating all execution paths of G' takes time linear in G per path" —
but *how many* paths are there? For token-free goals the answer is a
closed-form combinatorial computation:

* an atom is one item;
* serial composition concatenates (path counts multiply, lengths add);
* a choice sums the alternatives;
* concurrent composition interleaves: two parts with ``n₁`` and ``n₂``
  items combine into ``C(n₁+n₂, n₁)`` arrangements per path pair;
* an isolated block is contiguous, i.e. a *single* item whose internal
  arrangements multiply;
* tests and possibility checks are trace-invisible (zero items).

:func:`count_paths` computes the exact number in polynomial time —
compare with the exponential cost of enumeration. The count is over
execution *paths*: when two choice alternatives can realise the same
event sequence the distinct-*trace* count is lower (each path is still a
separate way the scheduler can run the workflow).

Goals containing ``send``/``receive`` tokens are rejected: tokens
restrict interleavings in ways that make counting #P-hard in general —
count the *source* goal, or the compiled goal of an order-constraint-free
specification.
"""

from __future__ import annotations

from math import comb

from ..ctr.formulas import (
    Atom,
    Choice,
    Concurrent,
    Empty,
    Goal,
    Isolated,
    NegPath,
    Possibility,
    Receive,
    Send,
    Serial,
    Test,
)
from ..errors import SpecificationError

__all__ = ["count_paths", "path_length_profile"]

# A profile maps "number of interleavable items" -> "number of paths".
Profile = dict[int, int]


def path_length_profile(goal: Goal) -> Profile:
    """Paths of ``goal`` grouped by their number of interleavable items."""
    return _profile(goal)


def count_paths(goal: Goal) -> int:
    """The exact number of execution paths of a token-free goal."""
    return sum(_profile(goal).values())


def _profile(goal: Goal) -> Profile:
    if isinstance(goal, Atom):
        return {1: 1}
    if isinstance(goal, (Send, Receive)):
        raise SpecificationError(
            "cannot count paths of a goal with synchronization tokens "
            "(the restriction they impose makes counting #P-hard); count "
            "the uncompiled goal instead"
        )
    if isinstance(goal, (Test, Empty)):
        return {0: 1}
    if isinstance(goal, NegPath):
        return {}
    if isinstance(goal, Possibility):
        from ..core.excise import excise
        from ..ctr.simplify import is_failure, simplify

        return {} if is_failure(excise(simplify(goal.body))) else {0: 1}

    if isinstance(goal, Serial):
        profile: Profile = {0: 1}
        for part in goal.parts:
            profile = _serial_merge(profile, _profile(part))
        return profile

    if isinstance(goal, Concurrent):
        profile = {0: 1}
        for part in goal.parts:
            profile = _shuffle_merge(profile, _profile(part))
        return profile

    if isinstance(goal, Choice):
        merged: Profile = {}
        for part in goal.parts:
            for items, count in _profile(part).items():
                merged[items] = merged.get(items, 0) + count
        return merged

    if isinstance(goal, Isolated):
        inner = _profile(goal.body)
        # A contiguous block interleaves as one item; paths where the body
        # emits nothing contribute no item at all.
        out: Profile = {}
        if 0 in inner:
            out[0] = inner[0]
        rest = sum(count for items, count in inner.items() if items > 0)
        if rest:
            out[1] = rest
        return out

    raise SpecificationError(f"cannot count paths of {type(goal).__name__}")


def _serial_merge(left: Profile, right: Profile) -> Profile:
    out: Profile = {}
    for n1, c1 in left.items():
        for n2, c2 in right.items():
            out[n1 + n2] = out.get(n1 + n2, 0) + c1 * c2
    return out


def _shuffle_merge(left: Profile, right: Profile) -> Profile:
    out: Profile = {}
    for n1, c1 in left.items():
        for n2, c2 in right.items():
            n = n1 + n2
            out[n] = out.get(n, 0) + c1 * c2 * comb(n, n1)
    return out
