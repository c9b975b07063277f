"""The ``sync`` transformation (Definition 5.3): token-based event ordering.

``sync(α < β, T)`` rewrites the goal ``T`` so that every occurrence of
event ``α`` is followed by ``send(ξ)`` and every occurrence of ``β`` is
preceded by ``receive(ξ)``, for a fresh token ``ξ``. Because ``receive(ξ)``
only succeeds after ``send(ξ)`` has executed, ``β`` can no longer start
before ``α`` is done — even when the two events live in different
concurrent branches.

Occurrences inside a ``◇`` (possibility) body are *not* rewritten: those
executions are hypothetical and must not emit or consume real
synchronization tokens (see DESIGN.md, "Semantic choices").

The rewrite itself is Apply's order case (:func:`repro.core.apply._sync`),
which runs on the occurrence masks of its run: it rebuilds only the
subgoals that can hold ``α`` or ``β``. :func:`sync_order` runs that walk
on a fresh mask table; this module keeps the public entry point and the
:class:`TokenFactory` that every compilation threads through.
"""

from __future__ import annotations

import itertools
from typing import Iterable

from ..ctr.formulas import EventMasks, Goal

__all__ = ["TokenFactory", "sync_order"]


class TokenFactory:
    """Mints fresh synchronization tokens (``xi1``, ``xi2``, …).

    One factory is threaded through a whole compilation so tokens never
    collide across constraints. ``avoid`` is a set of token names that must
    never be minted: incremental recompilation passes the tokens already
    embedded in a compiled goal, whatever their shape.
    """

    def __init__(self, prefix: str = "xi", avoid: Iterable[str] = ()):
        self._prefix = prefix
        self._counter = itertools.count(1)
        self._avoid = frozenset(avoid)

    def fresh(self) -> str:
        while True:
            token = f"{self._prefix}{next(self._counter)}"
            if token not in self._avoid:
                return token


def sync_order(alpha: str, beta: str, goal: Goal, token: str) -> Goal:
    """Serialise ``alpha`` before ``beta`` in ``goal`` using ``token``.

    Every occurrence of ``alpha`` becomes ``alpha ⊗ send(token)``; every
    occurrence of ``beta`` becomes ``receive(token) ⊗ beta``.

    This is Apply's own order walk on a fresh occurrence table: it
    rebuilds only the subgoals that can hold ``alpha`` or ``beta``, each
    shared node once, and returns every other subgoal object unchanged.
    """
    from .apply import _sync  # apply imports this module

    return _sync(alpha, beta, goal, token, EventMasks())
