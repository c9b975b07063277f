"""Constraint-set minimization.

Specifications accumulate rules over years; many end up implied by the
others or by the control flow itself. Building on Theorem 5.10's
redundancy test, :func:`minimize_constraints` greedily removes constraints
that the rest of the specification already enforces, returning a minimal
(irredundant) subset with exactly the same legal executions. Each test is
a consistency search (:func:`repro.core.verify.is_consistent`) of the
kept constraints with the candidate negated: it stops at the first
surviving branch instead of compiling all ``d^N``.

Note that redundancy is not monotone — two constraints may each be
redundant *given the other* but not simultaneously removable — hence the
greedy one-at-a-time loop rather than a single batch filter. The result
is a (not necessarily unique) minimal set; pass a different ``order`` to
prefer keeping particular constraints.
"""

from __future__ import annotations

from typing import Callable

from ..ctr.formulas import Goal
from ..ctr.rules import RuleBase
from .algebra import Constraint

__all__ = ["minimize_constraints"]


def minimize_constraints(
    goal: Goal,
    constraints: list[Constraint],
    rules: RuleBase | None = None,
    prefer: Callable[[Constraint], float] | None = None,
) -> list[Constraint]:
    """A minimal subset of ``constraints`` with the same legal executions.

    ``prefer`` scores constraints; higher-scored ones are *kept* longer
    (removal is attempted on the lowest-scored first). By default removal
    is attempted in the given order.
    """
    from ..core.verify import is_consistent
    from .normalize import negate

    kept = list(constraints)
    candidates = sorted(
        range(len(kept)), key=(lambda i: prefer(kept[i])) if prefer else (lambda i: i)
    )
    removed: set[int] = set()
    for index in candidates:
        remaining = [c for j, c in enumerate(kept) if j != index and j not in removed]
        if not is_consistent(goal, remaining + [negate(kept[index])], rules=rules):
            removed.add(index)
    return [c for j, c in enumerate(kept) if j not in removed]
