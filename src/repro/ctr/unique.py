"""The unique-event property (Definition 3.1) and its linear-time checker.

A concurrent-Horn goal has the *unique event property* iff every significant
event occurs at most once in any execution. The paper's observations (3)
give the compositional characterisation we implement:

* ``E₁ ⊗ E₂`` / ``E₁ | E₂`` are unique-event iff both parts are and their
  event sets are disjoint;
* ``E₁ ∨ E₂`` is unique-event iff both parts are (overlap is fine — only
  one branch executes).

This syntactic check is *exact* for unique-event subparts: every syntactic
event occurrence inside a unique-event goal is realised by some execution
(choices can always select the branch containing it), so a shared event
between two serial/concurrent siblings really does yield a double
occurrence on some path.

The event sets are the ``may`` masks of the goal's occurrence table
(:class:`~repro.ctr.formulas.EventMasks`), which Apply reads too: the goal
is unique-event iff the table met no clash while it was built, one entry
per distinct node. Events under a ``◇`` test are hypothetical and do not
count as occurrences, but the ``◇`` body must itself be unique-event.
The same pass refuses the proposition ``path``: it admits arbitrary
executions, so it belongs in constraints, not goals.
"""

from __future__ import annotations

from ..errors import SpecificationError, UniqueEventError
from .formulas import EventMasks, Goal

__all__ = ["check_unique_events", "is_unique_event_goal", "occurring_events"]


def occurring_events(goal: Goal) -> frozenset[str]:
    """Events that may occur in some execution of ``goal``.

    Raises :class:`~repro.errors.UniqueEventError` if the unique-event
    property is violated; i.e. this function *is* the checker and returns
    the occurrence set as a byproduct.
    """
    table, may = _checked_table(goal)
    return table.names(may)


def check_unique_events(goal: Goal) -> None:
    """Raise :class:`~repro.errors.UniqueEventError` unless ``goal`` is unique-event.

    The error names the smallest event of the first overlap, in the order
    a recursive check over the parts, left to right, meets it. A goal that
    holds ``path`` raises :class:`~repro.errors.SpecificationError`.
    """
    _checked_table(goal)


def is_unique_event_goal(goal: Goal) -> bool:
    """Boolean form of :func:`check_unique_events`."""
    table = EventMasks()
    table.occurrence(goal)
    return not table.clash


def _checked_table(goal: Goal) -> tuple[EventMasks, int]:
    table = EventMasks()
    _, may, _ = table.occurrence(goal)
    if table.path:
        raise SpecificationError(
            "the proposition `path` admits arbitrary executions; it belongs "
            "in constraints, not goals"
        )
    if table.clash:
        raise UniqueEventError(min(table.names(table.clash)))
    return table, may
