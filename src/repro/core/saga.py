"""Compensation-based failure semantics (Section 7, "Failure semantics").

The paper: *"Failure atomicity is built into CTR semantics. However, more
complex workflows require more advanced failure semantics, such as
compensation [Garcia-Molina & Salem's Sagas]."* This module expresses the
saga pattern directly in the concurrent-Horn fragment, so the Apply/Excise
machinery can *verify* compensation policies rather than trusting them.

A saga is a sequence of steps, each with a compensating activity. Every
step either commits (and the saga proceeds) or aborts — in which case the
already-committed steps are compensated in reverse order. The encoding
uses only ``⊗`` and ``∨`` and is unique-event (each compensation event
appears on several *mutually exclusive* abort branches, which Definition
3.1 permits), so sagas compose freely with other workflow fragments and
global CONSTR constraints.

:func:`saga_invariants` returns the correctness properties of the pattern
as CONSTR constraints — e.g. "a compensation only runs if its step
committed", "compensations run in reverse commit order" — all of which
:func:`repro.core.verify.verify_property` proves for the generated goal
(see ``tests/core/test_saga.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constraints.algebra import Constraint, absent, disj, order
from ..constraints.klein import klein_existence, requires_prior
from ..ctr.formulas import EMPTY, Atom, Goal, alt, seq

__all__ = ["SagaStep", "saga_goal", "saga_invariants"]


@dataclass(frozen=True, slots=True)
class SagaStep:
    """One saga step: a named action with its compensating activity."""

    name: str

    @property
    def start(self) -> str:
        return f"start_{self.name}"

    @property
    def commit(self) -> str:
        return f"commit_{self.name}"

    @property
    def abort(self) -> str:
        return f"abort_{self.name}"

    @property
    def compensate(self) -> str:
        return f"undo_{self.name}"


def saga_goal(steps: list[SagaStep], on_success: Goal = EMPTY,
              on_failure: Goal = EMPTY) -> Goal:
    """The saga over ``steps`` as a concurrent-Horn goal.

    Each step runs ``start ⊗ (commit ∨ abort)``; a commit proceeds to the
    next step, an abort triggers the compensations of all previously
    committed steps in reverse order, followed by ``on_failure``. Full
    completion runs ``on_success``.

    >>> from repro.ctr import traces
    >>> g = saga_goal([SagaStep("pay"), SagaStep("ship")])
    >>> ('start_pay', 'commit_pay', 'start_ship', 'abort_ship', 'undo_pay') in traces(g)
    True
    """
    if not steps:
        return on_success

    def compensation(committed: list[SagaStep]) -> Goal:
        return seq(*(Atom(step.compensate) for step in reversed(committed)), on_failure)

    def build(index: int, committed: list[SagaStep]) -> Goal:
        if index == len(steps):
            return on_success
        step = steps[index]
        commit_branch = seq(Atom(step.commit), build(index + 1, committed + [step]))
        abort_branch = seq(Atom(step.abort), compensation(committed))
        return seq(Atom(step.start), alt(commit_branch, abort_branch))

    return build(0, [])


def saga_invariants(steps: list[SagaStep]) -> list[tuple[str, Constraint]]:
    """The named correctness properties of the saga pattern.

    Every returned constraint holds on every execution of
    ``saga_goal(steps)`` (the test-suite verifies this via Theorem 5.9):

    * *compensation needs a commit*: ``undo_i`` only occurs after
      ``commit_i``;
    * *no compensation on success*: if the last step commits, nothing is
      undone;
    * *abort compensates everything committed*: if step ``i`` committed
      and any later step aborted, ``undo_i`` runs;
    * *reverse order*: ``undo_j`` precedes ``undo_i`` for ``i < j`` when
      both occur;
    * *at most one abort*.
    """
    invariants: list[tuple[str, Constraint]] = []
    last = steps[-1]
    for i, step in enumerate(steps):
        invariants.append(
            (
                f"undo_{step.name} only after commit_{step.name}",
                requires_prior(step.compensate, step.commit),
            )
        )
        invariants.append(
            (
                f"success leaves {step.name} alone",
                disj(absent(last.commit), absent(step.compensate)),
            )
        )
        for later in steps[i + 1:]:
            invariants.append(
                (
                    f"abort of {later.name} undoes committed {step.name}",
                    _abort_implies_undo(later, step),
                )
            )
            invariants.append(
                (
                    f"undo_{later.name} before undo_{step.name}",
                    disj(
                        absent(later.compensate),
                        absent(step.compensate),
                        order(later.compensate, step.compensate),
                    ),
                )
            )
    for i, a in enumerate(steps):
        for b in steps[i + 1:]:
            invariants.append(
                (
                    f"at most one abort ({a.name}/{b.name})",
                    disj(absent(a.abort), absent(b.abort)),
                )
            )
    return invariants


def _abort_implies_undo(aborted: SagaStep, committed: SagaStep) -> Constraint:
    """If ``aborted`` aborts while ``committed`` had committed, undo it."""
    return disj(
        absent(aborted.abort),
        absent(committed.commit),
        klein_existence(aborted.abort, committed.compensate),
    )
