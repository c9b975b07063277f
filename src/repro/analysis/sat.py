"""The NP-completeness reduction of Proposition 4.1.

"The NP-hardness proof is by reduction to satisfiability of propositional
logic … the problem is NP-complete even in the presence of just the
existence constraints."

The reduction implemented here: for a CNF formula over variables
``x₁ … xₙ``,

* the control flow graph offers, for each variable, a non-deterministic
  choice between the events ``xi_true`` and ``xi_false``, all variables in
  parallel::

      (x1_true ∨ x1_false) | … | (xn_true ∨ xn_false)

* each clause becomes an *existence* constraint — a disjunction of
  positive primitives over its literals' events (no order constraints
  anywhere, confirming that "synchronization per se is not the culprit").

The workflow is consistent with the constraints iff the CNF is
satisfiable, and any allowed schedule reads back a satisfying assignment.
:func:`workflow_consistency_sat` answers with the consistency search of
:func:`repro.core.apply.consistent_branch` — on this reduction it is a
DPLL: each clause is a ``∇`` disjunction, a chosen literal resolves its
variable's choice, and the occurrence masks propagate units — and reads
the assignment off a schedule of the branch the search found. An empty
clause is false: it becomes ``∇`` of an event the goal never offers, and
zero variables give the empty goal. A brute-force SAT solver is included
as the ground truth for the test-suite, along with a seeded random k-CNF
generator for benchmark E5.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from ..constraints.algebra import Constraint, disj, must
from ..ctr.formulas import Atom, Goal, alt, par
from ..ctr.simplify import is_failure

__all__ = [
    "Cnf",
    "random_cnf",
    "brute_force_sat",
    "cnf_to_workflow",
    "workflow_consistency_sat",
    "assignment_from_schedule",
]

# A literal is a non-zero int: +i means xi, -i means ¬xi (DIMACS style).
Clause = tuple[int, ...]


@dataclass(frozen=True)
class Cnf:
    """A propositional formula in conjunctive normal form."""

    n_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        for clause in self.clauses:
            for literal in clause:
                if literal == 0 or abs(literal) > self.n_vars:
                    raise ValueError(f"literal {literal} out of range")

    def evaluate(self, assignment: dict[int, bool]) -> bool:
        return all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in self.clauses
        )


def random_cnf(
    n_vars: int,
    n_clauses: int,
    k: int = 3,
    seed: int | None = None,
    rng: random.Random | None = None,
) -> Cnf:
    """A random k-CNF over ``n_vars`` variables (distinct variables per clause)."""
    if rng is None:
        rng = random.Random(seed)
    if n_vars < k:
        raise ValueError(f"need at least {k} variables for {k}-clauses")
    clauses = []
    for _ in range(n_clauses):
        variables = rng.sample(range(1, n_vars + 1), k)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
    return Cnf(n_vars, tuple(clauses))


def brute_force_sat(cnf: Cnf) -> dict[int, bool] | None:
    """Exhaustive SAT check — ground truth for the reduction tests."""
    for bits in itertools.product((False, True), repeat=cnf.n_vars):
        assignment = {i + 1: bit for i, bit in enumerate(bits)}
        if cnf.evaluate(assignment):
            return assignment
    return None


def _event(literal: int) -> str:
    polarity = "true" if literal > 0 else "false"
    return f"x{abs(literal)}_{polarity}"


#: The event an empty clause requires: no variable choice offers it.
_NO_LITERAL = "x0"


def cnf_to_workflow(cnf: Cnf) -> tuple[Goal, list[Constraint]]:
    """The Proposition 4.1 reduction: CNF → (control flow goal, existence constraints)."""
    goal = par(*(alt(Atom(_event(i)), Atom(_event(-i)))
                 for i in range(1, cnf.n_vars + 1)))
    constraints = [disj(*(must(_event(lit)) for lit in clause)) if clause
                   else must(_NO_LITERAL) for clause in cnf.clauses]
    return goal, constraints


def workflow_consistency_sat(cnf: Cnf) -> dict[int, bool] | None:
    """Decide SAT via workflow consistency (Theorem 5.8 + the reduction).

    Returns a satisfying assignment read off a schedule of the branch the
    consistency search found, or None when the workflow (hence the CNF) is
    inconsistent. Any satisfying assignment may come back, not
    necessarily the one the full compile's schedule would give.
    """
    from ..core.apply import consistent_branch
    from ..core.compiler import expand_goal
    from ..core.scheduler import Scheduler

    goal, constraints = cnf_to_workflow(cnf)
    leaf = consistent_branch(constraints, expand_goal(goal))
    if is_failure(leaf):
        return None
    return assignment_from_schedule(Scheduler(leaf).run(), cnf.n_vars)


def assignment_from_schedule(
    schedule: tuple[str, ...], n_vars: int
) -> dict[int, bool]:
    """Read the variable assignment off an allowed schedule."""
    assignment: dict[int, bool] = {}
    for event in schedule:
        name, _, polarity = event.rpartition("_")
        assignment[int(name[1:])] = polarity == "true"
    for i in range(1, n_vars + 1):
        assignment.setdefault(i, False)
    return assignment
