"""Consistency, property verification, and redundancy (Theorems 5.8–5.10).

All three decision procedures are *constructive* reductions to the
Apply/Excise pipeline:

* **Consistency** (Thm 5.8): ``G ∧ C`` is consistent iff
  ``Excise(Apply(C, G)) ≠ ¬path``.
* **Verification** (Thm 5.9): every legal execution of ``G ∧ C`` satisfies
  ``Φ`` iff ``Excise(Apply(¬Φ ∧ C, G)) = ¬path``; otherwise the non-failed
  result is the *most general counterexample* — the sub-workflow whose
  executions are exactly the violating ones. We additionally extract one
  concrete violating schedule for error reporting.
* **Redundancy** (Thm 5.10): ``Φ ∈ C`` is redundant iff every execution of
  ``G ∧ (C − {Φ})`` satisfies ``Φ``, i.e. iff ``G ∧ (C − {Φ}) ∧ ¬Φ`` is
  inconsistent.

As Proposition 4.1 shows, these problems are NP-complete in the size of
the constraint set (never in the size of the graph — Apply is linear in
``|G|``); for order-constraint-only specifications ``d = 1`` and the whole
pipeline runs in polynomial time.

The two yes/no questions, consistency and redundancy, need one surviving
branch of ``Apply(C, G)``, not all ``d^N``: they search with
:func:`~repro.core.apply.consistent_branch`, which branches on the
``∇``/``¬∇`` disjunctions with the occurrence masks as unit propagation.
Verification first asks :func:`~repro.core.apply.refutes`, which applies
nothing: when the masks and the goal's ``⊗`` structure show that no
execution satisfies ``C ∧ ¬Φ``, the property holds without a compile.
Every other property keeps the full compile, because a failing property
reports the whole most general counterexample, and a holding one that
the masks cannot show needs Excise to say so.

Each single question runs sequentially, on one hash-consed memo. The batch
forms, :func:`verify_properties` and :func:`redundant_constraints`, build
one argument tuple per question and answer each with the single-question
function itself: in a loop, or with ``jobs>1`` one per worker of the
process pool of :mod:`repro.core.parallel`. It is the same function on the
same arguments either way, so ``jobs=N`` returns what ``jobs=1`` returns
(booleans, counterexample goals, witness schedules).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..constraints.algebra import Constraint
from ..constraints.normalize import negate
from ..ctr.formulas import Goal, event_names
from ..ctr.rules import RuleBase
from ..ctr.simplify import is_failure
from .apply import consistent_branch, refutes
from .compiler import CompiledWorkflow, compile_workflow, expand_goal
from .parallel import fan_out

__all__ = [
    "is_consistent",
    "VerificationResult",
    "verify_property",
    "verify_properties",
    "is_redundant",
    "redundant_constraints",
]


def is_consistent(
    goal: Goal,
    constraints: list[Constraint] | tuple[Constraint, ...] = (),
    rules: RuleBase | None = None,
) -> bool:
    """Theorem 5.8: does ``goal ∧ constraints`` have a legal execution?

    The search (:func:`~repro.core.apply.consistent_branch`) stops at the
    first branch of the ``∇``/``¬∇`` disjunctions whose Excise leaf is not
    ``¬path`` instead of compiling all ``d^N`` branches. The boolean equals
    ``compile_workflow(goal, constraints, rules).consistent``.
    """
    return not is_failure(consistent_branch(constraints, expand_goal(goal, rules)))


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of :func:`verify_property`.

    ``holds`` is True when every legal execution satisfies the property.
    Otherwise ``counterexample`` is the most general counterexample — a
    concurrent-Horn goal whose executions are exactly the legal executions
    violating the property — and ``witness`` is one concrete violating
    schedule extracted from it.
    """

    property: Constraint
    holds: bool
    counterexample: Goal | None = None
    witness: tuple[str, ...] | None = None

    def __bool__(self) -> bool:
        return self.holds


def verify_property(
    goal: Goal,
    constraints: list[Constraint] | tuple[Constraint, ...],
    prop: Constraint,
    rules: RuleBase | None = None,
    cache=None,
    seed: int | None = None,
) -> VerificationResult:
    """Theorem 5.9: check that every legal execution satisfies ``prop``.

    A property that :func:`~repro.core.apply.refutes` shows to hold on
    the goal's masks (``goal`` expanded first only when ``rules`` is
    given) is answered without a compile, a cache access or a witness.
    Every other property compiles ``G ∧ C ∧ ¬Φ``. ``cache`` (a
    :class:`~repro.core.compiler.CompileCache` or directory path) persists
    that compilation; re-verifying an unchanged specification is then a
    cache hit per property that compiles.

    ``seed`` pins the witness schedule extracted from a failing property:
    ``None`` (the default) keeps the deterministic lexicographic-minimum
    strategy, an integer draws via
    :func:`~repro.core.scheduler.seeded_strategy` — both reproduce the
    identical witness across reruns, processes, and the ``jobs`` of
    :func:`verify_properties`.
    """
    violating_spec = list(constraints) + [negate(prop)]
    if refutes(violating_spec, goal if rules is None else expand_goal(goal, rules)):
        return VerificationResult(property=prop, holds=True)
    violating: CompiledWorkflow = compile_workflow(
        goal, violating_spec, rules=rules, cache=cache
    )
    if violating.consistent:
        strategy = None
        if seed is not None:
            from .scheduler import seeded_strategy

            strategy = seeded_strategy(seed)
        witness = violating.scheduler().run(strategy=strategy)
        return VerificationResult(
            property=prop,
            holds=False,
            counterexample=violating.goal,
            witness=witness,
        )
    return VerificationResult(property=prop, holds=True)


def verify_properties(
    goal: Goal,
    constraints: list[Constraint] | tuple[Constraint, ...],
    props: list[Constraint] | tuple[Constraint, ...],
    rules: RuleBase | None = None,
    cache=None,
    jobs: int = 1,
    seed: int | None = None,
    obs=None,
) -> list[VerificationResult]:
    """Theorem 5.9 for a batch of properties (results in ``props`` order).

    Each property is one :func:`verify_property` call. With ``jobs>1``
    (``0`` = all cores) each runs on its own worker process (what
    ``verify --jobs N`` runs); ``obs`` then traces the fan-out.
    """
    if not props:
        return []
    expanded = expand_goal(goal, rules)
    argsets = [(expanded, constraints, prop, None, cache, seed) for prop in props]
    results = fan_out(verify_property, argsets, jobs, obs)
    if results is None:
        return [verify_property(*args) for args in argsets]
    # Unpickled witnesses hold private copies of every event name; share
    # the goal's strings instead, as a sequential witness does.
    names = {name: name for name in event_names(expanded)}
    return [
        result if result.witness is None else replace(
            result, witness=tuple(names.get(event, event)
                                  for event in result.witness))
        for result in results
    ]


def is_redundant(
    goal: Goal,
    constraints: list[Constraint] | tuple[Constraint, ...],
    phi: Constraint,
    rules: RuleBase | None = None,
) -> bool:
    """Theorem 5.10: is ``phi`` implied by the remaining specification?

    ``phi`` must be a member of ``constraints``. Exactly *one* occurrence
    is removed: with hash-consed constraints a specification can list the
    same constraint twice, and dropping every copy would silently change
    the question from "is this occurrence implied by the rest?" (trivially
    yes — the duplicate remains) to "is it implied by the others?".

    The answer is :func:`is_consistent` of the rest with ``¬phi``,
    negated: it searches and equals ``verify_property(...).holds`` without
    building the counterexample.
    """
    remaining = list(constraints)
    try:
        remaining.remove(phi)
    except ValueError:
        raise ValueError("phi is not one of the given constraints") from None
    return not is_consistent(goal, remaining + [negate(phi)], rules=rules)


def redundant_constraints(
    goal: Goal,
    constraints: list[Constraint] | tuple[Constraint, ...],
    rules: RuleBase | None = None,
    jobs: int = 1,
) -> list[Constraint]:
    """Every constraint implied by the rest of the specification.

    Note that redundancy is not monotone under removal (two constraints can
    each be redundant given the other); this reports each constraint's
    redundancy with respect to all the others, as in Theorem 5.10.

    The N checks are independent :func:`is_redundant` searches; with
    ``jobs>1`` each runs on its own worker process.
    """
    constraints = list(constraints)
    if not constraints:
        return []
    expanded = expand_goal(goal, rules)
    argsets = [(expanded, constraints, phi) for phi in constraints]
    flags = fan_out(is_redundant, argsets, jobs)
    if flags is None:
        flags = [is_redundant(*args) for args in argsets]
    return [phi for phi, flag in zip(constraints, flags) if flag]
