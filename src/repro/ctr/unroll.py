"""Loops and iteration via bounded unrolling (Section 7, "Loops").

The paper: *"Loops in control flow graph can be expressed using recursive
CTR rules. Our techniques assume the unique-event property for workflow
graphs. Hence this property has to be relaxed to handle workflows with
loops."* — and Section 3 observes that *"we can always rename different
occurrences of the same type of event."*

This module implements exactly that renaming discipline, restoring the
unique-event property for loops with a known iteration bound:

* :func:`unroll` — takes a (possibly recursive) list of rules and a bound
  ``k``, and produces a **non-recursive** :class:`~repro.ctr.rules.RuleBase`
  where each recursive head ``h`` is expanded into levels ``h#k … h#0``.
  A recursive reference at level ``i`` becomes a reference to level
  ``i-1``; at level 0 the recursive alternatives are pruned (a rule set
  with no base case is rejected). Only the events that can *co-occur with
  a recursive descent* — and hence could repeat — are renamed, as
  ``e#1`` for the outermost iteration, ``e#2`` for the next, and so on;
  exit-branch events keep their names (they occur at most once anyway,
  on mutually exclusive alternatives).
* :func:`bounded_loop` — the common "repeat a body up to k times, then
  exit" pattern as a direct goal constructor.
* :func:`occurrence_names` — the renamed instances of an event, so
  constraints can quantify over iterations (e.g. "some retry must
  succeed": ``disj(*map(must, occurrence_names('succeed', k)))``).
"""

from __future__ import annotations

from typing import Iterable

from ..errors import SpecificationError
from .formulas import (
    EMPTY,
    NEG_PATH,
    Atom,
    Choice,
    Concurrent,
    Goal,
    Isolated,
    NegPath,
    Possibility,
    Serial,
    alt,
    event_names,
    par,
    seq,
)
from .rules import Rule, RuleBase
from .simplify import simplify

__all__ = ["unroll", "bounded_loop", "occurrence_names", "recursive_heads"]

_SEPARATOR = "#"


def occurrence_names(event: str, bound: int) -> list[str]:
    """The per-iteration instance names of ``event`` after unrolling."""
    return [f"{event}{_SEPARATOR}{i}" for i in range(1, bound + 1)]


def recursive_heads(rules: Iterable[Rule]) -> frozenset[str]:
    """Heads that participate in a recursion cycle (incl. self-recursion)."""
    bodies: dict[str, list[Goal]] = {}
    for rule in rules:
        bodies.setdefault(rule.head, []).append(rule.body)

    def references(body: Goal) -> set[str]:
        from .formulas import walk

        return {n.name for n in walk(body) if isinstance(n, Atom) and n.name in bodies}

    reach: dict[str, set[str]] = {
        head: set().union(*(references(b) for b in defs)) if defs else set()
        for head, defs in bodies.items()
    }
    changed = True
    while changed:
        changed = False
        for head, targets in reach.items():
            expanded = set(targets)
            for target in targets:
                expanded |= reach.get(target, set())
            if expanded != targets:
                reach[head] = expanded
                changed = True
    return frozenset(head for head, targets in reach.items() if head in targets)


def unroll(rules: Iterable[Rule], bound: int) -> RuleBase:
    """Expand recursive rules into a non-recursive, unique-event rule base.

    Non-recursive rules pass through unchanged. For each recursive head
    ``h``, levels ``h#bound … h#0`` are generated and ``h`` itself is
    aliased to the top level, so existing goals mentioning ``h`` run at
    most ``bound`` recursive descents.
    """
    if bound < 0:
        raise SpecificationError("unroll bound must be >= 0")
    rules = list(rules)
    loops = recursive_heads(rules)
    bodies: dict[str, list[Goal]] = {}
    for rule in rules:
        bodies.setdefault(rule.head, []).append(rule.body)

    out = RuleBase()
    for head, defs in bodies.items():
        if head not in loops:
            for body in defs:
                out.add(Rule(head, body))
            continue
        rename_sets = [_cooccur_with_recursion(body, loops) for body in defs]
        for level in range(bound + 1):
            iteration = bound - level + 1
            expanded = alt(
                *(
                    simplify(_instantiate(body, loops, level, renames, iteration))
                    for body, renames in zip(defs, rename_sets)
                )
            )
            # A level may legitimately be ¬path (e.g. a head of a mutual
            # recursion with no base case of its own, which terminates
            # through its cycle partner); dead levels are pruned when the
            # referencing level expands.
            out.add(Rule(_leveled(head, level), expanded))
        out.add(Rule(head, Atom(_leveled(head, bound))))

    for head in loops:
        if isinstance(simplify(out.expand(Atom(head))), NegPath):
            raise SpecificationError(
                f"recursive rule {head!r} cannot terminate within {bound} "
                "unrollings: no base case is reachable"
            )
    return out


def _leveled(head: str, level: int) -> str:
    return f"{head}{_SEPARATOR}{level}"


def _cooccur_with_recursion(body: Goal, loops: frozenset[str]) -> frozenset[str]:
    """Events that may occur in an execution that also takes a recursive step.

    These are precisely the events that can repeat across iterations and
    must be renamed per level; events exclusive with the recursion (e.g.
    on the exit alternative) occur at most once per execution and keep
    their names.
    """

    def analyse(node: Goal) -> tuple[frozenset[str], bool, frozenset[str]]:
        """(possible events, recursion possible, events co-occurring with it)."""
        if isinstance(node, Atom):
            if node.name in loops:
                return frozenset(), True, frozenset()
            return frozenset((node.name,)), False, frozenset()
        if isinstance(node, Possibility):
            return frozenset(), False, frozenset()  # hypothetical
        if isinstance(node, Isolated):
            return analyse(node.body)
        if isinstance(node, Choice):
            events: frozenset[str] = frozenset()
            rec = False
            cooccur: frozenset[str] = frozenset()
            for part in node.parts:
                part_events, part_rec, part_cooccur = analyse(part)
                events |= part_events
                rec = rec or part_rec
                cooccur |= part_cooccur
            return events, rec, cooccur
        if isinstance(node, (Serial, Concurrent)):
            results = [analyse(part) for part in node.parts]
            events = frozenset().union(*(r[0] for r in results))
            rec = any(r[1] for r in results)
            cooccur = frozenset().union(*(r[2] for r in results))
            # Every part executes: an event in part i co-occurs with a
            # recursive step available in any *other* part.
            for i, (part_events, _pr, _pc) in enumerate(results):
                if any(r[1] for j, r in enumerate(results) if j != i):
                    cooccur |= part_events
            return events, rec, cooccur
        return frozenset(), False, frozenset()

    _events, _rec, cooccur = analyse(body)
    return cooccur


def _instantiate(
    body: Goal,
    loops: frozenset[str],
    level: int,
    renames: frozenset[str],
    iteration: int,
) -> Goal:
    """Rewrite one body for unrolling ``level`` (iteration index from outside).

    Recursive references drop a level (or die at level 0); events in
    ``renames`` get the iteration suffix so the full expansion is
    unique-event.
    """

    def rewrite(node: Goal) -> Goal:
        if isinstance(node, Atom):
            if node.name in loops:
                if level == 0:
                    return NEG_PATH
                return Atom(_leveled(node.name, level - 1))
            if node.name in renames:
                return Atom(f"{node.name}{_SEPARATOR}{iteration}")
            return node
        if isinstance(node, Serial):
            return seq(*(rewrite(p) for p in node.parts))
        if isinstance(node, Concurrent):
            return par(*(rewrite(p) for p in node.parts))
        if isinstance(node, Choice):
            return alt(*(rewrite(p) for p in node.parts))
        if isinstance(node, Isolated):
            return Isolated(rewrite(node.body))
        if isinstance(node, Possibility):
            return Possibility(rewrite(node.body))
        return node

    return rewrite(body)


def bounded_loop(body: Goal, bound: int, exit_goal: Goal = EMPTY) -> Goal:
    """"Repeat ``body`` zero to ``bound`` times, then ``exit_goal``".

    Each iteration's events are renamed ``e#i`` (the first iteration gets
    index 1), so the result is unique-event whenever ``body`` and
    ``exit_goal`` are over disjoint vocabularies.

    >>> from repro.ctr.formulas import Atom
    >>> from repro.ctr import traces
    >>> sorted(traces(bounded_loop(Atom("try"), 2, Atom("done"))))
    [('done',), ('try#1', 'done'), ('try#1', 'try#2', 'done')]
    """
    if bound < 0:
        raise SpecificationError("loop bound must be >= 0")
    all_events = event_names(body)
    result = exit_goal
    for iteration in range(bound, 0, -1):
        instance = _instantiate(body, frozenset(), 1, all_events, iteration)
        result = alt(exit_goal, seq(instance, result))
    return simplify(result)
