"""The unpruned Apply walk, the reference for the occurrence masks.

Definition 5.1 applied part by part, and Definition 5.3's ``sync``
rewriting every node of the goal, without the per-node masks that let
Apply skip the subgoals that cannot hold an event. It memoises nothing
across calls: every case is a pure function of the (hash-consed) goal,
so memoisation changes the cost and never the result, and tokens are
minted in the same order because only the constraint's structure decides
when.

Shared by the tier-1 identity tests (``tests/core/test_apply.py``) and
the E5d gate (``benchmarks/bench_sat.py``), which run it over different
inputs.
"""

from repro.constraints.algebra import And, Or, Primitive, SerialConstraint
from repro.constraints.normalize import normalize
from repro.ctr.formulas import (
    NEG_PATH,
    Atom,
    Choice,
    Concurrent,
    Isolated,
    NegPath,
    Receive,
    Send,
    Serial,
    alt,
    isolated,
    par,
    seq,
)
from repro.ctr.simplify import simplify


def reference_apply_all(constraints, goal, tokens):
    result = goal
    for constraint in constraints:
        result = _reference_apply(normalize(constraint), result, tokens)
        if isinstance(result, NegPath):
            return NEG_PATH
    return simplify(result)


def _reference_apply(constraint, goal, tokens):
    if isinstance(goal, NegPath):
        return NEG_PATH
    if isinstance(constraint, Primitive):
        if constraint.positive:
            return _reference_must(constraint.event, goal)
        return _reference_never(constraint.event, goal)
    if isinstance(constraint, SerialConstraint):
        alpha, beta = constraint.events
        forced = _reference_must(alpha, _reference_must(beta, goal))
        if isinstance(forced, NegPath):
            return NEG_PATH
        return _reference_sync(alpha, beta, forced, tokens.fresh())
    if isinstance(constraint, And):
        result = goal
        for part in constraint.parts:
            result = _reference_apply(part, result, tokens)
            if isinstance(result, NegPath):
                return NEG_PATH
        return result
    assert isinstance(constraint, Or)
    return alt(*(_reference_apply(part, goal, tokens) for part in constraint.parts))


def _reference_must(alpha, goal):
    if isinstance(goal, Atom):
        return goal if goal.name == alpha else NEG_PATH
    if isinstance(goal, (Serial, Concurrent)):
        build = seq if isinstance(goal, Serial) else par
        parts = goal.parts
        branches = []
        for i, part in enumerate(parts):
            transformed = _reference_must(alpha, part)
            if not isinstance(transformed, NegPath):
                branches.append(build(*parts[:i], transformed, *parts[i + 1:]))
        return alt(*branches) if branches else NEG_PATH
    if isinstance(goal, Choice):
        return alt(*(_reference_must(alpha, part) for part in goal.parts))
    if isinstance(goal, Isolated):
        return isolated(_reference_must(alpha, goal.body))
    # ◇, send, receive, test, ε, path, ¬path: α cannot occur here.
    return NEG_PATH


def _reference_never(alpha, goal):
    if isinstance(goal, Atom):
        return NEG_PATH if goal.name == alpha else goal
    if isinstance(goal, Serial):
        return seq(*(_reference_never(alpha, part) for part in goal.parts))
    if isinstance(goal, Concurrent):
        return par(*(_reference_never(alpha, part) for part in goal.parts))
    if isinstance(goal, Choice):
        return alt(*(_reference_never(alpha, part) for part in goal.parts))
    if isinstance(goal, Isolated):
        return isolated(_reference_never(alpha, goal.body))
    return goal  # a ◇ keeps its hypothetical α; other leaves hold no event


def _reference_sync(alpha, beta, goal, token):
    """Rebuild every distinct node of ``goal``, ``α ⊗ send`` for each ``α``
    and ``receive ⊗ β`` for each ``β``; a ``◇`` body is left as it is."""
    memo = {}

    def rewrite(node):
        if isinstance(node, Atom):
            if node.name == alpha:
                return seq(node, Send(token))
            if node.name == beta:
                return seq(Receive(token), node)
            return node
        cached = memo.get(node)
        if cached is not None:
            return cached
        if isinstance(node, Serial):
            result = seq(*(rewrite(p) for p in node.parts))
        elif isinstance(node, Concurrent):
            result = par(*(rewrite(p) for p in node.parts))
        elif isinstance(node, Choice):
            result = alt(*(rewrite(p) for p in node.parts))
        elif isinstance(node, Isolated):
            result = Isolated(rewrite(node.body))
        else:
            result = node  # ◇: hypothetical executions exchange no real tokens
        memo[node] = result
        return result

    return rewrite(goal)
