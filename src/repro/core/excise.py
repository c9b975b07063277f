"""The Excise transformation: knot detection and removal (Section 5).

After Apply, a goal may contain ``send``/``receive`` pairs that can never
fire in any order — *knots* — e.g. ``receive(ξ) ⊗ β ⊗ α ⊗ send(ξ)``, where
the receive waits for a send that is scheduled after it. A knotted
sub-formula is CTR-equivalent to ``¬path``. Excise rewrites a goal into an
equivalent knot-free concurrent-Horn goal, or ``¬path`` if no execution
survives.

Algorithm
---------
For a **choice-free** goal, executability is a reachability question on a
*precedence graph*: one node per elementary step, edges

* from the series-parallel structure (each last step of a serial part
  precedes each first step of the next part),
* from each ``send(ξ)`` to its matching ``receive(ξ)``,
* rerouted through virtual entry/exit nodes of ``⊙`` blocks (a token that
  crosses an isolation boundary must be produced before the block starts,
  or consumed after it ends — an isolated block cannot pause mid-way to
  wait for a concurrent sender).

The goal is executable iff every ``receive`` has a matching ``send`` and
the graph is acyclic; this check is linear in the goal size (Theorem
5.11's Excise bound).

Choices distribute: ``Excise(G₁ ∨ G₂) = Excise(G₁) ∨ Excise(G₂)``. A choice
*nested* inside a serial/concurrent context is handled in one of two ways:

* if no synchronization token crosses the choice's boundary (the common
  case — in particular every choice Apply itself introduces is either at
  the top level or token-free), its alternatives are excised
  independently and in place, preserving near-linear total time;
* otherwise the choice is *entangled* with its context and Excise
  enumerates the joint resolutions of the entangled choices, pruning the
  alternatives that are executable under no resolution. If viability is
  not rectangular across entangled choices, the surviving combinations
  are hoisted into an explicit top-level disjunction so that the result
  represents *exactly* the allowed executions. This is the only
  potentially super-linear path; it is exponential only in the number of
  mutually entangled choices (see DESIGN.md, "Semantic choices").
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field

from ..ctr.formulas import (
    EMPTY,
    NEG_PATH,
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
    alt,
)
from ..ctr.simplify import simplify

__all__ = ["ExciseStats", "excise", "has_knot", "flat_executable"]


@dataclass
class ExciseStats:
    """Accounting of one Excise pass (for the observability metrics).

    ``knots`` counts choice-free (sub-)goals found non-executable — each
    is a knot the transformation removed; the choice counters expose which
    of the two nesting regimes ran, and the combo counters size the
    entangled enumeration, Excise's only potentially super-linear path.
    """

    knots: int = 0
    local_choices: int = 0
    entangled_choices: int = 0
    combos_tried: int = 0
    combos_viable: int = 0


class _ExciseRun:
    """Per-run state of one outermost :func:`excise` call.

    ``stats`` is the caller's sink (or ``None``); ``flat_memo`` memoises
    :func:`flat_executable` verdicts per (shared) node. The run is passed
    down to every helper and to the re-entrant calls (◇ bodies,
    entangled-combo resolution), so one pass never rebuilds the precedence
    graph of the same shared subgoal twice, and concurrent passes share
    nothing.
    """

    __slots__ = ("stats", "flat_memo")

    def __init__(self, stats: ExciseStats | None) -> None:
        self.stats = stats
        self.flat_memo: dict[Goal, bool] = {}


def excise(goal: Goal, stats: ExciseStats | None = None) -> Goal:
    """Remove every knotted sub-formula; return the pruned goal or ``¬path``.

    Pass an :class:`ExciseStats` to collect how much pruning the pass did;
    the default collects nothing and adds no work.
    """
    return _excise(goal, _ExciseRun(stats))


def has_knot(goal: Goal) -> bool:
    """True iff excising ``goal`` changes it (some alternative is knotted)."""
    return excise(goal) != simplify(goal)


def _excise(goal: Goal, run: _ExciseRun) -> Goal:
    stats = run.stats
    goal = simplify(goal)
    if isinstance(goal, (NegPath, Empty)):
        return goal

    if isinstance(goal, Choice):
        # Top-level alternatives are independent executions.
        return alt(*(_excise(part, run) for part in goal.parts))

    paths = _topmost_choices(goal)
    if not paths:
        if _flat_executable(goal, run):
            return goal
        if stats is not None:
            stats.knots += 1
        return NEG_PATH

    local_paths: list[tuple[int, ...]] = []
    entangled_paths: list[tuple[int, ...]] = []
    for path in paths:
        if _tokens_crossing(goal, path):
            entangled_paths.append(path)
        else:
            local_paths.append(path)
    if stats is not None:
        stats.local_choices += len(local_paths)
        stats.entangled_choices += len(entangled_paths)

    # Local choices: no token crosses their boundary, so each alternative's
    # viability is intrinsic — prune them in place (recursion on strict
    # subtrees, so this is well-founded).
    replacements: list[tuple[tuple[int, ...], Goal]] = []
    for path in local_paths:
        subtree = _at(goal, path)
        pruned = alt(*(_excise(part, run) for part in subtree.parts))
        if isinstance(pruned, NegPath):
            return NEG_PATH  # a mandatory sub-goal with no viable branch
        replacements.append((path, pruned))
    pruned_goal = _replace_many(goal, replacements)

    if entangled_paths:
        return _excise_entangled(pruned_goal, entangled_paths, run)

    # Context executability is independent of how the (token-free) local
    # choices resolve: check the skeleton with them blanked out.
    skeleton = simplify(_replace_many(pruned_goal, [(p, EMPTY) for p in local_paths]))
    if isinstance(skeleton, Empty) or _flat_executable(skeleton, run):
        return simplify(pruned_goal)
    if stats is not None:
        stats.knots += 1
    return NEG_PATH


def _excise_entangled(
    goal: Goal, paths: list[tuple[int, ...]], run: _ExciseRun
) -> Goal:
    """Jointly resolve the entangled choices and prune or hoist the result.

    Each substituted resolution removes those choice nodes entirely, so the
    recursive ``_excise`` call operates on a goal with strictly fewer
    choices — the recursion is well-founded.
    """
    stats = run.stats
    alternative_counts = [len(_at(goal, p).parts) for p in paths]
    viable_combos: list[tuple[int, ...]] = []
    resolved_by_combo: dict[tuple[int, ...], Goal] = {}
    for combo in itertools.product(*(range(n) for n in alternative_counts)):
        if stats is not None:
            stats.combos_tried += 1
        resolution = [
            (path, _at(goal, path).parts[index]) for path, index in zip(paths, combo)
        ]
        resolved = _excise(_replace_many(goal, resolution), run)
        if not isinstance(resolved, NegPath):
            viable_combos.append(combo)
            resolved_by_combo[combo] = resolved
            if stats is not None:
                stats.combos_viable += 1

    if not viable_combos:
        return NEG_PATH
    if len(viable_combos) == 1:
        return resolved_by_combo[viable_combos[0]]

    # Rectangularity: if the viable combinations form the full product of
    # per-choice viable alternatives, prune each choice in place; otherwise
    # correctness demands hoisting the surviving combinations.
    per_choice = [sorted({combo[i] for combo in viable_combos}) for i in range(len(paths))]
    full_product = 1
    for options in per_choice:
        full_product *= len(options)
    if full_product == len(viable_combos):
        replacements = []
        for path, options in zip(paths, per_choice):
            subtree = _at(goal, path)
            replacements.append((path, alt(*(subtree.parts[i] for i in options))))
        return simplify(_replace_many(goal, replacements))

    return alt(*(resolved_by_combo[combo] for combo in viable_combos))


# -- path-addressed tree surgery ----------------------------------------------
#
# Replacements use *raw* node constructors so the tree shape (and hence all
# other paths) stays stable; callers simplify afterwards.


def _children(goal: Goal) -> tuple[Goal, ...]:
    if isinstance(goal, (Serial, Concurrent, Choice)):
        return goal.parts
    if isinstance(goal, Isolated):
        return (goal.body,)
    return ()


def _rebuild_raw(goal: Goal, children: tuple[Goal, ...]) -> Goal:
    if isinstance(goal, Serial):
        return Serial(children)
    if isinstance(goal, Concurrent):
        return Concurrent(children)
    if isinstance(goal, Choice):
        return Choice(children)
    if isinstance(goal, Isolated):
        return Isolated(children[0])
    raise TypeError(f"{type(goal).__name__} has no children")  # pragma: no cover


def _at(goal: Goal, path: tuple[int, ...]) -> Goal:
    node = goal
    for index in path:
        node = _children(node)[index]
    return node


def _replace(goal: Goal, path: tuple[int, ...], replacement: Goal) -> Goal:
    if not path:
        return replacement
    children = list(_children(goal))
    children[path[0]] = _replace(children[path[0]], path[1:], replacement)
    return _rebuild_raw(goal, tuple(children))


def _replace_many(goal: Goal, replacements: list[tuple[tuple[int, ...], Goal]]) -> Goal:
    for path, replacement in replacements:
        goal = _replace(goal, path, replacement)
    return goal


def _topmost_choices(goal: Goal) -> list[tuple[int, ...]]:
    """Paths to the outermost Choice nodes (◇ bodies are handled separately)."""
    found: list[tuple[int, ...]] = []

    def visit(node: Goal, path: tuple[int, ...]) -> None:
        if isinstance(node, Choice):
            found.append(path)
            return
        if isinstance(node, Possibility):
            return
        for index, child in enumerate(_children(node)):
            visit(child, path + (index,))

    visit(goal, ())
    return found


# -- token bookkeeping ---------------------------------------------------------


# token-uses is a pure function of structure; a weak cache keyed by the
# (hash-consed) node makes the repeated entanglement checks DAG-sized:
# `_tokens_crossing` re-walks the goal once per topmost choice, but every
# shared subterm's answer is computed once and reused across walks, runs,
# and incremental recompilations.
_TOKEN_USES_CACHE: "weakref.WeakKeyDictionary[Goal, tuple[frozenset[str], frozenset[str]]]" = (
    weakref.WeakKeyDictionary()
)


def _token_uses(goal: Goal) -> tuple[frozenset[str], frozenset[str]]:
    """(tokens sent, tokens received) anywhere inside ``goal``."""
    cached = _TOKEN_USES_CACHE.get(goal)
    if cached is not None:
        return cached
    sends: set[str] = set()
    receives: set[str] = set()
    seen: set[int] = set()
    stack = [goal]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node is not goal:
            sub = _TOKEN_USES_CACHE.get(node)
            if sub is not None:
                sends |= sub[0]
                receives |= sub[1]
                continue
        if isinstance(node, Send):
            sends.add(node.token)
        elif isinstance(node, Receive):
            receives.add(node.token)
        elif isinstance(node, Possibility):
            continue  # hypothetical: no real tokens
        else:
            stack.extend(_children(node))
    result = (frozenset(sends), frozenset(receives))
    try:
        _TOKEN_USES_CACHE[goal] = result
    except TypeError:  # pragma: no cover - non-weakrefable future node
        pass
    return result


def _tokens_crossing(goal: Goal, path: tuple[int, ...]) -> bool:
    """Does any token have one endpoint inside ``goal[path]`` and one outside?"""
    subtree = _at(goal, path)
    inner_sends, inner_receives = _token_uses(subtree)
    if not inner_sends and not inner_receives:
        return False
    outer = _replace(goal, path, EMPTY)
    outer_sends, outer_receives = _token_uses(outer)
    return bool(inner_sends & outer_receives) or bool(inner_receives & outer_sends)


# -- choice-free executability --------------------------------------------------


@dataclass
class _GraphBuilder:
    """Builds the precedence graph of a choice-free goal."""

    edges: dict[int, set[int]] = field(default_factory=dict)
    sends: dict[str, int] = field(default_factory=dict)
    receives: dict[str, int] = field(default_factory=dict)
    # Per-node chain of enclosing ⊙ blocks, outermost first, as
    # (entry, exit) node pairs; used to reroute crossing token edges.
    blocks_of: dict[int, tuple[tuple[int, int], ...]] = field(default_factory=dict)
    _counter: int = 0

    def node(self, enclosing: tuple[tuple[int, int], ...]) -> int:
        self._counter += 1
        self.edges[self._counter] = set()
        self.blocks_of[self._counter] = enclosing
        return self._counter

    def edge(self, src: int, dst: int) -> None:
        self.edges[src].add(dst)

    def build(
        self, goal: Goal, enclosing: tuple[tuple[int, int], ...]
    ) -> tuple[set[int], set[int]]:
        """Returns (source nodes, sink nodes) of ``goal``'s subgraph."""
        if isinstance(goal, (Atom, Test, Possibility, Empty)):
            n = self.node(enclosing)
            return {n}, {n}
        if isinstance(goal, Send):
            n = self.node(enclosing)
            if goal.token in self.sends:
                raise _MultiTokenError(goal.token)
            self.sends[goal.token] = n
            return {n}, {n}
        if isinstance(goal, Receive):
            n = self.node(enclosing)
            if goal.token in self.receives:
                raise _MultiTokenError(goal.token)
            self.receives[goal.token] = n
            return {n}, {n}
        if isinstance(goal, Serial):
            sources: set[int] = set()
            previous_sinks: set[int] = set()
            for index, part in enumerate(goal.parts):
                part_sources, part_sinks = self.build(part, enclosing)
                if index == 0:
                    sources = part_sources
                else:
                    for s in previous_sinks:
                        for t in part_sources:
                            self.edge(s, t)
                previous_sinks = part_sinks
            return sources, previous_sinks
        if isinstance(goal, Concurrent):
            sources, sinks = set(), set()
            for part in goal.parts:
                part_sources, part_sinks = self.build(part, enclosing)
                sources |= part_sources
                sinks |= part_sinks
            return sources, sinks
        if isinstance(goal, Isolated):
            entry = self.node(enclosing)
            exit_ = self.node(enclosing)
            inner = enclosing + ((entry, exit_),)
            body_sources, body_sinks = self.build(goal.body, inner)
            for t in body_sources:
                self.edge(entry, t)
            for s in body_sinks:
                self.edge(s, exit_)
            return {entry}, {exit_}
        raise TypeError(f"unexpected node {type(goal).__name__} in flat goal")

    def add_token_edges(self) -> bool:
        """Wire send → receive edges; False if some receive can never fire."""
        for token, receive_node in self.receives.items():
            send_node = self.sends.get(token)
            if send_node is None:
                return False
            send_blocks = self.blocks_of[send_node]
            recv_blocks = self.blocks_of[receive_node]
            shared = 0
            for a, b in zip(send_blocks, recv_blocks):
                if a != b:
                    break
                shared += 1
            # The send must complete before the outermost receiver-only ⊙
            # block starts (an isolated block cannot wait mid-way), and the
            # receive must wait until the outermost sender-only block ends.
            src = send_blocks[shared][1] if len(send_blocks) > shared else send_node
            dst = recv_blocks[shared][0] if len(recv_blocks) > shared else receive_node
            self.edge(src, dst)
        return True

    def acyclic(self) -> bool:
        indegree = {n: 0 for n in self.edges}
        for targets in self.edges.values():
            for t in targets:
                indegree[t] += 1
        queue = [n for n, d in indegree.items() if d == 0]
        visited = 0
        while queue:
            n = queue.pop()
            visited += 1
            for t in self.edges[n]:
                indegree[t] -= 1
                if indegree[t] == 0:
                    queue.append(t)
        return visited == len(self.edges)


class _MultiTokenError(Exception):
    def __init__(self, token: str):
        self.token = token
        super().__init__(f"token {token!r} occurs more than once in a resolved goal")


def flat_executable(goal: Goal) -> bool:
    """Executability of a choice-free goal: linear precedence-graph check.

    Also validates every ``◇`` body (a possibility test over an
    inconsistent goal can never pass, making the enclosing execution dead).
    """
    return _flat_executable(goal, _ExciseRun(None))


def _flat_executable(goal: Goal, run: _ExciseRun) -> bool:
    """:func:`flat_executable` within ``run``.

    Verdicts are memoised per shared node for the run — the entangled-combo
    enumeration asks about the same resolved subgoals over and over, and
    hash-consing makes those subgoals *the same object*.
    """
    if isinstance(goal, NegPath):
        return False
    if isinstance(goal, Empty):
        return True
    memo = run.flat_memo
    result = memo.get(goal)
    if result is None:
        result = memo[goal] = _precedence_check(goal, run)
    return result


def _precedence_check(goal: Goal, run: _ExciseRun) -> bool:
    for body in _possibility_bodies(goal):
        if isinstance(_excise(body, run), NegPath):
            return False
    builder = _GraphBuilder()
    try:
        builder.build(goal, ())
    except _MultiTokenError:
        # Degenerate hand-written goals may reuse a token; fall back to the
        # exhaustive machine search, which is always correct.
        from ..ctr.machine import can_complete

        return can_complete(goal)
    if not builder.add_token_edges():
        return False
    return builder.acyclic()


def _possibility_bodies(goal: Goal):
    stack = [goal]
    while stack:
        node = stack.pop()
        if isinstance(node, Possibility):
            yield node.body
            continue
        stack.extend(_children(node))
