"""The Excise transformation: knot detection and removal (Section 5).

After Apply, a goal may contain ``send``/``receive`` pairs that can never
fire in any order — *knots* — e.g. ``receive(ξ) ⊗ β ⊗ α ⊗ send(ξ)``, where
the receive waits for a send that is scheduled after it. A knotted
sub-formula is CTR-equivalent to ``¬path``. Excise rewrites a goal into an
equivalent knot-free concurrent-Horn goal, or ``¬path`` if no execution
survives.

Excise takes a normal form, as Apply builds it (see
:mod:`repro.ctr.simplify`), and builds only normal forms: each node it
makes comes from the smart constructors, and the path substitution that
prunes or resolves nested choices rebuilds just the spines down to them,
in one pass over all paths. No pass re-normalises its result.

Algorithm
---------
For a **choice-free** goal, executability is a reachability question on a
*precedence graph* over the goal's synchronization steps: one node per
``send``/``receive`` and one entry and one exit node per ``⊙`` block around
them, with edges

* from the series-parallel structure (each last step of a serial part
  precedes each first step of the next part; a ``⊙`` block's entry
  precedes its body and its body precedes its exit),
* from each ``send(ξ)`` to its matching ``receive(ξ)``,
* rerouted through the entry/exit nodes of ``⊙`` blocks (a token that
  crosses an isolation boundary must be produced before the block starts,
  or consumed after it ends — an isolated block cannot pause mid-way to
  wait for a concurrent sender).

The goal is executable iff every ``receive`` has a matching ``send``, no
``◇`` body excises to ``¬path``, and the graph is acyclic. A ``◇`` body
that holds a ``send`` or ``receive`` is read where the test stands, with
the tokens sent so far, so a goal with one is decided by an exhaustive
search of its kernel program instead (Apply never puts a token there).

The graph is built from the goal's *token skeleton*, not from the goal: the
sends and receives, the ``⊙`` blocks around them, the ``◇`` tests whose
bodies must still be excised, and the ``⊗``/``|`` structure linking them.
Every token-free subgoal drops out. Each run summarises every distinct
(hash-consed) node once — whether a ``∨`` occurs outside ``◇``, and its
skeleton, assembled from its children's — so a flat check costs only its
skeleton, and the choice scan runs only where the summary reports a
choice. The skeleton decides exactly what the whole goal would:

* without token edges the graph is series-parallel, hence acyclic, so
  every cycle passes through a token edge;
* every token-edge endpoint is kept — a send or receive, or the entry or
  exit of the outermost ``⊙`` the edge crosses, a block that holds a token;
* in a series-parallel expression one step precedes another iff their
  lowest common connective is a ``⊗`` with the first step on the left, so
  the order restricted to the kept steps is the order of the expression
  with the other steps deleted;
* the missing-send and duplicate-token checks still see every send and
  receive (a duplicate token falls back to exhaustive search).

The check is therefore linear in the goal size and the whole pass linear
in the distinct nodes plus the skeletons checked (Theorem 5.11's Excise
bound).

Choices distribute: ``Excise(G₁ ∨ G₂) = Excise(G₁) ∨ Excise(G₂)``. A choice
*nested* inside a serial/concurrent context is handled in one of two ways:

* if no synchronization token crosses the choice's boundary (the common
  case — in particular every choice Apply itself introduces is either at
  the top level or token-free), its alternatives are excised
  independently and in place, preserving near-linear total time. The
  test reads the tokens off the run's skeletons: those inside the choice
  against those of the siblings along its path;
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
from dataclasses import dataclass

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
    isolated,
    par,
    seq,
)
from ..ctr.kernel import lower_goal
from ..ctr.simplify import simplify

__all__ = ["ExciseStats", "excise", "has_knot", "flat_executable"]


@dataclass
class ExciseStats:
    """Accounting of one Excise pass (for the observability metrics).

    ``knots`` counts choice-free (sub-)goals found non-executable — each
    is a knot the transformation removed; the choice counters expose which
    of the two nesting regimes ran, and the combo counters size the
    entangled enumeration, Excise's only potentially super-linear path.
    ``graph_nodes`` counts the precedence-graph nodes the pass's
    choice-free checks built: what those checks cost, a check reading
    only its token skeleton.
    """

    knots: int = 0
    local_choices: int = 0
    entangled_choices: int = 0
    combos_tried: int = 0
    combos_viable: int = 0
    graph_nodes: int = 0


# Summary flags: a ∨, a send or receive, a ◇ test occurs outside every ◇.
_CHOICE, _TOKEN, _POSSIBILITY = 1, 2, 4

# A token skeleton (see the module docstring) is ``None`` (nothing the flat
# check reads), a leaf — a Send, Receive or Possibility node, or a node the
# check rejects (path, ¬path) — or ``(kind, parts)`` with parts skeletons:
# Serial/Concurrent (two or more parts), Isolated (one part, holding a
# token) or Choice (kept so that the check rejects it and still finds the
# ◇ tests inside).
_Skeleton = object


class _ExciseRun:
    """Per-run state of one outermost :func:`excise` call.

    ``stats`` is the caller's sink (or ``None``); ``flat_memo`` memoises
    :func:`flat_executable` verdicts per (shared) node; ``summaries`` maps
    ``id(node) -> (node, flags, skeleton)`` (see :meth:`summary`), holding
    the node so its id cannot be reused while the run lives; ``token_sets``
    maps the id of a composite skeleton (held by its summary) to its
    tokens (see :meth:`tokens`). The run is passed down to every helper and
    to the re-entrant calls (◇ bodies, entangled-combo resolution), so one
    pass summarises each distinct node once and never rebuilds the
    precedence graph of the same shared subgoal twice, and concurrent
    passes share nothing.
    """

    __slots__ = ("stats", "flat_memo", "summaries", "token_sets")

    def __init__(self, stats: ExciseStats | None) -> None:
        self.stats = stats
        self.flat_memo: dict[Goal, bool] = {}
        self.summaries: dict[int, tuple[Goal, int, _Skeleton]] = {}
        self.token_sets: dict[int, tuple[frozenset[str], frozenset[str]]] = {}

    def summary(self, goal: Goal) -> tuple[Goal, int, _Skeleton]:
        """``(goal, flags, skeleton)``, summarising ``goal``'s subgoals first.

        ``flags`` ORs ``_CHOICE``, ``_TOKEN`` and ``_POSSIBILITY`` over the
        node and its parts, never looking into a ◇ body. The skeleton of a
        connective keeps its parts' non-empty skeletons, collapsing to the
        only one; a ⊙ block stays only around a token.
        """
        entry = self.summaries.get(id(goal))
        if entry is not None:
            return entry
        flags = 0
        skeleton: _Skeleton = None
        if isinstance(goal, (Serial, Concurrent, Choice)):
            kept = []
            for part in goal.parts:
                _, part_flags, part_skeleton = self.summary(part)
                flags |= part_flags
                if part_skeleton is not None:
                    kept.append(part_skeleton)
            if isinstance(goal, Choice):
                flags |= _CHOICE
                skeleton = (Choice, tuple(kept))
            elif len(kept) > 1:
                skeleton = (type(goal), tuple(kept))
            elif kept:
                skeleton = kept[0]
        elif isinstance(goal, Isolated):
            _, flags, skeleton = self.summary(goal.body)
            if flags & _TOKEN:
                skeleton = (Isolated, (skeleton,))
        elif isinstance(goal, (Send, Receive)):
            flags, skeleton = _TOKEN, goal
        elif isinstance(goal, Possibility):
            flags, skeleton = _POSSIBILITY, goal
        elif not isinstance(goal, (Atom, Test, Empty)):
            skeleton = goal  # path, ¬path: the flat check rejects them
        entry = self.summaries[id(goal)] = (goal, flags, skeleton)
        return entry

    def tokens(self, skeleton: _Skeleton) -> tuple[frozenset[str], frozenset[str]]:
        """``(tokens sent, tokens received)`` in ``skeleton``'s goal, a ◇
        (a leaf of the skeleton) holding those of its body."""
        if type(skeleton) is not tuple:
            if isinstance(skeleton, Send):
                return frozenset((skeleton.token,)), _NO_TOKENS
            if isinstance(skeleton, Receive):
                return _NO_TOKENS, frozenset((skeleton.token,))
            if isinstance(skeleton, Possibility):
                return self.tokens(self.summary(skeleton.body)[2])
            return _NO_TOKENS, _NO_TOKENS
        entry = self.token_sets.get(id(skeleton))
        if entry is None:
            sends: set[str] = set()
            receives: set[str] = set()
            for part in skeleton[1]:
                part_sends, part_receives = self.tokens(part)
                sends |= part_sends
                receives |= part_receives
            entry = self.token_sets[id(skeleton)] = (frozenset(sends), frozenset(receives))
        return entry


_NO_TOKENS: frozenset[str] = frozenset()


def excise(goal: Goal, stats: ExciseStats | None = None) -> Goal:
    """Remove every knotted sub-formula; return the pruned goal or ``¬path``.

    ``goal`` must be a normal form (:func:`~repro.ctr.simplify.simplify`
    returns it as is), as Apply's output is; the result is one too.
    Pass an :class:`ExciseStats` to collect how much pruning the pass did;
    the default collects nothing and adds no work.
    """
    return _excise(goal, _ExciseRun(stats))


def has_knot(goal: Goal) -> bool:
    """True iff excising ``goal`` changes it (some alternative is knotted)."""
    goal = simplify(goal)
    return excise(goal) != goal


def _excise(goal: Goal, run: _ExciseRun) -> Goal:
    stats = run.stats
    if isinstance(goal, (NegPath, Empty)):
        return goal

    if isinstance(goal, Choice):
        # Top-level alternatives are independent executions.
        return alt(*(_excise(part, run) for part in goal.parts))

    if not run.summary(goal)[1] & _CHOICE:
        if _flat_executable(goal, run):
            return goal
        if stats is not None:
            stats.knots += 1
        return NEG_PATH
    paths = _topmost_choices(goal, run)

    local_paths: list[tuple[int, ...]] = []
    entangled_paths: list[tuple[int, ...]] = []
    for path in paths:
        if _tokens_crossing(goal, path, run):
            entangled_paths.append(path)
        else:
            local_paths.append(path)
    if stats is not None:
        stats.local_choices += len(local_paths)
        stats.entangled_choices += len(entangled_paths)

    # Local choices: no token crosses their boundary, so each alternative's
    # viability is intrinsic — prune them in place (recursion on strict
    # subtrees, so this is well-founded).
    pruned: list[tuple[tuple[int, ...], Goal]] = []
    for path in local_paths:
        subtree = _at(goal, path)
        alternatives = alt(*(_excise(part, run) for part in subtree.parts))
        if isinstance(alternatives, NegPath):
            return NEG_PATH  # a mandatory sub-goal with no viable branch
        pruned.append((path, alternatives))

    if entangled_paths:
        return _excise_entangled(goal, pruned, entangled_paths, run)

    # Context executability is independent of how the (token-free) local
    # choices resolve: check the context with them blanked out.
    context = _substitute(goal, [(p, EMPTY) for p in local_paths])
    if isinstance(context, Empty) or _flat_executable(context, run):
        return _substitute(goal, pruned)
    if stats is not None:
        stats.knots += 1
    return NEG_PATH


def _excise_entangled(
    goal: Goal,
    pruned: list[tuple[tuple[int, ...], Goal]],
    paths: list[tuple[int, ...]],
    run: _ExciseRun,
) -> Goal:
    """Jointly resolve the entangled choices and prune or hoist the result.

    ``pruned`` holds the local choices' pruned replacements, made in every
    goal built here. Each substituted resolution removes the entangled
    choice nodes entirely, so the recursive ``_excise`` call operates on a
    goal with strictly fewer choices — the recursion is well-founded.
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
        resolved = _excise(_substitute(goal, pruned + resolution), run)
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
        replacements = list(pruned)
        for path, options in zip(paths, per_choice):
            subtree = _at(goal, path)
            replacements.append((path, alt(*(subtree.parts[i] for i in options))))
        return _substitute(goal, replacements)

    return alt(*(resolved_by_combo[combo] for combo in viable_combos))


# -- path-addressed tree surgery ----------------------------------------------


def _children(goal: Goal) -> tuple[Goal, ...]:
    if isinstance(goal, (Serial, Concurrent, Choice)):
        return goal.parts
    if isinstance(goal, Isolated):
        return (goal.body,)
    return ()


def _at(goal: Goal, path: tuple[int, ...]) -> Goal:
    node = goal
    for index in path:
        node = _children(node)[index]
    return node


_BUILD = {Serial: seq, Concurrent: par, Choice: alt}


def _substitute(goal: Goal, replacements: list[tuple[tuple[int, ...], Goal]]) -> Goal:
    """``goal`` with the node at each path replaced, in one pass over all paths.

    The paths address ``goal`` itself and none is a prefix of another.
    Only the spines down to them are rebuilt, with the smart constructors:
    on a normal form with normal replacements the result is a normal form.
    """
    by_child: dict[int, list[tuple[tuple[int, ...], Goal]]] = {}
    for path, replacement in replacements:
        if not path:
            return replacement
        by_child.setdefault(path[0], []).append((path[1:], replacement))
    children = list(_children(goal))
    for index, below in by_child.items():
        children[index] = _substitute(children[index], below)
    if isinstance(goal, Isolated):
        return isolated(children[0])
    return _BUILD[type(goal)](*children)


def _topmost_choices(goal: Goal, run: _ExciseRun) -> list[tuple[int, ...]]:
    """Paths to the outermost Choice nodes (◇ bodies are handled separately).

    Descends only into the parts whose summary reports a choice.
    """
    found: list[tuple[int, ...]] = []

    def visit(node: Goal, path: tuple[int, ...]) -> None:
        if isinstance(node, Choice):
            found.append(path)
            return
        for index, child in enumerate(_children(node)):
            if run.summary(child)[1] & _CHOICE:
                visit(child, path + (index,))

    visit(goal, ())
    return found


def _tokens_crossing(goal: Goal, path: tuple[int, ...], run: _ExciseRun) -> bool:
    """Does any token have one endpoint inside ``goal[path]`` and one outside?

    Outside is the siblings of the nodes along the path. A token in a ◇
    body counts where the ◇ stands, as the kernel reads it there.
    """
    siblings: list[Goal] = []
    node = goal
    for index in path:
        children = _children(node)
        siblings += children[:index] + children[index + 1:]
        node = children[index]
    inner_sends, inner_receives = run.tokens(run.summary(node)[2])
    if not inner_sends and not inner_receives:
        return False
    for sibling in siblings:
        sends, receives = run.tokens(run.summary(sibling)[2])
        if inner_sends & receives or inner_receives & sends:
            return True
    return False


# -- choice-free executability --------------------------------------------------


class _PrecedenceGraph:
    """The precedence graph of a choice-free goal, built from its skeleton."""

    __slots__ = ("edges", "sends", "receives", "blocks_of")

    def __init__(self) -> None:
        self.edges: list[list[int]] = []
        self.sends: dict[str, int] = {}
        self.receives: dict[str, int] = {}
        # Per-node chain of enclosing ⊙ blocks, outermost first, as
        # (entry, exit) node pairs; used to reroute crossing token edges.
        self.blocks_of: list[tuple[tuple[int, int], ...]] = []

    def node(self, enclosing: tuple[tuple[int, int], ...]) -> int:
        self.edges.append([])
        self.blocks_of.append(enclosing)
        return len(self.edges) - 1

    def build(
        self, skeleton: _Skeleton, enclosing: tuple[tuple[int, int], ...]
    ) -> tuple[list[int], list[int]]:
        """Returns (source nodes, sink nodes) of ``skeleton``'s subgraph.

        Both are empty for a part that holds only ◇ tests.
        """
        if type(skeleton) is tuple:
            kind, parts = skeleton
            if kind is Serial:
                sources: list[int] = []
                sinks: list[int] = []
                for part in parts:
                    part_sources, part_sinks = self.build(part, enclosing)
                    if not part_sources:
                        continue
                    if sinks:
                        for s in sinks:
                            self.edges[s].extend(part_sources)
                    else:
                        sources = part_sources
                    sinks = part_sinks
                return sources, sinks
            if kind is Concurrent:
                sources, sinks = [], []
                for part in parts:
                    part_sources, part_sinks = self.build(part, enclosing)
                    sources += part_sources
                    sinks += part_sinks
                return sources, sinks
            if kind is Isolated:
                entry = self.node(enclosing)
                exit_ = self.node(enclosing)
                inner = enclosing + ((entry, exit_),)
                body_sources, body_sinks = self.build(parts[0], inner)
                self.edges[entry].extend(body_sources)
                for s in body_sinks:
                    self.edges[s].append(exit_)
                return [entry], [exit_]
            raise TypeError(f"unexpected node {kind.__name__} in flat goal")
        if isinstance(skeleton, Possibility):
            return [], []
        if isinstance(skeleton, (Send, Receive)):
            table = self.sends if isinstance(skeleton, Send) else self.receives
            if skeleton.token in table:
                raise _MultiTokenError(skeleton.token)
            n = table[skeleton.token] = self.node(enclosing)
            return [n], [n]
        raise TypeError(f"unexpected node {type(skeleton).__name__} in flat goal")

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
            self.edges[src].append(dst)
        return True

    def acyclic(self) -> bool:
        indegree = [0] * len(self.edges)
        for targets in self.edges:
            for t in targets:
                indegree[t] += 1
        queue = [n for n, d in enumerate(indegree) if d == 0]
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
    _, flags, skeleton = run.summary(goal)
    if skeleton is None:
        return True  # no token, no ◇ test: a series-parallel order
    if flags & _POSSIBILITY:
        for body in _possibility_bodies(skeleton):
            if any(run.tokens(run.summary(body)[2])):
                # Hand-written: the body reads the tokens sent before it.
                return _searched(goal)
            if isinstance(_excise(body, run), NegPath):
                return False
    graph = _PrecedenceGraph()
    try:
        graph.build(skeleton, ())
    except _MultiTokenError:
        # Degenerate hand-written goals may reuse a token.
        return _searched(goal)
    finally:
        if run.stats is not None:
            run.stats.graph_nodes += len(graph.edges)
    if not graph.add_token_edges():
        return False
    return graph.acyclic()


def _searched(goal: Goal) -> bool:
    """Executability by an exhaustive search of ``goal``'s kernel program,
    which is always correct."""
    program = lower_goal(goal)
    return program.can_complete(*program.initial())


def _possibility_bodies(skeleton: _Skeleton):
    """The bodies of the skeleton's ◇ tests, last occurrence first."""
    stack = [skeleton]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            stack.extend(node[1])
        elif isinstance(node, Possibility):
            yield node.body
