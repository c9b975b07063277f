"""The Apply transformation (Definitions 5.1, 5.3, 5.5).

``Apply(C, G)`` compiles a CONSTR constraint ``C`` into a unique-event
concurrent-Horn goal ``G``, producing a goal whose executions are precisely
the executions of ``G`` that satisfy ``C`` — i.e. ``Apply(C, G) ≡ G ∧ C``
(Propositions 5.2/5.4/5.6) — without using the constrained-execution
connective ``∧`` at run time.

The case analysis follows the paper:

* **positive primitive** ``∇α``: keep exactly the parts of the goal where
  ``α`` occurs; a serial/concurrent composition turns into the disjunction
  over which component provides ``α``; components that cannot provide it
  become ``¬path`` and are absorbed on the spot;
* **negative primitive** ``¬∇α``: delete every execution in which ``α``
  occurs (each occurrence of ``α`` becomes ``¬path``);
* **order** ``∇α ⊗ ∇β``: first force both events to occur, then serialise
  them with a fresh ``send``/``receive`` token (``sync``, Definition 5.3:
  :func:`_sync`, public as :func:`~repro.core.sync.sync_order`);
* ``C₁ ∧ C₂``: apply sequentially; ``C₁ ∨ C₂``: duplicate the goal — this
  duplication is the source of the ``d^N`` factor in Theorem 5.11.

Serial conjunctions and concurrent conjunctions are handled n-ary: for the
binary case this coincides with Definition 5.1, and for longer compositions
it produces the same goal the binary fold would after ``¬path`` absorption,
just without building the intermediate garbage.

:func:`apply_all` and :func:`apply_constraint` fold the goal they are
handed into its normal form (:func:`~repro.ctr.simplify.simplify`) once;
every node Apply builds after that comes from the smart constructors
``seq``/``par``/``alt``/``isolated``, which absorb ``¬path`` as they build
(the tautologies of Section 5) and return a normal form on normal parts.
So the result is its own normal form by construction, and is always
either a concurrent-Horn goal or the literal ``NEG_PATH``.

"Cannot provide ``α``" is decided without walking the component: each
distinct node carries two event bitmasks, ``may`` (the events that occur
on some execution) and ``must`` (those that occur on every execution),
computed once per run in the run's occurrence table
(:class:`~repro.ctr.formulas.EventMasks`, which the unique-event check,
``event_names`` and the static reports of :mod:`repro.core.static` read
as well). ``α ∉ may(T)`` means ``T`` cannot provide ``α``, so
``∇α`` makes it ``¬path`` and ``¬∇α`` leaves it as it is; ``α ∈ must(T)``
means every execution of ``T`` provides ``α``, so ``∇α`` leaves ``T`` as it
is (the other components of a unique-event composition cannot provide
``α``) and ``¬∇α`` makes it ``¬path``. Only the nodes left in between are
walked, and the ``⊗``, ``|`` and ``∨`` cases skip the parts that cannot
provide ``α``. The order case rewrites only the nodes whose ``may`` holds
``α`` or ``β`` and keeps every other part object; since send and receive
are not events, each node it rebuilds inherits the masks of the node it
replaces, so the next constraint does not compute them again. Events
inside a ``◇`` never occur, so a ``◇`` has empty masks and Apply never
enters it (the table records its body all the same, for the unique-event
check). The result is the node the part-by-part walk of
Definitions 5.1 and 5.3 builds (``tests/apply_reference.py`` keeps that
walk, which rewrites the whole goal for each order constraint, as the
reference).

Sharing-awareness: goals are hash-consed, so the ``C₁ ∨ C₂`` duplication
produces branches that *share* every untouched subterm. One
:class:`_ApplyMemo` per ``apply_all``/``apply_constraint``/
``consistent_branch`` invocation holds the masks and memoises the primitive cases per ``(event, node)`` and
whole token-free subproblems per ``(constraint, node)``, so each shared
node is transformed once no matter how many of the ``d^N`` branches
contain it. Subproblems that mint synchronization tokens (any constraint
containing a serial/order part) are **never** cached: every application
must draw a fresh token from the :class:`~repro.core.sync.TokenFactory`,
and replaying a cached result would duplicate a token and break
send/receive freshness.

Yes/no questions (Theorems 5.8 and 5.10) need only one surviving branch,
not all ``d^N``: :func:`consistent_branch` searches the token-free
disjunctions instead of duplicating the goal for them, with the masks
as unit propagation.
"""

from __future__ import annotations

from ..constraints.algebra import And, Constraint, Or, Primitive, SerialConstraint
from ..constraints.normalize import normalize
from ..ctr.formulas import (
    NEG_PATH,
    Atom,
    Choice,
    Concurrent,
    EventMasks,
    Goal,
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
from ..ctr.simplify import simplify
from .excise import excise
from .sync import TokenFactory

__all__ = ["apply_constraint", "apply_all", "consistent_branch"]

_BUILD = {Serial: seq, Concurrent: par, Choice: alt}


class _ApplyMemo(EventMasks):
    """Per-run memo tables: one instance per top-level Apply invocation.

    The inherited occurrence table holds the run's ``may``/``must`` masks
    (:func:`_sync` enters the nodes it builds with the masks of those they
    replace). ``must``/``never`` map ``(bit, id(node)) -> transformed
    node`` for the primitive cases (always pure; every keyed node already
    has a mask entry holding it). ``subproblem`` maps ``(constraint, node)
    -> transformed node`` for token-free constraint applications.
    ``token_free`` caches, per constraint object, whether it is safe to
    memoise at all.
    """

    __slots__ = ("must", "never", "subproblem", "token_free")

    def __init__(self) -> None:
        super().__init__()
        self.must: dict[tuple[int, int], Goal] = {}
        self.never: dict[tuple[int, int], Goal] = {}
        self.subproblem: dict[tuple[Constraint, Goal], Goal] = {}
        self.token_free: dict[Constraint, bool] = {}

    def is_token_free(self, constraint: Constraint) -> bool:
        cached = self.token_free.get(constraint)
        if cached is None:
            if isinstance(constraint, SerialConstraint):
                cached = False
            elif isinstance(constraint, (And, Or)):
                cached = all(self.is_token_free(p) for p in constraint.parts)
            else:
                cached = True
            self.token_free[constraint] = cached
        return cached


def apply_constraint(
    constraint: Constraint, goal: Goal, tokens: TokenFactory | None = None
) -> Goal:
    """Compile ``constraint`` into ``goal``: the executable form of ``goal ∧ constraint``.

    ``goal`` must have the unique-event property (Definition 3.1); the
    caller is responsible for checking it (the end-to-end compiler in
    :mod:`repro.core.compiler` does). The result preserves that property.
    """
    if tokens is None:
        tokens = TokenFactory()
    return _apply(normalize(constraint), simplify(goal), tokens, _ApplyMemo())


def apply_all(
    constraints: list[Constraint],
    goal: Goal,
    tokens: TokenFactory | None = None,
    tracer=None,
) -> Goal:
    """Compile a whole constraint set ``C = {δ₁, …, δₙ}`` (Definition 5.5).

    The set is read as the conjunction ``δ₁ ∧ … ∧ δₙ`` and applied
    sequentially. ``tracer`` (a :class:`repro.obs.tracer.Tracer`) times
    each constraint's application as a child span, annotated with the
    intermediate goal size — the quantity Theorem 5.11 bounds.
    """
    if tokens is None:
        tokens = TokenFactory()
    from ..ctr.formulas import goal_size

    memo = _ApplyMemo()
    result = simplify(goal)
    for index, constraint in enumerate(constraints):
        if tracer is None:
            result = _apply(normalize(constraint), result, tokens, memo)
        else:
            with tracer.span("apply.constraint", index=index,
                             constraint=str(constraint)) as span:
                result = _apply(normalize(constraint), result, tokens, memo)
                span.annotate(size_after=goal_size(result))
        if isinstance(result, NegPath):
            return NEG_PATH
    return result


def consistent_branch(
    constraints: list[Constraint] | tuple[Constraint, ...], goal: Goal
) -> Goal:
    """``Excise(Apply(b, G))`` for the first branch ``b`` whose leaf survives
    Excise, or ``NEG_PATH`` when no branch does (Theorem 5.8).

    ``goal`` must be rule-expanded, unique-event and in normal form, as
    :func:`~repro.core.compiler.expand_goal` returns it. A branch picks
    one disjunct of each *token-free* disjunction (one with no order leaf)
    among the top-level ``∧`` parts of the normalized constraints. The
    search runs on one memo and one token factory:

    1. It walks those parts in list order. A part that is not a token-free
       disjunction is applied at its position; an order disjunction is
       applied in full, since masks cannot see order conflicts and
       branching on it would lose the sharing of the full Apply. A
       token-free disjunction is tested against the masks of the goal
       built so far: it is dropped when a disjunct is satisfied, answers
       ``NEG_PATH`` when every disjunct is dead, is applied when exactly
       one disjunct is live, and is deferred otherwise.
    2. It then pops states off an explicit stack (no Python frame per
       decision). Each state propagates the deferred disjunctions on its
       goal the same way until none has a single live disjunct left, then
       branches on the one with the fewest live disjuncts (ties by list
       order), trying them in order. A state with nothing deferred is a
       leaf; the first leaf whose Excise is not ``¬path`` is the answer.

    On a goal ``T``, ``∇α`` is *satisfied* when ``α ∈ must(T)`` and *dead*
    when ``α ∉ may(T)``; ``¬∇α`` is satisfied when ``α ∉ may(T)`` and dead
    when ``α ∈ must(T)``. A ``∧`` is dead when a part is and satisfied
    when every part is; a ``∨`` the other way round.

    Why it is exact: a dead disjunct's Apply is ``¬path`` (Definition 5.1
    for a primitive; Apply never adds an event to ``may`` nor removes one
    from ``must``, so a part dead on ``T`` stays dead on what the parts
    before it leave), and a satisfied disjunct's Apply has exactly ``T``'s
    traces (for a primitive it is ``T`` itself), so a satisfied
    disjunction's Apply does too. Skipping dead disjuncts and dropping
    satisfied disjunctions therefore lose no trace, and deferring a
    conjunct does not change the conjunction. So the leaves' trace sets
    together equal that of ``Excise(Apply(C, G))``, and a leaf survives
    Excise iff the compile is consistent. A spec with no token-free
    disjunction does exactly the Apply and Excise work of
    :func:`~repro.core.compiler.compile_workflow`, and its leaf is the
    compiled goal itself.
    """
    memo = _ApplyMemo()
    tokens = TokenFactory()
    deferred: list[tuple[Constraint, ...]] = []
    for constraint in constraints:
        normalized = normalize(constraint)
        parts = normalized.parts if isinstance(normalized, And) else (normalized,)
        for part in parts:
            if isinstance(part, Or) and memo.is_token_free(part):
                goal, undecided = _propagate(goal, [part.parts], tokens, memo)
                deferred.extend(disjuncts for disjuncts, _ in undecided)
            else:
                goal = _apply(part, goal, tokens, memo)
            if isinstance(goal, NegPath):
                return NEG_PATH

    stack: list[tuple[Goal, list[tuple[Constraint, ...]], Constraint | None]] = [
        (goal, deferred, None)]
    while stack:
        goal, deferred, disjunct = stack.pop()
        if disjunct is not None:
            goal = _apply(disjunct, goal, tokens, memo)
        goal, undecided = _propagate(goal, deferred, tokens, memo)
        if isinstance(goal, NegPath):
            continue
        if not undecided:
            leaf = excise(goal)
            if not isinstance(leaf, NegPath):
                return leaf
            continue
        pick = min(range(len(undecided)), key=lambda i: len(undecided[i][1]))
        rest = [parts for i, (parts, _) in enumerate(undecided) if i != pick]
        stack.extend((goal, rest, live) for live in reversed(undecided[pick][1]))
    return NEG_PATH


_DEAD, _LIVE, _SATISFIED = -1, 0, 1


def _state(constraint: Constraint, may: int, must: int, memo: _ApplyMemo) -> int:
    """Whether token-free ``constraint`` is dead, live or satisfied on a
    goal with masks ``may``/``must`` (see :func:`consistent_branch`)."""
    if isinstance(constraint, Primitive):
        bit = memo.bit(constraint.event)
        if constraint.positive:
            return _SATISFIED if must & bit else _LIVE if may & bit else _DEAD
        return _DEAD if must & bit else _LIVE if may & bit else _SATISFIED
    states = [_state(part, may, must, memo) for part in constraint.parts]
    return min(states) if isinstance(constraint, And) else max(states)


def _live_disjuncts(
    disjuncts: tuple[Constraint, ...], goal: Goal, memo: _ApplyMemo
) -> list[Constraint] | None:
    """The disjuncts not dead on ``goal``, or ``None`` when one is satisfied."""
    _, may, must = memo.occurrence(goal)
    live = []
    for disjunct in disjuncts:
        state = _state(disjunct, may, must, memo)
        if state == _SATISFIED:
            return None
        if state == _LIVE:
            live.append(disjunct)
    return live


def _propagate(
    goal: Goal,
    deferred: list[tuple[Constraint, ...]],
    tokens: TokenFactory,
    memo: _ApplyMemo,
) -> tuple[Goal, list[tuple[tuple[Constraint, ...], list[Constraint]]]]:
    """Unit propagation of ``deferred`` on ``goal``: ``(goal, undecided)``.

    Drops the satisfied disjunctions and applies those with one live
    disjunct until a pass applies none. ``undecided`` pairs each remaining
    disjunction with its live disjuncts (two or more) on the returned
    goal, which is ``NEG_PATH`` when some disjunction has none.
    """
    while not isinstance(goal, NegPath):
        undecided = []
        applied = False
        for disjuncts in deferred:
            live = _live_disjuncts(disjuncts, goal, memo)
            if live is None:
                continue
            if len(live) > 1:
                undecided.append((disjuncts, live))
                continue
            if not live:
                return NEG_PATH, []
            goal = _apply(live[0], goal, tokens, memo)
            if isinstance(goal, NegPath):
                return NEG_PATH, []
            applied = True
        if not applied:
            return goal, undecided
        deferred = [disjuncts for disjuncts, _ in undecided]
    return NEG_PATH, []


def _apply(
    constraint: Constraint, goal: Goal, tokens: TokenFactory, memo: _ApplyMemo
) -> Goal:
    if isinstance(goal, NegPath):
        return NEG_PATH

    if isinstance(constraint, Primitive):
        bit = memo.bit(constraint.event)
        if constraint.positive:
            return _apply_must(bit, goal, memo)
        return _apply_never(bit, goal, memo)

    if isinstance(constraint, SerialConstraint):
        # normalize() guarantees exactly two events here.
        alpha, beta = constraint.events
        forced = _apply_must(memo.bit(alpha), _apply_must(memo.bit(beta), goal, memo), memo)
        if isinstance(forced, NegPath):
            return NEG_PATH
        return _sync(alpha, beta, forced, tokens.fresh(), memo)

    cacheable = memo.is_token_free(constraint)
    if cacheable:
        key = (constraint, goal)
        cached = memo.subproblem.get(key)
        if cached is not None:
            return cached

    if isinstance(constraint, And):
        result: Goal = goal
        for part in constraint.parts:
            result = _apply(part, result, tokens, memo)
            if isinstance(result, NegPath):
                result = NEG_PATH
                break
    elif isinstance(constraint, Or):
        result = alt(*(_apply(part, goal, tokens, memo) for part in constraint.parts))
    else:
        raise TypeError(f"cannot apply {type(constraint).__name__}")  # pragma: no cover

    if cacheable:
        memo.subproblem[key] = result
    return result


def _apply_must(bit: int, goal: Goal, memo: _ApplyMemo) -> Goal:
    """``Apply(∇α, T)``: keep exactly the executions of ``T`` where ``α`` occurs.

    ``bit`` is ``α``'s bit in ``memo``'s event index.
    """
    _, may, must = memo.occurrence(goal)
    if not may & bit:
        return NEG_PATH  # T cannot provide α
    if must & bit:
        return goal  # every execution of T already provides α
    key = (bit, id(goal))
    cached = memo.must.get(key)
    if cached is not None:
        return cached

    # Only ⊗, |, ∨ and ⊙ can hold α on some executions but not all, and
    # their parts' masks were computed with theirs.
    masks = memo.masks
    if isinstance(goal, Choice):
        result = alt(*(_apply_must(bit, part, memo) for part in goal.parts
                       if masks[id(part)][1] & bit))
    elif isinstance(goal, Isolated):
        result = isolated(_apply_must(bit, goal.body, memo))
    else:
        build = _BUILD[type(goal)]
        parts = goal.parts
        branches = []
        for i, part in enumerate(parts):
            if not masks[id(part)][1] & bit:
                continue
            transformed = _apply_must(bit, part, memo)
            if not isinstance(transformed, NegPath):
                branches.append(build(*parts[:i], transformed, *parts[i + 1:]))
        result = alt(*branches)

    memo.must[key] = result
    return result


def _apply_never(bit: int, goal: Goal, memo: _ApplyMemo) -> Goal:
    """``Apply(¬∇α, T)``: delete the executions of ``T`` where ``α`` occurs.

    ``bit`` is ``α``'s bit in ``memo``'s event index.
    """
    _, may, must = memo.occurrence(goal)
    if not may & bit:
        return goal  # no execution of T holds α
    if must & bit:
        return NEG_PATH  # every execution of T holds α
    key = (bit, id(goal))
    cached = memo.never.get(key)
    if cached is not None:
        return cached

    masks = memo.masks
    if isinstance(goal, Isolated):
        result = isolated(_apply_never(bit, goal.body, memo))
    else:
        result = _BUILD[type(goal)](*(
            _apply_never(bit, part, memo) if masks[id(part)][1] & bit else part
            for part in goal.parts))

    memo.never[key] = result
    return result


def _sync(alpha: str, beta: str, goal: Goal, token: str, memo: EventMasks) -> Goal:
    """``sync(α < β, T)`` (Definition 5.3) on ``memo``'s masks.

    Every ``α`` becomes ``α ⊗ send(token)`` and every ``β`` becomes
    ``receive(token) ⊗ β``. Only the nodes whose ``may`` holds ``α`` or
    ``β`` are rebuilt, once each per call; every other part object is
    kept, and a ``◇`` (empty masks) is never entered. A rebuilt ``⊗``
    takes the parts of a rewritten atom part into its own, as ``seq``
    would, so on a goal built by ``seq``/``par``/``alt`` the result is
    the node the whole-goal rewrite builds.

    Send and receive are not events, so each rebuilt node gets the masks
    of the node it replaces (and the fresh ``send``/``receive`` empty
    ones): the next constraint's :meth:`~repro.ctr.formulas.EventMasks.occurrence`
    does not walk it again, and every child of a node with an entry has one.
    """
    masks = memo.masks
    both = memo.bit(alpha) | memo.bit(beta)
    if not memo.occurrence(goal)[1] & both:
        return goal
    send, receive = Send(token), Receive(token)
    masks[id(send)] = (send, 0, 0)
    masks[id(receive)] = (receive, 0, 0)
    done: dict[int, Goal] = {}

    def rewrite(node: Goal) -> Goal:
        result = done.get(id(node))
        if result is not None:
            return result
        if isinstance(node, Atom):  # α or β: no other atom holds either
            result = Serial((node, send) if node.name == alpha else (receive, node))
        elif isinstance(node, Isolated):
            result = Isolated(rewrite(node.body))
        else:
            kind = type(node)
            parts: list[Goal] = []
            for part in node.parts:
                if not masks[id(part)][1] & both:
                    parts.append(part)
                    continue
                new = rewrite(part)
                if type(new) is kind:
                    parts.extend(new.parts)
                else:
                    parts.append(new)
            result = kind(tuple(parts))
        _, may, must = masks[id(node)]
        masks[id(result)] = (result, may, must)
        done[id(node)] = result
        return result

    return rewrite(goal)
