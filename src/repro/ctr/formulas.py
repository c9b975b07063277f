"""Abstract syntax of the concurrent-Horn fragment of Concurrent Transaction Logic.

This module defines the formula AST used throughout the library. It covers
exactly the fragment the paper uses to represent workflows (Section 2):

* :class:`Atom` — a workflow activity or significant event (an elementary
  update in CTR terms);
* :class:`Serial` — serial conjunction ``⊗`` ("execute left, then right");
* :class:`Concurrent` — concurrent conjunction ``|`` (interleaved execution);
* :class:`Choice` — classical disjunction ``∨`` (non-deterministic choice,
  the "OR" nodes of control flow graphs);
* :class:`Isolated` — the modality ``⊙`` (execute without interleaving);
* :class:`Possibility` — the modality ``◇`` (test executability, consume
  nothing);
* :class:`Send` / :class:`Receive` — the communication primitives used by
  the ``sync`` transformation (Definition 5.3);
* :class:`Test` — a transition condition attached to a control-flow arc
  (a state query; evaluated by the run-time engine, ignored by the static
  trace semantics, which is exactly the paper's soundness caveat in §7);
* :data:`PATH` and :data:`NEG_PATH` — the CTR analogues of *true on any
  path* and *false*;
* :data:`EMPTY` — the unit of serial conjunction (the paper's ``state``
  proposition, true precisely on paths of length 1, i.e. "do nothing").

Formulas are immutable, hashable — and **hash-consed**: constructing a node
that is structurally equal to a live one returns *the same object* (a
weak-value intern table keyed by the structural identity keeps canonical
nodes alive only as long as someone references them). Hash-consing is what
tames the ``d^N`` factor of Theorem 5.11 in practice: the ``C₁ ∨ C₂`` case
of Apply duplicates the goal, but the duplicates are structurally identical,
so with interning they are *shared DAG nodes* rather than independent
trees, structural equality on the hot path is pointer equality, and every
downstream pass (Apply, Excise, the size metrics) can memoise per shared
node and visit it once. :func:`goal_size` still reports
the paper's tree measure ``|G|``; :func:`dag_size` reports the number of
*distinct* nodes actually allocated, and their ratio is the sharing factor
the benchmarks gate on.

Interning can be disabled (e.g. to measure its effect) with
:func:`set_interning` or the :func:`interning` context manager; semantics
never change — equality remains structural either way, canonical nodes just
stop being deduplicated.

The five constructor helpers :func:`seq`, :func:`par`, :func:`alt`,
:func:`isolated` and :func:`possible` build normal forms: they apply the
``¬path`` absorption tautologies of Section 5 and a few structural rules
(flattening nested connectives of the same kind, dropping units,
unwrapping singletons, collapsing ``⊙``/``◇`` over what they cannot
change). On normal parts they return a normal form, so a pass that builds
only with them never needs :func:`repro.ctr.simplify.simplify`, which is
their bottom-up fold.

A small operator DSL makes specifications readable::

    a, b, c = atoms("a b c")
    goal = a >> (b | c)          # a ⊗ (b | c)
    goal = a >> (b + c)          # a ⊗ (b ∨ c)
"""

from __future__ import annotations

import weakref
from contextlib import contextmanager
from dataclasses import FrozenInstanceError
from typing import Callable, Iterable, Iterator, Optional

__all__ = [
    "Goal",
    "Atom",
    "Send",
    "Receive",
    "Test",
    "Serial",
    "Concurrent",
    "Choice",
    "Isolated",
    "Possibility",
    "Path",
    "NegPath",
    "Empty",
    "PATH",
    "NEG_PATH",
    "EMPTY",
    "atom",
    "atoms",
    "seq",
    "par",
    "alt",
    "isolated",
    "possible",
    "goal_size",
    "dag_size",
    "sharing_ratio",
    "EventMasks",
    "event_names",
    "subgoals",
    "walk",
    "walk_unique",
    "is_concurrent_horn",
    "set_interning",
    "interning_enabled",
    "interning",
    "intern_table_size",
]


# -- the intern table ----------------------------------------------------------
#
# Maps a key (class, field values) to the canonical live node. Weak values:
# a canonical node is retired as soon as nothing else references it, so the
# table never pins memory. A child node enters the key by identity, not by
# value: canonical children are unique objects, so identity is structure
# for them, and the canonical parent holds its children, so their ids
# cannot be reused while its entry is live. Keying by value would merge
# parents whose children are equal but not interchangeable: two `Test`s of
# one name compare equal whatever their predicates, and a parent built
# over one must not be handed out for the other. Identity keys also hash
# in C, without a call into `_Node.__hash__` per child.

_INTERN: "weakref.WeakValueDictionary[tuple, Goal]" = weakref.WeakValueDictionary()
_INTERNING: bool = True


def interning_enabled() -> bool:
    """Is hash-consing of newly constructed nodes currently on?"""
    return _INTERNING


def set_interning(enabled: bool) -> bool:
    """Turn hash-consing on/off; returns the previous setting.

    Disabling only affects *future* constructions (existing canonical nodes
    stay shared); structural equality is unaffected either way. Meant for
    benchmarks and tests that measure the effect of sharing.
    """
    global _INTERNING
    previous = _INTERNING
    _INTERNING = bool(enabled)
    return previous


@contextmanager
def interning(enabled: bool = True):
    """Context manager form of :func:`set_interning`."""
    previous = set_interning(enabled)
    try:
        yield
    finally:
        set_interning(previous)


def intern_table_size() -> int:
    """Number of canonical nodes currently alive in the intern table."""
    return len(_INTERN)


class Goal:
    """Base class of all CTR goal formulas.

    Supports an operator DSL:

    * ``g >> h`` builds the serial conjunction ``g ⊗ h``;
    * ``g | h`` builds the concurrent conjunction ``g | h``;
    * ``g + h`` builds the choice ``g ∨ h``.
    """

    __slots__ = ()

    def __rshift__(self, other: "Goal") -> "Goal":
        return seq(self, other)

    def __or__(self, other: "Goal") -> "Goal":
        return par(self, other)

    def __add__(self, other: "Goal") -> "Goal":
        return alt(self, other)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .pretty import pretty_clipped

        return f"<{type(self).__name__} {pretty_clipped(self)}>"


def _frozen_setattr(self, name, value):  # pragma: no cover - error path
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):  # pragma: no cover - error path
    raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Node(Goal):
    """Shared machinery of the concrete formula classes.

    Instances are frozen (attribute writes raise), weak-referenceable (for
    the intern table and the pass-level memo caches), cache their structural
    hash, and re-intern on unpickling/copy. Subclasses define ``_FIELDS``
    (the structural key, in order) and set attributes via
    ``object.__setattr__`` inside ``__new__``.
    """

    __slots__ = ()
    _FIELDS: tuple[str, ...] = ()

    __setattr__ = _frozen_setattr
    __delattr__ = _frozen_delattr

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._FIELDS)

    def __eq__(self, other: object) -> bool:
        # With interning on, structurally equal live nodes are the same
        # object, so the identity check is the whole comparison. Without
        # interning (``interning(False)``) equality must stay *structural*
        # — sets, dicts, and the pass-level caches all rely on it — and it
        # must not recurse through Python frames: structurally equal goals
        # a few hundred nodes deep would otherwise raise RecursionError.
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return _structural_eq(self, other)

    def __hash__(self) -> int:
        h = self._hash
        if h == -1:
            h = _structural_hash(self)
        return h

    # Nodes are immutable: copies are the object itself, and pickling
    # round-trips through the constructor so loads re-intern.
    def __copy__(self) -> "_Node":
        return self

    def __deepcopy__(self, memo) -> "_Node":
        return self

    def __getnewargs__(self) -> tuple:
        return self._key()

    def __getstate__(self):
        return None


def _structural_eq(a: "_Node", b: "_Node") -> bool:
    """Iterative structural equality over the two nodes' field trees.

    An explicit pair stack replaces recursion (deep non-interned goals
    must not blow the interpreter stack), and a visited set of id-pairs
    caps re-comparison of shared subterms, so two DAG-shaped goals compare
    in time proportional to their distinct node pairs, not their tree
    sizes.
    """
    seen: set[tuple[int, int]] = set()
    stack: list[tuple[object, object]] = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        pair = (id(x), id(y))
        if pair in seen:
            continue
        if isinstance(x, _Node):
            if type(x) is not type(y):
                return False
            hx, hy = x._hash, y._hash  # type: ignore[attr-defined]
            if hx != -1 and hy != -1 and hx != hy:
                return False
            seen.add(pair)
            stack.extend(zip(x._key(), y._key()))  # type: ignore[attr-defined]
        elif isinstance(x, tuple):
            if not isinstance(y, tuple) or len(x) != len(y):
                return False
            seen.add(pair)
            stack.extend(zip(x, y))
        elif x != y:
            return False
    return True


def _structural_hash(node: "_Node") -> int:
    """Compute and cache ``node._hash`` bottom-up, without deep recursion.

    Children are hashed before their parents (explicit post-order stack),
    so the final ``hash()`` of each node's key tuple only ever recurses
    one level into already-cached child hashes.
    """
    stack: list[_Node] = [node]
    while stack:
        current = stack[-1]
        pending = [
            child
            for value in current._key()
            for child in (value if isinstance(value, tuple) else (value,))
            if isinstance(child, _Node) and child._hash == -1  # type: ignore[attr-defined]
        ]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        h = hash((type(current).__name__,) + current._key())
        if h == -1:
            h = -2
        object.__setattr__(current, "_hash", h)
    return node._hash  # type: ignore[attr-defined]


def _make(cls, key: tuple, *values) -> Goal:
    """Allocate (or fetch the canonical) node of ``cls`` for ``values``.

    ``key`` is the node's intern key: ``cls`` with the leaf field values or
    the ids of the child nodes (see the intern-table comment).
    """
    if _INTERNING:
        node = _INTERN.get(key)
        if node is not None:
            return node
    node = object.__new__(cls)
    for field, value in zip(cls._FIELDS, values):
        object.__setattr__(node, field, value)
    object.__setattr__(node, "_hash", -1)
    if _INTERNING:
        # setdefault tolerates a racing construction of the same key.
        node = _INTERN.setdefault(key, node)
    return node


class Atom(_Node):
    """A workflow activity / significant event.

    In CTR terms this is a variable-free atomic formula denoting an
    elementary update. Under assumption (2) of the paper, significant
    events are elementary updates that apply in every state (they merely
    append a record to the system log), so an :class:`Atom` is always
    executable and emits its name into the execution trace.
    """

    __slots__ = ("name", "_hash", "__weakref__")
    _FIELDS = ("name",)

    def __new__(cls, name: str) -> "Atom":
        if not name:
            raise ValueError("atom name must be non-empty")
        return _make(cls, (cls, name), name)  # type: ignore[return-value]

    def __str__(self) -> str:
        return self.name


class Send(_Node):
    """``send(token)`` — emit a synchronization token (Definition 5.3).

    Always executable; records the token so that the matching
    :class:`Receive` becomes enabled. Invisible in event traces.
    """

    __slots__ = ("token", "_hash", "__weakref__")
    _FIELDS = ("token",)

    def __new__(cls, token: str) -> "Send":
        return _make(cls, (cls, token), token)  # type: ignore[return-value]

    def __str__(self) -> str:
        return f"send({self.token})"


class Receive(_Node):
    """``receive(token)`` — block until the matching token has been sent.

    ``receive(t)`` is true iff ``send(t)`` has previously executed; this is
    how the ``sync`` transformation serialises two events that live in
    different concurrent branches. Invisible in event traces.
    """

    __slots__ = ("token", "_hash", "__weakref__")
    _FIELDS = ("token",)

    def __new__(cls, token: str) -> "Receive":
        return _make(cls, (cls, token), token)  # type: ignore[return-value]

    def __str__(self) -> str:
        return f"receive({self.token})"


class Test(_Node):
    """A transition condition on a control-flow arc.

    ``Test`` queries the current database state and succeeds without
    changing it (a path of length 1 in CTR terms). The optional
    ``predicate`` is consulted by the run-time engine
    (:mod:`repro.core.engine`); static analysis treats a test as always
    passable, which makes compilation *sound but not complete* for graphs
    with transition conditions — the caveat of Section 7 of the paper.

    The predicate is excluded from equality/hashing: two tests with the
    same name are the same condition. A test carrying a predicate is never
    interned (the callable is per-instance state the canonical node must
    not capture), and a composite over it is interned under its identity,
    so the composite keeps that test; predicate-less tests — the only kind
    the parsers and the compiler produce — are hash-consed like every
    other node.
    """

    # Not a test-case class, despite the name (pytest collection hint).
    __test__ = False

    __slots__ = ("name", "predicate", "_hash", "__weakref__")
    _FIELDS = ("name",)

    def __new__(
        cls, name: str, predicate: Optional[Callable[..., bool]] = None
    ) -> "Test":
        if predicate is None:
            node = _make(cls, (cls, name), name)
            # The predicate slot is not part of the intern key; fill it on
            # first construction (idempotent for cache hits).
            object.__setattr__(node, "predicate", None)
            return node  # type: ignore[return-value]
        node = object.__new__(cls)
        object.__setattr__(node, "name", name)
        object.__setattr__(node, "predicate", predicate)
        object.__setattr__(node, "_hash", -1)
        return node

    def __str__(self) -> str:
        return f"{self.name}?"


class Serial(_Node):
    """Serial conjunction ``T₁ ⊗ T₂ ⊗ … ⊗ Tₙ`` — execute parts in order."""

    __slots__ = ("parts", "_hash", "__weakref__")
    _FIELDS = ("parts",)

    def __new__(cls, parts: tuple[Goal, ...]) -> "Serial":
        parts = tuple(parts)
        if len(parts) < 2:
            raise ValueError("Serial needs at least two parts; use seq() to build")
        return _make(cls, (cls, tuple(map(id, parts))), parts)  # type: ignore[return-value]


class Concurrent(_Node):
    """Concurrent conjunction ``T₁ | T₂ | … | Tₙ`` — interleave parts."""

    __slots__ = ("parts", "_hash", "__weakref__")
    _FIELDS = ("parts",)

    def __new__(cls, parts: tuple[Goal, ...]) -> "Concurrent":
        parts = tuple(parts)
        if len(parts) < 2:
            raise ValueError("Concurrent needs at least two parts; use par() to build")
        return _make(cls, (cls, tuple(map(id, parts))), parts)  # type: ignore[return-value]


class Choice(_Node):
    """Disjunction ``T₁ ∨ T₂ ∨ … ∨ Tₙ`` — execute exactly one part."""

    __slots__ = ("parts", "_hash", "__weakref__")
    _FIELDS = ("parts",)

    def __new__(cls, parts: tuple[Goal, ...]) -> "Choice":
        parts = tuple(parts)
        if len(parts) < 2:
            raise ValueError("Choice needs at least two parts; use alt() to build")
        return _make(cls, (cls, tuple(map(id, parts))), parts)  # type: ignore[return-value]


class Isolated(_Node):
    """``⊙ T`` — execute ``T`` without interleaving with concurrent activity."""

    __slots__ = ("body", "_hash", "__weakref__")
    _FIELDS = ("body",)

    def __new__(cls, body: Goal) -> "Isolated":
        return _make(cls, (cls, id(body)), body)  # type: ignore[return-value]

    def __str__(self) -> str:
        return f"isolated({self.body})"


class Possibility(_Node):
    """``◇ T`` — succeed iff ``T`` *could* execute here; consume nothing.

    Events inside a possibility test are hypothetical: they do not occur in
    the actual execution, hence do not count for the unique-event property
    nor for temporal constraints (see DESIGN.md, "Semantic choices").
    """

    __slots__ = ("body", "_hash", "__weakref__")
    _FIELDS = ("body",)

    def __new__(cls, body: Goal) -> "Possibility":
        return _make(cls, (cls, id(body)), body)  # type: ignore[return-value]

    def __str__(self) -> str:
        return f"possible({self.body})"


class Path(_Node):
    """The proposition ``path`` — true on every execution path."""

    __slots__ = ("_hash", "__weakref__")
    _FIELDS = ()

    def __new__(cls) -> "Path":
        return _make(cls, (cls,))  # type: ignore[return-value]

    def __str__(self) -> str:
        return "path"


class NegPath(_Node):
    """``¬path`` — the non-executable transaction, CTR's analogue of false."""

    __slots__ = ("_hash", "__weakref__")
    _FIELDS = ()

    def __new__(cls) -> "NegPath":
        return _make(cls, (cls,))  # type: ignore[return-value]

    def __str__(self) -> str:
        return "neg_path"


class Empty(_Node):
    """The unit of ``⊗``: the paper's ``state`` proposition ("do nothing")."""

    __slots__ = ("_hash", "__weakref__")
    _FIELDS = ()

    def __new__(cls) -> "Empty":
        return _make(cls, (cls,))  # type: ignore[return-value]

    def __str__(self) -> str:
        return "()"


# Module-level strong references keep the sentinels canonical forever, even
# when interning is toggled off (their constructors run at import time,
# while interning is on).
PATH = Path()
NEG_PATH = NegPath()
EMPTY = Empty()


def atom(name: str) -> Atom:
    """Build a single activity/event atom."""
    return Atom(name)


def atoms(names: str | Iterable[str]) -> tuple[Atom, ...]:
    """Build several atoms at once.

    Accepts either a whitespace/comma separated string or an iterable of
    names::

        a, b, c = atoms("a b c")
    """
    if isinstance(names, str):
        names = names.replace(",", " ").split()
    return tuple(Atom(n) for n in names)


def _flatten(kind: type, parts: Iterable[Goal]) -> Iterator[Goal]:
    for part in parts:
        if isinstance(part, kind):
            yield from part.parts  # type: ignore[attr-defined]
        else:
            yield part


def seq(*parts: Goal) -> Goal:
    """Serial conjunction of ``parts``, flattened, with units removed.

    ``seq()`` is :data:`EMPTY`; ``seq(g)`` is ``g``. A ``NEG_PATH`` part
    absorbs the whole composition (``¬path ⊗ φ ≡ ¬path``).
    """
    flat = [p for p in _flatten(Serial, parts) if p is not EMPTY and not isinstance(p, Empty)]
    if any(isinstance(p, NegPath) for p in flat):
        return NEG_PATH
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return flat[0]
    return Serial(tuple(flat))


def par(*parts: Goal) -> Goal:
    """Concurrent conjunction of ``parts``, flattened, with units removed."""
    flat = [p for p in _flatten(Concurrent, parts) if p is not EMPTY and not isinstance(p, Empty)]
    if any(isinstance(p, NegPath) for p in flat):
        return NEG_PATH
    if not flat:
        return EMPTY
    if len(flat) == 1:
        return flat[0]
    return Concurrent(tuple(flat))


def alt(*parts: Goal) -> Goal:
    """Choice between ``parts``, flattened and de-duplicated.

    ``NEG_PATH`` alternatives are dropped (``¬path ∨ φ ≡ φ``); if every
    alternative is ``NEG_PATH`` the result is ``NEG_PATH``.
    """
    flat: list[Goal] = []
    seen: set[Goal] = set()
    for p in _flatten(Choice, parts):
        if isinstance(p, NegPath):
            continue
        if p not in seen:
            seen.add(p)
            flat.append(p)
    if not flat:
        return NEG_PATH
    if len(flat) == 1:
        return flat[0]
    return Choice(tuple(flat))


# A ⊙ over one elementary step is a no-op (nothing can interleave inside
# one step), and ⊙⊙T ≡ ⊙T; ¬path and ε pass through both modalities.
_ISOLATED_ITSELF = (Atom, Send, Receive, Test, Isolated, NegPath, Empty)
_POSSIBLE_ITSELF = (Possibility, NegPath, Empty)


def isolated(body: Goal) -> Goal:
    """``⊙ body``, or ``body`` itself where isolating it changes nothing:
    ``¬path``, ``ε``, a single step, or a ``⊙`` already."""
    if isinstance(body, _ISOLATED_ITSELF):
        return body
    return Isolated(body)


def possible(body: Goal) -> Goal:
    """``◇ body``, or ``body`` itself when it is ``¬path``, ``ε`` or a ``◇``
    already (``◇◇T ≡ ◇T``)."""
    if isinstance(body, _POSSIBLE_ITSELF):
        return body
    return Possibility(body)


def subgoals(goal: Goal) -> tuple[Goal, ...]:
    """Immediate children of ``goal`` (empty for leaves)."""
    if isinstance(goal, (Serial, Concurrent, Choice)):
        return goal.parts
    if isinstance(goal, (Isolated, Possibility)):
        return (goal.body,)
    return ()


def walk(goal: Goal) -> Iterator[Goal]:
    """Pre-order traversal of every node of ``goal`` (including itself).

    Shared nodes are yielded once per *occurrence* — this is the tree view,
    the measure of Theorem 5.11. For the DAG view (each distinct node once)
    use :func:`walk_unique`, which is the right tool for "does the goal
    contain X" questions on compiled goals, where sharing makes the tree
    exponentially larger than the DAG.
    """
    stack = [goal]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(subgoals(node)))


def walk_unique(goal: Goal) -> Iterator[Goal]:
    """Pre-order traversal yielding each *distinct* node exactly once.

    Distinctness is object identity: with interning on, structurally equal
    subterms are the same object, so this visits the goal as the DAG it
    actually is — time and output are proportional to :func:`dag_size`,
    not :func:`goal_size`.
    """
    seen: set[int] = set()
    stack = [goal]
    while stack:
        node = stack.pop()
        key = id(node)
        if key in seen:
            continue
        seen.add(key)
        yield node
        stack.extend(reversed(subgoals(node)))


def goal_size(goal: Goal) -> int:
    """Number of AST nodes of the *tree* — the measure ``|G|`` of Theorem 5.11.

    Computed over the DAG (each shared node's subtree size is computed
    once), so this is O(dag_size) time even when the tree is exponentially
    larger.
    """
    sizes: dict[int, int] = {}
    stack = [goal]
    while stack:
        node = stack[-1]
        if id(node) in sizes:
            stack.pop()
            continue
        children = subgoals(node)
        pending = [c for c in children if id(c) not in sizes]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        sizes[id(node)] = 1 + sum(sizes[id(c)] for c in children)
    return sizes[id(goal)]


def dag_size(goal: Goal) -> int:
    """Number of *distinct* nodes — the allocated size under sharing."""
    return sum(1 for _ in walk_unique(goal))


def sharing_ratio(goal: Goal) -> float:
    """``goal_size / dag_size`` — how much smaller sharing makes the goal.

    1.0 means no sharing (every node unique); on Apply output with ``∨``
    constraints this grows with ``d^N``.
    """
    return goal_size(goal) / dag_size(goal)


class EventMasks:
    """The occurrence table: which events may and which must occur in each
    distinct subgoal.

    ``masks`` maps ``id(node) -> (node, may, must)``: the events that occur
    on *some* execution of the node and the events that occur on *every*
    execution, as bitmasks over ``bits``, the table's event index (bits are
    handed out as event names turn up, so no table outlives its user). The
    entry holds the node itself, so its id cannot be reused while the table
    lives and no lookup hashes a node. :meth:`names` decodes a mask.

    ``clash`` is the first overlap of the ``may`` masks of two parts of a
    ``⊗`` or ``|`` that :meth:`occurrence` met (``0`` while there is none):
    a goal has the unique-event property (Definition 3.1) iff its table has
    no clash. Parts are entered left to right, and each part's overlap with
    the parts before it is tested as soon as its own subgoals are in, so the
    first clash is the first violation of observation (3) that a recursive
    check meets. ``path`` says whether the table met the proposition
    ``path``, which admits arbitrary executions and so is no workflow goal.
    """

    __slots__ = ("bits", "masks", "clash", "path")

    def __init__(self) -> None:
        self.bits: dict[str, int] = {}
        self.masks: dict[int, tuple[Goal, int, int]] = {}
        self.clash = 0
        self.path = False

    def bit(self, event: str) -> int:
        bit = self.bits.get(event)
        if bit is None:
            bit = self.bits[event] = 1 << len(self.bits)
        return bit

    def names(self, mask: int) -> frozenset[str]:
        """The event names whose bits ``mask`` holds."""
        return frozenset(event for event, bit in self.bits.items() if mask & bit)

    def occurrence(self, goal: Goal) -> tuple[Goal, int, int]:
        """``(goal, may, must)``, entering the masks of ``goal``'s subgoals first.

        Atoms contribute their own bit to both masks; ``◇``, send, receive,
        tests, ``ε``, ``path`` and ``¬path`` contribute nothing. A ``◇``
        body never occurs, but it is entered where the ``◇`` stands, so its
        own clashes count. ``⊗`` and ``|`` OR both masks of their parts,
        ``∨`` ORs ``may`` and ANDs ``must``, and ``⊙`` takes its body's
        masks.
        """
        entry = self.masks.get(id(goal))
        if entry is not None:
            return entry
        if isinstance(goal, Atom):
            may = must = self.bit(goal.name)
        elif isinstance(goal, Choice):
            may, must = 0, -1
            for part in goal.parts:
                _, part_may, part_must = self.occurrence(part)
                may |= part_may
                must &= part_must
        elif isinstance(goal, (Serial, Concurrent)):
            may = must = 0
            for part in goal.parts:
                _, part_may, part_must = self.occurrence(part)
                if may & part_may and not self.clash:
                    self.clash = may & part_may
                may |= part_may
                must |= part_must
        elif isinstance(goal, Isolated):
            _, may, must = self.occurrence(goal.body)
        elif isinstance(goal, Possibility):
            self.occurrence(goal.body)
            may = must = 0
        else:
            self.path = self.path or isinstance(goal, Path)
            may = must = 0
        entry = self.masks[id(goal)] = (goal, may, must)
        return entry


def event_names(goal: Goal) -> frozenset[str]:
    """Names of the significant events that may *occur* in an execution:
    the ``may`` set of ``goal``'s occurrence table.

    ``Send``/``Receive``/``Test`` are not significant events, and events
    under a ``◇`` test are hypothetical.
    """
    table = EventMasks()
    return table.names(table.occurrence(goal)[1])


def is_concurrent_horn(goal: Goal) -> bool:
    """True iff ``goal`` lies in the concurrent-Horn fragment (Section 2).

    Concurrent-Horn goals are built from atomic formulas with ``⊗``, ``|``,
    ``∨``, ``⊙`` and ``◇``. ``¬path`` is *not* concurrent-Horn (the paper
    simplifies it away after Apply); ``path`` is not either, because it is
    defined with negation.
    """
    for node in walk_unique(goal):
        if isinstance(node, (Path, NegPath)):
            return False
        if not isinstance(
            node,
            (Atom, Send, Receive, Test, Empty, Serial, Concurrent, Choice, Isolated, Possibility),
        ):
            return False
    return True
