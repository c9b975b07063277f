"""Flat kernel: goals lowered to integer tables, executed without objects.

Section 6 of the paper contrasts CONSTR compilation with the "standard
toolkit": turn the property into a finite automaton and model-check the
product with the system. :mod:`repro.baselines.automata` builds that
toolkit over Python objects; this module applies the same idea to the
goals themselves. A goal is **lowered** into a :class:`KernelProgram` — a
handful of flat, immutable tables — and the step semantics of
:class:`~repro.ctr.machine.Machine` then runs over those tables with

* the event alphabet interned to dense integer ids,
* the goal structure as a post-order node table (the same shared-DAG
  encoding :func:`repro.ctr.serialize.goal_to_shared_dict` uses on disk:
  ``kinds``/``args``/``lens`` arrays plus one flat ``children`` array),
* synchronization tokens as bits of one integer mask instead of
  ``frozenset`` objects,
* transition conditions as the original
  :class:`~repro.ctr.formulas.Test` objects, kept in ``tests`` and handed
  to the caller's ``test`` callback whenever a ``K_TEST`` node steps (no
  callback reads every condition as passable, the static reading the
  trace semantics uses),
* and every traversal iterative (explicit work stacks, saturating
  budgets), so deep goals neither recurse past the interpreter limit nor
  do unbounded work past their budget.

Execution states are ``(residual, token_mask)`` pairs where the residual
term is built from plain ints (node ids) and small tuples; structurally
equal residuals hash in O(size of the *changed* spine). Candidate
interleavings that violate send-before-receive are pruned *during* the
search (a ``receive`` simply has no step until its token bit is set), not
generated and filtered afterwards — on heavily synchronized compiled goals
this is an exponential reduction in work.

Step derivation is memoized in a *steps table* (token mask → residual →
steps, plus which ``⊙`` body states can still finish) that the caller
owns: a trace or executability query makes one
for its own walk, and :class:`repro.core.scheduler.Scheduler` — the
engine's one client — keeps one for its lifetime beside its successor
table. A program holds nothing but its tables.

The public trace queries :func:`traces`, :func:`count_traces` and
:func:`is_executable` lower their goal and answer here. The object step
machine :mod:`repro.ctr.machine` is the semantic oracle:
``tests/ctr/test_kernel.py`` and ``benchmarks/bench_kernel.py`` assert
the kernel agrees with it.
"""

from __future__ import annotations

from typing import Callable

from ..errors import SpecificationError, TooManyTracesError
from .formulas import (
    Atom,
    Choice,
    Concurrent,
    Empty,
    Goal,
    Isolated,
    NegPath,
    Path,
    Possibility,
    Receive,
    Send,
    Serial,
    Test,
)

__all__ = [
    "KernelProgram",
    "TraceCount",
    "lower_goal",
    "traces",
    "count_traces",
    "is_executable",
    "K_EMPTY",
    "K_ATOM",
    "K_SEND",
    "K_RECV",
    "K_TEST",
    "K_NEGPATH",
    "K_SERIAL",
    "K_CONCURRENT",
    "K_CHOICE",
    "K_ISOLATED",
    "K_POSSIBILITY",
]


# Node kind codes of the flat table. Leaves carry their event/token/test id
# in ``args``; composites carry the offset of their child block in
# ``children`` (``lens`` holds the block length).
K_EMPTY = 0
K_ATOM = 1
K_SEND = 2
K_RECV = 3
K_TEST = 4
K_NEGPATH = 5
K_SERIAL = 6
K_CONCURRENT = 7
K_CHOICE = 8
K_ISOLATED = 9
K_POSSIBILITY = 10

# Residual-term sentinels. A residual is one of:
#   an ``int >= 0``          — an unstarted node (index into the tables);
#   ``DONE``                 — a completed term;
#   ``("*", head, node, p)`` — a serial node: ``head`` running, children
#                              ``p:`` of ``node`` still unstarted;
#   ``("|", parts)``         — a concurrent region (tuple of >= 2 residuals);
#   ``("!", body)``          — a running isolated region (no interleaving).
DONE = -1

#: Leaves that complete by themselves, every condition passing.
_SURE = (K_EMPTY, K_ATOM, K_SEND, K_TEST)

#: Decides a transition condition at run time (``True`` = passable).
TestCallback = Callable[[Test], bool]


class TraceCount(int):
    """An execution count that knows whether it is exact or saturated.

    Behaves as a plain ``int`` (the count, or the lower bound when
    ``exact`` is False) so existing arithmetic and comparisons keep
    working.
    """

    exact: bool

    def __new__(cls, value: int, exact: bool = True) -> "TraceCount":
        self = super().__new__(cls, value)
        self.exact = exact
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        suffix = "" if self.exact else "+ (saturated)"
        return f"TraceCount({int(self)}{suffix})"


class KernelProgram:
    """A goal lowered to flat integer tables, plus its machine ops.

    Build with :func:`lower_goal`. The tables are immutable and the ops
    are pure functions of them (and of the optional ``test`` callback), so
    a program carries no state between queries: the steps table that
    memoizes derivation belongs to the query or the scheduler that passes
    it in (see :meth:`_steps`).
    """

    __slots__ = (
        "events", "tokens", "tests", "kinds", "args", "lens", "children",
        "root", "nullable", "nullable_from", "block_sends", "event_ids",
    )

    def __init__(self, events, tokens, tests, kinds, args, lens, children,
                 root):
        self.events = tuple(events)
        self.tokens = tuple(tokens)
        self.tests = tuple(tests)
        self.kinds = tuple(kinds)
        self.args = tuple(args)
        self.lens = tuple(lens)
        self.children = tuple(children)
        self.root = root
        self.event_ids = {name: i for i, name in enumerate(self.events)}
        self.nullable, self.nullable_from = self._node_bits((K_EMPTY,))
        # The tokens some ⊙ body sends: any other token a body waits for
        # must already be in the mask when the block starts.
        sends = [0] * len(self.kinds)
        self.block_sends = 0
        for i, kind in enumerate(self.kinds):
            off = self.args[i]
            sends[i] = 1 << off if kind == K_SEND else 0
            for j in range(self.lens[i]):
                sends[i] |= sends[self.children[off + j]]
            if kind == K_ISOLATED:
                self.block_sends |= sends[i]

    # -- lowering --------------------------------------------------------------

    @classmethod
    def from_goal(cls, goal: Goal) -> "KernelProgram":
        """Lower ``goal`` to its flat table form (post-order, DAG-deduped)."""
        from .machine import Running, Tail

        events: dict[str, int] = {}
        tokens: dict[str, int] = {}
        tests: list[Test] = []
        kinds: list[int] = []
        args: list[int] = []
        lens: list[int] = []
        children: list[int] = []
        index: dict[int, int] = {}

        def leaf_code(node: Goal) -> tuple[int, int] | None:
            if isinstance(node, Atom):
                return K_ATOM, events.setdefault(node.name, len(events))
            if isinstance(node, Send):
                return K_SEND, tokens.setdefault(node.token, len(tokens))
            if isinstance(node, Receive):
                return K_RECV, tokens.setdefault(node.token, len(tokens))
            if isinstance(node, Test):
                tests.append(node)
                return K_TEST, len(tests) - 1
            if isinstance(node, Empty):
                return K_EMPTY, 0
            if isinstance(node, NegPath):
                return K_NEGPATH, 0
            return None

        stack: list[Goal] = [goal]
        while stack:
            node = stack[-1]
            if id(node) in index:
                stack.pop()
                continue
            if isinstance(node, Path):
                raise SpecificationError(
                    "`path` cannot appear in an executable goal"
                )
            if isinstance(node, (Running, Tail)):
                raise SpecificationError(
                    "machine-internal residuals cannot be lowered; lower the "
                    "original compiled goal instead"
                )
            if isinstance(node, (Serial, Concurrent, Choice)):
                kids: tuple[Goal, ...] = node.parts
            elif isinstance(node, (Isolated, Possibility)):
                kids = (node.body,)
            else:
                kids = ()
            pending = [c for c in kids if id(c) not in index]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            code = leaf_code(node)
            if code is not None:
                kind, arg = code
                kinds.append(kind)
                args.append(arg)
                lens.append(0)
            else:
                if isinstance(node, Serial):
                    kind = K_SERIAL
                elif isinstance(node, Concurrent):
                    kind = K_CONCURRENT
                elif isinstance(node, Choice):
                    kind = K_CHOICE
                elif isinstance(node, Isolated):
                    kind = K_ISOLATED
                elif isinstance(node, Possibility):
                    kind = K_POSSIBILITY
                else:  # pragma: no cover - future node kinds
                    raise SpecificationError(
                        f"cannot lower {type(node).__name__}"
                    )
                kinds.append(kind)
                args.append(len(children))
                lens.append(len(kids))
                children.extend(index[id(c)] for c in kids)
            index[id(node)] = len(kinds) - 1

        return cls(events, tokens, tests, kinds, args, lens, children,
                   index[id(goal)])

    def _node_bits(self, leaves: tuple,
                   tokens: int = 0) -> tuple[bytes, tuple]:
        """A per-node bit (post-order pass): set on leaves whose kind is in
        ``leaves`` and on receives whose token is in ``tokens``, on
        serial, concurrent and ``⊙`` nodes whose children all have it,
        and on choices where one child has it; and for each serial node
        the first position from which every child has it.

        ``nullable`` (can complete without any step) starts from
        ``K_EMPTY`` alone: ``K_TEST`` is a silent *step* (length-1 path),
        matching the machine, though usually passable. :meth:`_relaxed`
        asks for the other readings.
        """
        out = bytearray(len(self.kinds))
        since = [0] * len(self.kinds)
        for i, kind in enumerate(self.kinds):
            if kind in leaves or kind == K_RECV and tokens >> self.args[i] & 1:
                out[i] = 1
            elif kind in (K_SERIAL, K_CONCURRENT, K_CHOICE, K_ISOLATED):
                off = self.args[i]
                kids = [out[self.children[off + j]] for j in range(self.lens[i])]
                out[i] = any(kids) if kind == K_CHOICE else all(kids)
                if kind == K_SERIAL:
                    start = len(kids)
                    while start and kids[start - 1]:
                        start -= 1
                    since[i] = start
        return bytes(out), tuple(since)

    # -- residual structure ----------------------------------------------------

    def _child(self, node: int, position: int) -> int:
        return self.children[self.args[node] + position]

    def _serial_tail(self, node: int, position: int):
        """Residual of serial ``node`` once children ``< position`` are done."""
        remaining = self.lens[node] - position
        if remaining <= 0:
            return DONE
        head = self._child(node, position)
        if remaining == 1:
            return head
        return ("*", head, node, position + 1)

    def _mk_serial(self, head, node: int, position: int):
        if head == DONE:
            return self._serial_tail(node, position)
        return ("*", head, node, position)

    def _mk_concurrent(self, parts: tuple) -> object:
        # Flatten nested regions (the machine's ``par()`` normalization):
        # structurally equal residuals must stay structurally equal however
        # they were derived, or state dedup degrades.
        live = []
        for part in parts:
            if part == DONE:
                continue
            if isinstance(part, tuple) and part[0] == "|":
                live.extend(part[1])
            else:
                live.append(part)
        if not live:
            return DONE
        if len(live) == 1:
            return live[0]
        return ("|", tuple(live))

    def rem_nullable(self, rem) -> bool:
        """Can this residual complete without taking any step?"""
        return self._all_parts(rem, self.nullable, self.nullable_from)

    def _relaxed(self, rem, tokens: int, leaves: tuple, memo: dict) -> bool:
        """Can every part of ``rem`` complete when the leaves of ``leaves``
        always pass and a receive passes iff its token is in ``tokens``?

        The bits are derived once per ``(tokens, leaves)`` and kept in
        ``memo``; a residual is then read in one walk.
        """
        key = ("bits", tokens, leaves)
        bits = memo.get(key)
        if bits is None:
            bits = memo[key] = self._node_bits(leaves, tokens)
        return self._all_parts(rem, *bits)

    def _all_parts(self, rem, bits: bytes, since: tuple) -> bool:
        """Does every part of this residual have its bit in ``bits``, with
        the ``since`` positions of :meth:`_node_bits`?"""
        stack = [rem]
        while stack:
            current = stack.pop()
            if isinstance(current, int):
                if current != DONE and not bits[current]:
                    return False
                continue
            tag = current[0]
            if tag == "*":
                _, head, node, position = current
                if position < since[node]:  # an unstarted child lacks it
                    return False
                stack.append(head)
            elif tag == "|":
                stack.extend(current[1])
            else:  # "!"
                stack.append(current[1])
        return True

    def _has_running(self, rem) -> bool:
        stack = [rem]
        while stack:
            current = stack.pop()
            if not isinstance(current, tuple):
                continue
            tag = current[0]
            if tag == "!":
                return True
            if tag == "*":
                stack.append(current[1])
            else:  # "|"
                stack.extend(current[1])
        return False

    # -- step derivation (iterative, memoized in a caller-owned table) ---------

    def _steps(self, rem, tok: int, test: TestCallback | None = None,
               table: dict | None = None):
        """All single steps of ``(rem, tok)`` as ``(label, rem', tok')``.

        ``label`` is an event id, or ``None`` for silent steps
        (send/receive/test/◇). Derivation is an explicit post-order
        evaluation over the residual's sub-terms — no Python recursion —
        memoized per token mask (the mask is fixed during one derivation:
        sends change it only in *result* states).

        ``table`` is a steps table the caller owns (token mask → residual
        → steps): a query or a scheduler passes one table to every call so
        sub-residuals shared between states are derived once. Entries
        depend on ``test``, so one table serves one callback, and only for
        as long as the callback's answers hold (the ``⊙`` verdicts it also
        keeps, see :meth:`_finishes`, hold for any). Without a table the
        memo lives for this call only.
        """
        if table is None:
            table = {}
        memo: dict = table.setdefault(tok, {})
        stack = [rem]
        while stack:
            current = stack[-1]
            if current in memo:
                stack.pop()
                continue
            deps = self._step_deps(current)
            pending = [d for d in deps if d not in memo]
            if pending:
                stack.extend(pending)
                continue
            memo[current] = self._combine_steps(current, tok, memo, test,
                                                table)
            stack.pop()
        return memo[rem]

    def _step_deps(self, rem) -> tuple:
        """Sub-residuals whose steps ``rem``'s own steps are built from."""
        if rem == DONE:
            return ()
        if isinstance(rem, int):
            kind = self.kinds[rem]
            if kind == K_SERIAL:
                head = self._child(rem, 0)
                deps = [head]
                if self.nullable[head]:
                    deps.append(self._serial_tail(rem, 1))
                return tuple(d for d in deps if d != DONE)
            if kind in (K_CONCURRENT, K_CHOICE):
                return tuple(
                    self._child(rem, j) for j in range(self.lens[rem])
                )
            if kind == K_ISOLATED:
                return (self._child(rem, 0),)
            return ()
        tag = rem[0]
        if tag == "*":
            _, head, node, position = rem
            deps = [head]
            if self.rem_nullable(head):
                tail = self._serial_tail(node, position)
                if tail != DONE:
                    deps.append(tail)
            return tuple(deps)
        if tag == "|":
            parts = rem[1]
            running = [p for p in parts if self._has_running(p)]
            return tuple(running) if running else parts
        return (rem[1],)  # "!"

    def _combine_steps(self, rem, tok: int, memo: dict,
                       test: TestCallback | None, table: dict) -> tuple:
        if rem == DONE:
            return ()
        if isinstance(rem, int):
            kind = self.kinds[rem]
            if kind == K_ATOM:
                return ((self.args[rem], DONE, tok),)
            if kind == K_SEND:
                return ((None, DONE, tok | (1 << self.args[rem])),)
            if kind == K_RECV:
                if tok >> self.args[rem] & 1:
                    return ((None, DONE, tok),)
                return ()
            if kind == K_TEST:
                if test is None or test(self.tests[self.args[rem]]):
                    return ((None, DONE, tok),)
                return ()
            if kind in (K_EMPTY, K_NEGPATH):
                return ()
            if kind == K_POSSIBILITY:
                if self.can_complete(self._child(rem, 0), tok, test=test):
                    return ((None, DONE, tok),)
                return ()
            if kind == K_SERIAL:
                head = self._child(rem, 0)
                out = [
                    (label, self._mk_serial(nxt, rem, 1), t2)
                    for label, nxt, t2 in memo[head]
                ]
                if self.nullable[head]:
                    tail = self._serial_tail(rem, 1)
                    out.extend(memo[tail] if tail != DONE else ())
                return tuple(out)
            if kind == K_CONCURRENT:
                parts = tuple(
                    self._child(rem, j) for j in range(self.lens[rem])
                )
                return self._concurrent_steps(parts, memo)
            if kind == K_CHOICE:
                out = []
                for j in range(self.lens[rem]):
                    out.extend(memo[self._child(rem, j)])
                return tuple(out)
            if kind == K_ISOLATED:
                return self._isolated_steps(memo[self._child(rem, 0)], test,
                                            table)
            raise SpecificationError(  # pragma: no cover - future kinds
                f"cannot execute kernel node kind {kind}"
            )
        tag = rem[0]
        if tag == "*":
            _, head, node, position = rem
            out = [
                (label, self._mk_serial(nxt, node, position), t2)
                for label, nxt, t2 in memo[head]
            ]
            if self.rem_nullable(head):
                tail = self._serial_tail(node, position)
                if tail != DONE:
                    out.extend(memo[tail])
            return tuple(out)
        if tag == "|":
            parts = rem[1]
            running = tuple(p for p in parts if self._has_running(p))
            return self._concurrent_steps(parts, memo, running or None)
        # "!" — a running isolated region: only its own steps are offered,
        # plus a silent release once the body may complete.
        body = rem[1]
        release = ((None, DONE, tok),) if self.rem_nullable(body) else ()
        return release + self._isolated_steps(memo[body], test, table)

    def _isolated_steps(self, steps: tuple, test: TestCallback | None,
                        table: dict) -> tuple:
        """A ``⊙`` body's steps, kept inside the block.

        An isolated block is all-or-nothing, so a step after which the
        body cannot complete on its own (a ``receive`` whose ``send`` lies
        outside the block) is not offered: the block starts only if it
        can finish (:meth:`_finishes`).
        """
        return tuple(
            (label, DONE if nxt == DONE else ("!", nxt), t2)
            for label, nxt, t2 in steps
            if nxt == DONE or self._finishes(nxt, t2, test, table)
        )

    def _finishes(self, rem, tok: int, test: TestCallback | None,
                  table: dict) -> bool:
        """Can a ``⊙`` body in state ``(rem, tok)`` complete on its own?

        Judged statically, every condition passing: the body's later
        conditions are read only after its own activities have run, and
        conditions only remove executions, so a body that cannot finish
        so cannot finish under any database. These verdicts hold for any
        callback: they are kept in ``table`` under the key ``None`` (token
        masks are ints; a scheduler keeps that entry when a live hook
        clears the rest), so each body state is decided once per table
        and a path through a block stays linear. With a callback the
        search derives its hook-free steps in a table of its own.
        """
        verdicts = table.setdefault(None, {})
        start = (rem, tok)
        # Settled without a search: yes if every receive the body needs
        # already has its token (◇ failing), no if one waits on a token
        # that is neither in the mask nor sent inside any block (◇
        # passing), since a running block lets nothing else send.
        if start not in verdicts:
            if self._relaxed(rem, tok, _SURE, verdicts):
                verdicts[start] = True
            elif not self._relaxed(rem, tok | self.block_sends,
                                   _SURE + (K_POSSIBILITY,), verdicts):
                verdicts[start] = False
        steps = table if test is None else {None: verdicts}
        return self.can_complete(rem, tok, table=steps)

    def _concurrent_steps(self, parts: tuple, memo: dict,
                          only: tuple | None = None) -> tuple:
        out = []
        for i, part in enumerate(parts):
            if only is not None and part not in only:
                continue
            for label, nxt, t2 in memo[part]:
                replaced = parts[:i] + (nxt,) + parts[i + 1:]
                out.append((label, self._mk_concurrent(replaced), t2))
        return tuple(out)

    # -- state queries ---------------------------------------------------------

    def initial(self):
        return (self.root, 0)

    def can_complete(self, rem, tok: int, budget: int | None = None,
                     test: TestCallback | None = None,
                     table: dict | None = None) -> bool:
        """Is there *any* full execution from ``(rem, tok)``? (state search)

        Depth first, one step at a time, stopping at the first state that
        completes: a success settles every state on the stack, an
        exhausted state settles itself. Every step consumes a leaf of the
        residual, so no state recurs on the stack. The verdicts go into
        ``table`` under the key ``None``, so a caller that keeps its steps
        table (a test-free one: see :meth:`_finishes`) decides each state
        once. ``budget`` bounds the states expanded.
        """
        table = {} if table is None else table
        verdicts = table.setdefault(None, {})
        start = (rem, tok)
        if start not in verdicts and self.rem_nullable(rem):
            verdicts[start] = True
        if start in verdicts:
            return verdicts[start]
        stack = [(start, iter(self._steps(rem, tok, test, table)))]
        expanded = 1
        while stack:
            state, pending = stack[-1]
            for _label, nxt, t2 in pending:
                child = (nxt, t2)
                found = verdicts.get(child)
                if found is None and self.rem_nullable(nxt):
                    found = True
                if found:
                    for settled, _ in stack:
                        verdicts[settled] = True
                    return True
                if found is None:
                    expanded += 1
                    if budget is not None and expanded > budget:
                        raise TooManyTracesError(budget)
                    stack.append(
                        (child, iter(self._steps(nxt, t2, test, table))))
                    break
            else:
                verdicts[state] = False
                stack.pop()
        return False

    def successors(self, state, test: TestCallback | None = None,
                   table: dict | None = None) -> dict[int, frozenset]:
        """Event-id-labelled successor states, silent steps closed over.

        ``table`` is the caller's steps table (see :meth:`_steps`).
        """
        seen = {state}
        frontier = [state]
        result: dict[int, set] = {}
        while frontier:
            r, t = frontier.pop()
            for label, nxt, t2 in self._steps(r, t, test, table):
                if label is None:
                    silent = (nxt, t2)
                    if silent not in seen:
                        seen.add(silent)
                        frontier.append(silent)
                else:
                    result.setdefault(label, set()).add((nxt, t2))
        return {label: frozenset(states) for label, states in result.items()}

    def is_final(self, state, test: TestCallback | None = None,
                 table: dict | None = None) -> bool:
        """Can ``state`` complete using silent steps only?

        ``table`` is the caller's steps table (see :meth:`_steps`).
        """
        seen = {state}
        frontier = [state]
        while frontier:
            r, t = frontier.pop()
            if self.rem_nullable(r):
                return True
            for label, nxt, t2 in self._steps(r, t, test, table):
                if label is None:
                    silent = (nxt, t2)
                    if silent not in seen:
                        seen.add(silent)
                        frontier.append(silent)
        return False

    # -- budgeted trace queries (static reading: every test passes) -----------

    def _complete_prefixes(self, max_traces: int):
        """Distinct complete event-id sequences, and whether the search
        finished within ``max_traces`` reached ``(prefix, state)`` pairs.

        Invalid interleavings are never generated (a ``receive`` without
        its token has no step), so heavily synchronized goals enumerate in
        time proportional to their valid executions — not to the raw
        interleaving space.
        """
        out: set[tuple[int, ...]] = set()
        seen: set = set()
        table: dict = {}
        stack = [((), self.initial())]
        while stack:
            prefix, state = stack.pop()
            key = (prefix, state)
            if key in seen:
                continue
            seen.add(key)
            if len(seen) > max_traces:
                return out, False
            r, t = state
            if self.rem_nullable(r):
                out.add(prefix)
            for label, nxt, t2 in self._steps(r, t, table=table):
                new_prefix = prefix if label is None else prefix + (label,)
                stack.append((new_prefix, (nxt, t2)))
        return out, True

    def traces(self, max_traces: int = 200_000) -> frozenset[tuple[str, ...]]:
        """All valid event sequences (names), by pruned machine search."""
        out, exact = self._complete_prefixes(max_traces)
        if not exact:
            raise TooManyTracesError(max_traces)
        names = self.events
        return frozenset(tuple(names[e] for e in prefix) for prefix in out)

    def is_executable(self, max_traces: int = 200_000) -> bool:
        """True iff the program has at least one valid execution.

        Short-circuits on the first completable state;
        :class:`TooManyTracesError` only when the budget is exhausted with
        no answer.
        """
        return self.can_complete(self.root, 0, budget=max_traces)

    def count_traces(self, max_traces: int = 200_000) -> TraceCount:
        """Number of distinct valid event sequences, saturating at budget.

        Past ``max_traces`` explored prefixes the count so far is returned
        as a lower bound (``TraceCount(n, exact=False)``), so the budget
        bounds *work* while still answering the question. An exact count
        equals the size of :func:`repro.ctr.machine.machine_traces`; a
        saturated one depends on the search order.
        """
        out, exact = self._complete_prefixes(max_traces)
        return TraceCount(len(out), exact=exact)


def lower_goal(goal: Goal) -> KernelProgram:
    """Lower ``goal`` to its flat kernel program."""
    return KernelProgram.from_goal(goal)


def traces(goal: Goal, max_traces: int = 200_000) -> frozenset[tuple[str, ...]]:
    """All valid event sequences of ``goal``.

    ``max_traces`` bounds the ``(prefix, state)`` pairs the search
    explores; past it :class:`~repro.errors.TooManyTracesError` is raised.

    >>> from repro.ctr.parser import parse_goal
    >>> sorted(traces(parse_goal("a | b")))
    [('a', 'b'), ('b', 'a')]
    >>> traces(parse_goal("send(t1) * <receive(t1)>"))
    frozenset({()})
    """
    return lower_goal(goal).traces(max_traces)


def count_traces(goal: Goal, max_traces: int = 200_000) -> TraceCount:
    """Number of distinct valid event sequences of ``goal``.

    ``max_traces`` bounds the ``(prefix, state)`` pairs the search
    explores; past it the count so far is returned as a lower bound,
    ``TraceCount(n, exact=False)``, rather than raising.
    """
    return lower_goal(goal).count_traces(max_traces)


def is_executable(goal: Goal, max_traces: int = 200_000) -> bool:
    """True iff ``goal`` has at least one valid execution.

    ``max_traces`` bounds the states the search expands. It stops at the
    first state that completes, so a wide goal answers ``True`` at once;
    :class:`~repro.errors.TooManyTracesError` is raised only when the
    budget runs out with no answer.
    """
    return lower_goal(goal).is_executable(max_traces)
