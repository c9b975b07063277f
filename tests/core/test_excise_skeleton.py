"""Excise's token-skeleton check against the tree-walk precedence builder.

The choice-free check builds its precedence graph from a per-run summary
of each distinct node: the sends and receives, the ``⊙`` blocks around
them and the ``◇`` tests, linked by their ``⊗``/``|`` structure. The
tree-walk builder below — one graph node per elementary step and per
``⊙`` boundary, and a full scan for choices and ``◇`` bodies — is the
reference: with it swapped in, Excise must return the same node and count
the same work.
"""

import importlib
import random
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from unittest import mock

import pytest

from repro.constraints.algebra import disj, order
from repro.core.apply import apply_all
from repro.core.compiler import compile_workflow
from repro.core.excise import ExciseStats, excise, flat_executable
from repro.ctr.formulas import (
    EMPTY,
    NEG_PATH,
    PATH,
    Atom,
    Choice,
    Concurrent,
    Empty,
    Isolated,
    NegPath,
    Possibility,
    Receive,
    Send,
    Serial,
    Test,
    alt,
    atoms,
    event_names,
    par,
    seq,
    walk_unique,
)
from repro.ctr.machine import can_complete
from repro.ctr.simplify import simplify
from repro.graph.generators import random_constraints, random_goal
from repro.obs.config import Observability

# ``repro.core`` re-exports the function under the module's name.
excise_module = importlib.import_module("repro.core.excise")

A, B, C, D = atoms("a b c d")


# -- the tree-walk builder, kept as the reference --------------------------------


@dataclass
class _TreeGraphBuilder:
    """Builds the precedence graph of a choice-free goal from its whole tree."""

    edges: dict[int, set[int]] = field(default_factory=dict)
    sends: dict[str, int] = field(default_factory=dict)
    receives: dict[str, int] = field(default_factory=dict)
    blocks_of: dict[int, tuple[tuple[int, int], ...]] = field(default_factory=dict)
    _counter: int = 0

    def node(self, enclosing):
        self._counter += 1
        self.edges[self._counter] = set()
        self.blocks_of[self._counter] = enclosing
        return self._counter

    def build(self, goal, enclosing):
        if isinstance(goal, (Atom, Test, Possibility, Empty)):
            n = self.node(enclosing)
            return {n}, {n}
        if isinstance(goal, (Send, Receive)):
            n = self.node(enclosing)
            table = self.sends if isinstance(goal, Send) else self.receives
            if goal.token in table:
                raise excise_module._MultiTokenError(goal.token)
            table[goal.token] = n
            return {n}, {n}
        if isinstance(goal, Serial):
            sources, previous_sinks = set(), set()
            for index, part in enumerate(goal.parts):
                part_sources, part_sinks = self.build(part, enclosing)
                if index == 0:
                    sources = part_sources
                else:
                    for s in previous_sinks:
                        self.edges[s] |= part_sources
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
            body_sources, body_sinks = self.build(goal.body, enclosing + ((entry, exit_),))
            self.edges[entry] |= body_sources
            for s in body_sinks:
                self.edges[s].add(exit_)
            return {entry}, {exit_}
        raise TypeError(f"unexpected node {type(goal).__name__} in flat goal")

    def add_token_edges(self):
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
            src = send_blocks[shared][1] if len(send_blocks) > shared else send_node
            dst = recv_blocks[shared][0] if len(recv_blocks) > shared else receive_node
            self.edges[src].add(dst)
        return True

    def acyclic(self):
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


def _tree_possibility_bodies(goal):
    stack = [goal]
    while stack:
        node = stack.pop()
        if isinstance(node, Possibility):
            yield node.body
            continue
        stack.extend(excise_module._children(node))


def _tree_precedence_check(goal, run):
    for body in _tree_possibility_bodies(goal):
        if any(isinstance(node, (Send, Receive)) for node in walk_unique(body)):
            return can_complete(goal)  # the body reads the tokens sent before it
        if isinstance(excise_module._excise(body, run), NegPath):
            return False
    builder = _TreeGraphBuilder()
    try:
        builder.build(goal, ())
    except excise_module._MultiTokenError:
        return can_complete(goal)
    if not builder.add_token_edges():
        return False
    return builder.acyclic()


def _tree_topmost_choices(goal, run=None):
    found = []

    def visit(node, path):
        if isinstance(node, Choice):
            found.append(path)
            return
        if isinstance(node, Possibility):
            return
        for index, child in enumerate(excise_module._children(node)):
            visit(child, path + (index,))

    visit(goal, ())
    return found


@contextmanager
def _tree_walks():
    """Run Excise with the tree-walk check and the full choice scan."""
    with mock.patch.object(excise_module, "_precedence_check", _tree_precedence_check), \
            mock.patch.object(excise_module, "_topmost_choices", _tree_topmost_choices):
        yield


def _counts(stats):
    """Every ExciseStats count the tree walk also keeps."""
    counts = asdict(stats)
    del counts["graph_nodes"]
    return counts


def _assert_matches_tree_walk(goal):
    """Excise output is the reference node, with the same accounting."""
    stats = ExciseStats()
    result = excise(goal, stats)
    reference_stats = ExciseStats()
    with _tree_walks():
        reference = excise(goal, reference_stats)
    assert result is reference
    assert _counts(stats) == _counts(reference_stats)
    return result, stats


def _flat_verdicts(goal):
    """``flat_executable`` of the goal's choice-free alternatives, both ways."""
    simplified = simplify(goal)
    parts = simplified.parts if isinstance(simplified, Choice) else (simplified,)
    verdicts = []
    for part in parts:
        if _tree_topmost_choices(part):
            continue
        new = flat_executable(part)
        with _tree_walks():
            verdicts.append((new, flat_executable(part)))
    return verdicts


def _choice_flags_agree(goal):
    """The summary reports a choice exactly where the full scan finds one."""
    run = excise_module._ExciseRun(None)
    for node in walk_unique(goal):
        flagged = bool(run.summary(node)[1] & excise_module._CHOICE)
        assert flagged == (isinstance(node, Choice) or bool(_tree_topmost_choices(node)))


# -- the generated corpus ----------------------------------------------------------

CORPUS_SPECS = 3_000


def _corpus_spec(seed):
    """A random goal with ⊙ blocks, ◇ tests and conditions, and 1–4 constraints."""
    rng = random.Random(seed)
    goal = random_goal(
        rng.randint(3, 8),
        rng=rng,
        p_isolated=rng.choice((0.0, 0.3, 0.6)),
        p_possible=rng.choice((0.0, 0.2)),
        p_condition=rng.choice((0.0, 0.2)),
    )
    events = sorted(event_names(goal))
    return goal, random_constraints(events, rng.randint(1, 4), rng=rng)


def test_skeleton_check_matches_the_tree_walk_on_a_generated_corpus():
    divergent_verdicts = 0
    knots = 0
    for seed in range(CORPUS_SPECS):
        goal, constraints = _corpus_spec(seed)
        applied = apply_all(constraints, goal)
        _, stats = _assert_matches_tree_walk(applied)
        knots += stats.knots
        divergent_verdicts += sum(new != old for new, old in _flat_verdicts(applied))
        _choice_flags_agree(applied)
    assert divergent_verdicts == 0
    assert knots > 0  # the corpus does exercise knotted branches


# -- hand cases ---------------------------------------------------------------------


class TestHandCases:
    def test_token_free_block_between_send_and_receive(self):
        block = Isolated(A >> B)
        live, stats = _assert_matches_tree_walk(seq(Send("t"), block, Receive("t")))
        assert live is seq(Send("t"), block, Receive("t"))
        assert stats.graph_nodes == 2  # the block is not in the graph
        dead, _ = _assert_matches_tree_walk(seq(Receive("t"), block, Send("t")))
        assert dead is NEG_PATH

    def test_knotted_possibility_body_in_a_token_free_serial_part(self):
        knotted = Possibility(seq(Receive("k"), B, Send("k")))
        goal = seq(A, knotted, C)
        result, stats = _assert_matches_tree_walk(goal)
        assert result is NEG_PATH
        # One knot, the goal: a body that holds a token is read where the
        # test stands, by the search, not excised on its own.
        assert stats.knots == 1
        result, _ = _assert_matches_tree_walk(goal + D)
        assert result is D

    def test_possibility_bodies_are_excised_last_first(self):
        # The knotted body on the right stops the check before the left
        # body's choice is counted, as in the tree walk.
        choosing = Possibility(seq(alt(A, B), C))
        knotted = Possibility(seq(Receive("k"), B, Send("k")))
        result, stats = _assert_matches_tree_walk(seq(choosing, D, knotted))
        assert result is NEG_PATH
        assert stats.local_choices == 0

    def test_receive_without_send(self):
        goal = (Receive("orphan") >> A) | Isolated(B >> C)
        result, _ = _assert_matches_tree_walk(goal)
        assert result is NEG_PATH

    def test_duplicate_token_falls_back_to_search(self):
        goal = (Send("t") >> A) | (Send("t") >> B) | (Receive("t") >> C)
        result, _ = _assert_matches_tree_walk(goal)
        assert result is goal
        assert flat_executable(goal) is can_complete(goal) is True

    def test_receive_in_nested_blocks_with_the_send_outside(self):
        inner = Isolated(seq(Receive("t"), A, Test("c")))
        live = Isolated(inner >> B) | (C >> Send("t"))
        result, stats = _assert_matches_tree_walk(live)
        assert result is live
        assert stats.graph_nodes == 6  # send, receive, two blocks' entries and exits
        dead = seq(Isolated(inner >> B), Send("t"))
        result, _ = _assert_matches_tree_walk(dead)
        assert result is NEG_PATH

    def test_blocks_waiting_on_each_other(self):
        # Acyclic until the token edges are rerouted through the blocks.
        goal = Isolated(Send("u") >> A >> Receive("t")) | Isolated(Send("t") >> B >> Receive("u"))
        result, _ = _assert_matches_tree_walk(goal)
        assert result is NEG_PATH

    def test_token_free_goal_with_possibility_tests_and_conditions(self):
        goal = seq(Test("c1"), Possibility(A + B), C) | Isolated(Possibility(D) >> Atom("e"))
        result, stats = _assert_matches_tree_walk(goal)
        assert result is goal
        assert stats.graph_nodes == 0

    def test_rejected_node_kinds_still_raise(self):
        for goal in (alt(A, B), seq(A, PATH), Isolated(seq(Send("t"), alt(A, B)))):
            with pytest.raises(TypeError, match="unexpected node"):
                flat_executable(goal)
            with _tree_walks(), pytest.raises(TypeError, match="unexpected node"):
                flat_executable(goal)

    def test_possibility_inside_a_choice_is_checked_before_the_rejection(self):
        # The ◇ body holds a token, so the goal goes to the search before
        # its choice is rejected, and the search reads the whole goal.
        goal = alt(Possibility(Receive("never")) >> A, B)
        assert flat_executable(goal) is True
        with _tree_walks():
            assert flat_executable(goal) is True

    def test_entangled_choices(self):
        # A token crosses each choice: the combos resolve through flat checks.
        a1 = seq(Send("x"), A, Receive("y"))
        a2 = seq(Send("y"), Atom("a2"), Receive("x"))
        b1 = seq(Receive("x"), B, Send("y"))
        b2 = seq(Receive("y"), Atom("b2"), Send("x"))
        dead = seq(Receive("t"), D, Send("t"))
        goal = seq(C, alt(dead, Atom("e")), par(alt(a1, a2), alt(b1, b2)))
        result, stats = _assert_matches_tree_walk(goal)
        assert result is not NEG_PATH
        assert stats.entangled_choices == 2
        assert stats.combos_tried == 4

    def test_empty_and_failure(self):
        assert _assert_matches_tree_walk(EMPTY)[0] is EMPTY
        assert _assert_matches_tree_walk(NEG_PATH)[0] is NEG_PATH


# -- the graph the check builds ------------------------------------------------------


def _fanout_goal():
    """A batch_fanout-shaped goal: four blocks of two concurrent pairs, then a pad."""
    names = [f"x{i}" for i in range(16)]
    blocks = [par(*(Atom(e) for e in names[4 * b:4 * b + 4])) for b in range(4)]
    pad = [Atom(f"pad{i}") for i in range(12)]
    constraints = [disj(order(names[4 * b], names[4 * b + 1]),
                        order(names[4 * b + 1], names[4 * b]))
                   for b in range(4)]
    return seq(*blocks, *pad), constraints


def _token_steps(goal):
    """Sends and receives in ``goal``, counted in the tree measure."""
    if isinstance(goal, (Send, Receive)):
        return 1
    return sum(_token_steps(child) for child in excise_module._children(goal))


class TestGraphNodes:
    def test_one_graph_node_per_send_and_receive_on_a_fanout_goal(self):
        goal, constraints = _fanout_goal()
        applied = apply_all(constraints + [order("pad7", "pad2")], goal)
        branches = applied.parts
        assert len(branches) == 16
        assert not any(_tree_topmost_choices(branch) for branch in branches)
        stats = ExciseStats()
        excise(applied, stats)
        assert stats.graph_nodes == sum(_token_steps(branch) for branch in branches)
        assert stats.graph_nodes == 16 * 10  # five tokens a branch

    def test_compile_records_graph_nodes(self):
        goal, constraints = _fanout_goal()
        obs = Observability.enabled(record=False)
        compile_workflow(goal, constraints, obs=obs)
        gauge = obs.metrics.gauge("excise.graph_nodes").value
        assert gauge == 16 * 8
        span = next(s for s in obs.tracer.spans if s.name == "excise")
        assert span.attrs["graph_nodes"] == gauge
