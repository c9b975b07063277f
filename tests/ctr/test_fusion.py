"""The kernel's fused lowering: each serial's ``receive(ξ)* ⊗ α ⊗ send(ζ)*``
is one guarded atom, and the fusion is exact.

Each rule of the fusion is checked against the step machine (traces,
exact counts, executability and schedules), the compiled goals of the
E5c/E5f corpora are checked to lower without a token step, and the
witnesses of failing E5f properties are checked against a greedy walk
over the machine's traces of their counterexample.
"""

import pytest

from repro.constraints.algebra import conj, disj, order
from repro.constraints.normalize import negate
from repro.core.compiler import compile_workflow
from repro.core.scheduler import seeded_strategy
from repro.core.verify import verify_property
from repro.ctr.formulas import Atom, par, seq
from repro.ctr.kernel import K_ATOM, K_RECV, K_SEND, K_SERIAL, lower_goal
from repro.ctr.machine import machine_traces
from repro.ctr.parser import parse_goal
from tests.proactive import (
    kernel_divergences,
    search_spec,
    verification_spec,
    witness_cost,
)


def _reachable(program) -> set[int]:
    """The node ids the program's root reaches."""
    seen = {program.root}
    stack = [program.root]
    while stack:
        node = stack.pop()
        if not program.lens[node]:  # a leaf: its arg is no child offset
            continue
        off = program.args[node]
        for child in program.children[off:off + program.lens[node]]:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return seen


def _token_steps(program) -> int:
    return sum(program.kinds[node] in (K_SEND, K_RECV)
               for node in _reachable(program))


class TestRules:
    @pytest.mark.parametrize("text, steps", [
        # A send after an atom becomes its gives, a receive before it its
        # needs: no token step is left.
        ("a * send(x) | receive(x) * b", 0),
        # The send after a receive, and the receive before it (it precedes
        # no atom), stay steps.
        ("a * receive(y) * send(x) * b | c * send(y) | receive(x) * d", 2),
        # A send before an atom stays a step.
        ("send(x) * a | receive(x) * b", 1),
        # A receive before anything but an atom stays a step.
        ("receive(x) * (b | c) | a * send(x)", 1),
        ("(receive(x) * a) + c", 0),
        ("(a * send(x)) + c", 0),
        ("[receive(x) * a] | b * send(x)", 0),
        ("[a * send(x)] | receive(x) * b", 0),
        ("<receive(x) * a>", 0),
        ("(<receive(x) * a> * b) | c * send(x)", 0),
        ("send(x) * <receive(x) * a> * b", 1),
        # A token sent twice.
        ("a * send(x) | b * send(x) | receive(x) * c", 0),
        ("receive(x) * receive(y) * a * send(z) * send(w) | b * send(x) "
         "| c * send(y) | receive(w) * receive(z) * d", 0),
    ])
    def test_kernel_equals_the_machine(self, text, steps):
        goal = parse_goal(text)
        assert kernel_divergences(goal) == []
        program = lower_goal(goal)
        assert _token_steps(program) == steps
        assert _reachable(program) == set(range(len(program.kinds)))

    def test_the_masks_of_a_fused_atom(self):
        program = lower_goal(parse_goal(
            "receive(x) * receive(y) * a * send(z) * send(w)"))
        # A serial that fuses to one child lowers to that child.
        root = program.root
        assert program.kinds == (K_ATOM,) and root == 0
        bit = {token: 1 << i for i, token in enumerate(program.tokens)}
        assert program.needs[root] == bit["x"] | bit["y"]
        assert program.gives[root] == bit["z"] | bit["w"]

    def test_the_steps_that_stay(self):
        program = lower_goal(parse_goal("a * receive(y) * send(x) * b"))
        root = program.root
        assert program.kinds[root] == K_SERIAL
        off = program.args[root]
        kids = program.children[off:off + program.lens[root]]
        assert [program.kinds[k] for k in kids] == \
            [K_ATOM, K_RECV, K_SEND, K_ATOM]
        assert not any(program.needs) and not any(program.gives)


class TestCompiledGoals:
    """Apply puts each token next to the event it guards, so the compiled
    goals of the E5c and E5f corpora lower without a token step."""

    def test_no_token_step_is_reachable(self):
        compiles = with_tokens = 0
        for seed in range(500):
            goal, constraints = search_spec(seed)
            goal_f, constraints_f, prop = verification_spec(seed)
            for compiled in (
                compile_workflow(goal, constraints),
                compile_workflow(goal_f, constraints_f + [negate(prop)]),
            ):
                if not compiled.consistent:
                    continue
                program = lower_goal(compiled.goal)
                compiles += 1
                with_tokens += bool(program.tokens)
                assert _token_steps(program) == 0, (seed, compiled.goal)
                assert _reachable(program) == set(range(len(program.kinds)))
        assert compiles > 200 and with_tokens > 50

    def test_witnesses_are_the_greedy_walk_over_the_machine(self):
        failing = 0
        for seed in range(500):
            goal, constraints, prop = verification_spec(seed)
            result = verify_property(goal, constraints, prop)
            if result.holds:
                continue
            failing += 1
            expected = machine_traces(result.counterexample)
            assert result.witness == _greedy(expected, min)
            assert verify_property(goal, constraints, prop, seed=7).witness \
                == _greedy(expected, seeded_strategy(7))
        assert failing > 30


def _greedy(traces, pick) -> tuple[str, ...]:
    """Extend a prefix by ``pick`` over the sorted next events of
    ``traces`` until no trace extends it."""
    prefix: tuple[str, ...] = ()
    while True:
        depth = len(prefix)
        following = frozenset(t[depth] for t in traces
                              if len(t) > depth and t[:depth] == prefix)
        if not following:
            assert prefix in traces
            return prefix
        prefix += (pick(following),)


# S2's goal: seven concurrent pairs and a serial pad of six, each pair
# ordered one way or the other (benchmarks/bench_apply_size.py).
_PAIRS = [(f"p{i}", f"q{i}") for i in range(1, 8)]
_GOAL = seq(par(*(Atom(e) for pair in _PAIRS for e in pair)),
            *(Atom(f"pad{i}") for i in range(6)))
_CONSTRAINTS = [disj(order(p, q), order(q, p)) for p, q in _PAIRS]


class TestWitnessCost:
    """A witness walks the compiled goal's events, not the interleavings
    of its token steps: each eligible set is built from a handful of
    kernel states (K6 in ``benchmarks/bench_kernel.py`` runs all 15 of
    S2's failing properties)."""

    @pytest.mark.parametrize("prop", [
        order("p1", "q1"),
        negate(conj(*(order(p, q) for p, q in _PAIRS))),
    ], ids=["precedes", "all-pairs-p-first"])
    def test_witness_is_valid_and_cheap(self, prop):
        witness, stats, faults = witness_cost(_GOAL, _CONSTRAINTS, prop)
        assert faults == []
        assert len(witness) == 20
        assert stats.configs_expanded <= 8 * stats.eligible_calls
