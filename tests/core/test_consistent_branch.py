"""Tests for the consistency search (:func:`repro.core.apply.consistent_branch`).

The search answers the yes/no questions of Theorems 5.8 and 5.10 from one
surviving branch; it must agree with the full ``Excise(Apply(C, G))`` on
every spec, and its leaf must be part of the compiled goal.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sat import (
    Cnf,
    brute_force_sat,
    cnf_to_workflow,
    random_cnf,
    workflow_consistency_sat,
)
from repro.constraints.algebra import absent, disj, must, serial
from repro.constraints.normalize import negate
from repro.core.apply import consistent_branch
from repro.core.compiler import compile_workflow, expand_goal
from repro.core.verify import is_consistent, is_redundant
from repro.ctr.formulas import atoms, event_names, par
from repro.ctr.kernel import lower_goal
from repro.ctr.simplify import is_failure
from repro.ctr.traces import traces
from repro.graph.generators import random_constraints
from tests.core.test_apply import decorated_goals

A, B, C = atoms("a b c")

#: ``random_constraints`` kinds whose normal form has no token-free
#: disjunction, and whose negations have none either.
ORDER_KINDS = ("order", "klein_order", "must", "absent", "causes", "serial3")
ALL_KINDS = ORDER_KINDS + ("klein_existence", "mutex")


@st.composite
def spec_constraints(draw, events, token_free_disjunctions=True):
    """1–4 constraints over ``events``: ``random_constraints`` kinds, their
    negations and width-2/3 ``∇``/``¬∇`` disjunctions; with
    ``token_free_disjunctions`` false, only what has no such disjunction."""
    kinds = ALL_KINDS if token_free_disjunctions else ORDER_KINDS
    shapes = ("drawn", "negated") + (("disjunction",) if token_free_disjunctions else ())

    def one():
        shape = draw(st.sampled_from(shapes))
        if shape == "disjunction":
            chosen = draw(st.lists(st.sampled_from(events), min_size=2, max_size=3,
                                   unique=True))
            return disj(*(must(e) if draw(st.booleans()) else absent(e) for e in chosen))
        seed = draw(st.integers(0, 2**32 - 1))
        drawn = random_constraints(events, 1, seed=seed, kinds=kinds)[0]
        return negate(drawn) if shape == "negated" else drawn

    return [one() for _ in range(draw(st.integers(1, 4)))]


def _spec(goal, data, token_free_disjunctions=True):
    goal = expand_goal(goal)
    # One event the goal lacks, so dead ∇ and satisfied ¬∇ disjuncts occur.
    events = sorted(event_names(goal)) + ["e_missing"]
    return goal, data.draw(spec_constraints(events, token_free_disjunctions))


def _check_verdict_and_leaf(goal, constraints):
    leaf = consistent_branch(constraints, goal)
    compiled = compile_workflow(goal, constraints)
    assert (not is_failure(leaf)) == compiled.consistent
    assert is_consistent(goal, constraints) == compiled.consistent
    if compiled.consistent:
        # The kernel's enumeration (K2 checks it against the oracle) prunes
        # the token-dead interleavings the object one must materialize.
        found = lower_goal(leaf).traces()
        assert found and found <= lower_goal(compiled.goal).traces()


class TestAgainstTheCompile:
    @settings(max_examples=300, deadline=None)
    @given(decorated_goals(), st.data())
    def test_verdict_and_leaf(self, goal, data):
        _check_verdict_and_leaf(*_spec(goal, data))

    def test_verdict_and_leaf_past_the_object_trace_budget(self):
        # The leaf's 11 token-bearing steps shuffle 415,800 ways, past the
        # object traces()' default budget of 200,000; 10 are traces.
        goal = expand_goal(par(*atoms("e1 e2 e3 e4 e5")))
        constraints = [disj(absent("e2"), absent("e3"), serial("e2", "e3")),
                       serial("e1", "e4", "e5")]
        _check_verdict_and_leaf(goal, constraints)

    @settings(max_examples=200, deadline=None)
    @given(decorated_goals(), st.data())
    def test_redundancy(self, goal, data):
        goal, constraints = _spec(goal, data)
        phi = data.draw(st.sampled_from(constraints))
        rest = list(constraints)
        rest.remove(phi)
        # verify_property(goal, rest, phi).holds is this compile's verdict;
        # calling it would also run a witness, which can get stuck on a
        # receive inside a ⊙ block (a known Excise gap).
        holds = not compile_workflow(goal, rest + [negate(phi)]).consistent
        assert is_redundant(goal, constraints, phi) == holds

    @settings(max_examples=200, deadline=None)
    @given(decorated_goals(), st.data())
    def test_no_token_free_disjunction_gives_the_compiled_goal(self, goal, data):
        goal, constraints = _spec(goal, data, token_free_disjunctions=False)
        assert consistent_branch(constraints, goal) is compile_workflow(goal, constraints).goal


class TestSearch:
    @pytest.mark.parametrize("n_vars", [6, 7, 8])
    def test_threshold_3sat_agrees_with_brute_force(self, n_vars):
        # Near the threshold a satisfiable instance has few solutions, so
        # a branch the search failed to try shows as a wrong verdict.
        for seed in range(15):
            cnf = random_cnf(n_vars, round(4.26 * n_vars), seed=seed)
            assignment = workflow_consistency_sat(cnf)
            assert (assignment is None) == (brute_force_sat(cnf) is None)
            assert assignment is None or cnf.evaluate(assignment)

    def test_backtracks_to_the_last_live_disjunct(self):
        # x1 is forced only by (x1 ∨ x3) ∧ (x1 ∨ ¬x3): the first literal
        # tried, ¬x1, fails, and only the second, x2, leads on.
        cnf = Cnf(3, ((-1, 2), (1, 3), (1, -3)))
        assert workflow_consistency_sat(cnf) == {1: True, 2: True, 3: False}

    def test_satisfied_disjunction_is_dropped(self):
        goal = A >> (B | C)
        assert consistent_branch([disj(must("zz"), must("a"))], goal) is goal

    def test_all_dead_refutes(self):
        goal = A >> (B + C)
        assert is_failure(consistent_branch([disj(must("zz"), absent("a"))], goal))

    def test_unit_is_applied(self):
        goal = A >> (B + C)
        leaf = consistent_branch([disj(must("zz"), must("c"))], goal)
        assert traces(leaf) == {("a", "c")}

    def test_deep_chain_needs_no_frame_per_decision(self):
        # (¬x1 ∨ x2) ∧ (¬x2 ∨ x3) ∧ …: every clause keeps two live literals
        # until decided, so the search takes one decision per variable.
        n = 400
        goal, constraints = cnf_to_workflow(Cnf(n, tuple((-i, i + 1) for i in range(1, n))))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_depth() + 150)
        try:
            consistent = is_consistent(goal, constraints)
        finally:
            sys.setrecursionlimit(limit)
        assert consistent


def _depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth
