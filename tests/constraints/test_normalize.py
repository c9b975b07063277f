"""Tests for Proposition 3.3, Lemma 3.4, and Corollary 3.5.

Semantic equivalences are checked exhaustively over all permutations and
subsets of a small event vocabulary, which is a complete check under the
unique-event assumption.
"""

import itertools

from hypothesis import given

from repro.constraints.algebra import (
    And,
    Or,
    SerialConstraint,
    absent,
    conj,
    disj,
    must,
    order,
    serial,
)
from repro.constraints.normalize import (
    dnf_parameters,
    negate,
    normalize,
    split_serial,
    to_dnf,
)
from repro.constraints.satisfy import satisfies
from tests.conftest import EVENT_POOL, constraints_over

EVENTS = EVENT_POOL[:4]


def all_unique_traces(events=EVENTS):
    """Every unique-event trace over subsets of ``events``."""
    for size in range(len(events) + 1):
        for subset in itertools.combinations(events, size):
            for perm in itertools.permutations(subset):
                yield perm


class TestSplitSerial:
    def test_two_events_unchanged(self):
        c = order("a", "b")
        assert split_serial(c) == c

    def test_three_events(self):
        got = split_serial(SerialConstraint(("a", "b", "c")))
        assert got == conj(order("a", "b"), order("b", "c"))

    def test_split_preserves_semantics(self):
        original = SerialConstraint(tuple(EVENTS))
        split = split_serial(original)
        for trace in all_unique_traces():
            assert satisfies(trace, original) == satisfies(trace, split)


class TestNegation:
    def test_negate_primitives(self):
        assert negate(must("a")) == absent("a")
        assert negate(absent("a")) == must("a")

    def test_negate_order_is_lemma_3_4(self):
        got = negate(order("a", "b"))
        assert got == disj(absent("a"), absent("b"), order("b", "a"))

    def test_de_morgan(self):
        c = conj(must("a"), must("b"))
        assert negate(c) == disj(absent("a"), absent("b"))
        d = disj(must("a"), must("b"))
        assert negate(d) == conj(absent("a"), absent("b"))

    def test_double_negation_semantics(self):
        c = conj(order("a", "b"), disj(absent("c"), must("d")))
        double = negate(negate(c))
        for trace in all_unique_traces():
            assert satisfies(trace, c) == satisfies(trace, double)

    @given(constraints_over(EVENTS))
    def test_negation_complements_satisfaction(self, constraint):
        negated = negate(constraint)
        for trace in all_unique_traces():
            assert satisfies(trace, constraint) != satisfies(trace, negated)

    def test_negate_long_serial(self):
        c = serial("a", "b", "c")
        negated = negate(c)
        for trace in all_unique_traces():
            assert satisfies(trace, c) != satisfies(trace, negated)


class TestNormalize:
    def test_splits_nested_serials(self):
        c = disj(serial("a", "b", "c"), must("d"))
        normalized = normalize(c)
        for node in _leaves(normalized):
            if isinstance(node, SerialConstraint):
                assert len(node.events) == 2

    @given(constraints_over(EVENTS))
    def test_normalize_preserves_semantics(self, constraint):
        normalized = normalize(constraint)
        for trace in all_unique_traces():
            assert satisfies(trace, constraint) == satisfies(trace, normalized)


class TestDnf:
    def test_primitive_is_single_clause(self):
        dnf = to_dnf(must("a"))
        assert dnf.clauses == ((must("a"),),)
        assert dnf.width == 1

    def test_distribution(self):
        c = conj(disj(must("a"), must("b")), must("c"))
        dnf = to_dnf(c)
        assert dnf.width == 2

    @given(constraints_over(EVENTS))
    def test_dnf_preserves_semantics(self, constraint):
        back = to_dnf(constraint).to_constraint()
        for trace in all_unique_traces():
            assert satisfies(trace, constraint) == satisfies(trace, back)

    def test_dnf_parameters(self):
        constraints = [
            order("a", "b"),                       # d = 1
            disj(absent("a"), order("a", "b")),    # d = 2
            disj(must("a"), must("b"), must("c")),  # d = 3
        ]
        n, d = dnf_parameters(constraints)
        assert n == 3
        assert d == 3

    def test_dnf_parameters_empty(self):
        assert dnf_parameters([]) == (0, 1)


def _leaves(constraint):
    if isinstance(constraint, (And, Or)):
        for part in constraint.parts:
            yield from _leaves(part)
    else:
        yield constraint
