"""Tests for closed-form execution-path counting."""

import pytest
from hypothesis import given, settings

from repro.analysis.counting import count_paths, path_length_profile
from repro.ctr.formulas import (
    EMPTY,
    NEG_PATH,
    Isolated,
    Possibility,
    Receive,
    Send,
    Test,
    atoms,
)
from repro.ctr.machine import machine_traces
from repro.errors import SpecificationError
from repro.graph.generators import parallel_chains
from repro.workflows.figure1 import figure1_goal
from tests.conftest import unique_event_goals

A, B, C, D = atoms("a b c d")


class TestExactCounts:
    def test_atom(self):
        assert count_paths(A) == 1

    def test_serial(self):
        assert count_paths(A >> B >> C) == 1

    def test_choice(self):
        assert count_paths(A + B + C) == 3

    def test_parallel_pair(self):
        assert count_paths(A | B) == 2

    def test_parallel_three(self):
        assert count_paths(A | B | C) == 6

    def test_chains_interleaving(self):
        # Two chains of length 2: C(4,2) = 6 interleavings.
        assert count_paths(parallel_chains(2, 2)) == 6

    def test_big_parallel_closed_form(self):
        # 4 chains of 3: 12! / (3!)^4 = 369600 - enumeration would crawl.
        assert count_paths(parallel_chains(4, 3)) == 369_600

    def test_isolated_block_is_atomic(self):
        assert count_paths(Isolated(A >> B) | C) == 2
        assert count_paths((A >> B) | C) == 3

    def test_isolated_multiplies_internals(self):
        assert count_paths(Isolated(A + B) | C) == 4  # 2 inner x 2 positions

    def test_tests_and_possibility_invisible(self):
        assert count_paths(Test("x") >> A) == 1
        assert count_paths(Possibility(A) >> B) == 1
        assert count_paths(Possibility(NEG_PATH) >> B) == 0

    def test_sentinels(self):
        assert count_paths(EMPTY) == 1
        assert count_paths(NEG_PATH) == 0

    def test_figure1(self):
        # Matches the E1 table ("executions of G" = 80).
        assert count_paths(figure1_goal()) == 80

    def test_tokens_rejected(self):
        with pytest.raises(SpecificationError):
            count_paths((A >> Send("t")) | (Receive("t") >> B))


class TestProfile:
    def test_lengths(self):
        profile = path_length_profile((A >> B) + C)
        assert profile == {2: 1, 1: 1}

    def test_block_counts_as_one_item(self):
        assert path_length_profile(Isolated(A >> B)) == {1: 1}


class TestAgainstEnumeration:
    @settings(max_examples=80, deadline=None)
    @given(unique_event_goals(max_events=5, allow_shared_choice=False))
    def test_matches_trace_count_without_shared_choices(self, goal):
        # Disjoint-event alternatives: every path is a distinct trace.
        assert count_paths(goal) == len(machine_traces(goal))

    @settings(max_examples=50, deadline=None)
    @given(unique_event_goals(max_events=4))
    def test_upper_bounds_distinct_traces(self, goal):
        # Shared-choice goals may realise one trace via several paths.
        assert count_paths(goal) >= len(machine_traces(goal))
