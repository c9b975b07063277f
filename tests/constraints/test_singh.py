"""Tests for the Singh event-algebra mapping (intertask dependencies)."""

from repro.constraints.satisfy import satisfies
from repro.constraints.singh import (
    Task,
    abort_dependency,
    begin_dependency,
    commit_dependency,
    compensation_dependency,
    exclusion_dependency,
    serial_dependency,
    strong_commit_dependency,
)
from repro.ctr.machine import machine_traces

T1 = Task("t1")
T2 = Task("t2")


class TestTask:
    def test_event_names(self):
        assert T1.start == "start_t1"
        assert T1.commit == "commit_t1"
        assert T1.abort == "abort_t1"

    def test_skeleton_traces(self):
        assert machine_traces(T1.skeleton()) == {
            ("start_t1", "commit_t1"),
            ("start_t1", "abort_t1"),
        }


class TestDependencies:
    def test_commit_dependency(self):
        c = commit_dependency(T1, on=T2)
        assert satisfies(("commit_t2", "commit_t1"), c)
        assert not satisfies(("commit_t1", "commit_t2"), c)
        assert satisfies(("commit_t1",), c)  # only one commits: fine

    def test_strong_commit_dependency(self):
        c = strong_commit_dependency(T1, on=T2)
        assert satisfies(("commit_t2", "commit_t1"), c)
        assert not satisfies(("commit_t2",), c)
        assert satisfies((), c)

    def test_abort_dependency(self):
        c = abort_dependency(T1, on=T2)
        assert not satisfies(("abort_t2",), c)
        assert satisfies(("abort_t2", "abort_t1"), c)
        assert satisfies(("commit_t2",), c)

    def test_begin_dependency(self):
        c = begin_dependency(T1, on=T2)
        assert satisfies(("start_t2", "start_t1"), c)
        assert not satisfies(("start_t1", "start_t2"), c)
        assert satisfies((), c)

    def test_serial_dependency(self):
        c = serial_dependency(T1, T2)
        assert satisfies(("commit_t1", "start_t2"), c)
        assert satisfies(("abort_t1", "start_t2"), c)
        assert not satisfies(("start_t2", "commit_t1"), c)
        assert satisfies(("start_t1",), c)

    def test_exclusion_dependency(self):
        c = exclusion_dependency(T1, T2)
        assert satisfies(("commit_t1",), c)
        assert not satisfies(("commit_t1", "commit_t2"), c)

    def test_compensation_dependency(self):
        comp = Task("undo")
        c = compensation_dependency(T1, comp)
        assert satisfies((), c)
        assert satisfies(("commit_t1", "start_undo", "commit_undo"), c)
        # Compensator before the commit is invalid.
        assert not satisfies(("start_undo", "commit_t1", "commit_undo"), c)
        # Compensator that starts must commit.
        assert not satisfies(("commit_t1", "start_undo"), c)
