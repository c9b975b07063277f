"""Exception hierarchy for the workflow-logic library.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class. The subclasses mirror the phases of
the pipeline: specification problems (malformed formulas or constraints),
compilation problems (Apply/Excise), and run-time problems (scheduling and
activity execution).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SpecificationError(ReproError):
    """A workflow specification (goal, graph, or rule base) is malformed."""


class UniqueEventError(SpecificationError):
    """A goal violates the unique-event property (Definition 3.1).

    The offending event name is stored in :attr:`event`.
    """

    def __init__(self, event: str, message: str | None = None):
        self.event = event
        super().__init__(message or f"event {event!r} may occur more than once in an execution")


class RecursionError_(SpecificationError):
    """A rule base defines a workflow recursively.

    The paper restricts itself to non-iterative workflows (Section 2), so
    recursive concurrent-Horn rules are rejected. Named with a trailing
    underscore to avoid shadowing the builtin ``RecursionError``.
    """

    def __init__(self, cycle: tuple[str, ...]):
        self.cycle = cycle
        super().__init__("recursive sub-workflow definition: " + " -> ".join(cycle))


class ConstraintError(SpecificationError):
    """A temporal constraint is outside the CONSTR algebra (Definition 3.2)."""


class ParseError(SpecificationError):
    """The textual formula/constraint syntax could not be parsed."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class CompilationError(ReproError):
    """The Apply/Excise pipeline failed for a reason other than inconsistency."""


class InconsistentWorkflowError(CompilationError):
    """The workflow specification G ∧ C has no legal execution (Theorem 5.8).

    Carries the smallest inconsistent sub-specification found, when
    available, as :attr:`culprit` (mirrors the paper's G_fail feedback).
    """

    def __init__(self, message: str = "workflow is inconsistent with its constraints",
                 culprit=None):
        self.culprit = culprit
        super().__init__(message)


class SchedulingError(ReproError):
    """The scheduler was driven into an impossible position."""


class IneligibleEventError(SchedulingError):
    """An event was fired that is not currently eligible."""

    def __init__(self, event: str, eligible: frozenset[str]):
        self.event = event
        self.eligible = eligible
        shown = ", ".join(sorted(eligible)) or "<none>"
        super().__init__(f"event {event!r} is not eligible; eligible events: {shown}")


class ExecutionError(ReproError):
    """An activity failed at run time inside the workflow engine.

    Carries enough run context to diagnose an aborted run without
    re-executing it: :attr:`schedule` is the partial schedule at failure
    time (the failed activity last) and :attr:`eligible` the set of events
    that were eligible when the failed step was chosen. Both are ``None``
    when the error is raised outside a run (e.g. a manual :meth:`fire`).
    """

    def __init__(
        self,
        activity: str,
        cause: BaseException | None,
        message: str | None = None,
        schedule: tuple[str, ...] | None = None,
        eligible: frozenset[str] | None = None,
    ):
        self.activity = activity
        self.cause = cause
        self.schedule = tuple(schedule) if schedule is not None else None
        self.eligible = frozenset(eligible) if eligible is not None else None
        super().__init__(message or f"activity {activity!r} failed: {cause}")


class RetryExhaustedError(ExecutionError):
    """An activity failed permanently: its retry policy ran out of attempts.

    Raised by the engine after the configured ``max_attempts`` all failed
    and — when raised out of :meth:`WorkflowEngine.run` — after no
    ``∨``-alternative path avoiding the dead event(s) was found either.
    :attr:`dead` lists the permanently-failed events at that point, so the
    message doubles as a reroute diagnostic.
    """

    def __init__(
        self,
        activity: str,
        attempts: int,
        cause: BaseException | None,
        schedule: tuple[str, ...] | None = None,
        eligible: frozenset[str] | None = None,
        dead: frozenset[str] = frozenset(),
    ):
        self.attempts = attempts
        self.dead = frozenset(dead)
        noun = "attempt" if attempts == 1 else "attempts"
        message = f"activity {activity!r} failed permanently after {attempts} {noun}: {cause}"
        if self.dead:
            message += (
                "; no alternative branch avoids the dead event(s) "
                + ", ".join(sorted(self.dead))
            )
        super().__init__(activity, cause, message=message,
                         schedule=schedule, eligible=eligible)


class ActivityTimeoutError(ReproError):
    """An activity attempt overran its per-attempt timeout budget.

    The engine detects the overrun on its (injectable) clock after the
    activity returns — it cannot preempt a running update — and treats the
    attempt as failed, rolling its effects back. The name avoids shadowing
    the builtin ``TimeoutError`` while saying what timed out.
    """

    def __init__(self, activity: str, elapsed: float, timeout: float, attempt: int):
        self.activity = activity
        self.elapsed = elapsed
        self.timeout = timeout
        self.attempt = attempt
        super().__init__(
            f"activity {activity!r} attempt {attempt} took {elapsed:g}s, "
            f"over its {timeout:g}s timeout"
        )


class DatabaseError(ReproError):
    """An elementary update or query was invalid for the current state."""
