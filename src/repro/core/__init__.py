"""The paper's primary contribution: the Apply/Excise compiler and what it enables.

* :mod:`~repro.core.apply` / :mod:`~repro.core.sync` — compiling CONSTR
  constraints into control flow graphs (Section 5);
* :mod:`~repro.core.excise` — knot removal;
* :mod:`~repro.core.compiler` — the end-to-end pipeline;
* :mod:`~repro.core.verify` — consistency / verification / redundancy
  (Theorems 5.8–5.10);
* :mod:`~repro.core.scheduler` — pro-active scheduling (Section 4);
* :mod:`~repro.core.engine` — run-time execution against database states.
"""

from .apply import apply_all, apply_constraint
from .audit import AuditResult, audit_execution
from .modular import ScopedConstraints, compile_modular
from .saga import SagaStep, saga_goal, saga_invariants
from .static import (
    WorkflowReport,
    analyze,
    dead_activities,
    guaranteed_orderings,
    mandatory_events,
    possible_events,
)
from .compiler import CompileCache, CompiledWorkflow, compile_workflow
from .engine import ExecutionReport, WorkflowEngine, first_strategy, random_strategy
from .excise import ExciseStats, excise, flat_executable, has_knot
from .explain import Rejection, explain_rejection, is_allowed
from .incremental import add_constraint, add_constraints
from .parallel import resolve_jobs, shutdown_pool
from .resilience import (
    ChaosOracle,
    FailureRecord,
    FaultInjected,
    RerouteRecord,
    ResiliencePolicy,
    RetryPolicy,
    SystemClock,
    VirtualClock,
)
from .scheduler import Scheduler, SchedulerMark, SchedulerStats, seeded_strategy
from .sync import TokenFactory, sync_order
from .verify import (
    VerificationResult,
    is_consistent,
    is_redundant,
    redundant_constraints,
    verify_properties,
    verify_property,
)

__all__ = [
    "apply_constraint",
    "apply_all",
    "sync_order",
    "TokenFactory",
    "excise",
    "ExciseStats",
    "has_knot",
    "flat_executable",
    "compile_workflow",
    "CompiledWorkflow",
    "CompileCache",
    "Scheduler",
    "SchedulerMark",
    "SchedulerStats",
    "WorkflowEngine",
    "ExecutionReport",
    "first_strategy",
    "random_strategy",
    "ResiliencePolicy",
    "RetryPolicy",
    "ChaosOracle",
    "FaultInjected",
    "FailureRecord",
    "RerouteRecord",
    "VirtualClock",
    "SystemClock",
    "is_consistent",
    "verify_property",
    "verify_properties",
    "VerificationResult",
    "is_redundant",
    "redundant_constraints",
    "resolve_jobs",
    "shutdown_pool",
    "seeded_strategy",
    "compile_modular",
    "ScopedConstraints",
    "SagaStep",
    "saga_goal",
    "saga_invariants",
    "analyze",
    "WorkflowReport",
    "possible_events",
    "mandatory_events",
    "dead_activities",
    "guaranteed_orderings",
    "explain_rejection",
    "Rejection",
    "is_allowed",
    "add_constraint",
    "add_constraints",
    "audit_execution",
    "AuditResult",
]
