"""Reproduction of "Logic Based Modeling and Analysis of Workflows" (PODS 1998).

Davulcu, Kifer, Ramakrishnan & Ramakrishnan propose Concurrent Transaction
Logic (CTR) as a single formalism for specifying, verifying, and scheduling
workflows. This library implements the whole system:

* ``repro.ctr``          — the concurrent-Horn fragment of CTR (AST, the
                           step semantics and the flat kernel that answers
                           trace queries, rules);
* ``repro.constraints``  — the temporal-constraint algebra CONSTR;
* ``repro.graph``        — control flow graphs, triggers, workload generators;
* ``repro.core``         — the Apply/Excise compiler, verification
                           (Theorems 5.8-5.10), the pro-active scheduler, and
                           the run-time engine;
* ``repro.db``           — relational states, transition oracle, event log;
* ``repro.baselines``    — passive scheduling and explicit-state model
                           checking, the paper's comparison points;
* ``repro.analysis``     — the Prop. 4.1 SAT reduction and measurement tools;
* ``repro.workflows``    — ready-made example specifications.

Quickstart::

    from repro import atoms, order, compile_workflow

    a, b, c = atoms("a b c")
    compiled = compile_workflow((a | b) >> c, [order("a", "b")])
    assert compiled.consistent
    print(list(compiled.schedules()))   # [('a', 'b', 'c')]
"""

from .constraints import (
    Constraint,
    PrefixEvaluator,
    Task,
    Verdict,
    absent,
    causes,
    conj,
    disj,
    klein_existence,
    klein_order,
    must,
    mutually_exclusive,
    negate,
    normalize,
    order,
    parse_constraint,
    requires_prior,
    satisfies,
    serial,
    to_dnf,
)
from .core import (
    ChaosOracle,
    CompileCache,
    CompiledWorkflow,
    ResiliencePolicy,
    RetryPolicy,
    SagaStep,
    VirtualClock,
    WorkflowReport,
    analyze,
    compile_modular,
    saga_goal,
    saga_invariants,
    Scheduler,
    VerificationResult,
    WorkflowEngine,
    apply_all,
    apply_constraint,
    compile_workflow,
    excise,
    is_consistent,
    is_redundant,
    redundant_constraints,
    verify_property,
)
from .ctr import (
    EMPTY,
    bounded_loop,
    unroll,
    NEG_PATH,
    Atom,
    Choice,
    Concurrent,
    Goal,
    Isolated,
    Possibility,
    Rule,
    RuleBase,
    Serial,
    Test,
    alt,
    atom,
    atoms,
    dag_size,
    event_names,
    goal_size,
    interning,
    parse_goal,
    par,
    pretty,
    pretty_unicode,
    seq,
    sharing_ratio,
    traces,
)
from .db import Database, Query, TransitionOracle, V
from .errors import (
    ConstraintError,
    InconsistentWorkflowError,
    ReproError,
    SpecificationError,
    UniqueEventError,
)
from .graph import ControlFlowGraph, Trigger, apply_triggers, to_goal
from .obs import (
    FlightRecorder,
    MetricsRegistry,
    NullTracer,
    Observability,
    Tracer,
)

__version__ = "1.1.0"

__all__ = [
    # ctr
    "Goal", "Atom", "Serial", "Concurrent", "Choice", "Isolated", "Possibility",
    "Test", "EMPTY", "NEG_PATH", "atom", "atoms", "seq", "par", "alt",
    "goal_size", "dag_size", "sharing_ratio", "interning", "event_names",
    "traces", "parse_goal", "pretty", "pretty_unicode", "Rule", "RuleBase",
    # constraints
    "Constraint", "must", "absent", "serial", "order", "conj", "disj",
    "negate", "normalize", "to_dnf", "satisfies", "Verdict", "PrefixEvaluator",
    "klein_order", "klein_existence", "causes", "requires_prior",
    "mutually_exclusive", "Task", "parse_constraint",
    # core
    "compile_workflow", "CompiledWorkflow", "CompileCache", "Scheduler",
    "WorkflowEngine",
    "ResiliencePolicy", "RetryPolicy", "ChaosOracle", "VirtualClock",
    "apply_constraint", "apply_all", "excise", "is_consistent",
    "verify_property", "VerificationResult", "is_redundant",
    "redundant_constraints", "compile_modular", "SagaStep", "saga_goal",
    "saga_invariants", "analyze", "WorkflowReport", "bounded_loop", "unroll",
    # graph
    "ControlFlowGraph", "to_goal", "Trigger", "apply_triggers",
    # obs
    "Observability", "Tracer", "NullTracer", "MetricsRegistry",
    "FlightRecorder",
    # db
    "Database", "TransitionOracle", "Query", "V",
    # errors
    "ReproError", "SpecificationError", "UniqueEventError", "ConstraintError",
    "InconsistentWorkflowError",
]
