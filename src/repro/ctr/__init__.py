"""Concurrent Transaction Logic: the concurrent-Horn fragment.

This subpackage implements the logical substrate of the paper: the formula
AST (:mod:`~repro.ctr.formulas`), the unique-event property
(:mod:`~repro.ctr.unique`), the executable step semantics used as the
testing oracle (:mod:`~repro.ctr.machine`), the flat kernel that answers
the trace queries ``traces``, ``count_traces`` and ``is_executable``
(:mod:`~repro.ctr.kernel`), concurrent-Horn rules / sub-workflows
(:mod:`~repro.ctr.rules`), plus a parser and pretty-printers.
"""

from .formulas import (
    EMPTY,
    NEG_PATH,
    PATH,
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
    alt,
    atom,
    atoms,
    dag_size,
    event_names,
    goal_size,
    intern_table_size,
    interning,
    interning_enabled,
    is_concurrent_horn,
    par,
    seq,
    set_interning,
    sharing_ratio,
    subgoals,
    walk,
    walk_unique,
)
from .kernel import count_traces, is_executable, traces
from .machine import Config, Machine, can_complete, machine_traces
from .parser import parse_goal
from .pretty import pretty, pretty_tree, pretty_unicode
from .rules import Rule, RuleBase
from .simplify import is_failure, simplify
from .serialize import (
    constraint_from_dict,
    constraint_to_dict,
    goal_from_dict,
    goal_from_shared_dict,
    goal_to_dict,
    goal_to_shared_dict,
    goals_from_shared_dict,
    goals_to_shared_dict,
    specification_from_dict,
    specification_to_dict,
)
from .unique import check_unique_events, is_unique_event_goal, occurring_events
from .unroll import bounded_loop, occurrence_names, recursive_heads, unroll

__all__ = [
    "Atom", "Send", "Receive", "Test", "Serial", "Concurrent", "Choice",
    "Isolated", "Possibility", "Path", "NegPath", "Empty", "Goal",
    "PATH", "NEG_PATH", "EMPTY",
    "atom", "atoms", "seq", "par", "alt",
    "goal_size", "dag_size", "sharing_ratio", "event_names", "subgoals",
    "walk", "walk_unique", "is_concurrent_horn",
    "set_interning", "interning_enabled", "interning", "intern_table_size",
    "simplify", "is_failure",
    "check_unique_events", "is_unique_event_goal", "occurring_events",
    "traces", "is_executable", "count_traces",
    "Machine", "Config", "can_complete", "machine_traces",
    "parse_goal", "pretty", "pretty_unicode", "pretty_tree",
    "Rule", "RuleBase",
    "unroll", "bounded_loop", "occurrence_names", "recursive_heads",
    "goal_to_dict", "goal_from_dict",
    "goal_to_shared_dict", "goal_from_shared_dict",
    "goals_to_shared_dict", "goals_from_shared_dict",
    "constraint_to_dict",
    "constraint_from_dict", "specification_to_dict", "specification_from_dict",
]
