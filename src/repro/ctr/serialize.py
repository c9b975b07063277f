"""JSON-friendly serialization of goals, constraints, and rules.

Workflow specifications are data: teams store them in repositories, ship
them between services, and diff them in reviews. This module provides a
stable dictionary encoding for every CTR goal node and every CONSTR
constraint, round-tripping through ``json``::

    >>> import json
    >>> from repro.ctr.formulas import atoms
    >>> from repro.ctr.serialize import goal_from_dict, goal_to_dict
    >>> a, b = atoms("a b")
    >>> goal_from_dict(json.loads(json.dumps(goal_to_dict(a >> b)))) == (a >> b)
    True

``Test`` predicates are Python callables and are deliberately *not*
serialized — only the condition name survives, and the loader produces a
predicate-less ``Test`` (static reading). Re-attach predicates after
loading if run-time evaluation is needed.

Two goal encodings are provided. :func:`goal_to_dict` is the stable
human-readable *tree* encoding: nested dictionaries, one per occurrence,
so a shared subterm is written out once per reference. For compiled goals
— hash-consed DAGs where Theorem 5.11's ``d^N`` blow-up lives in the tree
measure — that expansion can be exponential, so
:func:`goal_to_shared_dict` encodes the *DAG* instead: a post-order node
table with integer child references, O(distinct nodes) to write and to
read. Both decoders rebuild through the interning constructors, so loaded
goals are always canonical.
"""

from __future__ import annotations

from typing import Any

from ..constraints.algebra import (
    And,
    Constraint,
    Or,
    Primitive,
    SerialConstraint,
    conj,
    disj,
)
from ..errors import SpecificationError
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
    par,
    seq,
    subgoals,
)
from .rules import Rule, RuleBase

__all__ = [
    "goal_to_dict",
    "goal_from_dict",
    "goal_to_shared_dict",
    "goal_from_shared_dict",
    "goals_to_shared_dict",
    "goals_from_shared_dict",
    "constraint_to_dict",
    "constraint_from_dict",
    "rules_to_dict",
    "rules_from_dict",
    "specification_to_dict",
    "specification_from_dict",
]


def goal_to_dict(goal: Goal) -> dict[str, Any]:
    """Encode a goal as plain dictionaries/lists/strings."""
    if isinstance(goal, Atom):
        return {"kind": "atom", "name": goal.name}
    if isinstance(goal, Send):
        return {"kind": "send", "token": goal.token}
    if isinstance(goal, Receive):
        return {"kind": "receive", "token": goal.token}
    if isinstance(goal, Test):
        return {"kind": "test", "name": goal.name}
    if isinstance(goal, Empty):
        return {"kind": "empty"}
    if isinstance(goal, Path):
        return {"kind": "path"}
    if isinstance(goal, NegPath):
        return {"kind": "neg_path"}
    if isinstance(goal, Serial):
        return {"kind": "serial", "parts": [goal_to_dict(p) for p in goal.parts]}
    if isinstance(goal, Concurrent):
        return {"kind": "concurrent", "parts": [goal_to_dict(p) for p in goal.parts]}
    if isinstance(goal, Choice):
        return {"kind": "choice", "parts": [goal_to_dict(p) for p in goal.parts]}
    if isinstance(goal, Isolated):
        return {"kind": "isolated", "body": goal_to_dict(goal.body)}
    if isinstance(goal, Possibility):
        return {"kind": "possibility", "body": goal_to_dict(goal.body)}
    raise SpecificationError(f"cannot serialize {type(goal).__name__}")


def goal_from_dict(data: dict[str, Any]) -> Goal:
    """Decode :func:`goal_to_dict` output."""
    kind = data.get("kind")
    if kind == "atom":
        return Atom(data["name"])
    if kind == "send":
        return Send(data["token"])
    if kind == "receive":
        return Receive(data["token"])
    if kind == "test":
        return Test(data["name"])
    if kind == "empty":
        return EMPTY
    if kind == "path":
        return PATH
    if kind == "neg_path":
        return NEG_PATH
    if kind == "serial":
        return seq(*(goal_from_dict(p) for p in data["parts"]))
    if kind == "concurrent":
        return par(*(goal_from_dict(p) for p in data["parts"]))
    if kind == "choice":
        return alt(*(goal_from_dict(p) for p in data["parts"]))
    if kind == "isolated":
        return Isolated(goal_from_dict(data["body"]))
    if kind == "possibility":
        return Possibility(goal_from_dict(data["body"]))
    raise SpecificationError(f"unknown goal kind {kind!r}")


def _encode_shared_into(
    goal: Goal, nodes: list[dict[str, Any]], index: dict[int, int]
) -> int:
    """Append ``goal``'s distinct nodes to ``nodes`` post-order; return its index."""
    stack = [goal]
    while stack:
        node = stack[-1]
        if id(node) in index:
            stack.pop()
            continue
        children = subgoals(node)
        pending = [c for c in children if id(c) not in index]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if isinstance(node, Serial):
            encoded: dict[str, Any] = {
                "kind": "serial", "parts": [index[id(p)] for p in node.parts]
            }
        elif isinstance(node, Concurrent):
            encoded = {
                "kind": "concurrent", "parts": [index[id(p)] for p in node.parts]
            }
        elif isinstance(node, Choice):
            encoded = {
                "kind": "choice", "parts": [index[id(p)] for p in node.parts]
            }
        elif isinstance(node, Isolated):
            encoded = {"kind": "isolated", "body": index[id(node.body)]}
        elif isinstance(node, Possibility):
            encoded = {"kind": "possibility", "body": index[id(node.body)]}
        else:
            encoded = goal_to_dict(node)  # leaves share the tree encoding
        index[id(node)] = len(nodes)
        nodes.append(encoded)
    return index[id(goal)]


def goal_to_shared_dict(goal: Goal) -> dict[str, Any]:
    """Encode a goal DAG with its sharing intact.

    The result is ``{"nodes": [...], "root": i}``: ``nodes`` lists every
    *distinct* node in post-order (children before parents), with composite
    nodes referencing their parts by index into the list. A subterm shared
    by many parents is written exactly once, so the encoding is linear in
    ``dag_size`` where :func:`goal_to_dict` is linear in the (possibly
    exponentially larger) tree size.
    """
    nodes: list[dict[str, Any]] = []
    index: dict[int, int] = {}
    root = _encode_shared_into(goal, nodes, index)
    return {"nodes": nodes, "root": root}


def goals_to_shared_dict(goals: dict[str, Goal]) -> dict[str, Any]:
    """Encode several goals into *one* shared node table.

    ``{"nodes": [...], "roots": {name: i}}`` — structure shared *between*
    the goals (e.g. a compile result's ``applied`` and excised ``goal``,
    which typically overlap almost entirely) is also written only once.
    """
    nodes: list[dict[str, Any]] = []
    index: dict[int, int] = {}
    roots = {
        name: _encode_shared_into(goal, nodes, index)
        for name, goal in goals.items()
    }
    return {"nodes": nodes, "roots": roots}


def _shared_node(built: list[Goal], i: Any) -> Goal:
    """``built[i]``, refusing a negative ``i`` (see :func:`_decode_shared_nodes`)."""
    if i < 0:
        raise IndexError(f"negative node reference {i!r}")
    return built[i]


_SHARED_COMPOSITES = {"serial": Serial, "concurrent": Concurrent, "choice": Choice}


def _decode_shared_nodes(entries: list[dict[str, Any]]) -> list[Goal]:
    built: list[Goal] = []
    # Post-order puts children before parents, so a reference to a node not
    # decoded yet raises IndexError, and a negative one, which Python would
    # count from the end, is refused: malformed references surface as
    # SpecificationError rather than as wrong goals.
    try:
        for entry in entries:
            kind = entry.get("kind")
            if kind in _SHARED_COMPOSITES:
                refs = entry["parts"]
                if min(refs) < 0:
                    raise IndexError(f"negative node reference in {refs!r}")
                node: Goal = _SHARED_COMPOSITES[kind](tuple(map(built.__getitem__, refs)))
            elif kind == "isolated":
                node = Isolated(_shared_node(built, entry["body"]))
            elif kind == "possibility":
                node = Possibility(_shared_node(built, entry["body"]))
            else:
                node = goal_from_dict(entry)
            built.append(node)
    except (IndexError, TypeError, KeyError, ValueError) as exc:
        # ValueError: no parts, a one-part composite or an empty atom name.
        raise SpecificationError(f"malformed shared goal encoding: {exc}") from exc
    return built


def goal_from_shared_dict(data: dict[str, Any]) -> Goal:
    """Decode :func:`goal_to_shared_dict` output (re-interning every node).

    Unlike :func:`goal_from_dict` (which rebuilds through the normalizing
    ``seq``/``par``/``alt`` constructors), this decoder reproduces the
    encoded structure *exactly* — the shared encoding is a faithful image
    of an existing goal, and each node index must keep denoting the same
    subterm it did at encode time.
    """
    built = _decode_shared_nodes(data["nodes"])
    try:
        return _shared_node(built, data["root"])
    except (IndexError, TypeError, KeyError) as exc:
        raise SpecificationError(f"malformed shared goal encoding: {exc}") from exc


def goals_from_shared_dict(data: dict[str, Any]) -> dict[str, Goal]:
    """Decode :func:`goals_to_shared_dict` output: name → canonical goal."""
    built = _decode_shared_nodes(data["nodes"])
    try:
        return {name: _shared_node(built, i) for name, i in data["roots"].items()}
    except (IndexError, TypeError, KeyError) as exc:
        raise SpecificationError(f"malformed shared goal encoding: {exc}") from exc


def constraint_to_dict(constraint: Constraint) -> dict[str, Any]:
    """Encode a CONSTR constraint."""
    if isinstance(constraint, Primitive):
        return {
            "kind": "primitive",
            "event": constraint.event,
            "positive": constraint.positive,
        }
    if isinstance(constraint, SerialConstraint):
        return {"kind": "serial", "events": list(constraint.events)}
    if isinstance(constraint, And):
        return {"kind": "and", "parts": [constraint_to_dict(p) for p in constraint.parts]}
    if isinstance(constraint, Or):
        return {"kind": "or", "parts": [constraint_to_dict(p) for p in constraint.parts]}
    raise SpecificationError(f"cannot serialize {type(constraint).__name__}")


def constraint_from_dict(data: dict[str, Any]) -> Constraint:
    """Decode :func:`constraint_to_dict` output."""
    kind = data.get("kind")
    if kind == "primitive":
        return Primitive(data["event"], positive=bool(data["positive"]))
    if kind == "serial":
        return SerialConstraint(tuple(data["events"]))
    if kind == "and":
        return conj(*(constraint_from_dict(p) for p in data["parts"]))
    if kind == "or":
        return disj(*(constraint_from_dict(p) for p in data["parts"]))
    raise SpecificationError(f"unknown constraint kind {kind!r}")


def rules_to_dict(rules: RuleBase) -> dict[str, list[dict[str, Any]]]:
    """Encode a rule base as head → list of body encodings."""
    return {
        head: [goal_to_dict(body) for body in rules.bodies(head)]
        for head in sorted(rules.heads)
    }


def rules_from_dict(data: dict[str, list[dict[str, Any]]]) -> RuleBase:
    """Decode :func:`rules_to_dict` output."""
    base = RuleBase()
    for head, bodies in data.items():
        for body in bodies:
            base.add(Rule(head, goal_from_dict(body)))
    return base


def specification_to_dict(
    goal: Goal,
    constraints: list[Constraint] | tuple[Constraint, ...] = (),
    rules: RuleBase | None = None,
) -> dict[str, Any]:
    """Encode a full workflow specification."""
    out: dict[str, Any] = {
        "goal": goal_to_dict(goal),
        "constraints": [constraint_to_dict(c) for c in constraints],
    }
    if rules is not None and rules.heads:
        out["rules"] = rules_to_dict(rules)
    return out


def specification_from_dict(
    data: dict[str, Any],
) -> tuple[Goal, list[Constraint], RuleBase | None]:
    """Decode :func:`specification_to_dict` output."""
    goal = goal_from_dict(data["goal"])
    constraints = [constraint_from_dict(c) for c in data.get("constraints", [])]
    rules = rules_from_dict(data["rules"]) if "rules" in data else None
    return goal, constraints, rules
