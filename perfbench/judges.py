"""Judges: each answer is checked by code independent of the code under test.

* ``sat_consistency`` — the verdict must match ``brute_force_sat``, and a
  read-back assignment must satisfy the formula (``Cnf.evaluate``).
* ``counterexample`` — ``holds`` must be False; the witness must pass the
  passive validator against ``C ∧ ¬Φ`` and replay as a complete run of the
  source goal on ``ctr.machine.Machine``, the step-semantics oracle.
* ``batch_fanout`` — the ``jobs=2`` result list must equal the ``jobs=1``
  list.
* ``serve_rw`` — each daemon answer must equal the in-process
  ``verify_property``, ``schedules()`` or ``compile_workflow`` result for
  the same spec text (:func:`serve_expected`).

A judge returns True when the answer is right; the run counts the rest as
wrong answers in ``error_ratio``.
"""

from __future__ import annotations

import itertools

from repro.analysis.sat import brute_force_sat
from repro.baselines.passive import validate_sequence
from repro.constraints.normalize import negate
from repro.ctr.machine import Machine


def sat_expected(cnf) -> bool:
    return brute_force_sat(cnf) is not None


def sat_ok(cnf, satisfiable: bool, assignment) -> bool:
    if assignment is None:
        return not satisfiable
    return satisfiable and cnf.evaluate(assignment)


def machine_replays(goal, sequence) -> bool:
    """Is ``sequence`` a complete run of ``goal`` under the step semantics?"""
    machine = Machine(goal)
    state = {machine.initial()}
    for event in sequence:
        state = {nxt for config in state
                 for nxt in machine.successors(config).get(event, ())}
        if not state:
            return False
    return any(machine.is_final(config) for config in state)


def counterexample_ok(goal, constraints, prop, holds, witness) -> bool:
    if holds or not witness:
        return False
    violating = list(constraints) + [negate(prop)]
    return (validate_sequence(tuple(witness), violating)
            and machine_replays(goal, witness))


def batch_ok(expected: list, results: list) -> bool:
    return list(results) == list(expected)


def serve_expected(spec, kind: str, limit: int = 0):
    """The in-process answer the daemon must reproduce for ``spec``.

    ``verify``: ``[(property text, holds, witness list or None)]`` over
    the spec's properties; ``schedule``: the first ``limit`` schedules;
    ``compile``: consistency, the three sizes and the pretty goal.
    """
    from repro.core.verify import verify_property
    from repro.ctr.formulas import goal_size
    from repro.ctr.pretty import pretty

    if kind == "verify":
        out = []
        for _, prop in spec.properties:
            result = verify_property(spec.goal, list(spec.constraints), prop,
                                     rules=spec.rules)
            out.append((str(prop), result.holds,
                        list(result.witness) if result.witness else None))
        return out
    compiled = spec.compile()
    if kind == "schedule":
        return [list(s) for s in itertools.islice(compiled.schedules(limit),
                                                  limit)]
    return {
        "consistent": compiled.consistent,
        "source_size": goal_size(compiled.source),
        "applied_size": compiled.applied_size,
        "compiled_size": compiled.compiled_size,
        "compiled": pretty(compiled.goal),
    }


def serve_answer(kind: str, payload: dict):
    """The part of a daemon response that :func:`serve_expected` predicts."""
    if kind == "verify":
        return [(r["property"], r["holds"], r["witness"])
                for r in payload["results"]]
    if kind == "schedule":
        return payload["schedules"]
    return {key: payload[key] for key in (
        "consistent", "source_size", "applied_size", "compiled_size",
        "compiled")}
