"""Simplification of CTR goals via the tautologies of Section 5.

After the Apply transformation the intermediate goal may contain ``¬path``
literals. The paper removes them with the tautologies::

    ¬path ⊗ φ ≡ φ ⊗ ¬path ≡ ¬path
    ¬path | φ ≡ φ | ¬path ≡ ¬path
    ¬path ∨ φ ≡ φ ∨ ¬path ≡ φ

The five smart constructors of :mod:`repro.ctr.formulas` — ``seq``,
``par``, ``alt``, ``isolated`` and ``possible`` — apply these as they
build, together with a handful of trivially-sound structural clean-ups
(flattening, units, duplicate choice branches, collapse of ``⊙``/``◇``
over what they cannot change), and on normal parts they return a normal
form. :func:`simplify` is their bottom-up fold: it rebuilds a goal made
with the raw node classes (a parsed or hand-written specification) into
that normal form, which is either a concurrent-Horn goal or the single
literal ``NEG_PATH``. Apply and Excise build only with the constructors,
so their outputs need no further pass; the pipeline folds only its input.

A fold memoises per distinct node, so it costs the DAG, not the tree; on
a normal form it returns an equal goal, which hash-consing (see
:mod:`repro.ctr.formulas`) makes the very same object.
"""

from __future__ import annotations

from .formulas import (
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
    isolated,
    par,
    possible,
    seq,
)

__all__ = ["simplify", "is_failure"]


def is_failure(goal: Goal) -> bool:
    """True iff ``goal`` is the non-executable transaction ``¬path``."""
    return isinstance(goal, NegPath)


_LEAVES = (Atom, Send, Receive, Test, Path, NegPath, Empty)
_FOLD = {Serial: seq, Concurrent: par, Choice: alt}


def simplify(goal: Goal) -> Goal:
    """Normalise ``goal`` by propagating ``¬path`` and flattening connectives.

    The result is semantically equivalent to the input (same set of valid
    executions) and is either :data:`~repro.ctr.formulas.NEG_PATH` or free
    of ``¬path`` literals.
    """
    return _simplify(goal, {})


def _simplify(goal: Goal, memo: dict[int, Goal]) -> Goal:
    # Keyed by id: the input goal holds every node it reaches alive.
    if isinstance(goal, _LEAVES):
        return goal
    result = memo.get(id(goal))
    if result is None:
        if isinstance(goal, Isolated):
            result = isolated(_simplify(goal.body, memo))
        elif isinstance(goal, Possibility):
            result = possible(_simplify(goal.body, memo))
        else:
            result = _FOLD[type(goal)](*(_simplify(p, memo) for p in goal.parts))
        memo[id(goal)] = result
    return result
