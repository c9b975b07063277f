"""Normal forms for CONSTR constraints (Prop 3.3, Lemma 3.4, Cor 3.5).

Three transformations, each preserving the set of satisfying traces under
the unique-event assumption (2):

* :func:`split_serial` — Proposition 3.3: a serial constraint over more
  than two events equals the conjunction of its adjacent order
  constraints: ``∇e₁⊗∇e₂⊗∇e₃  ≡  (∇e₁⊗∇e₂) ∧ (∇e₂⊗∇e₃)``.
* :func:`negate` — Lemma 3.4: CONSTR is closed under negation. De Morgan
  pushes negation to the leaves;
  ``¬(∇e₁⊗∇e₂) ≡ ¬∇e₁ ∨ ¬∇e₂ ∨ (∇e₂⊗∇e₁)``.
* :func:`normalize` / :func:`to_dnf` — Corollary 3.5: every constraint is
  an OR of ANDs whose leaves are primitives or two-event order
  constraints. :func:`normalize` does the leaf-level rewriting only (what
  Apply needs); :func:`to_dnf` additionally distributes to full disjunctive
  normal form and reports the parameters ``N`` (number of conjuncts) and
  ``d`` (number of disjuncts) used by Theorem 5.11.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    And,
    Constraint,
    Or,
    Primitive,
    SerialConstraint,
    conj,
    disj,
    order,
)

__all__ = [
    "split_serial",
    "negate",
    "normalize",
    "to_dnf",
    "DNF",
    "dnf_parameters",
]


def split_serial(constraint: SerialConstraint) -> Constraint:
    """Proposition 3.3: split into a conjunction of adjacent order constraints."""
    events = constraint.events
    if len(events) == 2:
        return constraint
    return conj(*(order(a, b) for a, b in zip(events, events[1:])))


def negate(constraint: Constraint) -> Constraint:
    """Lemma 3.4: the CONSTR constraint equivalent to ``¬constraint``."""
    if isinstance(constraint, Primitive):
        return Primitive(constraint.event, positive=not constraint.positive)
    if isinstance(constraint, SerialConstraint):
        # Reduce to <=2 events first (Prop 3.3), then use
        # ¬(∇a ⊗ ∇b) ≡ ¬∇a ∨ ¬∇b ∨ (∇b ⊗ ∇a).
        split = split_serial(constraint)
        if isinstance(split, And):
            return negate(split)
        first, second = constraint.events
        return disj(
            Primitive(first, positive=False),
            Primitive(second, positive=False),
            order(second, first),
        )
    if isinstance(constraint, And):
        return disj(*(negate(p) for p in constraint.parts))
    if isinstance(constraint, Or):
        return conj(*(negate(p) for p in constraint.parts))
    raise TypeError(f"cannot negate {type(constraint).__name__}")  # pragma: no cover


def normalize(constraint: Constraint) -> Constraint:
    """Rewrite so every serial leaf has exactly two events.

    The result uses only primitives, order constraints, ``∧`` and ``∨`` —
    the exact input language of the Apply transformation (Definition 5.5).
    """
    if isinstance(constraint, Primitive):
        return constraint
    if isinstance(constraint, SerialConstraint):
        return split_serial(constraint)
    if isinstance(constraint, And):
        return conj(*(normalize(p) for p in constraint.parts))
    if isinstance(constraint, Or):
        return disj(*(normalize(p) for p in constraint.parts))
    raise TypeError(f"cannot normalize {type(constraint).__name__}")  # pragma: no cover


# -- full disjunctive normal form (Corollary 3.5) -----------------------------

# A DNF leaf is a Primitive or a two-event SerialConstraint.
Leaf = Constraint


@dataclass(frozen=True)
class DNF:
    """``∨ᵢ (∧ⱼ leafᵢⱼ)`` — the normal form of Corollary 3.5.

    ``clauses`` is a tuple of conjunctions, each a tuple of leaves.
    """

    clauses: tuple[tuple[Leaf, ...], ...]

    def to_constraint(self) -> Constraint:
        """Fold back into a plain :class:`Constraint`."""
        return disj(*(conj(*clause) for clause in self.clauses))

    @property
    def width(self) -> int:
        """Number of disjuncts (the ``d`` of Theorem 5.11 for this constraint)."""
        return len(self.clauses)


def to_dnf(constraint: Constraint) -> DNF:
    """Full disjunctive normal form of a constraint (Corollary 3.5)."""
    normalized = normalize(constraint)

    def go(c: Constraint) -> tuple[tuple[Leaf, ...], ...]:
        if isinstance(c, (Primitive, SerialConstraint)):
            return ((c,),)
        if isinstance(c, Or):
            out: list[tuple[Leaf, ...]] = []
            for p in c.parts:
                out.extend(go(p))
            return tuple(out)
        if isinstance(c, And):
            acc: tuple[tuple[Leaf, ...], ...] = ((),)
            for p in c.parts:
                sub = go(p)
                acc = tuple(left + right for left in acc for right in sub)
            return acc
        raise TypeError(f"cannot convert {type(c).__name__}")  # pragma: no cover

    # De-duplicate leaves inside each clause, and clauses inside the DNF.
    clauses: list[tuple[Leaf, ...]] = []
    seen: set[tuple[Leaf, ...]] = set()
    for clause in go(normalized):
        deduped: list[Leaf] = []
        inner_seen: set[Leaf] = set()
        for leaf in clause:
            if leaf not in inner_seen:
                inner_seen.add(leaf)
                deduped.append(leaf)
        key = tuple(deduped)
        if key not in seen:
            seen.add(key)
            clauses.append(key)
    return DNF(tuple(clauses))


def dnf_parameters(constraints: list[Constraint]) -> tuple[int, int]:
    """The ``(N, d)`` of Theorem 5.11 for a constraint set.

    ``N`` is the number of constraints; ``d`` the largest number of
    disjuncts in any single constraint's normal form.
    """
    n = len(constraints)
    d = max((to_dnf(c).width for c in constraints), default=1)
    return n, d
