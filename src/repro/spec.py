"""Plain-text workflow specification files.

A human-friendly front door for the command-line interface: one file
declares the goal, sub-workflow rules, global constraints, and named
properties to verify, using the textual syntaxes of
:mod:`repro.ctr.parser` and :mod:`repro.constraints.parser`::

    # order processing
    goal: receive * (credit_check | stock_check) * approve

    rule shipping: pack * send_parcel
    rule shipping: pack * courier

    constraint: precedes(credit_check, approve)
    constraint: never(fraud)

    property checked_first: precedes(credit_check, stock_check)
    property always_approved: happens(approve)

Lines starting with ``#`` (or blank lines) are ignored. Exactly one
``goal:`` line is required.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constraints.algebra import Constraint
from .constraints.parser import parse_constraint
from .ctr.formulas import Goal
from .ctr.parser import parse_goal
from .ctr.rules import Rule, RuleBase
from .errors import ParseError

__all__ = ["Specification", "parse_specification", "load_specification"]


@dataclass(frozen=True)
class Specification:
    """A parsed workflow specification file."""

    goal: Goal
    constraints: tuple[Constraint, ...] = ()
    rules: RuleBase | None = None
    properties: tuple[tuple[str, Constraint], ...] = field(default=())

    def compile(self, obs=None, cache=None):
        """Compile via :func:`repro.core.compiler.compile_workflow`.

        ``cache`` is a :class:`~repro.core.compiler.CompileCache` (or a
        cache directory path); repeated compiles of an unchanged
        specification are then served from disk.
        """
        from .core.compiler import compile_workflow

        return compile_workflow(self.goal, list(self.constraints),
                                rules=self.rules, obs=obs, cache=cache)


def parse_specification(text: str) -> Specification:
    """Parse the specification file format described in the module docstring."""
    goal: Goal | None = None
    constraints: list[Constraint] = []
    rules = RuleBase()
    have_rules = False
    properties: list[tuple[str, Constraint]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword, _, rest = line.partition(":")
        keyword = keyword.strip()
        rest = rest.strip()
        try:
            if keyword == "goal":
                if goal is not None:
                    raise ParseError("duplicate goal declaration")
                goal = parse_goal(rest)
            elif keyword == "constraint":
                constraints.append(parse_constraint(rest))
            elif keyword.startswith("rule "):
                head = keyword[len("rule "):].strip()
                rules.add(Rule(head, parse_goal(rest)))
                have_rules = True
            elif keyword.startswith("property "):
                name = keyword[len("property "):].strip()
                properties.append((name, parse_constraint(rest)))
            else:
                raise ParseError(f"unknown declaration {keyword!r}")
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from exc

    if goal is None:
        raise ParseError("specification declares no goal")
    return Specification(
        goal=goal,
        constraints=tuple(constraints),
        rules=rules if have_rules else None,
        properties=tuple(properties),
    )


def load_specification(path: str) -> Specification:
    """Read and parse a specification file from disk."""
    with open(path, encoding="utf-8") as handle:
        return parse_specification(handle.read())
