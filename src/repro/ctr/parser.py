"""A small textual syntax for CTR goals.

The grammar matches the output of :func:`repro.ctr.pretty.pretty`, so goals
round-trip through text::

    goal    := choice
    choice  := concur ('+' concur)*          # ∨, lowest precedence
    concur  := serial ('|' serial)*          # concurrent conjunction
    serial  := unary ('*' unary)*            # ⊗, highest precedence
    unary   := '[' goal ']'                  # ⊙ isolated
             | '<' goal '>'                  # ◇ possibility
             | '(' goal ')'   |   '()'       # grouping / the empty goal
             | 'send' '(' NAME ')'
             | 'receive' '(' NAME ')'
             | NAME '?'                      # transition condition
             | 'path' | 'fail'
             | NAME                          # activity / event atom

Example::

    >>> from repro.ctr.parser import parse_goal
    >>> from repro.ctr.pretty import pretty
    >>> pretty(parse_goal("a * (b + c | d)"))
    'a * (b + c | d)'
"""

from __future__ import annotations

import re
from typing import NamedTuple

from ..errors import ParseError
from .formulas import (
    EMPTY,
    NEG_PATH,
    PATH,
    Atom,
    Goal,
    Isolated,
    Possibility,
    Receive,
    Send,
    Test,
    alt,
    par,
    seq,
)

__all__ = ["parse_goal"]


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_.]*)
  | (?P<op>[*|+\[\]<>()?])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup != "ws":
            tokens.append(_Token(match.lastgroup, match.group(), pos))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def next(self) -> _Token:
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.index += 1
        return token

    def expect(self, text: str) -> _Token:
        token = self.next()
        if token.text != text:
            raise ParseError(f"expected {text!r}, found {token.text!r}", token.pos)
        return token

    # -- grammar -------------------------------------------------------------

    def goal(self) -> Goal:
        return self.choice()

    def choice(self) -> Goal:
        parts = [self.concur()]
        while (token := self.peek()) is not None and token.text == "+":
            self.next()
            parts.append(self.concur())
        return alt(*parts) if len(parts) > 1 else parts[0]

    def concur(self) -> Goal:
        parts = [self.serial()]
        while (token := self.peek()) is not None and token.text == "|":
            self.next()
            parts.append(self.serial())
        return par(*parts) if len(parts) > 1 else parts[0]

    def serial(self) -> Goal:
        parts = [self.unary()]
        while (token := self.peek()) is not None and token.text == "*":
            self.next()
            parts.append(self.unary())
        return seq(*parts) if len(parts) > 1 else parts[0]

    def unary(self) -> Goal:
        token = self.next()
        if token.text == "[":
            body = self.goal()
            self.expect("]")
            return Isolated(body)
        if token.text == "<":
            body = self.goal()
            self.expect(">")
            return Possibility(body)
        if token.text == "(":
            nxt = self.peek()
            if nxt is not None and nxt.text == ")":
                self.next()
                return EMPTY
            body = self.goal()
            self.expect(")")
            return body
        if token.kind == "name":
            return self._named(token)
        raise ParseError(f"unexpected token {token.text!r}", token.pos)

    def _named(self, token: _Token) -> Goal:
        if token.text == "path":
            return PATH
        if token.text == "fail":
            return NEG_PATH
        if token.text in ("send", "receive"):
            # Only a communication primitive when followed by "(token)";
            # otherwise it is an ordinary activity named send/receive.
            following = self.peek()
            if following is not None and following.text == "(":
                self.next()
                arg = self.next()
                if arg.kind != "name":
                    raise ParseError("expected a token name", arg.pos)
                self.expect(")")
                return Send(arg.text) if token.text == "send" else Receive(arg.text)
        nxt = self.peek()
        if nxt is not None and nxt.text == "?":
            self.next()
            return Test(token.text)
        return Atom(token.text)


def parse_goal(text: str) -> Goal:
    """Parse the textual goal syntax described in the module docstring."""
    parser = _Parser(text)
    goal = parser.goal()
    trailing = parser.peek()
    if trailing is not None:
        raise ParseError(f"trailing input {trailing.text!r}", trailing.pos)
    return goal
