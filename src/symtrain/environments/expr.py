"""Integer expression environment: lexer, recursive-descent parser, evaluator.

Solutions are token sequences over digits, single-letter identifiers,
``+ - * / %`` and parentheses.  Tokens are concatenated into a source string
(digits fuse into multi-digit integers) and parse errors carry the byte
offset into that string.  Division is exact integer division: a non-zero
remainder is a runtime failure, which keeps every output a canonical integer.

A task is read once, by :func:`read_task`, into the bindings and query of x;
``execute`` shares that reading read-only across every solution it grades.

``execute`` grades solutions of at most ``MAX_SOLUTION_LEN`` (256) tokens, and
that bound is the evaluator's too: the parser then nests at most 127
parentheses (about 381 frames), the AST has at most 256 nodes, and every
value has at most 256 digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

from symtrain.environments.types import Status, TaskEncodingError, graded


class ExprParseError(ValueError):
    def __init__(self, offset: int, message: str):
        super().__init__(f"parse error at byte {offset}: {message}")
        self.offset = offset


class ExprRuntimeError(ValueError):
    pass


@dataclass(frozen=True)
class Num:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


Node = Num | Var | BinOp

_OPS = "+-*/%"


@dataclass
class _Lexer:
    src: str
    pos: int = 0

    def next_token(self) -> tuple[str, str, int] | None:
        """Return (kind, text, offset) or None at end of input."""
        if self.pos >= len(self.src):
            return None
        start = self.pos
        ch = self.src[start]
        if ch.isdecimal():
            end = start
            while end < len(self.src) and self.src[end].isdecimal():
                end += 1
            self.pos = end
            return ("int", self.src[start:end], start)
        if ch.isalpha() and ch.islower():
            end = start
            while end < len(self.src) and self.src[end].isalpha() and self.src[end].islower():
                end += 1
            self.pos = end
            return ("ident", self.src[start:end], start)
        if ch in _OPS:
            self.pos += 1
            return ("op", ch, start)
        if ch in "()":
            self.pos += 1
            return (ch, ch, start)
        raise ExprParseError(start, f"unexpected character {ch!r}")


class _Parser:
    """Recursive descent with the usual two precedence levels, left associative."""

    def __init__(self, src: str):
        self.src = src
        self.lexer = _Lexer(src)
        self.tok = self.lexer.next_token()

    def _advance(self) -> None:
        self.tok = self.lexer.next_token()

    def parse(self) -> Node:
        node = self.expression()
        if self.tok is not None:
            raise ExprParseError(self.tok[2], f"trailing input {self.tok[1]!r}")
        return node

    def expression(self) -> Node:
        node = self.term()
        while self.tok is not None and self.tok[0] == "op" and self.tok[1] in "+-":
            op = self.tok[1]
            self._advance()
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.tok is not None and self.tok[0] == "op" and self.tok[1] in "*/%":
            op = self.tok[1]
            self._advance()
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Node:
        tok = self.tok
        if tok is None:
            raise ExprParseError(len(self.src), "unexpected end of input")
        kind, text, off = tok
        if kind == "int":
            self._advance()
            return Num(int(text))
        if kind == "ident":
            self._advance()
            return Var(text)
        if kind == "(":
            self._advance()
            node = self.expression()
            if self.tok is None:
                raise ExprParseError(len(self.src), "missing closing parenthesis")
            if self.tok[0] != ")":
                raise ExprParseError(self.tok[2], f"expected ')', got {self.tok[1]!r}")
            self._advance()
            return node
        raise ExprParseError(off, f"unexpected token {text!r}")


def parse_expr(tokens: Sequence[str]) -> Node:
    """Parse a token sequence into an AST; error offsets index the joined source."""
    return _Parser("".join(tokens)).parse()


def eval_expr(node: Node, bindings: Mapping[str, int]) -> int:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name not in bindings:
            raise ExprRuntimeError(f"unbound identifier {node.name!r}")
        return bindings[node.name]
    left = eval_expr(node.left, bindings)
    right = eval_expr(node.right, bindings)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        if right == 0:
            raise ExprRuntimeError("division by zero")
        q, rem = divmod(left, right)
        if rem != 0:
            raise ExprRuntimeError(f"inexact division {left}/{right}")
        return q
    if node.op == "%":
        if right == 0:
            raise ExprRuntimeError("modulo by zero")
        return left % right
    raise ExprRuntimeError(f"unknown operator {node.op!r}")


def parse_task_input(x: Sequence[str]) -> tuple[dict[str, int], list[str]]:
    """Split a task's x into identifier bindings and the query tokens.

    Layout: ``ident = digits... ;`` repeated, then the query.  Raises
    TaskEncodingError on malformed task data (task files are trusted inputs,
    unlike model outputs).
    """
    tokens = list(x)
    bindings: dict[str, int] = {}
    i = 0
    while i + 2 < len(tokens) and len(tokens[i]) == 1 and tokens[i].isalpha() \
            and tokens[i].islower() and tokens[i + 1] == "=":
        name = tokens[i]
        i += 2
        digits = []
        while i < len(tokens) and tokens[i].isdecimal():
            digits.append(tokens[i])
            i += 1
        if not digits or i >= len(tokens) or tokens[i] != ";":
            raise TaskEncodingError(f"malformed binding for {name!r} in x")
        bindings[name] = int("".join(digits))
        i += 1
    query = tokens[i:]
    if not query:
        raise TaskEncodingError("x has no query after bindings")
    return bindings, query


def read_task(x: tuple[str, ...], y: str) -> tuple[Mapping[str, int], tuple[str, ...]]:
    """The bindings of x, read-only, and its query; the canonical y must be an
    integer, as every output of this environment is."""
    bindings, query = parse_task_input(x)
    if not y.removeprefix("-").isdecimal():
        raise TaskEncodingError(f"y {y!r} is not an integer")
    return MappingProxyType(bindings), tuple(query)


def run_expr(a: Sequence[str], reading: tuple[Mapping[str, int], tuple[str, ...]],
             expected: str):
    """Parse and evaluate a solution under the task's bindings, and grade it."""
    bindings, _ = reading
    try:
        node = parse_expr(a)
    except ExprParseError:
        return graded(Status.PARSE_ERROR, None, expected)
    try:
        value = eval_expr(node, bindings)
    except ExprRuntimeError:
        return graded(Status.RUNTIME_ERROR, None, expected)
    return graded(Status.OK, str(value), expected)
