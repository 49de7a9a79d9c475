"""Forward-chaining rule environment.

Programs are token sequences in a small declarative language::

    fact p ( a ) .
    rule q ( X ) :- p ( X ) , r ( X ) .
    query q ( a ) ?

Lowercase names are predicates/constants, single uppercase letters are
variables.  Facts must be ground, rules must be safe (head variables appear
in the body), and a program carries exactly one query.  Inference iterates
all rules to a fixpoint over the program's constants; the query's truth
value is the output.  ``MATCH_BUDGET`` bounds the work of inference, and
``execute`` bounds a program at ``MAX_SOLUTION_LEN`` (256) tokens.

A task is read once, by :func:`read_task`, which checks that y is a truth
value and reads none of x.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from symtrain.environments.types import Status, TaskEncodingError, graded

# atom-against-fact matches per forward_chain.  A rule body of n atoms joins
# exponentially in n, and this budget also ends every run within 141 rounds:
# each round that does not reach the fixpoint adds a fact, so round r starts
# with at least r facts (round 1 continues only if some body matched a fact),
# and every rule matches its first body atom against each of them; rounds
# 1..141 thus take at least 141 * 142 / 2 = 10,011 matches
MATCH_BUDGET = 10_000


class LogicParseError(ValueError):
    pass


class LogicTimeout(ValueError):
    pass


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple[str, ...]

    def is_ground(self) -> bool:
        return all(not _is_var(a) for a in self.args)


@dataclass(frozen=True)
class Rule:
    head: Atom
    body: tuple[Atom, ...]


@dataclass(frozen=True)
class Program:
    facts: tuple[Atom, ...]
    rules: tuple[Rule, ...]
    query: Atom


def _is_var(term: str) -> bool:
    return len(term) == 1 and term.isalpha() and term.isupper()


def _is_name(term: str) -> bool:
    return term.isalpha() and term.islower()


class _TokenReader:
    def __init__(self, tokens: Sequence[str]):
        self.tokens = list(tokens)
        self.i = 0

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise LogicParseError(f"unexpected end of program (token {self.i})")
        if expected is not None and tok != expected:
            raise LogicParseError(f"expected {expected!r} at token {self.i}, got {tok!r}")
        self.i += 1
        return tok


def _parse_atom(r: _TokenReader) -> Atom:
    pred = r.take()
    if not _is_name(pred):
        raise LogicParseError(f"bad predicate name {pred!r}")
    r.take("(")
    args = [_parse_term(r)]
    while r.peek() == ",":
        r.take(",")
        args.append(_parse_term(r))
    r.take(")")
    return Atom(pred, tuple(args))


def _parse_term(r: _TokenReader) -> str:
    term = r.take()
    if not (_is_var(term) or _is_name(term)):
        raise LogicParseError(f"bad term {term!r}")
    return term


def parse_program(tokens: Sequence[str]) -> Program:
    r = _TokenReader(tokens)
    facts: list[Atom] = []
    rules: list[Rule] = []
    query: Atom | None = None
    while r.peek() is not None:
        kw = r.take()
        if kw == "fact":
            atom = _parse_atom(r)
            if not atom.is_ground():
                raise LogicParseError(f"fact {atom.pred} contains variables")
            r.take(".")
            facts.append(atom)
        elif kw == "rule":
            head = _parse_atom(r)
            r.take(":-")
            body = [_parse_atom(r)]
            while r.peek() == ",":
                r.take(",")
                body.append(_parse_atom(r))
            r.take(".")
            head_vars = {a for a in head.args if _is_var(a)}
            body_vars = {a for atom in body for a in atom.args if _is_var(a)}
            if not head_vars <= body_vars:
                raise LogicParseError("unsafe rule: head variable missing from body")
            rules.append(Rule(head, tuple(body)))
        elif kw == "query":
            if query is not None:
                raise LogicParseError("multiple queries in program")
            atom = _parse_atom(r)
            if not atom.is_ground():
                raise LogicParseError("query must be ground")
            r.take("?")
            query = atom
        else:
            raise LogicParseError(f"expected fact/rule/query, got {kw!r}")
    if query is None:
        raise LogicParseError("program has no query")
    return Program(tuple(facts), tuple(rules), query)


def _match(atom: Atom, fact: Atom, bindings: dict[str, str]) -> dict[str, str] | None:
    if atom.pred != fact.pred or len(atom.args) != len(fact.args):
        return None
    out = dict(bindings)
    for term, value in zip(atom.args, fact.args):
        if _is_var(term):
            bound = out.get(term)
            if bound is None:
                out[term] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return out


def _body_matches(body: Sequence[Atom], facts: frozenset[Atom] | set[Atom],
                  bindings: dict[str, str], matches: Iterator[int],
                  ) -> Iterator[dict[str, str]]:
    if not body:
        yield bindings
        return
    first, rest = body[0], body[1:]
    for fact in facts:
        if next(matches) > MATCH_BUDGET:
            raise LogicTimeout(f"over {MATCH_BUDGET} atom matches")
        b = _match(first, fact, bindings)
        if b is not None:
            yield from _body_matches(rest, facts, b, matches)


def _substitute(atom: Atom, bindings: dict[str, str]) -> Atom:
    return Atom(atom.pred, tuple(bindings.get(a, a) if _is_var(a) else a
                                 for a in atom.args))


def forward_chain(program: Program) -> set[Atom]:
    """Iterate all rules to a fixpoint; raises LogicTimeout past MATCH_BUDGET
    atom matches."""
    facts = set(program.facts)
    matches = itertools.count(1)
    while True:
        new: set[Atom] = set()
        for rule in program.rules:
            for bindings in _body_matches(rule.body, facts, {}, matches):
                head = _substitute(rule.head, bindings)
                if head not in facts:
                    new.add(head)
        if not new:
            return facts
        facts |= new


def read_task(x: tuple[str, ...], y: str) -> None:
    """Nothing of x, since a program states its own facts; the canonical y
    must be ``true`` or ``false``, the only outputs of this environment."""
    if y not in ("true", "false"):
        raise TaskEncodingError(f"y {y!r} is not true or false")


def run_logic(program_tokens: Sequence[str], reading: None, expected: str):
    """Parse and run a program, grading its query answer."""
    try:
        program = parse_program(program_tokens)
    except LogicParseError:
        return graded(Status.PARSE_ERROR, None, expected)
    try:
        closure = forward_chain(program)
    except LogicTimeout:
        return graded(Status.TIMEOUT, None, expected)
    answer = "true" if program.query in closure else "false"
    return graded(Status.OK, answer, expected)
