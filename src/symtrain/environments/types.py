"""Shared environment types: tasks, execution results, output canonicalization."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from functools import cache


class EnvKind(str, Enum):
    EXPR_MATH = "expr_math"
    LOGIC_RULES = "logic_rules"
    GRID_AGENT = "grid_agent"


SPLITS = ("held_in", "held_out")

# the one bound on a solution: execute grades a longer one TIMEOUT unrun, and
# the generation length cap max_len may not exceed it
MAX_SOLUTION_LEN = 256


class Status(str, Enum):
    OK = "ok"
    PARSE_ERROR = "parse_error"
    RUNTIME_ERROR = "runtime_error"
    TIMEOUT = "timeout"


@dataclass(frozen=True)
class TaskInstance:
    """One (x, y) pair: tokenized input description and expected output string."""

    id: str
    x: tuple[str, ...]
    y: str
    split: str = "held_in"
    env: str = EnvKind.EXPR_MATH.value

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(self.x))
        if not self.x:
            raise ValueError(f"task {self.id!r}: input x must be non-empty")
        if not self.y:
            raise ValueError(f"task {self.id!r}: expected output y must be non-empty")
        if self.split not in SPLITS:
            raise ValueError(f"task {self.id!r}: split must be one of {SPLITS}, "
                             f"got {self.split!r}")


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of running a candidate solution: status, raw output, binary feedback."""

    status: Status
    output: str | None
    b: int

    def __post_init__(self) -> None:
        if self.b not in (0, 1):
            raise ValueError(f"feedback b must be 0 or 1, got {self.b}")
        if self.status is not Status.OK and self.b != 0:
            raise ValueError("failed executions must carry b=0")


_INT_RE = re.compile(r"^[+-]?\d+$")


def canonical_output(s: str) -> str:
    """Trim whitespace and normalize integer spellings ('+11' -> '11')."""
    s = s.strip()
    if _INT_RE.match(s):
        return str(int(s))
    return s


@cache
def _expected_output(y: str) -> str:
    """:func:`canonical_output` of a task's y, read once per distinct y and
    shared.  The memo holds one entry per distinct y the process grades, no
    more than its datasets hold."""
    return canonical_output(y)


def graded(status: Status, output: str | None, expected: str) -> ExecutionResult:
    """Build an ExecutionResult, deriving b from canonical output equality.

    ``expected`` is the task's y, canonicalized once (:func:`_expected_output`):
    exploration grades every candidate of a task against the same y.
    """
    if status is not Status.OK:
        return ExecutionResult(status, output, 0)
    assert output is not None
    b = 1 if canonical_output(output) == _expected_output(expected) else 0
    return ExecutionResult(status, output, b)


class TaskEncodingError(ValueError):
    """The task's x field does not follow the environment's input layout."""
