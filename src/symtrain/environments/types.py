"""Shared environment types: tasks, execution results, output canonicalization."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum


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


def graded(status: Status, output: str | None, expected: str) -> ExecutionResult:
    """Build an ExecutionResult: b=1 when the run is OK and its canonical output
    equals ``expected``, the task's y as canonicalized when the task was read."""
    if status is not Status.OK:
        return ExecutionResult(status, output, 0)
    assert output is not None
    return ExecutionResult(status, output, int(canonical_output(output) == expected))


class TaskEncodingError(ValueError):
    """The task's x does not follow the environment's input layout, or its y is
    an output the environment can never produce."""
