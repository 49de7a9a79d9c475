"""Executable symbolic environments with binary feedback."""

from __future__ import annotations

from typing import Sequence

from symtrain.environments.expr import run_expr
from symtrain.environments.generate import (
    generate_dataset,
    load_dataset,
    load_witnesses,
    witness_path,
    write_dataset,
)
from symtrain.environments.grid import run_grid
from symtrain.environments.logic import run_logic
from symtrain.environments.types import (
    MAX_SOLUTION_LEN,
    SPLITS,
    EnvKind,
    ExecutionResult,
    Status,
    TaskEncodingError,
    TaskInstance,
    canonical_output,
    graded,
)

__all__ = [
    "MAX_SOLUTION_LEN",
    "SPLITS",
    "EnvKind",
    "ExecutionResult",
    "Status",
    "TaskEncodingError",
    "TaskInstance",
    "canonical_output",
    "check_task",
    "execute",
    "generate_dataset",
    "graded",
    "load_dataset",
    "load_witnesses",
    "run_expr",
    "run_grid",
    "run_logic",
    "witness_path",
    "write_dataset",
]

_RUNNERS = {
    EnvKind.EXPR_MATH: run_expr,
    EnvKind.LOGIC_RULES: run_logic,
    EnvKind.GRID_AGENT: run_grid,
}


def execute(env: EnvKind | str, task: TaskInstance, a: Sequence[str]) -> ExecutionResult:
    """Run a candidate solution in its environment.

    Pure in (env, task, a); every failure mode of the solution is encoded in
    the result status with b=0 rather than raised.  The expr and grid runners
    read each distinct x once and share the parsed form read-only, so
    grading the K samples and refinements of a task parses its x once.  A
    solution longer than ``MAX_SOLUTION_LEN`` tokens times out before the
    environment's runner starts.  That is the one bound on a solution's work:
    within it every runner ends fast without a budget of its own.
    """
    env = EnvKind(env)
    if len(a) > MAX_SOLUTION_LEN:
        return graded(Status.TIMEOUT, None, task.y)
    return _RUNNERS[env](a, task)


def check_task(env: EnvKind | str, task: TaskInstance) -> None:
    """Raise TaskEncodingError if env cannot read task.x.

    Each runner reads what it needs of x before it reads the solution (logic
    programs state their own facts, so logic_rules reads none of it), so
    grading the empty solution reads x alone.
    """
    _RUNNERS[EnvKind(env)]((), task)
