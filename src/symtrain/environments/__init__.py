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
    "SPLITS",
    "EnvKind",
    "ExecutionResult",
    "Status",
    "TaskEncodingError",
    "TaskInstance",
    "canonical_output",
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
    the result status with b=0 rather than raised.  An empty solution parses
    as nothing and is graded accordingly (a grid agent that stays put is
    legal; the other environments report a parse failure).
    """
    env = EnvKind(env)
    if not a and env is not EnvKind.GRID_AGENT:
        return graded(Status.PARSE_ERROR, None, task.y)
    return _RUNNERS[env](a, task)
