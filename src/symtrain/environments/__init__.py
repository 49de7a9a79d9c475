"""Executable symbolic environments with binary feedback."""

from __future__ import annotations

from functools import cache
from typing import Sequence

from symtrain.environments import expr, grid, logic
from symtrain.environments.generate import (
    generate_dataset,
    load_dataset,
    load_witnesses,
    witness_path,
    write_dataset,
)
from symtrain.environments.types import (
    MAX_SOLUTION_LEN,
    SPLITS,
    EnvKind,
    ExecutionResult,
    Status,
    TaskEncodingError,
    TaskInstance,
    canonical_output,
)

# each env's reader of a task, (x, canonical y) -> reading, and its runner of a
# solution, (a, reading, canonical y) -> ExecutionResult
_ENVS = {
    EnvKind.EXPR_MATH: (expr.read_task, expr.run_expr),
    EnvKind.LOGIC_RULES: (logic.read_task, logic.run_logic),
    EnvKind.GRID_AGENT: (grid.read_task, grid.run_grid),
}


@cache
def _read(env: EnvKind, x: tuple[str, ...], y: str) -> tuple[object, str]:
    """The env's reading of a task and its canonical y, shared read-only.

    The one place a task is read: expr's bindings and query, grid's frozen
    ``GridSpec``, nothing for logic.  The memo holds one entry per distinct
    task the process grades, no more than its datasets hold.  A task the
    reader rejects raises, and nothing is cached for it, so it raises again
    on every call.
    """
    expected = canonical_output(y)
    return _ENVS[env][0](x, expected), expected


def execute(env: EnvKind | str, task: TaskInstance, a: Sequence[str]) -> ExecutionResult:
    """Run a candidate solution in its environment.

    Pure in (env, task, a); every failure mode of the solution is encoded in
    the result status with b=0 rather than raised.  The task is read once
    (:func:`_read`), so grading the K samples and refinements of a task reads
    its x and y once.  A solution longer than ``MAX_SOLUTION_LEN`` tokens
    times out before the task is read or the runner starts.  That is the one
    bound on a solution's work: within it every runner ends fast without a
    budget of its own.
    """
    env = EnvKind(env)
    if len(a) > MAX_SOLUTION_LEN:
        return ExecutionResult(Status.TIMEOUT, None, 0)
    reading, expected = _read(env, task.x, task.y)
    return _ENVS[env][1](a, reading, expected)


def check_task(env: EnvKind | str, task: TaskInstance) -> None:
    """Raise TaskEncodingError if env cannot read task.x, or can never produce
    task.y; the reading is the one :func:`execute` then grades with."""
    _read(EnvKind(env), task.x, task.y)
