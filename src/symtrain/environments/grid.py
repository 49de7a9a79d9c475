"""Deterministic grid-walking environment.

The task input encodes a rows x cols board with a start cell, a goal cell and
wall cells; a solution is a sequence of ``U D L R`` moves.  Walking into a
wall or off the board is a no-op.  The execution output is the final cell as
``"row,col"`` and feedback compares it to the goal encoded in y.  ``execute``
bounds a solution at ``MAX_SOLUTION_LEN`` (256) moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

from symtrain.environments.types import Status, TaskEncodingError, TaskInstance, graded

MOVES = {"U": (-1, 0), "D": (1, 0), "L": (0, -1), "R": (0, 1)}


@dataclass(frozen=True)
class GridSpec:
    rows: int
    cols: int
    start: tuple[int, int]
    goal: tuple[int, int]
    walls: frozenset[tuple[int, int]]


def parse_grid_task(x: Sequence[str]) -> GridSpec:
    """Decode the x layout: grid R C ; start r c ; goal r c ; wall r c ..."""
    tokens = list(x)
    fields: dict[str, list[tuple[int, int]]] = {"start": [], "goal": [], "wall": []}
    dims: tuple[int, int] | None = None
    i = 0

    def pair(at: int) -> tuple[int, int, int]:
        if at + 1 >= len(tokens) or not tokens[at].isdigit() or not tokens[at + 1].isdigit():
            raise TaskEncodingError(f"expected two digits at token {at} of x")
        return int(tokens[at]), int(tokens[at + 1]), at + 2

    while i < len(tokens):
        kw = tokens[i]
        if kw == "grid":
            r, c, i = pair(i + 1)
            dims = (r, c)
        elif kw in fields:
            r, c, i = pair(i + 1)
            fields[kw].append((r, c))
        elif kw == ";":
            i += 1
            continue
        else:
            raise TaskEncodingError(f"unknown keyword {kw!r} in grid task x")
        if i < len(tokens) and tokens[i] == ";":
            i += 1
    if dims is None or len(fields["start"]) != 1 or len(fields["goal"]) != 1:
        raise TaskEncodingError("grid task x needs grid dims, one start, one goal")
    rows, cols = dims
    spec = GridSpec(rows, cols, fields["start"][0], fields["goal"][0],
                    frozenset(fields["wall"]))
    cells = [spec.start, spec.goal, *spec.walls]
    if any(not (0 <= r < rows and 0 <= c < cols) for r, c in cells):
        raise TaskEncodingError("grid task x references a cell outside the board")
    return spec


def simulate(spec: GridSpec, actions: Sequence[str]) -> tuple[int, int]:
    pos = spec.start
    for a in actions:
        dr, dc = MOVES[a]
        nxt = (pos[0] + dr, pos[1] + dc)
        if 0 <= nxt[0] < spec.rows and 0 <= nxt[1] < spec.cols and nxt not in spec.walls:
            pos = nxt
    return pos


@cache
def _grid_spec(x: tuple[str, ...]) -> GridSpec:
    """:func:`parse_grid_task` of x, read once per distinct x; a GridSpec is
    frozen, so every caller shares it.  A malformed x raises, and nothing is
    cached for it, so it raises again on every call."""
    return parse_grid_task(x)


def run_grid(actions: Sequence[str], task: TaskInstance):
    """Simulate an action sequence and grade the final cell against task.y.

    The task's x is read once (:func:`_grid_spec`): exploration executes every
    candidate of a task against the same board.
    """
    spec = _grid_spec(task.x)
    actions = list(actions)
    if any(a not in MOVES for a in actions):
        return graded(Status.PARSE_ERROR, None, task.y)
    r, c = simulate(spec, actions)
    return graded(Status.OK, f"{r},{c}", task.y)
