"""Deterministic grid-walking environment.

The task input encodes a rows x cols board with a start cell, a goal cell and
wall cells; a solution is a sequence of ``U D L R`` moves.  Walking into a
wall or off the board is a no-op (:func:`step`).  The execution output is the
final cell as ``"row,col"``.  ``execute`` bounds a solution at
``MAX_SOLUTION_LEN`` (256) moves.

A task is read once, by :func:`read_task`, into a frozen :class:`GridSpec`
that ``execute`` shares across every solution it grades.  The reader accepts
only a y that is the goal cell written in x, so the grader is faithful: b=1
exactly when the moves end on the task's own goal, whatever path they take.
It rejects a board with a wall on its start or goal, or with two grid fields.

Its chance floor is not zero.  Among the constant programs of 1-6 moves in one
direction then 0-6 in another, the best are ``L U``, which solves 53/400
held_in tasks, and ``D D R``, 25/400 held_out tasks: count each program's b=1
tasks with ``execute`` over ``generate_dataset("grid_agent", 400, 0, split)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from symtrain.environments.types import Status, TaskEncodingError, graded

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
        if at + 1 >= len(tokens) or not (tokens[at].isdecimal()
                                         and tokens[at + 1].isdecimal()):
            raise TaskEncodingError(f"expected two digits at token {at} of x")
        return int(tokens[at]), int(tokens[at + 1]), at + 2

    while i < len(tokens):
        kw = tokens[i]
        if kw == "grid":
            if dims is not None:
                raise TaskEncodingError("grid task x repeats its grid field")
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
    # no move ends on a walled goal, so no solution could earn b=1; a walled
    # start would put the walker inside a wall
    for name, cell in (("start", spec.start), ("goal", spec.goal)):
        if cell in spec.walls:
            raise TaskEncodingError(f"grid task x puts a wall on its {name} cell")
    return spec


def step(spec: GridSpec, pos: tuple[int, int], action: str) -> tuple[int, int]:
    """The cell one move from pos; a move into a wall or off the board stays put."""
    dr, dc = MOVES[action]
    nxt = (pos[0] + dr, pos[1] + dc)
    if 0 <= nxt[0] < spec.rows and 0 <= nxt[1] < spec.cols and nxt not in spec.walls:
        return nxt
    return pos


def simulate(spec: GridSpec, actions: Sequence[str]) -> tuple[int, int]:
    pos = spec.start
    for a in actions:
        pos = step(spec, pos, a)
    return pos


def read_task(x: tuple[str, ...], y: str) -> GridSpec:
    """The board of x, frozen; the canonical y must be the goal cell of x."""
    spec = parse_grid_task(x)
    goal = "{},{}".format(*spec.goal)
    if y != goal:
        raise TaskEncodingError(f"y {y!r} is not the goal cell {goal!r} of x")
    return spec


def run_grid(actions: Sequence[str], spec: GridSpec, expected: str):
    """Walk an action sequence on the board and grade the final cell."""
    if any(a not in MOVES for a in actions):
        return graded(Status.PARSE_ERROR, None, expected)
    return graded(Status.OK, "{},{}".format(*simulate(spec, actions)), expected)
