"""Synthetic task generation and dataset files.

Every generated instance is solvable by construction: the generator records a
witness solution alongside the task and y is derived from executing that
witness logic.  Held-out splits shift the distribution: larger operand
magnitudes (expressions), deeper rule chains (logic), larger boards (grid).

Dataset files are JSON Lines with fields {id, x, y, split, env}; witnesses
live in a sidecar file with matching ids.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from symtrain.environments.expr import ExprRuntimeError, eval_expr, parse_expr
from symtrain.environments.grid import GridSpec, step
from symtrain.environments.types import SPLITS, EnvKind, TaskInstance

# operand magnitude ranges (inclusive) per split
EXPR_RANGES = {"held_in": (1, 99), "held_out": (100, 999)}
# rule-chain depth ranges per split
LOGIC_DEPTHS = {"held_in": (1, 2), "held_out": (3, 4)}
# board side ranges per split
GRID_SIDES = {"held_in": (3, 4), "held_out": (5, 7)}

_OP_WORDS = {"sum": "+", "diff": "-", "prod": "*", "quot": "/", "mod": "%"}
_NESTED_OPS = ["sum", "diff", "prod", "mod"]

_ENV_INDEX = {EnvKind.EXPR_MATH: 0, EnvKind.LOGIC_RULES: 1, EnvKind.GRID_AGENT: 2}


def _digits(n: int) -> list[str]:
    return list(str(n))


def _binding_tokens(bindings: list[tuple[str, int]]) -> list[str]:
    out: list[str] = []
    for name, value in bindings:
        out += [name, "="] + _digits(value) + [";"]
    return out


def _gen_expr(rng: np.random.Generator, split: str) -> tuple[list[str], str, list[str]]:
    # nested draws can hit a zero divisor (e.g. a mod (b mod c)); resample
    while True:
        try:
            return _gen_expr_once(rng, split)
        except ExprRuntimeError:
            continue


def _gen_expr_once(rng: np.random.Generator, split: str) -> tuple[list[str], str, list[str]]:
    lo, hi = EXPR_RANGES[split]

    def val() -> int:
        return int(rng.integers(lo, hi + 1))

    shape = rng.choice(["single", "nest_right", "nest_left"], p=[0.5, 0.25, 0.25])
    if shape == "single":
        op = str(rng.choice(list(_OP_WORDS)))
        if op == "quot":
            # keep divisor and dividend both inside the split's operand range
            v2 = int(rng.integers(lo, hi // 2 + 1))
            v1 = v2 * int(rng.integers(2, hi // v2 + 1))
        else:
            v1, v2 = val(), val()
        # operand order in the query varies; the witness follows it, so
        # commutative tasks admit several natural solutions
        first, second = ("a", "b") if rng.random() < 0.5 else ("b", "a")
        bindings = dict(a=0, b=0)
        bindings[first], bindings[second] = v1, v2
        query = [op, first, second]
        witness = [first, _OP_WORDS[op], second]
    else:
        outer = str(rng.choice(_NESTED_OPS))
        inner = str(rng.choice(_NESTED_OPS))
        bindings = {"a": val(), "b": val(), "c": val()}
        if shape == "nest_right":
            query = [outer, "a", inner, "b", "c"]
            witness = ["a", _OP_WORDS[outer], "(", "b", _OP_WORDS[inner], "c", ")"]
        else:
            query = [outer, inner, "a", "b", "c"]
            witness = ["(", "a", _OP_WORDS[inner], "b", ")", _OP_WORDS[outer], "c"]
    if rng.random() < 0.3:  # redundant outer parentheses are a legal style
        witness = ["(", *witness, ")"]
    x = _binding_tokens(sorted(bindings.items())) + query
    y = str(eval_expr(parse_expr(witness), dict(bindings)))
    return x, y, witness


def _gen_logic(rng: np.random.Generator, split: str) -> tuple[list[str], str, list[str]]:
    dlo, dhi = LOGIC_DEPTHS[split]
    depth = int(rng.integers(dlo, dhi + 1))
    n_const = int(rng.integers(2, 4))
    constants = list(rng.choice(list("abcde"), size=n_const, replace=False))
    preds = list("pqrstu")[: depth + 1]
    n_facts = int(rng.integers(1, min(3, n_const) + 1))
    fact_consts = list(rng.choice(constants, size=n_facts, replace=False))
    query_const = str(rng.choice(constants))

    x: list[str] = []
    witness: list[str] = []
    for c in fact_consts:
        x += [preds[0], c, "."]
        witness += ["fact", preds[0], "(", c, ")", "."]
    for i in range(depth):
        x += ["if", preds[i], "X", "then", preds[i + 1], "X", "."]
        witness += ["rule", preds[i + 1], "(", "X", ")", ":-", preds[i], "(", "X", ")", "."]
    x += ["?", preds[depth], query_const]
    witness += ["query", preds[depth], "(", query_const, ")", "?"]
    y = "true" if query_const in fact_consts else "false"
    return x, y, witness


def _bfs_path(spec: GridSpec) -> list[str] | None:
    seen = {spec.start}
    queue: deque[tuple[tuple[int, int], list[str]]] = deque([(spec.start, [])])
    while queue:
        pos, path = queue.popleft()
        if pos == spec.goal:
            return path
        for action in "UDLR":
            nxt = step(spec, pos, action)  # a blocked move stays on pos, already seen
            if nxt not in seen:
                seen.add(nxt)
                queue.append((nxt, path + [action]))
    return None


def _gen_grid(rng: np.random.Generator, split: str) -> tuple[list[str], str, list[str]]:
    lo, hi = GRID_SIDES[split]
    rows = int(rng.integers(lo, hi + 1))
    cols = int(rng.integers(lo, hi + 1))
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    si, gi = rng.choice(len(cells), size=2, replace=False)
    start, goal = cells[int(si)], cells[int(gi)]
    path: list[str] | None = None
    walls: frozenset[tuple[int, int]] = frozenset()
    for _ in range(20):
        walls = frozenset(c for c in cells
                          if c not in (start, goal) and rng.random() < 0.2)
        path = _bfs_path(GridSpec(rows, cols, start, goal, walls))
        if path is not None:
            break
    if path is None:
        walls = frozenset()
        path = _bfs_path(GridSpec(rows, cols, start, goal, walls))
        assert path is not None
    x = ["grid", str(rows), str(cols), ";",
         "start", str(start[0]), str(start[1]), ";",
         "goal", str(goal[0]), str(goal[1])]
    for r, c in sorted(walls):
        x += [";", "wall", str(r), str(c)]
    y = f"{goal[0]},{goal[1]}"
    return x, y, path


_GENERATORS = {
    EnvKind.EXPR_MATH: _gen_expr,
    EnvKind.LOGIC_RULES: _gen_logic,
    EnvKind.GRID_AGENT: _gen_grid,
}


def generate_dataset(env: EnvKind, n: int, seed: int, split: str = "held_in",
                     ) -> tuple[list[TaskInstance], dict[str, list[str]]]:
    """Generate n solvable tasks plus a witness solution per task id."""
    if n <= 0:
        raise ValueError(f"dataset size must be positive, got {n}")
    if split not in SPLITS:
        raise ValueError(f"unknown split {split!r}")
    env = EnvKind(env)
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, _ENV_INDEX[env], SPLITS.index(split)]))
    gen = _GENERATORS[env]
    tasks: list[TaskInstance] = []
    witnesses: dict[str, list[str]] = {}
    for i in range(n):
        x, y, witness = gen(rng, split)
        task_id = f"{env.value}-{split}-{seed}-{i:04d}"
        tasks.append(TaskInstance(task_id, tuple(x), y, split, env.value))
        witnesses[task_id] = witness
    return tasks, witnesses


def witness_path(dataset_path: str | Path) -> Path:
    p = Path(dataset_path)
    return p.with_name(p.stem + ".witness" + p.suffix)


def write_dataset(tasks: Sequence[TaskInstance], witnesses: dict[str, list[str]],
                  path: str | Path) -> tuple[Path, Path]:
    path = Path(path)
    with path.open("w") as fh:
        for t in tasks:
            fh.write(json.dumps({"id": t.id, "x": " ".join(t.x), "y": t.y,
                                 "split": t.split, "env": t.env},
                                sort_keys=True) + "\n")
    side = witness_path(path)
    with side.open("w") as fh:
        for t in tasks:
            fh.write(json.dumps({"id": t.id, "a": " ".join(witnesses[t.id])},
                                sort_keys=True) + "\n")
    return path, side


def _read_json_lines(path: str | Path, strings: Sequence[str], what: str,
                     build: Callable[[dict], object]) -> list:
    """``build`` of each record of a JSON Lines file, blank lines skipped.

    Raises ValueError naming the line of the first record that is not a JSON
    object whose ``strings`` fields are all strings, or that ``build`` rejects.
    """
    out = []
    with Path(path).open() as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError(f"expected a JSON object, got a {type(rec).__name__}")
                for key in strings:
                    if not isinstance(rec[key], str):
                        raise ValueError(f"field {key!r} must be a string, got {rec[key]!r}")
                out.append(build(rec))
            except (KeyError, ValueError) as exc:
                raise ValueError(f"{path}: bad {what} record on line {line_no}: {exc}")
    return out


def load_dataset(path: str | Path) -> list[TaskInstance]:
    return _read_json_lines(
        path, ("id", "x", "y", "split", "env"), "dataset",
        lambda rec: TaskInstance(rec["id"], tuple(rec["x"].split()), rec["y"],
                                 rec["split"], rec["env"]))


def load_witnesses(path: str | Path) -> dict[str, list[str]]:
    """Each task id's witness solution; a second record of an id is an error."""
    witnesses: dict[str, list[str]] = {}

    def add(rec: dict) -> None:
        if rec["id"] in witnesses:
            raise ValueError(f"duplicate witness id {rec['id']!r}")
        witnesses[rec["id"]] = rec["a"].split()

    _read_json_lines(path, ("id", "a"), "witness", add)
    return witnesses
