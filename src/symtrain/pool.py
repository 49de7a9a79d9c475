"""Long-term candidate trajectory pool: filtering, dedup, ranking, persistence.

Float noise in r never decides which duplicate the pool keeps (``REWARD_TIE``).
:func:`persist` writes one JSON line per entry in ranked order, for reading
outside the package.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from symtrain.environments.types import Status

DEFAULT_POOL_CAP = 64

# A duplicate a must beat the stored r by more than this to replace it.  Within
# one exploration phase a repeated (task, a) reuses its first r, so repeats tie
# exactly.  A solution scored under one model in passes of different makeups
# (a warmup witness that exploration finds again) differs by float32 noise
# alone: over the benchmark's 18 parity runs, at most 1.3e-7 for the re-found
# witnesses, and at most 3.8e-6 (1.5e-6 relative) between a row scored alone
# and in the batched pass.  Real gaps between duplicates, scored under
# different models, were at least 2.7e-3 in float64 and 0.42 in float32.  The
# tie sits at the geometric mean of 3.8e-6 and 2.7e-3.
REWARD_TIE = 1e-4


@dataclass(frozen=True)
class Trajectory:
    """One explored or refined solution with its feedback and self-reward."""

    task_id: str
    x: tuple[str, ...]
    y: str
    a: tuple[str, ...]
    b: int
    r: float
    source: str  # "explore" | "refine"
    iteration: int
    status: Status = Status.OK

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", tuple(self.x))
        object.__setattr__(self, "a", tuple(self.a))
        if self.b not in (0, 1):
            raise ValueError(f"b must be 0 or 1, got {self.b}")
        if self.b == 1 and self.status is not Status.OK:
            raise ValueError("b=1 requires an Ok execution status")
        if self.source not in ("explore", "refine"):
            raise ValueError(f"source must be explore or refine, got {self.source!r}")


def filter_pair(t: Trajectory, t_tilde: Trajectory | None) -> Trajectory:
    """Pick the survivor of an explored/refined pair.

    Keep the original when it is correct and the refinement is not, or when
    both agree on correctness and the original has the strictly higher
    reward; otherwise (ties included) the refinement wins.  A missing
    refinement passes the original through.
    """
    if t_tilde is None:
        return t
    if t.task_id != t_tilde.task_id:
        raise ValueError(f"filter_pair: task mismatch {t.task_id!r} vs {t_tilde.task_id!r}")
    if t.source != "explore" or t_tilde.source != "refine":
        raise ValueError("filter_pair: expected (explore, refine) sources")
    if t.b == 1 and t_tilde.b == 0:
        return t
    if t.b == t_tilde.b and t.r > t_tilde.r:
        return t
    return t_tilde


def _rank_key(t: Trajectory) -> tuple:
    # descending reward; ties prefer later iterations, then lexicographic a
    return (-t.r, -t.iteration, t.a)


@dataclass
class RankedSets:
    """Per-task partition into positives and negatives, reward-descending."""

    s_plus: list[Trajectory]
    s_minus: list[Trajectory]


class CandidatePool:
    """Deduplicated per-task trajectory memory with a bounded size per task.

    Dedup key is the exact token sequence a; a duplicate replaces the stored
    entry only when its reward is higher by more than ``REWARD_TIE``, so on a
    tie the older entry, and its iteration, is kept.  Eviction under the cap
    of ``DEFAULT_POOL_CAP`` entries per task drops the worst-ranked negative
    first and touches positives only when no negative remains.
    """

    def __init__(self) -> None:
        self._by_task: dict[str, dict[tuple[str, ...], Trajectory]] = {}

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._by_task.values())

    @property
    def task_ids(self) -> list[str]:
        return sorted(self._by_task)

    def entries(self, task_id: str) -> list[Trajectory]:
        return list(self._by_task.get(task_id, {}).values())

    def all_entries(self) -> Iterable[Trajectory]:
        for task_id in self.task_ids:
            yield from self._by_task[task_id].values()

    def update(self, filtered: Sequence[Trajectory]) -> int:
        """Insert filtered trajectories; returns the number of new entries.

        Idempotent for identical inputs.  A duplicate a replaces the stored
        entry only when its r is higher by more than ``REWARD_TIE``.
        """
        added = 0
        for t in filtered:
            entries = self._by_task.setdefault(t.task_id, {})
            old = entries.get(t.a)
            if old is None:
                entries[t.a] = t
                added += 1
            elif t.r > old.r + REWARD_TIE:
                entries[t.a] = t
            self._evict(t.task_id)
        return added

    def _evict(self, task_id: str) -> None:
        entries = self._by_task[task_id]
        while len(entries) > DEFAULT_POOL_CAP:
            negatives = [t for t in entries.values() if t.b == 0]
            victims = negatives if negatives else list(entries.values())
            worst = max(victims, key=_rank_key)
            del entries[worst.a]

    def ranked_sets(self, task_id: str) -> RankedSets:
        entries = self.entries(task_id)
        s_plus = sorted((t for t in entries if t.b == 1), key=_rank_key)
        s_minus = sorted((t for t in entries if t.b == 0), key=_rank_key)
        return RankedSets(s_plus, s_minus)


# ---------------------------------------------------------------------------
# persistence (JSON Lines, one trajectory per line)

def _to_record(t: Trajectory) -> dict:
    return {
        "task_id": t.task_id,
        "x": " ".join(t.x),
        "y": t.y,
        "a": " ".join(t.a),
        "b": t.b,
        "r": t.r,
        "source": t.source,
        "iteration": t.iteration,
        "status": t.status.value,
    }


def persist(pool: CandidatePool, path: str | Path) -> Path:
    path = Path(path)
    with path.open("w") as fh:
        for task_id in pool.task_ids:
            sets = pool.ranked_sets(task_id)
            for t in sets.s_plus + sets.s_minus:
                fh.write(json.dumps(_to_record(t), sort_keys=True) + "\n")
    return path
