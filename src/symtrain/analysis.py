"""Run analysis: exploration/stability/margin/diversity series and exports."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from symtrain.policy import PolicyModel, score
from symtrain.pool import CandidatePool

CSV_COLUMNS = ("iteration", "held_in_rate", "held_out_rate",
               "exploratory_ability", "stability", "delta_logp", "diversity")


def exploratory_ability(solved_now: set[str], solved_before: set[str],
                        universe: set[str]) -> float:
    """Fraction of previously unsolved tasks that are newly solved."""
    if not solved_now <= universe or not solved_before <= universe:
        raise ValueError("solved sets must be subsets of the universe")
    unsolved = universe - solved_before
    return len(solved_now - solved_before) / max(1, len(unsolved))


def stability(solved_now: set[str], solved_prev_iter: set[str]) -> float:
    """Fraction of the previous iteration's solved tasks still solved now."""
    return len(solved_now & solved_prev_iter) / max(1, len(solved_prev_iter))


def delta_logp(model: PolicyModel,
               pairs: Sequence[tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]],
               ) -> float | None:
    """Mean reward margin score(x -> a+) - score(x -> a-) in nats per token."""
    if not pairs:
        return None
    total = 0.0
    for x, a_plus, a_minus in pairs:
        total += score(model, x, a_plus) - score(model, x, a_minus)
    return total / len(pairs)


def diversity(pool: CandidatePool) -> int:
    """Number of distinct correct (task, solution) entries across the pool."""
    return sum(1 for t in pool.all_entries() if t.b == 1)


@dataclass(frozen=True)
class AnalysisRow:
    iteration: int
    held_in_rate: float
    held_out_rate: float
    exploratory_ability: float | None
    stability: float | None
    delta_logp: float | None
    diversity: int

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_COLUMNS}


def _cell(value) -> str:
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def export_series(rows: Sequence[AnalysisRow], path: str | Path,
                  format: str = "csv") -> Path:
    """Write the per-iteration series as CSV (fixed header) or JSON."""
    path = Path(path)
    if format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(_cell(getattr(row, c)) for c in CSV_COLUMNS) for row in rows]
        path.write_text("\n".join(lines) + "\n")
    elif format == "json":
        path.write_text(json.dumps([row.as_dict() for row in rows],
                                   sort_keys=True, indent=2) + "\n")
    else:
        raise ValueError(f"unknown export format {format!r}")
    return path


def load_series_json(path: str | Path) -> list[AnalysisRow]:
    rows = json.loads(Path(path).read_text())
    return [AnalysisRow(**{c: row[c] for c in CSV_COLUMNS}) for row in rows]
