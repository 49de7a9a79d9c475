"""Run analysis: the per-iteration quantities and the series exports.

``engine.run`` computes exploratory ability, stability, the delta-log-p
margin and pool diversity once per iteration and stores them on that
iteration's ``IterationReport``.  The analysis series is a projection of
those reports: ``export_series`` writes the ``CSV_COLUMNS`` of each report
dict as CSV or JSON.
"""

from __future__ import annotations

import json
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


def _cell(value) -> str:
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def export_series(rows: Sequence[dict], path: str | Path, format: str = "csv") -> Path:
    """Write the CSV_COLUMNS of each report dict as CSV (fixed header) or JSON."""
    path = Path(path)
    if format == "csv":
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(_cell(row[c]) for c in CSV_COLUMNS) for row in rows]
        path.write_text("\n".join(lines) + "\n")
    elif format == "json":
        path.write_text(json.dumps([{c: row[c] for c in CSV_COLUMNS} for row in rows],
                                   sort_keys=True, indent=2) + "\n")
    else:
        raise ValueError(f"unknown export format {format!r}")
    return path

