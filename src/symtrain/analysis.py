"""Run analysis: the four per-iteration quantities.

``engine.run`` computes exploratory ability, stability, the delta-log-p
margin and pool diversity once per iteration and stores them on that
iteration's ``IterationReport``, so each ``reports.jsonl`` line carries them.
"""

from __future__ import annotations

from typing import Sequence

from symtrain.policy import PolicyModel, frame_states, score_rows
from symtrain.pool import CandidatePool


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
    """Mean reward margin score(x -> a+) - score(x -> a-) in nats per token.

    Both solutions of a pair are scored from the frame state of its x, as
    exploration scores its candidates, so the margin is in the units of r;
    every pair's solutions go through one self-reward pass.
    """
    if not pairs:
        return None
    scored = score_rows(model, frame_states(model, [x for x, _, _ in pairs]),
                        [(i, a) for i, (_, a_plus, a_minus) in enumerate(pairs)
                         for a in (a_plus, a_minus)])
    return sum(rewards[tuple(a_plus)] - rewards[tuple(a_minus)]
               for rewards, (_, a_plus, a_minus) in zip(scored, pairs)) / len(pairs)


def diversity(pool: CandidatePool) -> int:
    """Number of distinct correct (task, solution) entries across the pool."""
    return sum(1 for t in pool.all_entries() if t.b == 1)
