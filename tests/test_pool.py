import json

import numpy as np
import pytest

from symtrain.environments import Status
from symtrain.pool import (
    DEFAULT_POOL_CAP,
    REWARD_TIE,
    CandidatePool,
    Trajectory,
    filter_pair,
    persist,
)
from helpers import filter_oracle


def make(task="t1", a=("a",), b=1, r=-0.5, source="explore", iteration=1,
         status=None):
    status = status if status is not None else (Status.OK if b else Status.RUNTIME_ERROR)
    return Trajectory(task, ("x",), "y", tuple(a), b, r, source, iteration, status)


# ---------------------------------------------------------------------------
# pair filtering

def test_filter_keeps_correct_original_over_broken_refinement():
    t = make(b=1, r=-1.0)
    t_tilde = make(b=0, r=-0.1, source="refine")
    assert filter_pair(t, t_tilde) is t


def test_filter_otherwise_branch_prefers_refinement():
    t = make(b=0, r=-1.0)
    t_tilde = make(b=1, r=-2.0, source="refine")
    assert filter_pair(t, t_tilde) is t_tilde


def test_filter_equal_feedback_uses_reward():
    t = make(b=1, r=-0.4)
    t_tilde = make(b=1, r=-0.9, source="refine")
    assert filter_pair(t, t_tilde) is t


def test_filter_reward_tie_goes_to_refinement():
    t = make(b=0, r=-1.2)
    t_tilde = make(b=0, r=-1.2, source="refine")
    assert filter_pair(t, t_tilde) is t_tilde


def test_filter_matches_truth_table_oracle_on_all_12_cells():
    for b in (0, 1):
        for b_tilde in (0, 1):
            for r, r_tilde in ((-0.3, -0.9), (-0.6, -0.6), (-0.9, -0.3)):
                t = make(b=b, r=r)
                t_tilde = make(b=b_tilde, r=r_tilde, source="refine")
                got = filter_pair(t, t_tilde)
                want = filter_oracle(b, b_tilde, r, r_tilde)
                assert got is (t if want == "original" else t_tilde), \
                    f"cell b={b} b~={b_tilde} r={r} r~={r_tilde}"


def test_filter_passthrough_without_refinement():
    t = make()
    assert filter_pair(t, None) is t


def test_filter_contract_errors():
    with pytest.raises(ValueError, match="task"):
        filter_pair(make(task="t1"), make(task="t2", source="refine"))
    with pytest.raises(ValueError, match="sources"):
        filter_pair(make(source="explore"), make(source="explore"))


# ---------------------------------------------------------------------------
# pool updates

def test_update_is_idempotent():
    pool = CandidatePool()
    t = make()
    assert pool.update([t]) == 1
    assert pool.update([t]) == 0
    assert len(pool) == 1


def test_duplicate_solution_keeps_higher_reward():
    pool = CandidatePool()
    pool.update([make(a=("a", "b"), r=-1.0)])
    pool.update([make(a=("a", "b"), r=-0.2, iteration=2)])
    (entry,) = pool.entries("t1")
    assert entry.r == -0.2 and entry.iteration == 2
    pool.update([make(a=("a", "b"), r=-3.0, iteration=3)])
    (entry,) = pool.entries("t1")
    assert entry.r == -0.2


def test_duplicate_within_the_reward_tie_keeps_the_older_entry():
    pool = CandidatePool()
    pool.update([make(a=("a", "b"), r=-1.0, iteration=0)])
    # float32 noise, as from scoring one solution twice under one model in
    # passes of different makeups
    pool.update([make(a=("a", "b"), r=-1.0 + 3.8e-6, iteration=1)])
    (entry,) = pool.entries("t1")
    assert (entry.r, entry.iteration) == (-1.0, 0)
    assert 3.8e-6 < REWARD_TIE < 2.7e-3
    # the smallest gap measured between duplicates scored under different models
    pool.update([make(a=("a", "b"), r=-1.0 + 2.7e-3, iteration=2)])
    (entry,) = pool.entries("t1")
    assert (entry.r, entry.iteration) == (-1.0 + 2.7e-3, 2)


def test_cap_evicts_lowest_reward_negative_first():
    pool = CandidatePool()
    pool.update([make(a=(str(i),), b=0, r=-float(i))
                 for i in range(1, DEFAULT_POOL_CAP + 2)])
    rewards = sorted(t.r for t in pool.entries("t1"))
    assert rewards == [-float(i) for i in range(DEFAULT_POOL_CAP, 0, -1)]


def test_cap_never_drops_positive_while_negative_remains():
    pool = CandidatePool()
    positives = [make(a=(f"p{i}",), b=1, r=-5.0 - i) for i in range(DEFAULT_POOL_CAP - 1)]
    pool.update([*positives, make(a=("n1",), b=0, r=-0.1), make(a=("n2",), b=0, r=-0.2)])
    entries = pool.entries("t1")
    assert len(entries) == DEFAULT_POOL_CAP
    assert sum(t.b for t in entries) == DEFAULT_POOL_CAP - 1  # every positive survives
    assert [t.a for t in entries if t.b == 0] == [("n1",)]


def test_trajectory_invariants():
    with pytest.raises(ValueError):
        make(b=2)
    with pytest.raises(ValueError):
        Trajectory("t", ("x",), "y", ("a",), 1, -0.5, "explore", 1,
                   Status.PARSE_ERROR)
    with pytest.raises(ValueError):
        make(source="other")


# ---------------------------------------------------------------------------
# ranked sets

def test_ranked_sets_order_and_partition():
    pool = CandidatePool()
    pool.update([make(a=("a",), b=1, r=-0.7),
                 make(a=("b",), b=1, r=-0.2),
                 make(a=("c",), b=0, r=-0.1)])
    sets = pool.ranked_sets("t1")
    assert [t.r for t in sets.s_plus] == [-0.2, -0.7]
    assert [t.r for t in sets.s_minus] == [-0.1]


def test_ranked_sets_empty_for_unknown_task():
    sets = CandidatePool().ranked_sets("nope")
    assert sets.s_plus == [] and sets.s_minus == []


def test_all_negative_pool_has_empty_positive_set():
    pool = CandidatePool()
    pool.update([make(a=("a",), b=0), make(a=("b",), b=0)])
    assert pool.ranked_sets("t1").s_plus == []


def test_tie_break_later_iteration_then_lexicographic():
    pool = CandidatePool()
    pool.update([make(a=("b",), r=-0.5, iteration=1),
                 make(a=("a",), r=-0.5, iteration=2),
                 make(a=("c",), r=-0.5, iteration=2)])
    order = [t.a for t in pool.ranked_sets("t1").s_plus]
    assert order == [("a",), ("c",), ("b",)]


def test_ranking_matches_reference_sort_on_100_random_pools():
    rng = np.random.default_rng(17)
    for _ in range(100):
        pool = CandidatePool()
        entries = []
        for i in range(int(rng.integers(1, 30))):
            entries.append(make(
                a=tuple(str(rng.integers(0, 5)) for _ in range(int(rng.integers(1, 4)))),
                b=int(rng.integers(0, 2)),
                r=float(np.round(rng.uniform(-3, 0), 2)),
                iteration=int(rng.integers(0, 4)),
            ))
        pool.update(entries)
        sets = pool.ranked_sets("t1")
        stored = pool.entries("t1")
        ref = sorted([t for t in stored if t.b == 1],
                     key=lambda t: (-t.r, -t.iteration, t.a))
        assert sets.s_plus == ref
        ref_neg = sorted([t for t in stored if t.b == 0],
                         key=lambda t: (-t.r, -t.iteration, t.a))
        assert sets.s_minus == ref_neg
        assert len(sets.s_plus) + len(sets.s_minus) == len(stored)


# ---------------------------------------------------------------------------
# persistence

def test_persist_writes_one_ranked_line_per_entry(tmp_path):
    rng = np.random.default_rng(23)
    pool = CandidatePool()
    entries = []
    for i in range(500):
        entries.append(make(
            task=f"task-{int(rng.integers(0, 40)):02d}",
            a=tuple(str(rng.integers(0, 9)) for _ in range(int(rng.integers(1, 6)))),
            b=int(rng.integers(0, 2)),
            r=float(rng.uniform(-4, 0)),
            iteration=int(rng.integers(0, 6)),
        ))
    pool.update(entries)
    path = tmp_path / "pool.jsonl"
    persist(pool, path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    stored = {(t.task_id, t.a): t for t in pool.all_entries()}
    assert len(records) == len(stored) == len(pool)
    for rec in records:
        t = stored.pop((rec["task_id"], tuple(rec["a"].split())))
        assert rec == {"task_id": t.task_id, "x": " ".join(t.x), "y": t.y,
                       "a": " ".join(t.a), "b": t.b, "r": t.r, "source": t.source,
                       "iteration": t.iteration, "status": t.status.value}
    assert not stored
    # ranked: task by task, positives first, each reward-descending as ranked_sets
    keys = [(rec["task_id"], -rec["b"], -rec["r"], -rec["iteration"], rec["a"].split())
            for rec in records]
    assert keys == sorted(keys)


def test_persist_is_deterministic(tmp_path):
    pool = CandidatePool()
    pool.update([make(a=("b",), r=-0.3), make(a=("a",), b=0, r=-0.8)])
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    persist(pool, p1)
    persist(pool, p2)
    assert p1.read_bytes() == p2.read_bytes()
