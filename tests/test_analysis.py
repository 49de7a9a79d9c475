import numpy as np
import pytest

from symtrain.analysis import (
    delta_logp,
    diversity,
    exploratory_ability,
    stability,
)
from symtrain.autodiff import sgd_step
from symtrain.environments import Status
from symtrain.policy import BOS, EOS, SEP, PolicyModel, batch_nll, default_vocab
from symtrain.pool import CandidatePool, Trajectory
from helpers import count_reward_rows


def test_exploratory_ability_half_newly_solved():
    universe = {f"t{i}" for i in range(10)}
    now = {f"t{i}" for i in range(5)}
    assert exploratory_ability(now, set(), universe) == 0.5


def test_exploratory_ability_nothing_new():
    universe = {"a", "b", "c"}
    assert exploratory_ability({"a"}, {"a", "b"}, universe) == 0.0


def test_exploratory_ability_guarded_when_everything_solved():
    universe = {"a", "b"}
    assert exploratory_ability({"a", "b"}, {"a", "b"}, universe) == 0.0


def test_exploratory_ability_requires_subsets():
    with pytest.raises(ValueError):
        exploratory_ability({"z"}, set(), {"a"})


def test_stability_cases():
    assert stability({"a", "b"}, {"a", "b"}) == 1.0
    assert stability({"c"}, {"a", "b"}) == 0.0
    assert stability({"a"}, set()) == 0.0  # guarded denominator


def test_delta_logp_zero_for_identical_solutions():
    model = PolicyModel(default_vocab(), d=8, h=12, seed=0)
    pairs = [(("a", "=", "1", ";", "a"), ("a",), ("a",))]
    assert delta_logp(model, pairs) == 0.0


def test_delta_logp_antisymmetric():
    model = PolicyModel(default_vocab(), d=8, h=12, seed=1)
    pairs = [(("a", "=", "1", ";", "a"), ("a", "+", "a"), ("a", "-", "a")),
             (("b", "=", "2", ";", "b"), ("b",), ("b", "*", "b"))]
    swapped = [(x, n, p) for x, p, n in pairs]
    assert delta_logp(model, pairs) == pytest.approx(-delta_logp(model, swapped),
                                                     abs=1e-12)


def test_delta_logp_empty_is_null():
    model = PolicyModel(default_vocab(), d=8, h=12, seed=0)
    assert delta_logp(model, []) is None


def test_delta_logp_units_match_reward_difference(monkeypatch):
    from symtrain.policy import frame_states, score
    model = PolicyModel(default_vocab(), d=8, h=12, seed=2)
    pairs = [(("a", "=", "3", ";", "sum", "a", "a"), ("a", "+", "a"), ("a", "-", "a")),
             (("b", "=", "2", ";", "b"), ("b",), ("b", "*", "b", "*", "b"))]
    expected = []
    for x, a_plus, a_minus in pairs:
        start = frame_states(model, [x])
        expected.append(score(model, start, a_plus) - score(model, start, a_minus))
    rows = count_reward_rows(monkeypatch)
    assert abs(delta_logp(model, pairs) - sum(expected) / len(pairs)) <= 1e-12
    assert rows == [4]  # every probe solution in one pass


def test_margin_grows_after_training_on_positive():
    model = PolicyModel(default_vocab(), d=16, h=24, seed=3)
    x = ("a", "=", "2", ";", "sum", "a", "a")
    a_plus, a_minus = ("a", "+", "a"), ("a", "*", "a")
    pairs = [(x, a_plus, a_minus)]
    before = delta_logp(model, pairs)
    example = (model.vocab.encode([BOS, *x, SEP]), model.vocab.encode([*a_plus, EOS]))
    for _ in range(40):
        _, tape = batch_nll(model, [example])
        tape.backward(np.ones(1))
        sgd_step(model.params, {name: p.grad for name, p in model.params.items()},
                 lr=0.2, clip=1.0)
    assert delta_logp(model, pairs) > before


def _traj(task, a, b):
    return Trajectory(task, ("x",), "y", a, b, -1.0, "explore", 1,
                      Status.OK if b else Status.RUNTIME_ERROR)


def test_diversity_counts_unique_correct_entries():
    pool = CandidatePool()
    assert diversity(pool) == 0
    pool.update([_traj("t1", ("a",), 1), _traj("t1", ("b",), 1),
                 _traj("t1", ("c",), 1),
                 _traj("t2", ("a",), 1), _traj("t2", ("d",), 1),
                 _traj("t2", ("e",), 1),
                 _traj("t2", ("z",), 0)])
    assert diversity(pool) == 6
    before = diversity(pool)
    pool.update([_traj("t1", ("a",), 1)])  # duplicate collapses upstream
    assert diversity(pool) == before
