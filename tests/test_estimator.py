import inspect
from dataclasses import MISSING, fields

import pytest

from symtrain.engine import RunConfig
from symtrain.environments import EnvKind, generate_dataset
from symtrain.estimator import NotFittedError, SymbolicSelfTrainer
from symtrain.validation import check_tasks, check_witnesses


@pytest.fixture(scope="module")
def fitted():
    tasks, witnesses = generate_dataset(EnvKind.EXPR_MATH, 6, seed=0)
    est = SymbolicSelfTrainer(K=2, N1=3, N2=1, iterations=1, epochs_per_iter=3,
                              d=8, h=12, max_len=10, warmup_tasks=2, batch_size=4)
    return est.fit(tasks, witnesses=witnesses), tasks


def test_get_params_roundtrip():
    est = SymbolicSelfTrainer(K=7, seed=3)
    params = est.get_params()
    assert params["K"] == 7 and params["seed"] == 3
    clone = SymbolicSelfTrainer(**params)
    assert clone.get_params() == params


def test_shared_defaults_come_from_run_config():
    config_defaults = {f.name: f.default for f in fields(RunConfig)
                       if f.default is not MISSING}
    est_defaults = {name: p.default for name, p in
                    inspect.signature(SymbolicSelfTrainer).parameters.items()}
    shared = config_defaults.keys() & est_defaults.keys()
    assert "batch_size" in shared
    for name in shared:
        assert est_defaults[name] == config_defaults[name], name


def test_set_params_validates_names():
    est = SymbolicSelfTrainer()
    est.set_params(K=9, iterations=2)
    assert est.K == 9 and est.iterations == 2
    with pytest.raises(ValueError, match="bogus"):
        est.set_params(bogus=1)


def test_repr_mentions_changed_params():
    assert "K=9" in repr(SymbolicSelfTrainer(K=9))


def test_predict_before_fit_raises():
    with pytest.raises(NotFittedError):
        SymbolicSelfTrainer().predict([])


def test_fit_sets_trailing_underscore_attributes(fitted):
    est, tasks = fitted
    assert est.reports_[0].iteration == 0
    assert 0.0 <= est.held_in_rate_ <= 1.0
    assert len(est.warmup_task_ids_) == 2
    assert est.pool_ is not None


def test_predict_returns_token_strings(fitted):
    est, tasks = fitted
    preds = est.predict(tasks[:3])
    assert len(preds) == 3
    assert all(isinstance(p, str) for p in preds)


def test_score_is_solve_fraction(fitted):
    est, tasks = fitted
    value = est.score(tasks)
    assert 0.0 <= value <= 1.0


def test_fit_accepts_plain_dicts():
    tasks, witnesses = generate_dataset(EnvKind.EXPR_MATH, 4, seed=1)
    dicts = [{"id": t.id, "x": " ".join(t.x), "y": t.y, "split": t.split,
              "env": t.env} for t in tasks]
    est = SymbolicSelfTrainer(K=2, N1=2, N2=0, iterations=1, epochs_per_iter=2,
                              d=8, h=12, max_len=8, warmup_tasks=2, batch_size=4)
    est.fit(dicts, witnesses={t.id: " ".join(witnesses[t.id]) for t in tasks})
    assert hasattr(est, "model_")


def test_check_tasks_rejects_duplicates_and_mixed_envs():
    tasks, _ = generate_dataset(EnvKind.EXPR_MATH, 2, seed=0)
    with pytest.raises(ValueError, match="duplicate"):
        check_tasks(list(tasks) + [tasks[0]])
    grid, _ = generate_dataset(EnvKind.GRID_AGENT, 1, seed=0)
    with pytest.raises(ValueError, match="mix"):
        check_tasks(list(tasks) + list(grid))
    with pytest.raises(TypeError):
        check_tasks([42])


def test_check_witnesses_rejects_unknown_ids():
    tasks, _ = generate_dataset(EnvKind.EXPR_MATH, 2, seed=0)
    with pytest.raises(ValueError, match="unknown"):
        check_witnesses({"nope": ["a"]}, tasks)
