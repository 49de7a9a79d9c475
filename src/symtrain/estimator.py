"""Estimator-style facade over the self-training engine.

``SymbolicSelfTrainer`` follows the scikit-learn parameter conventions
(constructor args stored verbatim, ``get_params``/``set_params``, trailing
underscores on fitted attributes) without depending on scikit-learn, so it
clones and composes with that ecosystem while staying a thin wrapper around
:func:`symtrain.engine.run`.
"""

from __future__ import annotations

import inspect

from symtrain.engine import RunConfig, evaluate, run
from symtrain.policy import greedy_decode
from symtrain.validation import check_tasks, check_witnesses


class NotFittedError(ValueError):
    """predict/score was called before fit."""


class BaseEstimator:
    """Minimal sklearn-compatible parameter handling."""

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return [name for name, p in sig.parameters.items()
                if name != "self" and p.kind == p.POSITIONAL_OR_KEYWORD]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params) -> "BaseEstimator":
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(f"invalid parameter {name!r} for "
                                 f"{type(self).__name__}; valid: {sorted(valid)}")
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


class SymbolicSelfTrainer(BaseEstimator):
    """Self-trains a token policy against an executable environment.

    ``fit`` runs the full iterative loop on the provided tasks (witness
    solutions for the warmup seed set come from the ``witnesses`` fit
    argument), ``predict`` greedy-decodes solutions, and ``score`` reports
    the solve rate under environment execution.
    """

    def __init__(self, env: str = "expr_math", method: str = "envisions",
                 K: int = 5, N1: int = 10, N2: int = 2, iterations: int = 5,
                 train_mode: str = "scratch", ablations: tuple[str, ...] = (),
                 epochs_per_iter: int = 30, lr: float = 0.1,
                 dpo_beta: float = 0.1, seed: int = 0, d: int = RunConfig.d,
                 h: int = RunConfig.h, temperature: float = RunConfig.temperature,
                 max_len: int = RunConfig.max_len,
                 warmup_tasks: int = RunConfig.warmup_tasks,
                 batch_size: int = RunConfig.batch_size,
                 pool_cap: int = RunConfig.pool_cap):
        self.env = env
        self.method = method
        self.K = K
        self.N1 = N1
        self.N2 = N2
        self.iterations = iterations
        self.train_mode = train_mode
        self.ablations = ablations
        self.epochs_per_iter = epochs_per_iter
        self.lr = lr
        self.dpo_beta = dpo_beta
        self.seed = seed
        self.d = d
        self.h = h
        self.temperature = temperature
        self.max_len = max_len
        self.warmup_tasks = warmup_tasks
        self.batch_size = batch_size
        self.pool_cap = pool_cap

    def _config(self) -> RunConfig:
        return RunConfig(**self.get_params())

    def fit(self, X, y=None, witnesses=None) -> "SymbolicSelfTrainer":
        tasks = check_tasks(X)
        witness_map = check_witnesses(witnesses, tasks)
        result = run(self._config(), tasks, witness_map)
        self.model_ = result.model
        self.pool_ = result.pool
        self.reports_ = result.reports
        self.warmup_task_ids_ = result.warmup_task_ids
        self.held_in_rate_ = result.reports[-1].held_in_rate
        self.held_out_rate_ = result.reports[-1].held_out_rate
        return self

    def _check_fitted(self) -> None:
        if not hasattr(self, "model_"):
            raise NotFittedError("this SymbolicSelfTrainer instance is not "
                                 "fitted yet; call fit first")

    def predict(self, X) -> list[str]:
        """Greedy-decoded solution per task, as a space-joined token string."""
        self._check_fitted()
        tasks = check_tasks(X)
        return [" ".join(greedy_decode(self.model_, list(t.x), self.max_len))
                for t in tasks]

    def score(self, X, y=None) -> float:
        """Fraction of tasks whose decoded solution executes to the expected
        output."""
        self._check_fitted()
        return evaluate(self.model_, check_tasks(X), self.env, self.max_len)[0]
