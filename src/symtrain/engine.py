"""The iterative self-training loop and its baseline variants.

One iteration is: explore (sample K solutions per task, optionally refine
each once), grade everything in the environment, self-score, filter each
explored/refined pair, fold survivors into the candidate pool, select
positive-only and positive-negative training sets, and retrain the policy
(from scratch or continually, per ``train_mode``); every loss is a weighted
sum of per-example NLLs (see :func:`dpo_loss`).  The warmup (iteration 0) and
every iteration end the same way: evaluate both splits and record one
``IterationReport``, which carries the solve rates and the analysis
quantities.  ``reports.jsonl`` streams those records, one line each.  Before
any of it, ``run`` rejects a dataset that no run could grade correctly
(:func:`check_tasks` and the witness checks in :func:`run`).  A step is off
when the config's ablations name it or when the method table
``METHOD_ABLATIONS`` implies it for the method.  All randomness derives from
the config seed, so a fixed config, seed and BLAS thread count give identical
results; at the default d=32, h=64 OpenBLAS splits the backward's ``w_h`` and
``w_out`` gradient products across threads, which moves their last bits.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Callable, ClassVar, Sequence

import numpy as np

from symtrain import analysis
from symtrain.autodiff import (CLIP, Array, Tape, TrainingError, keep_freed_memory,
                               sgd_step, squared_norm)
from symtrain.environments import (MAX_SOLUTION_LEN, EnvKind, TaskInstance, check_task,
                                   execute)
from symtrain.policy import (
    CONTROL_TOKENS,
    DEFAULT_D,
    DEFAULT_H,
    GenerationParams,
    PolicyModel,
    Vocab,
    batch_nll,
    condition_ids,
    default_vocab,
    frame_states,
    greedy_batch,
    greedy_decode,  # not called here: bench/tracing.py wraps engine.greedy_decode
    refine,
    reinit,
    sample,
    save_checkpoint,
    score,
    score_rows,
    # not called here: bench/tracing.py wraps engine.sequence_token_logps
    sequence_token_logps,
    target_ids,
)
from symtrain.pool import CandidatePool, RankedSets, Trajectory, filter_pair, persist

# the ablations each method implies: STaR is envisions without refinement or L2
METHOD_ABLATIONS: dict[str, tuple[str, ...]] = {
    "envisions": (), "star_env": ("no_self_refine", "no_L2"), "sft_dpo": ()}
METHODS = tuple(METHOD_ABLATIONS)
TRAIN_MODES = ("scratch", "continual")
ABLATIONS = ("no_self_refine", "no_self_reward", "no_candidate_pool", "no_L2")

# seed-stream domains; 2, the retired per-draft refine stream, stays unused
_DOM_INIT, _DOM_SAMPLE, _DOM_SHUFFLE, _DOM_SELECT, _DOM_WARMUP = 0, 1, 3, 4, 5


class ConfigError(ValueError):
    """A run configuration is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class RunConfig:
    """All experiment knobs.  The first twelve fields are required in config
    files; the rest default to the documented desk-scale settings.  Fixed, so
    unknown keys in a config: the clip (``autodiff.CLIP``), the pool cap
    (``pool.DEFAULT_POOL_CAP``) and the two class constants, which hold what
    every run does: seed the pool with its warmup witnesses and evaluate
    without a refinement retry.  The constants exist only because the
    benchmark's checks read them (``bench/tracing.py``, ``bench/worker.py``)."""

    env: str
    method: str
    K: int
    N1: int
    N2: int
    iterations: int
    train_mode: str
    ablations: tuple[str, ...]
    epochs_per_iter: int
    lr: float
    dpo_beta: float
    seed: int
    d: int = DEFAULT_D
    h: int = DEFAULT_H
    temperature: float = 1.0
    max_len: int = 80
    batch_size: int = 8
    warmup_tasks: int = 20
    warmup_epochs: int = 150
    # read-only; ROADMAP item 2(b) deletes them with the benchmark's wrappers
    seed_pool_with_warmup: ClassVar[bool] = True
    eval_with_refine: ClassVar[bool] = False

    def __post_init__(self) -> None:
        if not isinstance(self.ablations, (list, tuple)) or \
                not all(isinstance(abl, str) for abl in self.ablations):
            raise ConfigError("ablations must be a list of strings")
        object.__setattr__(self, "ablations", tuple(self.ablations))
        try:
            EnvKind(self.env)
        except ValueError:
            raise ConfigError(f"unknown env {self.env!r} "
                              f"(valid: {[e.value for e in EnvKind]})") from None
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.train_mode not in TRAIN_MODES:
            raise ConfigError(f"train_mode must be one of {TRAIN_MODES}")
        for name, minimum in (("K", 1), ("N1", 1), ("N2", 0), ("iterations", 1),
                              ("epochs_per_iter", 1), ("batch_size", 1), ("d", 1),
                              ("h", 1), ("max_len", 1),
                              ("warmup_tasks", 0), ("warmup_epochs", 0), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
                raise ConfigError(f"{name} must be an integer >= {minimum}")
        if self.max_len > MAX_SOLUTION_LEN:
            raise ConfigError(f"max_len must be <= {MAX_SOLUTION_LEN}, "
                              "the longest solution execute grades")
        for name in ("lr", "temperature", "dpo_beta"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or not 0 < value <= sys.float_info.max:
                raise ConfigError(f"{name} must be a finite positive number")
        for abl in self.ablations:
            if abl not in ABLATIONS:
                raise ConfigError(f"unknown ablation {abl!r} (valid: {ABLATIONS})")
        if self.ablations and self.method != "envisions":
            raise ConfigError("ablations are only valid with method = envisions")
        if self.method == "sft_dpo" and self.train_mode != "continual":
            raise ConfigError("method = sft_dpo trains continually; "
                              "set train_mode = continual")

    @classmethod
    def required_keys(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls) if f.default is MISSING)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        for key in raw:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
        for key in cls.required_keys():
            if key not in raw:
                raise ConfigError(f"missing config key {key!r}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["ablations"] = list(self.ablations)
        return out


@dataclass
class TrainingSets:
    """Per-iteration training data: positive-only and positive-negative pairs."""

    u1: list[tuple[tuple[str, ...], tuple[str, ...]]]
    u2: list[tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]]


@dataclass(frozen=True)
class IterationReport:
    """The one record of an iteration; iteration 0 closes the warmup.

    The last four fields are the analysis quantities (see ``analysis``).
    ``stability`` is None at iteration 0, and ``delta_logp`` is None until an
    iteration has selected U2 pairs to probe.  ``held_out_rate`` is 0.0 when
    the dataset has no held_out tasks, as ``gen-data``'s default makes it.
    """

    iteration: int
    solved_task_ids: tuple[str, ...]
    new_trajectory_count: int
    loss_l1: float
    loss_l2: float
    loss_total: float
    held_in_rate: float
    held_out_rate: float
    exploratory_ability: float
    stability: float | None
    delta_logp: float | None
    diversity: int

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["solved_task_ids"] = list(self.solved_task_ids)
        return out


@dataclass
class RunResult:
    config: RunConfig
    reports: list[IterationReport]
    model: PolicyModel
    pool: CandidatePool
    warmup_task_ids: tuple[str, ...]


def child_seed(*keys: int) -> int:
    """Deterministic derived seed for an (independent) rng stream."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# exploration

def _candidates(model: PolicyModel, tasks: Sequence[TaskInstance], starts: Array,
                rows: Sequence[tuple[int, Sequence[str], str]], config: RunConfig,
                iteration: int) -> list[Trajectory]:
    """Execute and self-score each (i, a, source) row, a solution of
    ``tasks[i]`` explored, refined or given as a warmup witness.

    All rows are scored from their tasks' frame states ``starts[i]`` in one
    self-reward pass (:func:`~symtrain.policy.score_rows`), so a repeated
    (task, a) ties its first occurrence exactly.  Then each row, in order,
    makes one ``execute`` call and one ``score`` call, which looks its r up.
    """
    scored = score_rows(model, starts, [(i, a) for i, a, _ in rows])
    out = []
    for i, a, source in rows:
        task = tasks[i]
        res = execute(config.env, task, a)
        out.append(Trajectory(task.id, task.x, task.y, tuple(a), res.b,
                              score(model, starts[i:i + 1], a, scored[i]), source,
                              iteration, res.status))
    return out


def explore_phase(model: PolicyModel, tasks: Sequence[TaskInstance],
                  config: RunConfig, iteration: int,
                  ) -> list[tuple[Trajectory, Trajectory | None]]:
    """Sample K drafts per task, refine the non-empty ones, and execute and
    self-score every candidate; the pairs come in task order.

    All tasks go through four batched passes: one over the task frames
    ``BOS x SEP``, one ``sample`` call over tasks x K rows, one ``refine``
    call over every non-empty draft, and one self-reward pass over every draft
    and then every refinement (:func:`_candidates`), each scored from its
    task's frame state.  The rewards live for that call only, so no r
    outlives the model it was computed under.
    Task i draws one (K, 2, max_len) block of uniforms from the stream seeded
    by (iteration, i): row [k, 0] holds draft k's uniforms and row [k, 1] its
    refinement's.  So a task's candidates depend on its position only, not on
    the other tasks in the batch; draft k and its refinement do not depend on
    K, since the block is drawn in that order; and the drafts are the same
    whether or not they are refined.
    """
    if not tasks:
        return []
    starts = frame_states(model, [task.x for task in tasks])
    # uniforms[j] is task j // K's block row j % K: [j, 0] for draft j, [j, 1] for
    # its refinement
    uniforms = np.concatenate([
        np.random.default_rng(child_seed(config.seed, _DOM_SAMPLE, iteration, i))
        .random((config.K, 2, config.max_len)) for i in range(len(tasks))])
    samples = sample(model, np.repeat(starts, config.K, axis=0),
                     GenerationParams(config.temperature, config.max_len, len(uniforms)),
                     uniforms[:, 0])
    # an empty draft cannot prompt a refinement
    drafts = ([] if _ablated(config, "no_self_refine")
              else [j for j, a in enumerate(samples) if a])
    refinements = refine(
        model, starts[[j // config.K for j in drafts]], [samples[j] for j in drafts],
        GenerationParams(config.temperature, config.max_len, len(drafts)),
        uniforms[drafts, 1]) if drafts else []
    # draft j and its refinement are solutions of task j // K
    candidates = _candidates(
        model, tasks, starts,
        [(j // config.K, a, "explore") for j, a in enumerate(samples)]
        + [(j // config.K, a, "refine") for j, a in zip(drafts, refinements)],
        config, iteration)
    refined = dict(zip(drafts, candidates[len(samples):]))
    return [(t, refined.get(j)) for j, t in enumerate(candidates[:len(samples)])]


def _ablated(config: RunConfig, name: str) -> bool:
    """Whether the config names ablation ``name`` or its method implies it."""
    return name in config.ablations or name in METHOD_ABLATIONS[config.method]


# ---------------------------------------------------------------------------
# selection

def select_u1(sets: RankedSets, n1: int) -> list[Trajectory]:
    """The n1 top-ranked positives."""
    return list(sets.s_plus[:n1])


def select_u2(sets: RankedSets, n1: int, n2: int) -> list[tuple[Trajectory, Trajectory]]:
    """Positive-negative pairs: pair m uses the positive ranked n1 + m, the
    m-th after U1, and the negative ranked m, for m up to min(n2, |S+| - n1,
    |S-|).  A pair exists only when |S+| > n1, and then |U1| = n1."""
    m_max = min(n2, len(sets.s_plus) - n1, len(sets.s_minus))
    return [(sets.s_plus[m + n1 - 1], sets.s_minus[m - 1]) for m in range(1, m_max + 1)]


def build_training_sets(pool: CandidatePool, tasks: Sequence[TaskInstance],
                        config: RunConfig, iteration: int) -> TrainingSets:
    """U1 and U2 sliced from each task's ranked pool sets, in task order.

    Under ``no_self_reward`` each task's S+ and S- are first put in a random
    order drawn from one seeded stream per iteration, so the same slicing
    takes uniform random subsets instead of the reward-ranked ones.
    """
    rng = (np.random.default_rng(child_seed(config.seed, _DOM_SELECT, iteration))
           if _ablated(config, "no_self_reward") else None)
    u1_entries: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    u2_entries: list[tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]] = []
    for task in tasks:
        sets = pool.ranked_sets(task.id)
        if rng is not None:
            sets = RankedSets([sets.s_plus[i] for i in rng.permutation(len(sets.s_plus))],
                              [sets.s_minus[i] for i in rng.permutation(len(sets.s_minus))])
        u1 = select_u1(sets, config.N1)
        assert all(t.b == 1 for t in u1)
        u1_entries += [(t.x, t.a) for t in u1]
        if not _ablated(config, "no_L2") and config.N2 > 0:
            pairs = select_u2(sets, config.N1, config.N2)
            assert all(p.b == 1 and n.b == 0 for p, n in pairs)
            u2_entries += [(p.x, p.a, n.a) for p, n in pairs]
    return TrainingSets(u1_entries, u2_entries)


# ---------------------------------------------------------------------------
# training

def _encode_examples(model: PolicyModel, sets: TrainingSets,
                     ) -> list[tuple[str, list[int], list[int]]]:
    return ([("L1", condition_ids(model, x), target_ids(model, a_plus))
             for x, a_plus in sets.u1]
            + [("L2", condition_ids(model, x, a_minus), target_ids(model, a_plus))
               for x, a_plus, a_minus in sets.u2])


def _sgd_epochs(model: PolicyModel, items: Sequence,
                losses: Callable[[list], tuple[Array, Array, Tape]],
                config: RunConfig, rng: np.random.Generator, epochs: int, iteration: int,
                what: str) -> list[tuple[list, Array]]:
    """Minibatch SGD over ``epochs`` shuffled passes of the items.

    ``losses(batch)`` runs the batch's one NLL forward and returns each item's
    loss as a (B,) array, the weights w of the forward's examples such that
    ``sum_i w_i nll_i`` has the summed loss's gradient, and the forward's tape,
    whose backward sets every gradient.  Each step descends the summed loss;
    ``what`` names it in the error when it is not finite.  No loss follows the
    last update, so after it each parameter's squared norm is checked instead:
    one that overflows means weights no forward can use.  Returns the final
    epoch's minibatches with their losses, in visit order.
    """
    keep_freed_memory()
    params = model.params
    grads = {name: p.grad for name, p in params.items()}
    visited: list[tuple[list, Array]] = []
    for _ in range(epochs):
        order = rng.permutation(len(items))
        visited = []
        for start in range(0, len(order), config.batch_size):
            batch = [items[int(i)] for i in order[start:start + config.batch_size]]
            values, weights, tape = losses(batch)
            if not math.isfinite(float(values.sum())):
                raise TrainingError(f"non-finite {what} at iteration {iteration}")
            visited.append((batch, values))
            tape.backward(weights)
            sgd_step(params, grads, config.lr, CLIP)
    if not visited:
        return visited  # no update to check
    with np.errstate(over="ignore"):  # an overflow is the finding, not a fault
        for name, p in params.items():
            if not math.isfinite(squared_norm(p.data)):
                raise TrainingError(f"non-finite norm of parameter {name!r} after "
                                    f"the last {what} update at iteration {iteration}")
    return visited


def _run_epochs(model: PolicyModel, examples: Sequence[tuple[str, list[int], list[int]]],
                config: RunConfig, shuffle_seed: int, iteration: int,
                epochs: int | None = None) -> tuple[float, float]:
    """Minibatch SGD on the tagged examples' NLL; returns final-epoch loss sums."""

    def losses(batch: list) -> tuple[Array, Array, Tape]:
        nll, tape = batch_nll(model, [(c, t) for _, c, t in batch])
        return nll, np.ones(len(nll)), tape

    sums = {"L1": 0.0, "L2": 0.0}
    for batch, values in _sgd_epochs(
            model, examples, losses, config, np.random.default_rng(shuffle_seed),
            epochs if epochs is not None else config.epochs_per_iter, iteration, "loss"):
        for (kind, _, _), value in zip(batch, values):
            sums[kind] += float(value)
    return sums["L1"], sums["L2"]


def train_iteration(model: PolicyModel, sets: TrainingSets, config: RunConfig,
                    iteration: int) -> tuple[PolicyModel, float, float]:
    """Retrain the policy on the selected sets; returns (model, L1 sum, L2 sum).

    ``envisions`` and ``star_env`` minimize L1 + L2 over U1 and U2, from fresh
    parameters when the training mode is scratch.  ``sft_dpo`` (always
    continual) fine-tunes on U1 alone, then runs DPO on U2's pairs with that
    fine-tuned model as the reference; its L2 sum is the DPO loss.
    """
    if not sets.u1 and not sets.u2:
        raise ValueError("train_iteration: both training sets are empty")
    if config.train_mode == "scratch":
        model = reinit(model, child_seed(config.seed, _DOM_INIT, iteration))
    sft_dpo = config.method == "sft_dpo"
    examples = _encode_examples(model, TrainingSets(sets.u1, []) if sft_dpo else sets)
    l1_sum, l2_sum = _run_epochs(model, examples, config,
                                 child_seed(config.seed, _DOM_SHUFFLE, iteration),
                                 iteration)
    if sft_dpo:
        l2_sum = _train_dpo_stage(model, sets, config, iteration)
    return model, l1_sum, l2_sum


def dpo_loss(nll_pos: Array, nll_neg: Array, ref_margins: Array,
             beta: float) -> tuple[Array, Array]:
    """Each pair's DPO loss and the weight of its positive's NLL in the gradient.

    The loss is ``-log sigmoid(beta * m)`` with the margin ``m = (nll- - nll+)
    - ref_margin``, where ref_margin is the frozen reference model's
    logp+ - logp-.  Its gradient is ``w+ grad(nll+) + w- grad(nll-)`` with
    ``w+ = -w- = beta * sigmoid(-beta * m)`` (Rafailov et al. 2023, section 4).
    Both use branches in which every exp() argument is non-positive.
    """
    x = ((nll_neg - nll_pos) - ref_margins) * beta
    e_neg = np.exp(-np.maximum(x, 0.0))
    e_pos = np.exp(np.minimum(x, 0.0))
    log_sig = np.where(x >= 0, -np.log1p(e_neg), x - np.log1p(e_pos))
    sig_neg = np.where(x >= 0, e_neg / (1.0 + e_neg), 1.0 / (1.0 + e_pos))
    return -log_sig, beta * sig_neg


def _pair_nlls(model: PolicyModel, pairs: Sequence[tuple]) -> tuple[Array, Array, Tape]:
    """The NLLs of the positives and of the negatives of the (cond, pos, neg, ...)
    pairs, and the tape of their one batch_nll forward, positives first."""
    nll, tape = batch_nll(model, [(cond, pos) for cond, pos, *_ in pairs]
                          + [(cond, neg) for cond, _, neg, *_ in pairs])
    return nll[:len(pairs)], nll[len(pairs):], tape


def _dpo_losses(model: PolicyModel,
                pairs: Sequence[tuple[list[int], list[int], list[int], float]],
                beta: float) -> tuple[Array, Array, Tape]:
    """The pairs' DPO losses, the weights of the NLLs of all positives, then all
    negatives, and the tape of their one batch_nll forward.  Each pair is
    (cond, pos, neg, ref_margin)."""
    nll_pos, nll_neg, tape = _pair_nlls(model, pairs)
    values, w_pos = dpo_loss(nll_pos, nll_neg,
                             np.array([ref_margin for _, _, _, ref_margin in pairs]), beta)
    return values, np.concatenate([w_pos, -w_pos]), tape


def _reference_margins(model: PolicyModel, pairs: Sequence[tuple[list[int], ...]],
                       batch_size: int) -> list[float]:
    """Each (cond, pos, neg) pair's reference margin nll(neg) - nll(pos), i.e.
    logp+ - logp-, in float64: the pairs go in order, at most ``batch_size``
    per forward (a DPO step's rows), and each forward's tape is dropped."""
    margins: list[float] = []
    for k in range(0, len(pairs), batch_size):
        nll_pos, nll_neg, _ = _pair_nlls(model, pairs[k:k + batch_size])
        margins += (nll_neg - nll_pos).tolist()
    return margins


def _train_dpo_stage(model: PolicyModel, sets: TrainingSets, config: RunConfig,
                     iteration: int) -> float:
    encoded = [(condition_ids(model, x), target_ids(model, a_plus), target_ids(model, a_minus))
               for x, a_plus, a_minus in sets.u2]
    # the reference is the model as it enters this stage: every margin is taken
    # before the first DPO step
    pairs = [(*pair, margin) for pair, margin
             in zip(encoded, _reference_margins(model, encoded, config.batch_size))]
    total = 0.0
    for _, values in _sgd_epochs(
            model, pairs, lambda batch: _dpo_losses(model, batch, config.dpo_beta),
            config, np.random.default_rng(child_seed(config.seed, _DOM_SHUFFLE, iteration, 1)),
            config.epochs_per_iter, iteration, "DPO loss"):
        total += float(values.sum())
    return total


# ---------------------------------------------------------------------------
# evaluation

def evaluate(model: PolicyModel, tasks: Sequence[TaskInstance], env: str,
             max_len: int, with_refine: bool = False) -> tuple[float, set[str]]:
    """Greedy solve rate plus the set of solved task ids.

    Every task's greedy solution comes from one batched greedy pass over the
    task frames.  With ``with_refine``, which serves ``symtrain eval
    --with-refine`` (a run never retries), each unsolved task with a non-empty
    output gets one more try: one more batched pass greedily refines those
    outputs in their refine frames.
    """
    outputs = greedy_batch(model, [condition_ids(model, t.x) for t in tasks], max_len)
    solved = {t.id for t, a in zip(tasks, outputs) if execute(env, t, a).b == 1}
    if with_refine:
        retry = [(t, a) for t, a in zip(tasks, outputs) if a and t.id not in solved]
        refined = greedy_batch(model, [condition_ids(model, t.x, a) for t, a in retry],
                               max_len)
        solved |= {t.id for (t, _), a in zip(retry, refined) if execute(env, t, a).b == 1}
    rate = len(solved) / len(tasks) if tasks else 0.0
    return rate, solved


# ---------------------------------------------------------------------------
# the loop

def _check_tokens(vocab: Vocab, tokens: Sequence[str]) -> None:
    """Reject a control token (it would corrupt a frame) or an unknown token."""
    for tok in (tok for tok in tokens if tok in CONTROL_TOKENS):
        raise ValueError(f"control token {tok!r} is reserved for the frames")
    vocab.encode(tokens)


def check_tasks(tasks: Sequence[TaskInstance], env: str, vocab: Vocab) -> None:
    """Raise ValueError, naming the first offending task, on a duplicate task
    id, a task of an env other than ``env``, a task whose x has a control
    token, a token outside ``vocab`` or a layout the env cannot read, or a task
    whose y the env can never produce."""
    ids: set[str] = set()
    for t in tasks:
        if t.id in ids:
            raise ValueError(f"duplicate task id {t.id!r}")
        if t.env != env:
            raise ValueError(f"task {t.id!r} is a {t.env} task, not {env}")
        try:
            _check_tokens(vocab, t.x)
            check_task(env, t)
        except ValueError as exc:
            raise ValueError(f"task {t.id!r}: {exc}") from exc
        ids.add(t.id)


def run(config: RunConfig, dataset: Sequence[TaskInstance],
        witnesses: dict[str, list[str]], out_dir: str | Path | None = None,
        progress: Callable[[str], None] | None = None) -> RunResult:
    """Warmup, then iterate explore/filter/select/train/evaluate.

    Raises ValueError, naming the first offender, on a task :func:`check_tasks`
    rejects, a warmup that leaves no held_in task to evaluate, a witness for
    a task id not in the dataset or with a control token or a token outside the
    vocabulary, or a warmup task without a witness or whose witness does not
    solve it.  Writes reports.jsonl (streamed per iteration), summary.json and
    the final checkpoint and pool when out_dir is given.
    """
    vocab = default_vocab()
    check_tasks(dataset, config.env, vocab)
    ids = {t.id for t in dataset}
    held_in = [t for t in dataset if t.split == "held_in"]
    held_out = [t for t in dataset if t.split == "held_out"]
    if config.warmup_tasks >= len(held_in):
        raise ValueError(f"warmup_tasks = {config.warmup_tasks} leaves none of the "
                         f"dataset's {len(held_in)} held_in tasks to evaluate")
    for task_id, witness in witnesses.items():
        if task_id not in ids:
            raise ValueError(f"witness for unknown task id {task_id!r}")
        try:
            _check_tokens(vocab, witness)
        except ValueError as exc:
            raise ValueError(f"witness of task {task_id!r}: {exc}") from exc
    warmup = held_in[:config.warmup_tasks]
    eval_held_in = held_in[config.warmup_tasks:]
    missing = [t.id for t in warmup if t.id not in witnesses]
    if missing:
        raise ValueError(f"missing witness solutions for warmup tasks: {missing[:3]}")
    for t in warmup:
        res = execute(config.env, t, witnesses[t.id])
        if res.b != 1:
            raise ValueError(f"witness of warmup task {t.id!r} does not solve it: "
                             f"status {res.status.value}, output {res.output!r}")

    out_path = Path(out_dir) if out_dir is not None else None
    reports_fh = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        reports_fh = (out_path / "reports.jsonl").open("w")

    reports: list[IterationReport] = []
    universe = {t.id for t in eval_held_in}

    def close(iteration: int, model: PolicyModel, pool: CandidatePool, new_count: int,
              l1_sum: float, l2_sum: float,
              probe: Sequence[tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]],
              ) -> None:
        """Evaluate both splits, then record, stream and announce the report."""
        held_in_rate, solved = evaluate(model, eval_held_in, config.env, config.max_len)
        held_out_rate, _ = evaluate(model, held_out, config.env, config.max_len)
        solved_before = {task_id for r in reports for task_id in r.solved_task_ids}
        report = IterationReport(
            iteration, tuple(sorted(solved)), new_count, l1_sum, l2_sum,
            l1_sum + l2_sum, held_in_rate, held_out_rate,
            analysis.exploratory_ability(solved, solved_before, universe),
            analysis.stability(solved, set(reports[-1].solved_task_ids)) if reports else None,
            analysis.delta_logp(model, probe), analysis.diversity(pool))
        reports.append(report)
        if reports_fh is not None:
            reports_fh.write(json.dumps(report.as_dict(), sort_keys=True) + "\n")
            reports_fh.flush()
        if progress is not None:
            progress(f"iter={report.iteration} held_in={report.held_in_rate:.4f} "
                     f"held_out={report.held_out_rate:.4f} "
                     f"new_traj={report.new_trajectory_count}")

    try:
        model = PolicyModel(vocab, config.d, config.h,
                            seed=child_seed(config.seed, _DOM_INIT, 0))
        pool = CandidatePool()

        # warmup: behaviour-clone the witness solutions of the seed tasks
        warm_sets = TrainingSets([(t.x, tuple(witnesses[t.id])) for t in warmup], [])
        warm_examples = _encode_examples(model, warm_sets)
        warm_l1, _ = _run_epochs(model, warm_examples, config,
                                 child_seed(config.seed, _DOM_WARMUP), 0,
                                 epochs=config.warmup_epochs)
        # seed the pool with the witnesses, graded and scored as exploration's
        # candidates are
        seeded = pool.update(_candidates(
            model, warmup, frame_states(model, [t.x for t in warmup]),
            [(i, witnesses[t.id], "explore") for i, t in enumerate(warmup)], config, 0))
        close(0, model, pool, seeded, warm_l1, 0.0, [])

        probe: list[tuple[tuple[str, ...], tuple[str, ...], tuple[str, ...]]] = []
        for iteration in range(1, config.iterations + 1):
            pairs = explore_phase(model, held_in, config, iteration)
            filtered = [filter_pair(t, t_tilde) for t, t_tilde in pairs]
            if _ablated(config, "no_candidate_pool"):
                pool = CandidatePool()
            new_count = pool.update(filtered)
            sets = build_training_sets(pool, held_in, config, iteration)
            if not probe and sets.u2:
                # freeze the margin probe at the first iteration with pairs
                probe = list(sets.u2)

            if sets.u1 or sets.u2:
                model, l1_sum, l2_sum = train_iteration(model, sets, config, iteration)
            else:
                l1_sum = l2_sum = 0.0
            close(iteration, model, pool, new_count, l1_sum, l2_sum, probe)
    finally:
        if reports_fh is not None:
            reports_fh.close()

    warmup_ids = tuple(t.id for t in warmup)
    if out_path is not None:
        save_checkpoint(model, out_path / "checkpoint.json",
                        metadata={"warmup_task_ids": list(warmup_ids), "env": config.env,
                                  "method": config.method, "seed": config.seed})
        persist(pool, out_path / "pool.jsonl")
        summary = {
            "config": config.as_dict(),
            "method": config.method,
            "seed": config.seed,
            "iterations": config.iterations,
            "warmup_task_ids": list(warmup_ids),
            "n_held_in": len(held_in),
            "n_eval_held_in": len(eval_held_in),
            "n_held_out": len(held_out),
            "final_held_in_rate": reports[-1].held_in_rate,
            "final_held_out_rate": reports[-1].held_out_rate,
            "final_diversity": reports[-1].diversity,
        }
        (out_path / "summary.json").write_text(json.dumps(summary, sort_keys=True,
                                                          indent=2) + "\n")
    return RunResult(config, reports, model, pool, warmup_ids)

