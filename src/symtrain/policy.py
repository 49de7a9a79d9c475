"""Autoregressive token policy: embedding + single-layer GRU + projection.

Every step conditions on one of two frames, and :func:`condition_ids` alone
builds them: the task frame ``BOS x SEP`` to solve task x, and the refine frame
``BOS x SEP a_prev SEP``, the task frame followed by the draft's tail
``a_prev SEP`` (:func:`draft_ids`), to refine the draft a_prev.  Generation
and training share the frames, so refinement can be learned from contrastive
pairs; self-reward reads the task frame alone.  The target after either frame
is the solution and EOS (:func:`target_ids`).  A frame is never cut: a GRU has
no context window, and a draft is at most ``max_len`` tokens, which the run
configuration bounds by the longest solution ``execute`` grades.

One batched forward pass (:func:`~symtrain.autodiff.gru_sequence`) runs the
GRU over a whole id batch: :func:`sequence_token_logps` for the log-probability
of each target token, and :func:`batch_nll` for training.  ``batch_nll`` keeps
the gate caches, projects only the states that predict target tokens and
returns one summed NLL per example, together with the forward's backward, a
:class:`~symtrain.autodiff.Tape`: the output layer's rule followed by one
BPTT sweep, which set the model's gradients.  Every loss (L1, L2 and DPO) is
a weighted sum of that vector.  Self-reward and the losses thus come from the
same per-token log-probabilities.

Generation steps all rows of a call together as one batch, each from its
own state and with its own seed, so one call can serve the rows of many tasks.
Every frame of x starts with the task frame, so its state is computed once per
task: :func:`frame_states` steps the task frames of many tasks in one pass,
keeping only each row's state at the end of its frame.  ``sample`` draws one
row per given state, ``refine`` steps every draft's tail ``a_prev SEP`` from
its task's state in one right-padded pass, and :func:`score`, the self-reward,
continues from a task-frame state and steps only ``a EOS``.  Every solution of
a task is thus scored as one conditional, p(a | x), by one computation,
whether sampling or refinement drew it or it is a warmup witness.
:func:`greedy_batch` runs the frames of many tasks, of any lengths, in one
right-padded pass from the zero state; :func:`greedy_decode` is its one-row
case.  Then every row steps with the same GRU step
(:func:`~symtrain.autodiff.gru_step`), and a row leaves the batch when it emits
EOS.  A call computes the input product ``x @ w_x + b`` of the whole vocabulary
once (:func:`~symtrain.autodiff.gru_inputs`), so a step only looks up its rows'
inputs, as ``sequence_token_logps`` and ``batch_nll`` compute theirs for all
steps in one product.  Each sampled row draws its tokens by inverse CDF from
uniforms of its own seeded stream, and a greedy row takes the argmax.  A row's
states move with its batch's makeup in the last bits only, so its tokens do not
depend on the other rows except where a uniform falls within that noise of an
inverse-CDF boundary.  No row ever emits PAD, BOS or SEP.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from symtrain.autodiff import (Array, Param, Tape, gru_sequence, gru_sequence_backward,
                               gate_major, gru_inputs, gru_step, log_softmax,
                               output_nll, output_nll_backward)

PAD, BOS, EOS, SEP = "<pad>", "<bos>", "<eos>", "<sep>"
CONTROL_TOKENS = (PAD, BOS, EOS, SEP)

CHECKPOINT_FORMAT = "symtrain-checkpoint"
CHECKPOINT_VERSION = 3

INIT_SCALE = 0.08  # parameters drawn uniform in [-INIT_SCALE, INIT_SCALE]
DEFAULT_D, DEFAULT_H = 32, 64


class CheckpointError(RuntimeError):
    """Checkpoint file is missing, corrupt, or from an incompatible version."""


class Vocab:
    """Token/id bijection; control tokens first, grammar tokens after."""

    def __init__(self, tokens: Sequence[str]):
        tokens = list(tokens)
        if tokens[: len(CONTROL_TOKENS)] != list(CONTROL_TOKENS):
            raise ValueError("vocabulary must start with the control tokens")
        if len(set(tokens)) != len(tokens):
            raise ValueError("duplicate tokens in vocabulary")
        self._tokens = tokens
        self._ids = {t: i for i, t in enumerate(tokens)}

    def __len__(self) -> int:
        return len(self._tokens)

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)

    @property
    def pad_id(self) -> int:
        return 0

    @property
    def bos_id(self) -> int:
        return 1

    @property
    def eos_id(self) -> int:
        return 2

    @property
    def sep_id(self) -> int:
        return 3

    def encode(self, tokens: Sequence[str]) -> list[int]:
        try:
            return [self._ids[t] for t in tokens]
        except KeyError as exc:
            raise ValueError(f"token {exc.args[0]!r} not in vocabulary") from None

    def decode(self, ids: Sequence[int]) -> list[str]:
        return [self._tokens[i] for i in ids]


def default_vocab() -> Vocab:
    """Shared vocabulary covering all three environment grammars."""
    tokens = list(CONTROL_TOKENS)
    tokens += [str(d) for d in range(10)]
    tokens += [chr(c) for c in range(ord("a"), ord("z") + 1)]
    tokens += [chr(c) for c in range(ord("A"), ord("Z") + 1)]
    tokens += ["+", "-", "*", "/", "%", "(", ")", ";", "=", ",", ".", "?", ":-"]
    tokens += ["fact", "rule", "query", "if", "then",
               "grid", "start", "goal", "wall",
               "sum", "diff", "prod", "quot", "mod", "true", "false"]
    return Vocab(tokens)


@dataclass
class GenerationParams:
    """Sampling knobs: softmax temperature, length cap, and ``k_samples``, the
    rows of one call: one per state for ``sample``, one per draft for ``refine``
    and one per frame for ``greedy_batch``."""

    temperature: float
    max_len: int
    k_samples: int

    def __post_init__(self) -> None:
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")
        if self.k_samples < 1:
            raise ValueError(f"k_samples must be >= 1, got {self.k_samples}")


class PolicyModel:
    """GRU policy: parameters plus hyperparameters.

    Gate layout inside the fused weight matrices is ``[update | reset | cand]``
    along the 3h column axis.
    """

    def __init__(self, vocab: Vocab, d: int = DEFAULT_D, h: int = DEFAULT_H, seed: int = 0):
        self.vocab = vocab
        self.d = d
        self.h = h
        self.params = self._init_params(seed)

    def _init_params(self, seed: int) -> dict[str, Param]:
        rng = np.random.default_rng(seed)
        v, d, h = len(self.vocab), self.d, self.h

        def uniform(*shape: int) -> Param:
            return Param(rng.uniform(-INIT_SCALE, INIT_SCALE, shape))

        return {
            "embed": uniform(v, d),
            "w_x": uniform(d, 3 * h),
            "w_h": uniform(h, 3 * h),
            "b": uniform(1, 3 * h),
            "w_out": uniform(h, v),
            "b_out": uniform(1, v),
        }


def reinit(model: PolicyModel, seed: int) -> PolicyModel:
    """Fresh parameters from the init distribution; vocabulary unchanged."""
    return PolicyModel(model.vocab, model.d, model.h, seed)


# ---------------------------------------------------------------------------
# conditioning

def condition_ids(model: PolicyModel, x: Sequence[str],
                  a_prev: Sequence[str] | None = None) -> list[int]:
    """The encoded frame ``BOS x SEP``, or ``BOS x SEP a_prev SEP`` given a draft."""
    frame = model.vocab.encode([BOS, *x, SEP])
    if a_prev is not None:
        frame += draft_ids(model, a_prev)
    return frame


def draft_ids(model: PolicyModel, a_prev: Sequence[str]) -> list[int]:
    """The encoded tail ``a_prev SEP`` that turns the task frame into a refine frame."""
    return model.vocab.encode([*a_prev, SEP])


def target_ids(model: PolicyModel, a: Sequence[str]) -> list[int]:
    """The encoded target ``a EOS``."""
    return model.vocab.encode([*a, EOS])


# ---------------------------------------------------------------------------
# forward pass

def _frame_states(model: PolicyModel, frames: Sequence[list[int]],
                  start: Array | None = None) -> Array:
    """The (B, h) GRU states after each encoded frame, from one right-padded pass
    from the zero state or from ``start``, the (B, h) states the frames continue.

    The rows run longest first, and a row leaves the batch at the end of its
    frame, so only each row's last state is kept.
    """
    p = {k: t.data for k, t in model.params.items()}
    lengths = np.array([len(frame) for frame in frames], dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    n_steps = int(lengths.max(initial=0))
    ids = np.full((n_steps, len(frames)), model.vocab.pad_id, dtype=np.intp)
    for row, i in enumerate(order.tolist()):
        ids[:lengths[i], row] = frames[i]
    # going[t]: how many rows, a prefix of the sorted batch, have a token t
    going = [int((lengths > t).sum()) for t in range(n_steps)] + [0]
    xb = gru_inputs(p["embed"], p["w_x"], p["b"])
    w_gates = gate_major(p["w_h"])
    h = np.zeros((len(frames), model.h)) if start is None else start[order]
    out = np.empty((len(frames), model.h))
    for t in range(n_steps):
        n, done = going[t], going[t + 1]
        gru_step(np.take(xb, ids[t, :n], axis=1), h[:n], w_gates, out=h[:n])
        out[order[done:n]] = h[done:n]
    return out


def frame_states(model: PolicyModel, xs: Sequence[Sequence[str]]) -> Array:
    """The (B, h) GRU states after each task frame ``BOS x SEP``, from one pass."""
    if not all(xs):
        raise ValueError("frame_states: every input x must be non-empty")
    return _frame_states(model, [condition_ids(model, x) for x in xs])


def sequence_token_logps(model: PolicyModel, cond_ids: Sequence[int],
                         target_ids: Sequence[int], start: Array | None = None) -> Array:
    """Log-probability of each target token given the condition prefix.

    The GRU steps ``cond_ids`` and the target from the zero state, as
    ``batch_nll`` does (the DPO reference margins), or from ``start``, the
    (1, h) state after the first tokens of the condition; then ``cond_ids``
    holds only the condition tokens after those.
    """
    tgt = np.asarray(target_ids, dtype=np.intp)
    ids = np.asarray([[*cond_ids, *target_ids[:-1]]], dtype=np.intp)
    p = model.params
    h0 = np.zeros((1, model.h)) if start is None else start
    states, _ = gru_sequence(p["embed"].data, ids, p["w_x"].data, p["w_h"].data,
                             p["b"].data, model.h, h0)
    h_rows = np.vstack([h0, states])[len(cond_ids):]
    logits = h_rows @ p["w_out"].data + p["b_out"].data
    return log_softmax(logits)[np.arange(len(tgt)), tgt]


def _draw_tokens(logits: Array, u: Array) -> Array:
    """One token per row by inverse CDF: row i takes the first token whose
    cumulative weight reaches ``1 - u[i]`` of the row's total.

    With u in [0, 1) the threshold is positive and at most the total, so a
    token of weight zero (a masked logit) is never drawn.
    """
    cdf = np.cumsum(np.exp(logits - logits.max(axis=1, keepdims=True)), axis=1)
    return (cdf < ((1.0 - u) * cdf[:, -1])[:, None]).sum(axis=1)


def _generate(model: PolicyModel, states: Array, params: GenerationParams,
              rngs: Sequence[np.random.Generator] | None) -> list[list[int]]:
    """One solution per row of ``states``, the (B, h) states after each row's frame.

    Greedy when rngs is None.  Otherwise row i draws its t-th token with the
    t-th uniform of its own stream ``rngs[i]``.  EOS is consumed, not returned.
    PAD, BOS and SEP are never emitted: a SEP inside a draft would corrupt the
    refine frame.
    """
    p = {k: t.data for k, t in model.params.items()}
    b_out = p["b_out"].copy()
    b_out[:, [model.vocab.pad_id, model.vocab.bos_id, model.vocab.sep_id]] = -np.inf
    if rngs is not None:
        uniforms = np.stack([rng.random(params.max_len) for rng in rngs])
    xb = gru_inputs(p["embed"], p["w_x"], p["b"])
    w_gates = gate_major(p["w_h"])
    rows = np.arange(len(states))
    h = states
    out: list[list[int]] = [[] for _ in rows]
    for t in range(params.max_len):
        logits = h @ p["w_out"] + b_out
        if rngs is None:
            tokens = logits.argmax(axis=1)
        else:
            tokens = _draw_tokens(logits / params.temperature, uniforms[rows, t])
        ids = tokens.tolist()
        if model.vocab.eos_id in ids:
            going = tokens != model.vocab.eos_id
            rows, h, tokens = rows[going], h[going], tokens[going]
            ids = tokens.tolist()
        for i, token in zip(rows.tolist(), ids):
            out[i].append(token)
        if not ids or t == params.max_len - 1:
            break
        h = gru_step(np.take(xb, tokens, axis=1), h, w_gates)
    return out


def _rows_agree(what: str, params: GenerationParams, **rows: Sequence) -> None:
    if any(len(v) != params.k_samples for v in rows.values()):
        raise ValueError(f"{what}: " + ", ".join(f"{len(v)} {k}" for k, v in rows.items())
                         + f" and k_samples={params.k_samples} must agree")


def sample(model: PolicyModel, states: Array, params: GenerationParams,
           seeds: Sequence[int | np.random.SeedSequence]) -> list[list[str]]:
    """Draw one solution from each row of ``states``, the (B, h) task-frame
    states (see :func:`frame_states`); row i draws from the stream seeds[i].

    ``params.k_samples`` must equal the number of rows.
    """
    _rows_agree("sample", params, states=states, seeds=seeds)
    return [model.vocab.decode(ids) for ids in _generate(
        model, states, params, [np.random.default_rng(s) for s in seeds])]


def refine(model: PolicyModel, states: Array, drafts: Sequence[Sequence[str]],
           params: GenerationParams,
           seeds: Sequence[int | np.random.SeedSequence]) -> list[list[str]]:
    """Draw one refinement of each draft; draft i continues from states[i], the
    task-frame state of its task (see :func:`frame_states`), and draws from the
    stream seeds[i].

    All the drafts' tails ``a_prev SEP`` step in one right-padded pass.
    ``params.k_samples`` must equal the number of drafts.
    """
    _rows_agree("refine", params, states=states, drafts=drafts, seeds=seeds)
    if not all(drafts):
        raise ValueError("refine: previous solutions must be non-empty")
    states = _frame_states(model, [draft_ids(model, a) for a in drafts], states)
    return [model.vocab.decode(ids) for ids in _generate(
        model, states, params, [np.random.default_rng(s) for s in seeds])]


def greedy_batch(model: PolicyModel, frames: Sequence[list[int]],
                 max_len: int) -> list[list[str]]:
    """The greedy solution after each encoded frame (see :func:`condition_ids`).

    All frames go through one right-padded pass and one batched generation.
    An empty list of frames returns ``[]`` without generating.
    """
    if not frames:
        return []
    gen = GenerationParams(temperature=1.0, max_len=max_len, k_samples=len(frames))
    return [model.vocab.decode(ids)
            for ids in _generate(model, _frame_states(model, frames), gen, rngs=None)]


def greedy_decode(model: PolicyModel, x: Sequence[str], max_len: int,
                  a_prev: Sequence[str] | None = None) -> list[str]:
    """The greedy solution for x, or the greedy refinement of the draft a_prev:
    the one-row case of :func:`greedy_batch`."""
    return greedy_batch(model, [condition_ids(model, x, a_prev)], max_len)[0]


def score(model: PolicyModel, start: Array, a: Sequence[str]) -> float:
    """The self-reward r = p(a | x): the length-normalized log-probability of
    ``a`` and EOS (nats per token) from ``start``, the (1, h) state after the
    task frame ``BOS x SEP`` (a row of :func:`frame_states`).

    A refinement is scored so too, not in its refine frame, since the pool and
    the U1/U2 ranking compare every candidate on one scale.  Over the
    benchmark's 18 parity runs, the AUROC of r against b per (task, iteration)
    over refinements was 0.679/0.744/0.792 (expr/logic/grid) from the task
    frame, against 0.607/0.718/0.571 from the refine frame.  An empty solution
    scores EOS alone.
    """
    target = target_ids(model, a)
    return float(sequence_token_logps(model, [], target, start).sum() / len(target))


# ---------------------------------------------------------------------------
# losses

def batch_nll(model: PolicyModel,
              examples: Sequence[tuple[list[int], list[int]]]) -> tuple[Array, Tape]:
    """NLL of each encoded (condition_ids, target_ids) example, as a (B,) array,
    and its backward: ``tape.backward(w)`` sets the model's gradients to those
    of ``sum_i w_i nll_i``.

    Sequences are right-padded to a common length; only genuine target
    positions are projected and enter the loss.
    """
    n_batch = len(examples)
    if n_batch == 0:
        raise ValueError("batch_nll: no examples")
    n_cond = np.array([len(c) for c, _ in examples], dtype=np.intp)
    n_target = np.array([len(t) for _, t in examples], dtype=np.intp)
    if not n_target.all():
        raise ValueError("batch_nll: empty target")
    n_seq = n_cond + n_target
    ids = np.full((n_batch, n_seq.max()), model.vocab.pad_id, dtype=np.intp)
    tokens = chain.from_iterable(chain.from_iterable(examples))  # cond, then target
    ids[np.arange(ids.shape[1]) < n_seq[:, None]] = np.fromiter(tokens, dtype=np.intp,
                                                                count=n_seq.sum())
    targets = np.fromiter(chain.from_iterable(t for _, t in examples), dtype=np.intp,
                          count=n_target.sum())
    # target k of example i is predicted by the state after its condition's last
    # token and k target tokens: state row (len(cond) - 1 + k) * B + i
    first = np.cumsum(n_target) - n_target
    indices = ((np.arange(len(targets)) + np.repeat(n_cond - 1 - first, n_target)) * n_batch
               + np.repeat(np.arange(n_batch), n_target))
    p = model.params
    states, gru_cache = gru_sequence(p["embed"].data, ids[:, :-1], p["w_x"].data,
                                     p["w_h"].data, p["b"].data, model.h)
    nll, cache = output_nll(states, indices, p["w_out"].data, p["b_out"].data, targets,
                            n_target)
    return nll, Tape(n_batch, lambda w: gru_sequence_backward(
        output_nll_backward(w, cache, p["w_out"], p["b_out"]), ids[:, :-1], states,
        gru_cache, p["embed"], p["w_x"], p["w_h"], p["b"]))


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(model: PolicyModel, path: str | Path,
                    metadata: dict | None = None) -> Path:
    """Write a versioned JSON checkpoint: vocab, hyperparams and params."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "d": model.d,
        "h": model.h,
        "vocab": model.vocab.tokens,
        "params": {k: {"shape": list(t.data.shape), "values": t.data.reshape(-1).tolist()}
                   for k, t in model.params.items()},
        "metadata": metadata or {},
    }
    path = Path(path)
    path.write_text(json.dumps(payload, sort_keys=True))
    return path


def load_checkpoint(path: str | Path) -> tuple[PolicyModel, dict]:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a policy checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {payload.get('version')} unsupported "
            f"(expected {CHECKPOINT_VERSION})")
    try:
        model = PolicyModel(Vocab(payload["vocab"]), payload["d"], payload["h"])
        params = payload["params"]
        if not isinstance(params, dict):
            raise CheckpointError(f"{path}: params must be an object")
        odd = sorted(set(params) ^ set(model.params))
        if odd:
            raise CheckpointError(f"{path}: parameter {odd[0]!r} is "
                                  f"{'unknown' if odd[0] in params else 'missing'}")
        for name, tensor in model.params.items():
            arr = np.asarray(params[name]["values"], dtype=np.float64)
            shape = tuple(params[name]["shape"])
            if shape != tensor.data.shape:
                raise CheckpointError(f"{path}: parameter {name!r} has shape {shape}, "
                                      f"expected {tensor.data.shape}")
            if arr.size != int(np.prod(shape)):
                raise CheckpointError(f"parameter {name}: value count mismatch")
            tensor.data = arr.reshape(shape)
        metadata = payload.get("metadata", {})
        if not isinstance(metadata, dict):
            raise CheckpointError(f"{path}: metadata must be an object")
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    return model, metadata
