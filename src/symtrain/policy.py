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

:func:`batch_nll`, the training forward, runs the GRU over a whole id batch
from the zero state (:func:`~symtrain.autodiff.gru_sequence`), keeps the gate
caches, projects only the states that predict target tokens and returns one
summed NLL per example, together with the forward's backward, a
:class:`~symtrain.autodiff.Tape`: the output layer's rule followed by one
BPTT sweep, which set the model's gradients.  Every loss (L1, L2 and DPO) is
a weighted sum of that vector, and the DPO reference margins are differences
of it (``engine``).

Generation steps all rows of a call together as one batch, each from its
own state and its own uniforms, so one call can serve the rows of many tasks.
Every frame of x starts with the task frame, so its state is computed once per
task: :func:`frame_states` steps the task frames of many tasks in one pass,
keeping only each row's state at the end of its frame.  ``sample`` draws one
row per given state, ``refine`` steps every draft's tail ``a_prev SEP`` from
its task's state in one right-padded pass, and :func:`score_rows`, the
self-reward, steps many rows together, each only ``a EOS`` from its task-frame
state; :func:`score` is its one-row case.
Every solution of a task is thus scored as one conditional, p(a | x), by one
computation, whether sampling or refinement drew it or it is a warmup
witness.  So r is a function of (task, a) under one model, and the pass
takes each task's dict of rewards already computed: a duplicate sample, or a
refinement that copies its draft, gets its first occurrence's r without a
second row.  :func:`greedy_batch` runs the frames of many tasks, of any
lengths, in one right-padded pass from the zero state; :func:`greedy_decode`
is its one-row case.  Then every row steps with the same GRU step
(:func:`~symtrain.autodiff.gru_step`), and a row leaves the batch when it emits
EOS, and a scored row when its target ends.  A call computes the input product
``x @ w_x + b`` of the whole vocabulary once
(:func:`~symtrain.autodiff.gru_inputs`), so a step only looks up its rows'
inputs; ``batch_nll`` gathers the inputs of all its steps from that table
before its recurrence (:func:`~symtrain.autodiff.gru_sequence_inputs`).  Each
sampled row draws its t-th token by inverse CDF with the t-th of its own row
of uniforms, which the caller draws, over its logits in float64 less their
maximum and divided by the temperature, so a tiny temperature gives the
greedy limit; a greedy row takes the argmax.  A row's states move with its
batch's makeup in the last bits only, so its tokens do not depend on the
other rows except where a uniform falls within that noise of an inverse-CDF
boundary.  No row ever emits PAD, BOS or SEP.

Every pass computes in the parameters' dtype, float32 (``PARAM_DTYPE``).
The NLLs (and so the DPO reference margins) and the self-rewards are summed
over their tokens in float64.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from symtrain.autodiff import (Array, Param, Tape, _gru_steps, gate_major, gru_inputs,
                               gru_sequence, gru_sequence_backward, gru_sequence_inputs,
                               gru_step, log_softmax, output_nll, output_nll_backward)

PAD, BOS, EOS, SEP = "<pad>", "<bos>", "<eos>", "<sep>"
CONTROL_TOKENS = (PAD, BOS, EOS, SEP)

CHECKPOINT_FORMAT = "symtrain-checkpoint"
CHECKPOINT_VERSION = 4

INIT_SCALE = 0.08  # parameters drawn uniform in [-INIT_SCALE, INIT_SCALE]
PARAM_DTYPE = np.float32  # every model's parameters, and so every pass over them
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
        if not 0 < self.temperature < math.inf:
            raise ValueError(f"temperature must be a finite positive number, "
                             f"got {self.temperature}")
        if self.max_len < 1:
            raise ValueError(f"max_len must be >= 1, got {self.max_len}")
        if self.k_samples < 1:
            raise ValueError(f"k_samples must be >= 1, got {self.k_samples}")


class PolicyModel:
    """GRU policy: parameters plus hyperparameters.

    Gate layout inside the fused weight matrices is ``[update | reset | cand]``
    along the 3h column axis.  The parameters are drawn in float64 and held
    as ``PARAM_DTYPE``.
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
            return Param(rng.uniform(-INIT_SCALE, INIT_SCALE, shape).astype(PARAM_DTYPE))

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

def _longest_first(seqs: Sequence[Sequence[int]]) -> tuple[Array, Array, list[int]]:
    """The ragged id rows ``seqs`` laid out longest first: the stable order of
    the rows by falling length, the (S, B) ids, right-padded with zeros, whose
    column k is row ``order[k]``, and ``going``, whose [t] is how many rows, a
    prefix of the columns, have a token t (``going[S]`` is 0)."""
    lengths = np.array([len(seq) for seq in seqs], dtype=np.intp)
    order = np.argsort(-lengths, kind="stable")
    n_steps = int(lengths.max(initial=0))
    ids = np.zeros((n_steps, len(seqs)), dtype=np.intp)
    for row, i in enumerate(order.tolist()):
        ids[:lengths[i], row] = seqs[i]
    going = [int((lengths > t).sum()) for t in range(n_steps)] + [0]
    return order, ids, going


def _frame_states(model: PolicyModel, frames: Sequence[list[int]],
                  start: Array | None = None) -> Array:
    """The (B, h) GRU states after each encoded frame, from one right-padded pass
    from the zero state or from ``start``, the (B, h) states the frames continue.

    The rows run longest first, and a row leaves the batch at the end of its
    frame, so only each row's last state is kept.
    """
    p = {k: t.data for k, t in model.params.items()}
    order, ids, going = _longest_first(frames)
    xb = gru_inputs(p["embed"], p["w_x"], p["b"])
    w_gates = gate_major(p["w_h"])
    h = np.zeros((len(frames), model.h), dtype=xb.dtype) if start is None else start[order]
    out = np.empty((len(frames), model.h), dtype=xb.dtype)
    for t in range(len(ids)):
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
                         target_ids: Sequence[int]) -> Array:
    """Log-probability of each target token given the condition prefix.

    The GRU steps ``cond_ids`` and the target from the zero state, as
    ``batch_nll`` does, and keeps nothing for a backward.  The loop no longer
    calls it: the DPO reference margins come from ``batch_nll``.
    """
    tgt = np.asarray(target_ids, dtype=np.intp)
    p = model.params
    gates = gru_sequence_inputs(p["embed"].data, [[*cond_ids, *target_ids[:-1]]],
                                p["w_x"].data, p["b"].data)
    states, _ = _gru_steps(gates, p["w_h"].data)
    # the zero state and the states after each token but the last target
    h_rows = states.reshape(-1, model.h)[len(cond_ids):]
    logits = h_rows @ p["w_out"].data + p["b_out"].data
    return log_softmax(logits)[np.arange(len(tgt)), tgt]


def _draw_tokens(logits: Array, u: Array) -> Array:
    """One token per row by inverse CDF: row i takes the first token whose
    cumulative weight ``exp(logits)`` reaches ``1 - u[i]`` of the row's total.

    Each row's largest logit should be 0 (:func:`_generate` subtracts it), so
    no weight overflows.  With u in [0, 1) the threshold is positive and at
    most the total, so a token of weight zero (a masked logit) is never drawn.
    """
    cdf = np.cumsum(np.exp(logits), axis=1)
    return (cdf < ((1.0 - u) * cdf[:, -1])[:, None]).sum(axis=1)


def _generate(model: PolicyModel, states: Array, params: GenerationParams,
              uniforms: Array | None) -> list[list[int]]:
    """One solution per row of ``states``, the (B, h) states after each row's frame.

    Greedy when uniforms is None.  Otherwise row i draws its t-th token with
    ``uniforms[i, t]``, from the (B, max_len) uniforms in [0, 1).  EOS is
    consumed, not returned.  PAD, BOS and SEP are never emitted: a SEP inside
    a draft would corrupt the refine frame.
    """
    p = {k: t.data for k, t in model.params.items()}
    b_out = p["b_out"].copy()
    b_out[:, [model.vocab.pad_id, model.vocab.bos_id, model.vocab.sep_id]] = -np.inf
    xb = gru_inputs(p["embed"], p["w_x"], p["b"])
    w_gates = gate_major(p["w_h"])
    rows = np.arange(len(states))
    h = states
    out: list[list[int]] = [[] for _ in rows]
    for t in range(params.max_len):
        logits = h @ p["w_out"] + b_out
        if uniforms is None:
            tokens = logits.argmax(axis=1)
        else:
            # in float64, where a tiny temperature is not 0
            logits = logits.astype(np.float64, copy=False)
            logits -= logits.max(axis=1, keepdims=True)
            # at a tiny temperature every logit below the max overflows to -inf,
            # weight 0: the greedy limit
            with np.errstate(over="ignore"):
                logits /= params.temperature
            tokens = _draw_tokens(logits, uniforms[rows, t])
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


def _rows_agree(what: str, params: GenerationParams, uniforms: Array,
                **rows: Sequence) -> None:
    if any(len(v) != params.k_samples for v in rows.values()):
        raise ValueError(f"{what}: " + ", ".join(f"{len(v)} {k}" for k, v in rows.items())
                         + f" and k_samples={params.k_samples} must agree")
    if np.shape(uniforms) != (params.k_samples, params.max_len):
        raise ValueError(f"{what}: uniforms of shape {np.shape(uniforms)}, not (k_samples, "
                         f"max_len) = ({params.k_samples}, {params.max_len})")


def sample(model: PolicyModel, states: Array, params: GenerationParams,
           uniforms: Array) -> list[list[str]]:
    """Draw one solution from each row of ``states``, the (B, h) task-frame
    states (see :func:`frame_states`); row i draws its t-th token with
    ``uniforms[i, t]``.

    ``params.k_samples`` must equal the number of rows, and ``uniforms`` must
    have the shape (k_samples, max_len).
    """
    _rows_agree("sample", params, uniforms, states=states)
    return [model.vocab.decode(ids) for ids in _generate(model, states, params, uniforms)]


def refine(model: PolicyModel, states: Array, drafts: Sequence[Sequence[str]],
           params: GenerationParams, uniforms: Array) -> list[list[str]]:
    """Draw one refinement of each draft; draft i continues from states[i], the
    task-frame state of its task (see :func:`frame_states`), and draws its t-th
    token with ``uniforms[i, t]``.

    All the drafts' tails ``a_prev SEP`` step in one right-padded pass.
    ``params.k_samples`` must equal the number of drafts, and ``uniforms``
    must have the shape (k_samples, max_len).
    """
    _rows_agree("refine", params, uniforms, states=states, drafts=drafts)
    if not all(drafts):
        raise ValueError("refine: previous solutions must be non-empty")
    states = _frame_states(model, [draft_ids(model, a) for a in drafts], states)
    return [model.vocab.decode(ids) for ids in _generate(model, states, params, uniforms)]


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
            for ids in _generate(model, _frame_states(model, frames), gen, None)]


def greedy_decode(model: PolicyModel, x: Sequence[str], max_len: int,
                  a_prev: Sequence[str] | None = None) -> list[str]:
    """The greedy solution for x, or the greedy refinement of the draft a_prev:
    the one-row case of :func:`greedy_batch`."""
    return greedy_batch(model, [condition_ids(model, x, a_prev)], max_len)[0]


_REWARD_ROWS = 128  # the most rows one reward pass steps (see score_rows)


def _rewards(model: PolicyModel, states: Array, targets: Sequence[list[int]]) -> Array:
    """The (B,) self-rewards of the encoded targets ``a EOS``, target i continued
    from ``states[i]``: the summed log-probabilities of its tokens over its
    length.

    The rows run longest first.  Each step projects the live rows' states and
    then steps the rows whose target goes on, so a row leaves the batch when
    its target ends, and no row's states over its tokens are kept.
    """
    p = {k: t.data for k, t in model.params.items()}
    order, ids, going = _longest_first(targets)
    xb = gru_inputs(p["embed"], p["w_x"], p["b"])
    w_gates = gate_major(p["w_h"])
    h = states[order]
    rows = np.arange(len(targets))
    total = np.zeros(len(targets))
    for t in range(len(ids)):
        n, n_next = going[t], going[t + 1]
        # the log-softmax of each live row's logits, at its token t only
        logits = h[:n] @ p["w_out"] + p["b_out"]
        logits -= logits.max(axis=1, keepdims=True)
        total[:n] += logits[rows[:n], ids[t, :n]] - np.log(np.exp(logits).sum(axis=1))
        if n_next:
            gru_step(np.take(xb, ids[t, :n_next], axis=1), h[:n_next], w_gates,
                     out=h[:n_next])
    out = np.empty(len(targets))
    out[order] = total
    return out / np.array([len(target) for target in targets])


def score_rows(model: PolicyModel, starts: Array,
               scored: Sequence[dict[tuple[str, ...], float]],
               items: Iterable[tuple[int, Sequence[str]]]) -> None:
    """Self-reward each (i, a) of ``items`` that ``scored[i]`` does not hold
    yet, and store its r in ``scored[i]`` under ``tuple(a)``.

    r = p(a | x) is the length-normalized log-probability of ``a`` and EOS
    (nats per token) from ``starts[i]``, the state after task i's frame ``BOS
    x SEP`` (a row of :func:`frame_states`).  ``scored[i]`` holds the rewards
    already computed from that state under this model, so the caller keeps it
    no longer than both (one per task and phase).  Each new (i, a) is one row:
    the rows step together, longest first, at most ``_REWARD_ROWS`` at a time.
    A row's r moves with its pass's makeup in float32's last bits only (see
    ``pool.REWARD_TIE``).

    A refinement is scored so too, not in its refine frame, since the pool and
    the U1/U2 ranking compare every candidate on one scale.  Over the
    benchmark's 18 parity runs, the AUROC of r against b per (task, iteration)
    over refinements was 0.679/0.744/0.792 (expr/logic/grid) from the task
    frame, against 0.607/0.718/0.571 from the refine frame.  An empty solution
    scores EOS alone.
    """
    new = [(i, a) for i, a in dict.fromkeys((i, tuple(a)) for i, a in items)
           if a not in scored[i]]
    # longest first, so the rows of each pass are of like lengths
    new.sort(key=lambda row: -len(row[1]))
    for k in range(0, len(new), _REWARD_ROWS):
        rows = new[k:k + _REWARD_ROWS]
        rewards = _rewards(model, starts[[i for i, _ in rows]],
                           [target_ids(model, a) for _, a in rows])
        for (i, a), r in zip(rows, rewards.tolist()):
            scored[i][a] = r


def score(model: PolicyModel, start: Array, a: Sequence[str],
          scored: dict[tuple[str, ...], float] | None = None) -> float:
    """The self-reward r of ``a`` from ``start``, the (1, h) task-frame state:
    the one-row case of :func:`score_rows`.  ``scored``, if given, is the
    task's dict of rewards already computed from ``start`` under this model:
    a stored ``a`` is looked up, and a new one is computed and stored."""
    scored = {} if scored is None else scored
    score_rows(model, start, [scored], [(0, a)])
    return scored[tuple(a)]


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

_CHECKPOINT_SLICE = 1024  # parameter values encoded at a time


def save_checkpoint(model: PolicyModel, path: str | Path,
                    metadata: dict | None = None) -> Path:
    """Write a versioned JSON checkpoint: vocab, hyperparams and params.

    The file holds ``json.dumps(payload, sort_keys=True)`` of the payload
    ``{format, version, d, h, vocab, params, metadata}``, written in slices of
    ``_CHECKPOINT_SLICE`` values of one parameter, so only one slice is ever
    held as Python floats and text (a whole default-size ``w_h``, 12,288
    values, held so was the peak memory of a run).  The other fields are
    encoded before the file is opened, so metadata JSON cannot encode leaves
    no file.
    """
    texts = {key: json.dumps(value, sort_keys=True) for key, value in (
        ("format", CHECKPOINT_FORMAT), ("version", CHECKPOINT_VERSION), ("d", model.d),
        ("h", model.h), ("vocab", model.vocab.tokens), ("metadata", metadata or {}))}
    path = Path(path)
    with path.open("w") as f:
        for i, key in enumerate(sorted([*texts, "params"])):
            f.write(("{" if i == 0 else ", ") + json.dumps(key) + ": ")
            if key in texts:
                f.write(texts[key])
                continue
            for j, name in enumerate(sorted(model.params)):
                data = model.params[name].data
                f.write(("{" if j == 0 else ", ") + json.dumps(name) + ": "
                        + '{"shape": ' + json.dumps(list(data.shape)) + ', "values": [')
                values = data.reshape(-1)
                for k in range(0, values.size, _CHECKPOINT_SLICE):
                    # each slice's list text without its brackets
                    f.write((", " if k else "")
                            + json.dumps(values[k:k + _CHECKPOINT_SLICE].tolist())[1:-1])
                f.write("]}")
            f.write("}")
        f.write("}")
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
            with np.errstate(over="raise"):  # a value past the dtype's range is corrupt
                arr = np.asarray(params[name]["values"], dtype=tensor.data.dtype)
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
    except (KeyError, TypeError, ValueError, FloatingPointError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    return model, metadata
