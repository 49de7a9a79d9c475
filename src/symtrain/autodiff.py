"""Gradients of weighted per-example NLLs, and the SGD step that uses them.

Every training loss is ``sum_i w_i nll_i`` (see ``engine.dpo_loss``), so no
general graph is recorded.  A :class:`Tape` holds one record per
``policy.batch_nll`` call of an SGD step, and ``Tape.backward(weights)`` adds
``sum_i w_i grad(nll_i)`` into the gradient buffer each :class:`Param` owns.
The backward rules are plain functions: :func:`output_nll_backward` for the
output layer (:func:`output_nll`), then :func:`gru_sequence_backward`, one
BPTT sweep over a whole id batch (:func:`gru_sequence`).  All is float64.
"""

from __future__ import annotations

import ctypes
import math
from typing import Callable, Mapping, Sequence

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class TapeError(RuntimeError):
    """Tape misuse: weights that do not match the records, or a spent tape."""


class TrainingError(RuntimeError):
    """An optimizer step met a non-finite gradient."""


class Param:
    """A float64 parameter array and the gradient buffer it owns: allocated
    with it, added into by backward rules, refilled by :func:`zero_grads`."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)


class Tape:
    """The batched NLL forwards of one SGD step: each record is a forward's
    example count and its backward rule, which takes the weights w."""

    def __init__(self) -> None:
        self._records: list[tuple[int, Callable[[Array], None]]] = []
        self._spent = False

    def __len__(self) -> int:
        return len(self._records)

    def record(self, n_examples: int, backward: Callable[[Array], None]) -> None:
        self._records.append((n_examples, backward))

    def backward(self, weights: Sequence[Array]) -> None:
        """Add the gradient of ``sum_i w_i nll_i``, given one (B,) weight vector
        per record in recording order; a tape allows one sweep.  The records run
        last first, so sums into a shared buffer (the embedding's scatter-add
        among them) always form in one order."""
        if self._spent:
            raise TapeError("backward already ran on this tape")
        if len(weights) != len(self._records):
            raise TapeError(f"{len(weights)} weight vectors for "
                            f"{len(self._records)} records")
        for (n_examples, _), w in zip(self._records, weights):
            if w.shape != (n_examples,):
                raise ShapeError(f"weights of shape {w.shape} for {n_examples} examples")
        self._spent = True
        for (_, back), w in zip(reversed(self._records), reversed(weights)):
            back(w)


# ---------------------------------------------------------------------------
# the GRU

def gru_cell_forward(x: Array, h: Array, w_x: Array, w_h: Array, b: Array,
                     n_hidden: int) -> tuple[Array, tuple[Array, Array, Array, Array]]:
    """Shared GRU step arithmetic (batch rows); returns h' and gate cache."""
    nh = n_hidden
    xw = x @ w_x
    hw = h @ w_h
    zr = 0.5 * (np.tanh(0.5 * ((xw[:, :2 * nh] + hw[:, :2 * nh]) + b[:, :2 * nh]))
                + 1.0)
    z = zr[:, :nh]
    r = zr[:, nh:]
    hw_n = hw[:, 2 * nh:]
    n = np.tanh((xw[:, 2 * nh:] + r * hw_n) + b[:, 2 * nh:])
    h_new = (z * h) + ((z * -1.0 + 1.0) * n)
    return h_new, (z, r, n, hw_n)


def gru_sequence_forward(x_steps: Array, w_x: Array, w_h: Array, b: Array,
                         n_hidden: int, caches: list | None = None,
                         h0: Array | None = None) -> Array:
    """GRU over inputs ``x_steps[S, B, d]`` from the state ``h0[B, h]`` (zero by default).

    Returns the S*B x h states, row ``t*B + i`` after step t of row i, and
    appends each step's gate cache to ``caches`` when one is given.
    """
    n_steps, n_batch = x_steps.shape[:2]
    h = np.zeros((n_batch, n_hidden)) if h0 is None else h0
    states = np.empty((n_steps * n_batch, n_hidden))
    for t in range(n_steps):
        h, cache = gru_cell_forward(x_steps[t], h, w_x, w_h, b, n_hidden)
        states[t * n_batch:(t + 1) * n_batch] = h
        if caches is not None:
            caches.append(cache)
    return states


def gru_sequence(embed: Array, ids: Array, w_x: Array, w_h: Array, b: Array,
                 n_hidden: int, caches: list | None = None) -> Array:
    """GRU over the embedded id batch ``ids[B, S]`` from a zero state.

    Returns the S*B x h states; row ``t*B + i`` follows ``ids[i, t]``.  Given
    ``caches``, it collects what :func:`gru_sequence_backward` reads.
    """
    ids = np.asarray(ids, dtype=np.intp)
    vocab = embed.shape[0]
    bad = ids[(ids < 0) | (ids >= vocab)]
    if bad.size:
        raise IndexError(f"gru_sequence: id {bad[0]} out of range [0, {vocab})")
    return gru_sequence_forward(embed[ids.T], w_x, w_h, b, n_hidden, caches)


def gru_sequence_backward(g: Array, ids: Array, states: Array, caches: list,
                          embed: Param, w_x: Param, w_h: Param, b: Param) -> None:
    """Add the gradient of ``sum(g * states)`` into the GRU parameters' buffers.

    ``states`` and ``caches`` are :func:`gru_sequence`'s over ``ids``, with the
    parameters unchanged since.  One reversed BPTT sweep, then one product per
    weight and one scatter-add into the embedding table.
    """
    n_batch, n_hidden = ids.shape[0], w_h.data.shape[0]
    # one buffer: the pre-activation gradients of x @ w_x, later rescaled in
    # place into those of h @ w_h
    d_pre = np.empty((len(states), 3 * n_hidden))
    d_h = np.zeros((n_batch, n_hidden))
    for t in range(len(caches) - 1, -1, -1):
        rows = slice(t * n_batch, (t + 1) * n_batch)
        z, r, n, hw_n = caches[t]
        h_prev = states[rows.start - n_batch:rows.start] if t else 0.0
        g_t = g[rows] + d_h
        dn_pre = (g_t * (1.0 - z)) * (1.0 - n * n)
        d = d_pre[rows]
        d[:, :n_hidden] = (g_t * (h_prev - n)) * (z * (1.0 - z))
        d[:, n_hidden:2 * n_hidden] = (dn_pre * hw_n) * (r * (1.0 - r))
        d[:, 2 * n_hidden:] = dn_pre
        d_hw = np.concatenate([d[:, :2 * n_hidden], dn_pre * r], axis=1)
        d_h = g_t * z + d_hw @ w_h.data.T
    x_rows = embed.data[ids.T].reshape(len(states), -1)
    b.grad += d_pre.sum(axis=0, keepdims=True)
    w_x.grad += x_rows.T @ d_pre
    np.add.at(embed.grad, ids.T.reshape(-1), d_pre @ w_x.data.T)
    for t, (_, r, _, _) in enumerate(caches):
        d_pre[t * n_batch:(t + 1) * n_batch, 2 * n_hidden:] *= r
    w_h.grad += states[:-n_batch].T @ d_pre[n_batch:]


# ---------------------------------------------------------------------------
# the output layer

def output_nll(states: Array, rows: Sequence[int], w_out: Array, b_out: Array,
               targets: Sequence[int], lengths: Sequence[int]) -> tuple[Array, tuple]:
    """Summed NLL of each example's targets under the output layer.

    Row ``states[rows[k]]`` predicts ``targets[k]`` through the logits
    ``states[rows[k]] @ w_out + b_out``; example i owns the next
    ``lengths[i]`` of those rows.  The log-softmax subtracts each row's max.
    Returns the (B,) NLLs and the cache :func:`output_nll_backward` reads.
    """
    if states.ndim != 2 or w_out.ndim != 2 or states.shape[1] != w_out.shape[0]:
        raise ShapeError(f"output_nll: incompatible shapes {states.shape} x {w_out.shape}")
    vocab = w_out.shape[1]
    if b_out.shape != (1, vocab):
        raise ShapeError(f"output_nll: bias {b_out.shape} for {vocab} logits")
    idx = np.asarray(list(rows), dtype=np.intp)
    if len(idx) and (idx.min() < 0 or idx.max() >= len(states)):
        raise IndexError("output_nll: row index out of range")
    tgt = np.asarray(list(targets), dtype=np.intp)
    if not len(tgt):
        raise ValueError("output_nll: empty targets")
    if len(tgt) != len(idx):
        raise ShapeError(f"output_nll: {len(idx)} rows vs {len(tgt)} targets")
    bad = tgt[(tgt < 0) | (tgt >= vocab)]
    if bad.size:
        raise IndexError(f"output_nll: target {bad[0]} out of range [0, {vocab})")
    counts = np.asarray(lengths, dtype=np.intp)
    if counts.ndim != 1 or (counts < 1).any() or counts.sum() != len(idx):
        raise ShapeError(f"output_nll: lengths {list(lengths)} do not "
                         f"partition {len(idx)} rows")
    picked = states[idx]
    log_probs = log_softmax(picked @ w_out + b_out)
    per_token = log_probs[np.arange(len(tgt)), tgt]
    nll = -np.add.reduceat(per_token, np.cumsum(counts) - counts)
    return nll, (len(states), idx, tgt, counts, picked, log_probs)


def output_nll_backward(w: Array, cache: tuple, w_out: Param, b_out: Param) -> Array:
    """Add the gradient of ``sum_i w_i nll_i`` into the output layer's buffers.

    ``cache`` is :func:`output_nll`'s.  Returns the gradient with respect to
    the states.
    """
    n_states, idx, tgt, counts, picked, log_probs = cache
    d_logits = np.exp(log_probs)
    d_logits[np.arange(len(tgt)), tgt] -= 1.0
    d_logits *= np.repeat(w, counts)[:, None]
    b_out.grad += d_logits.sum(axis=0, keepdims=True)
    w_out.grad += picked.T @ d_logits
    d_states = np.zeros((n_states, picked.shape[1]))
    np.add.at(d_states, idx, d_logits @ w_out.data.T)
    return d_states


def log_softmax(logits: Array) -> Array:
    """Row-wise log-softmax, stabilized by per-row max subtraction."""
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# the optimizer

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters


def keep_freed_memory() -> None:
    """Ask glibc's malloc to keep freed memory for reuse (elsewhere, a no-op).

    A training step frees megabytes of temporaries that the next step
    allocates again.  By default glibc returns a large free heap top to the
    system and maps big arrays anew, so every step faults them in again: in
    whole logic_train runs 400-480 minor faults per step, 4-5 with this.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def zero_grads(params: Mapping[str, Param]) -> None:
    """Refill every parameter's gradient buffer with zeros."""
    for p in params.values():
        p.grad.fill(0.0)


def global_norm(grads: Mapping[str, Array]) -> float:
    return math.sqrt(sum(float((g * g).sum()) for g in grads.values()))


def sgd_step(params: Mapping[str, Param], grads: Mapping[str, Array],
             lr: float, clip: float) -> Mapping[str, Param]:
    """In-place SGD update with global-norm gradient clipping; ``clip=math.inf``
    never clips."""
    if lr <= 0:
        raise ValueError(f"sgd_step: lr must be positive, got {lr}")
    if clip <= 0:
        raise ValueError(f"sgd_step: clip must be positive, got {clip}")
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
    norm = global_norm(grads)
    scale = clip / norm if norm > clip else 1.0
    for name, t in params.items():
        g = grads.get(name)
        if g is not None:
            t.data -= lr * scale * g
    return params
