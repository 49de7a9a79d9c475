"""Gradients of weighted per-example NLLs, and the SGD step that uses them.

Every training loss is ``sum_i w_i nll_i`` (see ``engine.dpo_loss``), so no
general graph is recorded.  A :class:`Tape` holds one record per
``policy.batch_nll`` call of an SGD step, and ``Tape.backward(weights)`` adds
``sum_i w_i grad(nll_i)`` into the gradient buffer each :class:`Param` owns.
The backward rules are plain functions: :func:`output_nll_backward` for the
output layer (:func:`output_nll`), then :func:`gru_sequence_backward`, one
BPTT sweep over a whole id batch (:func:`gru_sequence`).  All is float64.

At training sizes (batch <= 8, h = 64) a GRU step costs numpy calls, not
arithmetic, so the kernels keep the work inside the time loop small.  The
input product ``x @ w_x + b`` runs once for all steps, outside the
recurrence; :func:`gru_step`, the one step every caller shares, updates the
gates in place on contiguous gate-major blocks; and the backward forms the
factors of each step's gradient that do not depend on the gradient flowing
back for all steps at once, so its loop only scales them and carries the
gradient into the previous state.
"""

from __future__ import annotations

import ctypes
import math
from typing import Callable, Mapping, NamedTuple, Sequence

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
        last first, so sums into a shared buffer (the embedding's among them)
        always form in one order."""
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

class GRUCache(NamedTuple):
    """What :func:`gru_sequence_backward` reads of a forward over S steps of B
    rows, contiguous per step.  The sweep consumes it."""

    gates: Array  # (S, 3, B, h): the update gate z, the reset gate r, the candidate n
    hw_n: Array   # (S, B, h): the candidate block of h_prev @ w_h


def gru_inputs(embed: Array, w_x: Array, b: Array) -> Array:
    """The input pre-activation ``x @ w_x + b`` of every id, gate-major: the
    (3, V, h) array whose ``[g, v]`` is gate g's block for id v, so that
    ``np.take(xb, ids, axis=1)`` is the (3, B, h) input of :func:`gru_step`
    for the rows ``ids``."""
    vocab, width = embed.shape[0], w_x.shape[1]
    return np.ascontiguousarray(
        (embed @ w_x + b).reshape(vocab, 3, width // 3).transpose(1, 0, 2))


def gru_step(xb: Array, h: Array, w_h: Array, out: Array | None = None,
             hw_n: Array | None = None) -> Array:
    """One GRU step of the batch rows from the states ``h[B, h]``; returns h'.

    ``xb[3, B, h]`` holds each row's input pre-activation ``x @ w_x + b``
    gate-major (see :func:`gru_inputs`), and the step overwrites it with the
    gates z, r and n.  ``out`` takes h' (it may be ``h`` itself) and ``hw_n``
    the candidate block of ``h @ w_h``; both are allocated when not given.
    Every operand is contiguous: numpy's strided loops cost about a
    microsecond more per call at these sizes.
    """
    nh = h.shape[1]
    w_gates = w_h.reshape(nh, 3, nh).transpose(1, 0, 2)  # [g] is gate g's (h, h) block
    zr, n = xb[:2], xb[2]
    zr += h @ w_gates[:2]
    zr *= 0.5
    np.tanh(zr, out=zr)
    zr += 1.0
    zr *= 0.5  # the sigmoid, as 0.5 * (tanh(a / 2) + 1)
    hw_n = np.matmul(h, w_gates[2], out=hw_n)
    n += zr[1] * hw_n
    np.tanh(n, out=n)
    h_new = np.subtract(h, n, out=out)
    h_new *= zr[0]
    h_new += n  # h' = z h + (1 - z) n
    return h_new


def _gru_steps(xb: Array, w_h: Array, n_hidden: int,
               h0: Array | None) -> tuple[Array, GRUCache]:
    """The GRU over the input pre-activations ``xb[S, B, 3h]`` from ``h0``
    (zero by default): the S*B x h states, row ``t*B + i`` after step t of
    row i, and the forward's cache, whose gates take over a gate-major copy
    of xb."""
    n_steps, n_batch = xb.shape[:2]
    xb = np.ascontiguousarray(
        xb.reshape(n_steps, n_batch, 3, n_hidden).transpose(0, 2, 1, 3))
    states = np.empty((n_steps, n_batch, n_hidden))
    hw_n = np.empty((n_steps, n_batch, n_hidden))
    h = np.zeros((n_batch, n_hidden)) if h0 is None else h0
    for t in range(n_steps):
        h = gru_step(xb[t], h, w_h, states[t], hw_n[t])
    return states.reshape(n_steps * n_batch, n_hidden), GRUCache(xb, hw_n)


def gru_cell_forward(x: Array, h: Array, w_x: Array, w_h: Array, b: Array,
                     n_hidden: int) -> tuple[Array, GRUCache]:
    """One GRU step of the batch rows ``x[B, d]`` from ``h[B, h]``: h' and the
    step's cache, the one-step case of :func:`gru_sequence`."""
    return _gru_steps((x @ w_x + b)[None], w_h, n_hidden, h)


def gru_sequence(embed: Array, ids: Array, w_x: Array, w_h: Array, b: Array,
                 n_hidden: int, h0: Array | None = None) -> tuple[Array, GRUCache]:
    """GRU over the embedded id batch ``ids[B, S]`` from the states ``h0[B, h]``
    (zero by default).

    Returns the S*B x h states, row ``t*B + i`` after ``ids[i, t]``, and the
    cache :func:`gru_sequence_backward` reads.  The input pre-activations
    ``x @ w_x + b`` of all steps come from one product.
    """
    ids = np.asarray(ids, dtype=np.intp)
    vocab = embed.shape[0]
    bad = ids[(ids < 0) | (ids >= vocab)]
    if bad.size:
        raise IndexError(f"gru_sequence: id {bad[0]} out of range [0, {vocab})")
    n_batch, n_steps = ids.shape
    xb = embed[ids.T.reshape(-1)] @ w_x + b
    return _gru_steps(xb.reshape(n_steps, n_batch, 3 * n_hidden), w_h, n_hidden, h0)


def gru_sequence_backward(g: Array, ids: Array, states: Array, cache: GRUCache,
                          embed: Param, w_x: Param, w_h: Param, b: Param) -> None:
    """Add the gradient of ``sum(g * states)`` into the GRU parameters' buffers.

    ``states`` and ``cache`` are :func:`gru_sequence`'s over ``ids`` from the
    zero state, with the parameters unchanged since; the sweep overwrites
    ``cache``.  The factors of each step's gradient that do not depend on the
    gradient flowing back, ``(h_prev - n) z (1 - z)``, ``hw_n r (1 - r)`` and
    ``(1 - z)(1 - n^2)``, are formed for all steps at once, in one (S*B, 3h)
    buffer and in place of n, so the reversed time loop only scales them and
    carries the gradient into h_prev.  The candidate's gradient dn keeps its
    own buffer: recovering it from ``dn * r`` would divide by r, which is 0
    where a gate saturates.  Then one product per weight, over the summed
    rows of each distinct id.
    """
    n_batch, n_steps = ids.shape
    nh = w_h.data.shape[0]
    z, r, dn = cache.gates[:, 0], cache.gates[:, 1], cache.gates[:, 2]
    h = states.reshape(n_steps, n_batch, nh)
    # step t's gradient of the pre-activation h_prev @ w_h, [dz | dr | dn * r]
    d = np.empty((n_steps, n_batch, 3, nh))
    one_minus_z = np.subtract(1.0, z, out=d[:, :, 1])  # until the dr factor
    np.negative(dn[:1], out=d[:1, :, 0])  # h_prev is zero before the first step
    np.subtract(h[:-1], dn[1:], out=d[1:, :, 0])
    d[:, :, 0] *= z
    d[:, :, 0] *= one_minus_z
    dn *= dn
    np.subtract(1.0, dn, out=dn)
    dn *= one_minus_z
    np.subtract(1.0, r, out=d[:, :, 1])
    d[:, :, 1] *= r
    d[:, :, 1] *= cache.hw_n
    d[:, :, 2] = r
    w_h_t = w_h.data.T
    g = g.reshape(n_steps, n_batch, nh)
    d_h = np.zeros((n_batch, nh))
    for t in range(n_steps - 1, -1, -1):
        g_t = g[t] + d_h
        d_t = d[t]
        d_t[:, 0] *= g_t
        dn[t] *= g_t
        d_t[:, 1:] *= dn[t][:, None]
        d_h = d_t.reshape(n_batch, 3 * nh) @ w_h_t
        d_h += g_t * z[t]
    d_pre = d.reshape(n_steps * n_batch, 3 * nh)
    w_h.grad += states[:-n_batch].T @ d_pre[n_batch:]
    # dn itself, not dn * r, is the candidate's share of the gradient of x @ w_x + b
    d[:, :, 2] = dn
    flat = ids.T.reshape(-1)
    order = np.argsort(flat, kind="stable")
    sorted_ids = flat[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1])))
    used = sorted_ids[starts]
    # the spent gates' storage takes d_pre's rows in id order; mode="clip" (the
    # indices are all in range) lets take write there without a buffer
    by_id = np.take(d_pre, order, axis=0, out=cache.gates.reshape(len(flat), 3 * nh),
                    mode="clip")
    d_used = np.add.reduceat(by_id, starts)  # summed over the rows of each id
    b.grad += d_used.sum(axis=0, keepdims=True)
    w_x.grad += embed.data[used].T @ d_used
    embed.grad[used] += d_used @ w_x.data.T


# ---------------------------------------------------------------------------
# the output layer

def output_nll(states: Array, rows: Sequence[int], w_out: Array, b_out: Array,
               targets: Sequence[int], lengths: Sequence[int]) -> tuple[Array, tuple]:
    """Summed NLL of each example's targets under the output layer.

    Row ``states[rows[k]]`` predicts ``targets[k]`` through the logits
    ``states[rows[k]] @ w_out + b_out``; example i owns the next
    ``lengths[i]`` of those rows.  The rows are distinct: each state predicts
    at most one target.  The log-softmax subtracts each row's max.
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
    if np.bincount(idx, minlength=1).max() > 1:
        raise ValueError("output_nll: a row is picked more than once")
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
    d_states[idx] = d_logits @ w_out.data.T
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
