"""Gradients of weighted per-example NLLs, and the SGD step that uses them.

Every training loss is ``sum_i w_i nll_i`` (see ``engine.dpo_loss``), so no
general graph is recorded.  ``policy.batch_nll``, an SGD step's one forward,
returns its NLLs and their backward, a :class:`Tape`, whose ``backward(w)``
sets the gradient buffer each :class:`Param` owns to that of ``sum_i w_i
nll_i``, so no buffer is ever zeroed.  The backward rules are plain functions
that set what they compute: :func:`output_nll_backward` for the output layer
(:func:`output_nll`), then :func:`gru_sequence_backward`, one BPTT sweep over a
whole id batch (:func:`gru_sequence`, the training forward, which starts from
the zero state); self-reward continues each row from its task-frame state
through :func:`gru_step` (``policy.score_rows``).  Every kernel computes in
its operands' dtype: the policy holds float32 parameters
(``policy.PARAM_DTYPE``), and the checks of the kernels run them on float64
operands.  Each example's NLL is summed over its tokens in float64, and so is
the norm that clips a step (:func:`squared_norm`).

At training sizes (batch <= 8, h = 64) a GRU step costs numpy calls, not
arithmetic, so the kernels keep the work inside the time loop small.  The
input pre-activations ``x @ w_x + b`` of all steps are gathered before the
recurrence from the vocabulary's table (:func:`gru_inputs`), built once per
call (:func:`gru_sequence_inputs`).  :func:`gru_step`, the one step every
caller shares, forms all three gates' recurrent products in one call and
updates the gates in place; and the backward forms the factors of each step's
gradient that do not depend on the gradient flowing back for all steps at
once, so its loop only scales them and carries the gradient into the
previous state.

The layout rule: every operand of a numpy call is contiguous over the block
that call covers, because numpy's strided loops cost far more than its
contiguous ones at these sizes.  A forward step's calls cover one step's
gates, so the forward keeps them gate-major per step, (S, 3, B, h).  A bulk
pass of the backward covers one gate over all steps, so the backward first
copies each gate out whole.  Only the products with ``w_h.T`` and for w_h's
gradient read the row-major ``[dz | dr | dn * r]`` rows they need.

Measured in float64 at S = 75, B = 8, h = 64 (a 2-core x86-64 VM, numpy 2.4,
one OpenBLAS thread): one elementwise pass over a gate takes 71 us as a view
of a row-major (S, B, 3, h) array, 56 us as a view of the per-step
gate-major cache and 23 us contiguous, while copying all three gates out of
the cache takes 38 us.  Inside a step, a call on the z and r blocks takes
0.55 us when they are contiguous and 2.4 us when they are not.  Forming the
inputs of all steps (V = 95 vocabulary rows, d = 32): building the table and
gathering from it take 45-75 us in all at S*B = 160-592 positions, against
59-266 us for the per-position product, bias pass and gate-major copy.

A layout moves data, not arithmetic: each elementwise value comes from the
same operations in the same order in any layout, and every product and sum
keeps its operands and its order, so the results do not move by a bit.
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
    """A second backward on a tape: the first one consumed the forward's cache."""


class TrainingError(RuntimeError):
    """An optimizer step met a non-finite gradient."""


class Param:
    """A parameter array and the gradient buffer it owns, allocated with it and
    set in place by each backward.  It keeps the float dtype it is given;
    other data becomes float64."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad = np.zeros_like(self.data)


class Tape:
    """The one-shot backward of a batched NLL forward, which builds it from its
    example count and its rule; the rule takes the weights w, sets every
    gradient and consumes the forward's cache."""

    def __init__(self, n_examples: int, backward: Callable[[Array], None]) -> None:
        self._n_examples = n_examples
        self._backward: Callable[[Array], None] | None = backward

    def __len__(self) -> int:
        return 1  # the forwards a tape holds

    def backward(self, w: Array) -> None:
        """Set each gradient to that of ``sum_i w_i nll_i``, given the (B,) weights."""
        if self._backward is None:
            raise TapeError("backward already ran on this tape")
        if w.shape != (self._n_examples,):
            raise ShapeError(f"weights of shape {w.shape} for {self._n_examples} examples")
        back, self._backward = self._backward, None
        back(w)


# ---------------------------------------------------------------------------
# the GRU

class GRUCache(NamedTuple):
    """What :func:`gru_sequence_backward` reads of a forward over S steps of B
    rows.  Both arrays are gate-major per step, as the forward's calls read
    them: a step's three (B, h) blocks are one contiguous (3, B, h) block,
    while one gate over all steps is a view that strides from step to step
    (a pass over it costs 2.4x a contiguous one in float64 at S = 75, B = 8,
    h = 64; see the module docstring).  The sweep consumes them."""

    gates: Array  # (S, 3, B, h): the update gate z, the reset gate r, the candidate n
    hw: Array     # (S, 3, B, h): h_prev @ w_h per gate; only the candidate's is kept


def gate_major(a: Array) -> Array:
    """The (3, R, h) view of an ``a[R, 3h]`` whose columns are the gate blocks
    ``[update | reset | cand]``: ``[g]`` is gate g's (R, h) block."""
    return a.reshape(a.shape[0], 3, -1).transpose(1, 0, 2)


def gru_inputs(embed: Array, w_x: Array, b: Array) -> Array:
    """The input pre-activation ``x @ w_x + b`` of every row x of ``embed``,
    gate-major: the (3, V, h) array whose ``[g, v]`` is gate g's block for
    row v, so that ``np.take(xb, ids, axis=1)`` is the (3, B, h) input of
    :func:`gru_step` for the rows ``ids``."""
    xb = embed @ gate_major(w_x)
    xb += gate_major(b)
    return xb


def gru_step(xb: Array, h: Array, w_gates: Array, out: Array | None = None,
             hw: Array | None = None) -> Array:
    """One GRU step of the batch rows from the states ``h[B, h]``; returns h'.

    ``xb[3, B, h]`` holds each row's input pre-activation ``x @ w_x + b``
    gate-major (see :func:`gru_inputs`), and the step overwrites it with the
    gates z, r and n.  ``w_gates`` is ``gate_major(w_h)``, so one product
    ``h @ w_gates`` serves all three gates.  ``out`` takes h' (it may be
    ``h`` or a leading slice of it) and ``hw`` that (3, B, h) product, of
    which the step keeps only the candidate's block ``hw[2]``; both are
    allocated when not given.  xb, h and hw should be contiguous: a strided
    operand costs each call up to 2 us more at these sizes (see the module
    docstring).
    """
    hw = np.matmul(h, w_gates, out=hw)
    zr, n = xb[:2], xb[2]
    zr += hw[:2]
    zr *= 0.5
    np.tanh(zr, out=zr)
    zr += 1.0
    zr *= 0.5  # the sigmoid, as 0.5 * (tanh(a / 2) + 1)
    n += np.multiply(zr[1], hw[2], out=hw[0])  # the spent z block holds r * hw_n
    np.tanh(n, out=n)
    h_new = np.subtract(h, n, out=out)
    h_new *= zr[0]
    h_new += n  # h' = z h + (1 - z) n
    return h_new


def _gru_steps(gates: Array, w_h: Array) -> tuple[Array, GRUCache]:
    """The GRU over the input pre-activations ``gates[S, 3, B, h]``, gate-major
    per step (see :class:`GRUCache`), from the zero state: the (S + 1, B, h)
    states, ``[0]`` the start and ``[t + 1]`` after step t, and the forward's
    cache, whose gates take over ``gates``."""
    n_steps, _, n_batch, n_hidden = gates.shape
    hw = np.empty_like(gates)
    states = np.empty((n_steps + 1, n_batch, n_hidden), dtype=gates.dtype)
    states[0] = 0.0
    w_gates = gate_major(w_h)
    h = states[0]
    for x_t, hw_t, out_t in zip(gates, hw, states[1:]):
        h = gru_step(x_t, h, w_gates, out_t, hw_t)
    return states, GRUCache(gates, hw)


def gru_cell_forward(x: Array, h: Array, w_x: Array, w_h: Array, b: Array,
                     n_hidden: int) -> tuple[Array, GRUCache]:
    """One GRU step of the batch rows ``x[B, d]`` from ``h[B, h]``: h' and the
    step's cache.  x and h are cast to the weights' dtype first, so the step
    runs in the dtype every pass over the weights runs in."""
    x, h = (np.asarray(a, dtype=w_h.dtype) for a in (x, h))
    xb = np.ascontiguousarray(gate_major(x @ w_x + b))
    hw = np.empty_like(xb)
    return gru_step(xb, h, gate_major(w_h), hw=hw), GRUCache(xb[None], hw[None])


def gru_sequence_inputs(embed: Array, ids: Array, w_x: Array, b: Array) -> Array:
    """The input pre-activations ``x @ w_x + b`` of the embedded id batch
    ``ids[B, S]``, gate-major per step: the (S, 3, B, h) input of
    :func:`_gru_steps`.

    It builds the pre-activations of the whole vocabulary once
    (:func:`gru_inputs`), the table every inference pass builds, and gathers
    each position's three gate blocks from it straight into the per-step
    gate-major layout, in one ``np.take``.
    """
    ids = np.asarray(ids, dtype=np.intp)
    vocab = embed.shape[0]
    bad = ids[(ids < 0) | (ids >= vocab)]
    if bad.size:
        raise IndexError(f"gru_sequence_inputs: id {bad[0]} out of range [0, {vocab})")
    # row g*V + v of the (3V, h) table is gate g's block of id v
    table = gru_inputs(embed, w_x, b).reshape(3 * vocab, w_x.shape[1] // 3)
    return np.take(table, ids.T[:, None] + vocab * np.arange(3)[:, None], axis=0)


def gru_sequence(embed: Array, ids: Array, w_x: Array, w_h: Array, b: Array,
                 n_hidden: int) -> tuple[Array, GRUCache]:
    """The training forward: the GRU over the embedded id batch ``ids[B, S]``
    from the zero state, which :func:`gru_sequence_backward` assumes.

    Returns the S*B x h states, row ``t*B + i`` after ``ids[i, t]``, and the
    cache the backward reads.  The inputs of all steps are gathered from the
    vocabulary's table before the recurrence (:func:`gru_sequence_inputs`).
    """
    states, cache = _gru_steps(gru_sequence_inputs(embed, ids, w_x, b), w_h)
    return states[1:].reshape(-1, n_hidden), cache


def gru_sequence_backward(g: Array, ids: Array, states: Array, cache: GRUCache,
                          embed: Param, w_x: Param, w_h: Param, b: Param) -> None:
    """Set the GRU parameters' gradients to those of ``sum(g * states)``.

    ``states`` and ``cache`` are :func:`gru_sequence`'s over ``ids`` from the
    zero state, with the parameters unchanged since; the sweep overwrites
    ``cache``.  The factors of each step's gradient that do not depend on the
    gradient flowing back, ``(h_prev - n) z (1 - z)``, ``hw_n r (1 - r)`` and
    ``(1 - z)(1 - n^2)``, are formed for all steps at once, so the reversed
    time loop only scales them and carries the gradient into h_prev.  Those
    passes run on contiguous (S, B, h) arrays: the gates are copied out of
    the cache's per-step layout first, one copy costing about what one
    strided pass would, and the factors take the spent cache's storage.  The
    loop writes each step's ``[dz | dr | dn * r]`` as one row-major (B, 3h)
    block, the operand of the product with ``w_h.T``.  The candidate's
    gradient dn keeps its own buffer: recovering it from ``dn * r`` would
    divide by r, which is 0 where a gate saturates.  Then one product per
    weight, over the summed rows of each distinct id; the embedding rows of
    the ids the batch does not use get zero.
    """
    n_batch, n_steps = ids.shape
    nh = w_h.data.shape[0]
    # one copy (as cheap as one strided pass) makes each gate's (S, B, h) array
    # contiguous for the passes below
    z, r, n = zrn = np.empty((3, n_steps, n_batch, nh), dtype=cache.gates.dtype)
    zrn[...] = cache.gates.transpose(1, 0, 2, 3)
    # the factors, contiguous, in the spent gates' storage
    one_minus_z, f_z, f_r = cache.gates.reshape(3, n_steps, n_batch, nh)
    np.subtract(1.0, r, out=f_r)
    f_r *= r
    f_r *= cache.hw[:, 2]  # hw_n, read where it is: one pass needs no copy
    np.subtract(1.0, z, out=one_minus_z)
    h = states.reshape(n_steps, n_batch, nh)
    np.negative(n[:1], out=f_z[:1])  # h_prev is zero before the first step
    np.subtract(h[:-1], n[1:], out=f_z[1:])
    f_z *= z
    f_z *= one_minus_z
    n *= n
    np.subtract(1.0, n, out=n)
    dn = one_minus_z
    dn *= n
    # step t's gradient of the pre-activation h_prev @ w_h, [dz | dr | dn * r],
    # row-major, as the product with w_h.T and w_h's gradient read it, in the
    # spent hw's storage
    d = cache.hw.reshape(n_steps, n_batch, 3, nh)
    d_gates = d.transpose(0, 2, 1, 3)  # the same storage, gate-major per step
    w_h_t = w_h.data.T
    g = g.reshape(n_steps, n_batch, nh)
    d_h = np.zeros((n_batch, nh), dtype=zrn.dtype)
    g_t, gz = np.empty((2, n_batch, nh), dtype=zrn.dtype)
    steps = zip(g[::-1], f_z[::-1], f_r[::-1], r[::-1], z[::-1], dn[::-1],
                d.reshape(n_steps, n_batch, 3 * nh)[::-1], d_gates[::-1, 0],
                d_gates[::-1, 1], d_gates[::-1, 2])
    for g_in, f_z_t, f_r_t, r_t, z_t, dn_t, d_t, dz_t, dr_t, dnr_t in steps:
        np.add(g_in, d_h, out=g_t)
        np.multiply(f_z_t, g_t, out=dz_t)
        dn_t *= g_t
        np.multiply(f_r_t, dn_t, out=dr_t)
        np.multiply(r_t, dn_t, out=dnr_t)
        np.matmul(d_t, w_h_t, out=d_h)
        d_h += np.multiply(g_t, z_t, out=gz)
    d_pre = d.reshape(n_steps * n_batch, 3 * nh)
    np.matmul(states[:-n_batch].T, d_pre[n_batch:], out=w_h.grad)
    # dn itself, not dn * r, is the candidate's share of the gradient of x @ w_x + b
    d_gates[:, 2] = dn
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
    np.sum(d_used, axis=0, keepdims=True, out=b.grad)
    np.matmul(embed.data[used].T, d_used, out=w_x.grad)
    embed.grad.fill(0.0)
    embed.grad[used] = d_used @ w_x.data.T


# ---------------------------------------------------------------------------
# the output layer

def output_nll(states: Array, rows: Sequence[int], w_out: Array, b_out: Array,
               targets: Sequence[int], lengths: Sequence[int]) -> tuple[Array, tuple]:
    """Summed NLL of each example's targets under the output layer, summed in
    float64.

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
    idx = np.asarray(rows, dtype=np.intp)
    if len(idx) and (idx.min() < 0 or idx.max() >= len(states)):
        raise IndexError("output_nll: row index out of range")
    if np.bincount(idx, minlength=1).max() > 1:
        raise ValueError("output_nll: a row is picked more than once")
    tgt = np.asarray(targets, dtype=np.intp)
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
    nll = -np.add.reduceat(per_token, np.cumsum(counts) - counts, dtype=np.float64)
    return nll, (len(states), idx, tgt, counts, picked, log_probs)


def output_nll_backward(w: Array, cache: tuple, w_out: Param, b_out: Param) -> Array:
    """Set the output layer's gradients to those of ``sum_i w_i nll_i``.

    ``cache`` is :func:`output_nll`'s.  Returns the gradient with respect to
    the states.
    """
    n_states, idx, tgt, counts, picked, log_probs = cache
    d_logits = np.exp(log_probs)
    d_logits[np.arange(len(tgt)), tgt] -= 1.0
    d_logits *= np.repeat(w, counts)[:, None]
    np.sum(d_logits, axis=0, keepdims=True, out=b_out.grad)
    np.matmul(picked.T, d_logits, out=w_out.grad)
    d_states = np.zeros((n_states, picked.shape[1]), dtype=picked.dtype)
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


CLIP = 5.0  # the global-norm clip of every training step (see sgd_step)


def squared_norm(a: Array) -> float:
    """The sum of the squares of ``a``'s entries, each squared in float64, so a
    float32 entry's square never overflows."""
    return float(np.square(a, dtype=np.float64).sum())


def global_norm(grads: Mapping[str, Array]) -> float:
    return math.sqrt(sum(squared_norm(g) for g in grads.values()))


def sgd_step(params: Mapping[str, Param], grads: Mapping[str, Array],
             lr: float, clip: float) -> Mapping[str, Param]:
    """In-place SGD update with global-norm gradient clipping; ``clip=math.inf``
    never clips.

    The norm is summed in float64 (:func:`squared_norm`).  A step size past
    float32's range multiplies in float64, where a zero gradient's entry
    still moves by 0, not NaN.  An update past the parameter's dtype leaves
    inf there, without a warning, for the next loss or the caller's check
    after the last update to report.
    """
    if lr <= 0:
        raise ValueError(f"sgd_step: lr must be positive, got {lr}")
    if clip <= 0:
        raise ValueError(f"sgd_step: clip must be positive, got {clip}")
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
    norm = global_norm(grads)
    step = lr * (clip / norm if norm > clip else 1.0)
    dtype = np.float64 if step > float(np.finfo(np.float32).max) else None
    with np.errstate(over="ignore"):
        for name, t in params.items():
            g = grads.get(name)
            if g is not None:
                t.data -= np.multiply(step, g, dtype=dtype)
    return params
