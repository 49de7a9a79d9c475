"""Reverse-mode automatic differentiation on an explicit tape.

Everything is float64 and shapes are ordinary numpy shapes.  Apart from the
output layer's bias row, no op broadcasts one tensor against another: ``add``
takes equal shapes and ``mul`` scales by a number, so every backward rule
below stays short enough to audit by eye.  Two ops carry the model.  The GRU
is one record for a whole id batch, and its backward is a single BPTT rule
for the sequence, not one record per timestep.  The output layer is one record
too: it picks the state rows that predict targets, projects them to logits and
returns each example's summed NLL.
"""

from __future__ import annotations

import math
from typing import Callable, Mapping, Sequence

import numpy as np

Array = np.ndarray


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class TapeError(RuntimeError):
    """Tape misuse: non-scalar loss, foreign loss, or a spent tape."""


class TrainingError(RuntimeError):
    """An optimizer step met a non-finite gradient."""


class Tensor:
    """Dense float64 array with an optional gradient slot."""

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape})"


def _accumulate(t: Tensor, g: Array) -> None:
    # copy on first touch: g may be shared with other inputs or be a view
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


class Tape:
    """Ordered record of operations; one backward sweep per tape.

    Operations are recorded in execution order, so every record's inputs were
    produced earlier on the tape and a single reversed sweep visits each
    record exactly once.
    """

    def __init__(self) -> None:
        self._records: list[tuple[Tensor, Callable[[Array], None]]] = []
        self._produced: set[int] = set()
        self._spent = False

    def __len__(self) -> int:
        return len(self._records)

    def _record(self, out: Tensor, backward: Callable[[Array], None]) -> Tensor:
        self._records.append((out, backward))
        self._produced.add(id(out))
        return out

    # -- pointwise -----------------------------------------------------

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        if a.shape != b.shape:
            raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
        out = Tensor(a.data + b.data)

        def back(g: Array, a=a, b=b) -> None:
            _accumulate(a, g)
            _accumulate(b, g)

        return self._record(out, back)

    def mul(self, a: Tensor, c: float) -> Tensor:
        """Scale every entry by the number c."""
        c = float(c)
        out = Tensor(a.data * c)

        def back(g: Array, a=a, c=c) -> None:
            _accumulate(a, g * c)

        return self._record(out, back)

    def log_sigmoid(self, a: Tensor) -> Tensor:
        x = a.data
        # branch so every exp() argument is non-positive
        y = np.where(x >= 0, -np.log1p(np.exp(-np.maximum(x, 0.0))),
                     x - np.log1p(np.exp(np.minimum(x, 0.0))))
        out = Tensor(y)

        def back(g: Array, a=a) -> None:
            x = a.data
            e_neg = np.exp(-np.maximum(x, 0.0))
            e_pos = np.exp(np.minimum(x, 0.0))
            sig_neg = np.where(x >= 0, e_neg / (1.0 + e_neg), 1.0 / (1.0 + e_pos))
            _accumulate(a, g * sig_neg)

        return self._record(out, back)

    # -- structural ----------------------------------------------------

    def gru_sequence(self, embed: Tensor, ids: Array, w_x: Tensor, w_h: Tensor,
                     b: Tensor, n_hidden: int) -> Tensor:
        """GRU over the embedded id batch ``ids[B, S]`` from a zero state.

        Returns the S*B x h states; row ``t*B + i`` follows ``ids[i, t]``.  The
        forward is :func:`gru_sequence_forward`; the backward is one reversed
        BPTT sweep, then one product per weight and one scatter-add into the
        embedding table.
        """
        ids = np.asarray(ids, dtype=np.intp)
        vocab = embed.shape[0]
        bad = ids[(ids < 0) | (ids >= vocab)]
        if bad.size:
            raise IndexError(f"gru_sequence: id {bad[0]} out of range [0, {vocab})")
        x_steps = embed.data[ids.T]
        caches: list[tuple[Array, Array, Array, Array]] = []
        out = Tensor(gru_sequence_forward(x_steps, w_x.data, w_h.data, b.data,
                                          n_hidden, caches))

        def back(g: Array, embed=embed, w_x=w_x, w_h=w_h, b=b, out=out) -> None:
            n_batch = ids.shape[0]
            states = out.data
            # one buffer: the pre-activation gradients of x @ w_x, later
            # rescaled in place into those of h @ w_h
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
            x_rows = x_steps.reshape(len(states), -1)
            _accumulate(b, d_pre.sum(axis=0, keepdims=True))
            _accumulate(w_x, x_rows.T @ d_pre)
            if embed.grad is None:
                embed.grad = np.zeros_like(embed.data)
            np.add.at(embed.grad, ids.T.reshape(-1), d_pre @ w_x.data.T)
            for t, (_, r, _, _) in enumerate(caches):
                d_pre[t * n_batch:(t + 1) * n_batch, 2 * n_hidden:] *= r
            _accumulate(w_h, states[:-n_batch].T @ d_pre[n_batch:])

        return self._record(out, back)

    def output_nll(self, states: Tensor, rows: Sequence[int], w_out: Tensor,
                   b_out: Tensor, targets: Sequence[int], lengths: Sequence[int]) -> Tensor:
        """Summed NLL of each example's targets under the output layer.

        Row ``states[rows[k]]`` predicts ``targets[k]`` through the logits
        ``states[rows[k]] @ w_out + b_out``; example i owns the next
        ``lengths[i]`` of those rows.  The log-softmax subtracts each row's max.
        """
        if states.data.ndim != 2 or w_out.data.ndim != 2 or \
                states.shape[1] != w_out.shape[0]:
            raise ShapeError(f"output_nll: incompatible shapes {states.shape} x {w_out.shape}")
        vocab = w_out.shape[1]
        if b_out.shape != (1, vocab):
            raise ShapeError(f"output_nll: bias {b_out.shape} for {vocab} logits")
        idx = np.asarray(list(rows), dtype=np.intp)
        if len(idx) and (idx.min() < 0 or idx.max() >= len(states.data)):
            raise IndexError("output_nll: row index out of range")
        targets = list(targets)
        if not targets:
            raise ValueError("output_nll: empty targets")
        if len(targets) != len(idx):
            raise ShapeError(f"output_nll: {len(idx)} rows vs {len(targets)} targets")
        for t in targets:
            if not 0 <= t < vocab:
                raise IndexError(f"output_nll: target {t} out of range [0, {vocab})")
        counts = np.asarray(lengths, dtype=np.intp)
        if counts.ndim != 1 or (counts < 1).any() or counts.sum() != len(idx):
            raise ShapeError(f"output_nll: lengths {list(lengths)} do not "
                             f"partition {len(idx)} rows")
        tgt = np.asarray(targets, dtype=np.intp)
        picked = states.data[idx]
        log_probs = log_softmax(picked @ w_out.data + b_out.data)
        per_token = log_probs[np.arange(len(tgt)), tgt]
        out = Tensor(-np.add.reduceat(per_token, np.cumsum(counts) - counts))
        softmax = np.exp(log_probs)

        def back(g: Array, states=states, w_out=w_out, b_out=b_out) -> None:
            d_logits = softmax.copy()
            d_logits[np.arange(len(tgt)), tgt] -= 1.0
            d_logits *= np.repeat(g, counts)[:, None]
            _accumulate(b_out, d_logits.sum(axis=0, keepdims=True))
            _accumulate(w_out, picked.T @ d_logits)
            if states.grad is None:
                states.grad = np.zeros_like(states.data)
            np.add.at(states.grad, idx, d_logits @ w_out.data.T)

        return self._record(out, back)

    def sum(self, a: Tensor) -> Tensor:
        """Sum of every entry, as a scalar."""
        out = Tensor(a.data.sum())

        def back(g: Array, a=a) -> None:
            _accumulate(a, np.broadcast_to(g, a.shape))

        return self._record(out, back)

    # -- backward ------------------------------------------------------

    def backward(self, loss: Tensor) -> None:
        """Populate .grad on every tensor reachable from loss.

        A tape supports exactly one backward sweep; a second call raises.
        """
        if self._spent:
            raise TapeError("backward already ran on this tape")
        if id(loss) not in self._produced:
            raise TapeError("loss was not produced on this tape")
        if loss.shape != ():
            raise TapeError(f"loss must be scalar, got shape {loss.shape}")
        self._spent = True
        loss.grad = np.ones(())
        for out, back in reversed(self._records):
            if out.grad is None:
                continue
            back(out.grad)


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


def log_softmax(logits: Array) -> Array:
    """Row-wise log-softmax, stabilized by per-row max subtraction."""
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def zero_grads(params: Mapping[str, Tensor]) -> None:
    for t in params.values():
        t.grad = None


def collect_grads(params: Mapping[str, Tensor]) -> dict[str, Array]:
    """Gradient map after backward; untouched parameters yield zeros."""
    return {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in params.items()}


def global_norm(grads: Mapping[str, Array]) -> float:
    return math.sqrt(sum(float((g * g).sum()) for g in grads.values()))


def sgd_step(params: Mapping[str, Tensor], grads: Mapping[str, Array],
             lr: float, clip: float) -> Mapping[str, Tensor]:
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
