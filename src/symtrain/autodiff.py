"""Reverse-mode automatic differentiation on an explicit tape.

Everything is float64 and shapes are ordinary numpy shapes.  Broadcasting is
deliberately restricted to scalar-vs-tensor (plus one explicit row-bias add),
so every backward rule below stays short enough to audit by eye.
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

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: Array | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _accumulate(t: Tensor, g: Array) -> None:
    # copy on first touch: g may be shared with other inputs or be a view
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _is_scalar_const(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


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

    def add(self, a: Tensor, b) -> Tensor:
        if _is_scalar_const(b):
            out = Tensor(a.data + float(b))

            def back(g: Array, a=a) -> None:
                _accumulate(a, g)

            return self._record(out, back)
        if a.shape != b.shape:
            raise ShapeError(f"add: shape mismatch {a.shape} vs {b.shape}")
        out = Tensor(a.data + b.data)

        def back(g: Array, a=a, b=b) -> None:
            _accumulate(a, g)
            _accumulate(b, g)

        return self._record(out, back)

    def mul(self, a: Tensor, b) -> Tensor:
        if _is_scalar_const(b):
            c = float(b)
            out = Tensor(a.data * c)

            def back(g: Array, a=a, c=c) -> None:
                _accumulate(a, g * c)

            return self._record(out, back)
        if a.shape != b.shape:
            raise ShapeError(f"mul: shape mismatch {a.shape} vs {b.shape}")
        out = Tensor(a.data * b.data)

        def back(g: Array, a=a, b=b) -> None:
            _accumulate(a, g * b.data)
            _accumulate(b, g * a.data)

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

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
        out = Tensor(a.data @ b.data)

        def back(g: Array, a=a, b=b) -> None:
            _accumulate(a, g @ b.data.T)
            _accumulate(b, a.data.T @ g)

        return self._record(out, back)

    def add_bias(self, a: Tensor, bias: Tensor) -> Tensor:
        """Add a 1 x N bias row to every row of an M x N tensor."""
        if a.data.ndim != 2 or bias.shape != (1, a.shape[1]):
            raise ShapeError(f"add_bias: {a.shape} + {bias.shape}")
        out = Tensor(a.data + bias.data)

        def back(g: Array, a=a, bias=bias) -> None:
            _accumulate(a, g)
            _accumulate(bias, g.sum(axis=0, keepdims=True))

        return self._record(out, back)

    def embedding_lookup(self, table: Tensor, ids: Sequence[int]) -> Tensor:
        if table.data.ndim != 2:
            raise ShapeError(f"embedding_lookup: table must be 2-D, got {table.shape}")
        vocab = table.shape[0]
        for i in ids:
            if not 0 <= i < vocab:
                raise IndexError(f"embedding_lookup: id {i} out of range [0, {vocab})")
        idx = np.asarray(list(ids), dtype=np.intp)
        out = Tensor(table.data[idx] if len(idx) else
                     np.zeros((0, table.shape[1])))

        def back(g: Array, table=table, idx=idx) -> None:
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, idx, g)

        return self._record(out, back)

    def concat_rows(self, parts: Sequence[Tensor]) -> Tensor:
        if not parts:
            raise ShapeError("concat_rows: no parts")
        ncols = parts[0].shape[1]
        if any(p.data.ndim != 2 or p.shape[1] != ncols for p in parts):
            raise ShapeError("concat_rows: column counts differ")
        sizes = [p.shape[0] for p in parts]
        out = Tensor(np.concatenate([p.data for p in parts], axis=0))

        def back(g: Array, parts=tuple(parts), sizes=tuple(sizes)) -> None:
            off = 0
            for p, n in zip(parts, sizes):
                _accumulate(p, g[off:off + n])
                off += n

        return self._record(out, back)

    def gru_cell(self, x: Tensor, h_prev: Tensor, w_x: Tensor, w_h: Tensor,
                 b: Tensor, n_hidden: int) -> Tensor:
        """One fused GRU step (update/reset/candidate gate layout along 3h).

        Forward shares :func:`gru_cell_forward` with the inference path; the
        backward rule is the hand-derived chain through both gates.
        """
        h_new, cache = gru_cell_forward(x.data, h_prev.data, w_x.data,
                                        w_h.data, b.data, n_hidden)
        out = Tensor(h_new)

        def back(g: Array, x=x, h_prev=h_prev, w_x=w_x, w_h=w_h, b=b,
                 cache=cache) -> None:
            z, r, n, hw_n = cache
            dz = g * (h_prev.data - n)
            dn_pre = (g * (1.0 - z)) * (1.0 - n * n)
            dz_pre = dz * (z * (1.0 - z))
            dr_pre = (dn_pre * hw_n) * (r * (1.0 - r))
            dxw = np.concatenate([dz_pre, dr_pre, dn_pre], axis=1)
            dhw = np.concatenate([dz_pre, dr_pre, dn_pre * r], axis=1)
            _accumulate(b, dxw.sum(axis=0, keepdims=True))
            _accumulate(x, dxw @ w_x.data.T)
            _accumulate(w_x, x.data.T @ dxw)
            _accumulate(h_prev, g * z + dhw @ w_h.data.T)
            _accumulate(w_h, h_prev.data.T @ dhw)

        return self._record(out, back)

    def take_rows(self, a: Tensor, indices: Sequence[int]) -> Tensor:
        if a.data.ndim != 2:
            raise ShapeError(f"take_rows: need 2-D tensor, got {a.shape}")
        idx = np.asarray(list(indices), dtype=np.intp)
        if len(idx) and (idx.min() < 0 or idx.max() >= a.shape[0]):
            raise IndexError("take_rows: index out of range")
        out = Tensor(a.data[idx])

        def back(g: Array, a=a, idx=idx) -> None:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            np.add.at(a.grad, idx, g)

        return self._record(out, back)

    def log_softmax_nll(self, logits: Tensor, targets: Sequence[int]) -> tuple[Tensor, Array]:
        """Summed negative log-likelihood of targets under row-wise softmax.

        Returns the scalar loss (on tape) and the per-token log-probabilities
        (plain array, detached), stabilized by per-row max subtraction.
        """
        if logits.data.ndim != 2:
            raise ShapeError(f"log_softmax_nll: logits must be 2-D, got {logits.shape}")
        n_rows, vocab = logits.shape
        targets = list(targets)
        if not targets:
            raise ValueError("log_softmax_nll: empty targets")
        if len(targets) != n_rows:
            raise ShapeError(
                f"log_softmax_nll: {n_rows} logit rows vs {len(targets)} targets")
        for t in targets:
            if not 0 <= t < vocab:
                raise IndexError(f"log_softmax_nll: target {t} out of range [0, {vocab})")
        idx = np.asarray(targets, dtype=np.intp)
        log_probs = log_softmax(logits.data)
        per_token = log_probs[np.arange(n_rows), idx].copy()
        out = Tensor(-per_token.sum())
        softmax = np.exp(log_probs)

        def back(g: Array, logits=logits, softmax=softmax, idx=idx) -> None:
            d = softmax.copy()
            d[np.arange(len(idx)), idx] -= 1.0
            _accumulate(logits, d * g)

        self._record(out, back)
        return out, per_token

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
             lr: float, clip: float = math.inf) -> Mapping[str, Tensor]:
    """In-place SGD update with global-norm gradient clipping."""
    if lr <= 0:
        raise ValueError(f"sgd_step: lr must be positive, got {lr}")
    if clip <= 0:
        raise ValueError(f"sgd_step: clip must be positive, got {clip}")
    for name, g in grads.items():
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
    norm = global_norm(grads)
    scale = clip / norm if math.isfinite(clip) and norm > clip else 1.0
    for name, t in params.items():
        g = grads.get(name)
        if g is not None:
            t.data -= lr * scale * g
    return params
