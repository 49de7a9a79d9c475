"""Independent oracles used across the test suite.

Each oracle deliberately takes a different algorithmic route than the
implementation it checks: finite differences for gradients, high-precision
arithmetic for the loss, one GRU step at a time for the batched GRU kernels,
one row at a time for the batched self-reward, shunting-yard evaluation for
expressions, ground instantiation for the rule engine, and a literal
step-by-step walk for the grid.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np
import pytest
from mpmath import mp, mpf

from symtrain import policy
from symtrain.autodiff import Param
from symtrain.environments.grid import GridSpec

FD_STEP = 1e-5
GRAD_RTOL = 1e-4


def central_differences(loss_fn: Callable[[], float],
                        params: Mapping[str, Param],
                        h: float = FD_STEP) -> dict[str, np.ndarray]:
    """Central finite differences of loss_fn wrt every parameter entry."""
    grads: dict[str, np.ndarray] = {}
    for name, tensor in params.items():
        flat = tensor.data.reshape(-1)
        g = np.zeros_like(flat)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            f_plus = loss_fn()
            flat[i] = original - h
            f_minus = loss_fn()
            flat[i] = original
            g[i] = (f_plus - f_minus) / (2.0 * h)
        grads[name] = g.reshape(tensor.data.shape)
    return grads


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray,
                  floor: float = 1e-3) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def assert_grads_close(analytic: Mapping[str, np.ndarray],
                       numeric: Mapping[str, np.ndarray],
                       rtol: float = GRAD_RTOL) -> None:
    for name in numeric:
        err = max_rel_error(np.asarray(analytic[name]), numeric[name])
        assert err <= rtol, f"gradient mismatch for {name}: rel err {err:.3e}"


def mp_log_softmax_nll(logits: np.ndarray, targets: Sequence[int],
                       dps: int = 50) -> tuple[float, list[float]]:
    """High-precision row-wise log-softmax NLL (50 decimal digits)."""
    with mp.workdps(dps):
        per_token = []
        for row, target in zip(logits, targets):
            row = [mpf(float(v)) for v in row]
            m = max(row)
            log_z = m + mp.log(mp.fsum(mp.e**(v - m) for v in row))
            per_token.append(float(row[target] - log_z))
        return -float(mp.fsum(per_token)), per_token


def mp_dpo_loss(x: float, beta: float, dps: int = 50) -> tuple[float, float]:
    """High-precision DPO loss ``-log sigmoid(x)`` at ``x = beta * m`` and its
    positive's weight ``beta * sigmoid(-x)``."""
    with mp.workdps(dps):
        x = mpf(float(x))
        return float(mp.log1p(mp.exp(-x))), float(beta / (1 + mp.exp(x)))


# ---------------------------------------------------------------------------
# expression oracle: tokenize + shunting-yard + RPN stack evaluation

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "%": 2}


class OracleFailure(Exception):
    pass


def shunting_yard_eval(tokens: Sequence[str], bindings: dict[str, int]) -> int:
    """Evaluate an infix token expression via explicit RPN conversion."""
    src = "".join(tokens)
    lexed: list[tuple[str, str]] = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch.isdigit():
            j = i
            while j < len(src) and src[j].isdigit():
                j += 1
            lexed.append(("num", src[i:j]))
            i = j
        elif ch.isalpha() and ch.islower():
            j = i
            while j < len(src) and src[j].isalpha() and src[j].islower():
                j += 1
            lexed.append(("var", src[i:j]))
            i = j
        elif ch in _PRECEDENCE or ch in "()":
            lexed.append(("op" if ch in _PRECEDENCE else ch, ch))
            i += 1
        else:
            raise OracleFailure(f"bad char {ch!r}")
    output: list[tuple[str, str]] = []
    stack: list[str] = []
    prev_kind = None
    for kind, text in lexed:
        if kind in ("num", "var"):
            if prev_kind in ("num", "var", ")"):
                raise OracleFailure("adjacent operands")
            output.append((kind, text))
        elif kind == "op":
            if prev_kind in (None, "op", "("):
                raise OracleFailure("operator without left operand")
            while stack and stack[-1] in _PRECEDENCE and \
                    _PRECEDENCE[stack[-1]] >= _PRECEDENCE[text]:
                output.append(("op", stack.pop()))
            stack.append(text)
        elif kind == "(":
            if prev_kind in ("num", "var", ")"):
                raise OracleFailure("operand before '('")
            stack.append("(")
        else:  # ")"
            while stack and stack[-1] != "(":
                output.append(("op", stack.pop()))
            if not stack:
                raise OracleFailure("unbalanced ')'")
            stack.pop()
        prev_kind = kind if kind != "op" else "op"
    while stack:
        top = stack.pop()
        if top == "(":
            raise OracleFailure("unbalanced '('")
        output.append(("op", top))
    vals: list[int] = []
    for kind, text in output:
        if kind == "num":
            vals.append(int(text))
        elif kind == "var":
            if text not in bindings:
                raise OracleFailure(f"unbound {text!r}")
            vals.append(bindings[text])
        else:
            if len(vals) < 2:
                raise OracleFailure("missing operand")
            b = vals.pop()
            a = vals.pop()
            if text == "+":
                vals.append(a + b)
            elif text == "-":
                vals.append(a - b)
            elif text == "*":
                vals.append(a * b)
            elif text == "/":
                if b == 0 or a % b != 0:
                    raise OracleFailure("bad division")
                vals.append(a // b)
            else:
                if b == 0:
                    raise OracleFailure("mod by zero")
                vals.append(a % b)
    if len(vals) != 1:
        raise OracleFailure("leftover operands")
    return vals[0]


# ---------------------------------------------------------------------------
# logic oracle: ground instantiation of every rule over the constant universe

def ground_closure(facts: set, rules: Sequence, constants: Sequence[str]) -> set:
    """Naive closure: instantiate each rule over all constant tuples."""
    import itertools

    closure = set(facts)
    changed = True
    while changed:
        changed = False
        for rule in rules:
            variables = sorted({a for atom in (rule.head, *rule.body)
                                for a in atom.args if a.isupper() and len(a) == 1})
            for combo in itertools.product(constants, repeat=len(variables)):
                sub = dict(zip(variables, combo))

                def ground(atom):
                    return type(atom)(atom.pred,
                                      tuple(sub.get(t, t) for t in atom.args))

                if all(ground(b) in closure for b in rule.body):
                    head = ground(rule.head)
                    if head not in closure:
                        closure.add(head)
                        changed = True
    return closure


# ---------------------------------------------------------------------------
# grid oracle: literal step-by-step walk

def walk_grid(rows: int, cols: int, start: tuple[int, int],
              walls: set[tuple[int, int]], actions: Sequence[str]) -> tuple[int, int]:
    r, c = start
    deltas = {"U": (-1, 0), "D": (1, 0), "L": (0, -1), "R": (0, 1)}
    for a in actions:
        dr, dc = deltas[a]
        nr, nc = r + dr, c + dc
        if 0 <= nr < rows and 0 <= nc < cols and (nr, nc) not in walls:
            r, c = nr, nc
    return r, c


# ---------------------------------------------------------------------------
# pair-filter truth table oracle (the three-case selection rule, spelled out)

def filter_oracle(b: int, b_tilde: int, r: float, r_tilde: float) -> str:
    """Return 'original' or 'refined' for every (b, b~, sign(r - r~)) cell."""
    if b == 1 and b_tilde == 0:
        return "original"
    if b == b_tilde and r > r_tilde:
        return "original"
    return "refined"


# ---------------------------------------------------------------------------
# selection reference: sort + slice + pair

def reference_selection(positives: list, negatives: list, n1: int, n2: int):
    """Brute-force U1/U2 over already-ranked lists (descending quality)."""
    u1 = positives[: min(n1, len(positives))]
    m_max = min(n2, len(positives) - n1, len(negatives))
    u2 = []
    for m in range(1, max(0, m_max) + 1):
        u2.append((positives[m + len(u1) - 1], negatives[m - 1]))
    return u1, u2


# ---------------------------------------------------------------------------
# GRU reference: each step's input product, gates and BPTT computed whole
# inside the time loop, with the embedding gradient as a scatter-add

def reference_gru(embed: np.ndarray, ids: np.ndarray, w_x: np.ndarray, w_h: np.ndarray,
                  b: np.ndarray, h0: np.ndarray | None = None) -> tuple[np.ndarray, list]:
    """The S*B x h states of a GRU over ``ids[B, S]`` from ``h0`` (zero by
    default), row ``t*B + i`` after ``ids[i, t]``, and each step's
    (z, r, n, h_prev @ w_h's candidate columns)."""
    nh = w_h.shape[0]
    h = np.zeros((ids.shape[0], nh)) if h0 is None else h0
    states, caches = [], []
    for t in range(ids.shape[1]):
        xw = embed[ids[:, t]] @ w_x
        hw = h @ w_h
        zr = 0.5 * (np.tanh(0.5 * ((xw[:, :2 * nh] + hw[:, :2 * nh]) + b[:, :2 * nh]))
                    + 1.0)
        z, r = zr[:, :nh], zr[:, nh:]
        hw_n = hw[:, 2 * nh:]
        n = np.tanh((xw[:, 2 * nh:] + r * hw_n) + b[:, 2 * nh:])
        h = (z * h) + ((z * -1.0 + 1.0) * n)
        states.append(h)
        caches.append((z, r, n, hw_n))
    return np.reshape(states, (-1, nh)), caches  # (0, h) for no step


def reference_gru_backward(g: np.ndarray, ids: np.ndarray, states: np.ndarray,
                           caches: list, embed: np.ndarray, w_x: np.ndarray,
                           w_h: np.ndarray) -> dict[str, np.ndarray]:
    """The gradient of ``sum(g * states)`` for :func:`reference_gru`'s
    forward from the zero state, by one reversed sweep."""
    n_batch, nh = ids.shape[0], w_h.shape[0]
    d_pre = np.empty((len(states), 3 * nh))
    d_h = np.zeros((n_batch, nh))
    for t in range(len(caches) - 1, -1, -1):
        rows = slice(t * n_batch, (t + 1) * n_batch)
        z, r, n, hw_n = caches[t]
        h_prev = states[rows.start - n_batch:rows.start] if t else 0.0
        g_t = g[rows] + d_h
        dn_pre = (g_t * (1.0 - z)) * (1.0 - n * n)
        d = d_pre[rows]
        d[:, :nh] = (g_t * (h_prev - n)) * (z * (1.0 - z))
        d[:, nh:2 * nh] = (dn_pre * hw_n) * (r * (1.0 - r))
        d[:, 2 * nh:] = dn_pre
        d_hw = np.concatenate([d[:, :2 * nh], dn_pre * r], axis=1)
        d_h = g_t * z + d_hw @ w_h.T
    d_embed = np.zeros_like(embed)
    np.add.at(d_embed, ids.T.reshape(-1), d_pre @ w_x.T)
    grads = {"embed": d_embed,
             "w_x": embed[ids.T].reshape(len(states), -1).T @ d_pre,
             "b": d_pre.sum(axis=0, keepdims=True)}
    for t, (_, r, _, _) in enumerate(caches):
        d_pre[t * n_batch:(t + 1) * n_batch, 2 * nh:] *= r
    grads["w_h"] = states[:-n_batch].T @ d_pre[n_batch:]
    return grads


def reference_reward(p: Mapping[str, np.ndarray], start: np.ndarray,
                     target: Sequence[int]) -> float:
    """The self-reward of one row: the mean log-probability of the encoded
    target ``a EOS`` under the parameter arrays ``p``, its first token
    predicted by the (1, h) state ``start`` and each later one by the state
    after the tokens before it, stepped one at a time (:func:`reference_gru`)."""
    ids = np.asarray([target[:-1]], dtype=np.intp)
    states, _ = reference_gru(p["embed"], ids, p["w_x"], p["w_h"], p["b"], start)
    logits = np.vstack([start, states]) @ p["w_out"] + p["b_out"]
    z = logits - logits.max(axis=1, keepdims=True)
    logps = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(logps[np.arange(len(target)), target].sum() / len(target))


def float64_model(vocab: policy.Vocab, d: int = policy.DEFAULT_D, h: int = policy.DEFAULT_H,
                  seed: int = 0) -> policy.PolicyModel:
    """``PolicyModel(vocab, d, h, seed)`` holding its float64 draws instead of
    ``policy.PARAM_DTYPE``, so that every pass over it computes in float64 and
    can be checked against a reference within 1e-12."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(policy, "PARAM_DTYPE", np.float64)
        return policy.PolicyModel(vocab, d, h, seed)


def one_reward(model: policy.PolicyModel, start: np.ndarray, a: Sequence[str]) -> float:
    """The self-reward of ``a`` from ``start``, the (1, h) task-frame state,
    from a one-row pass of ``score_rows``."""
    return policy.score_rows(model, start, [(0, a)])[0][tuple(a)]


def count_reward_rows(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """Wrap ``policy._rewards``, the reward pass behind ``score_rows``; the
    returned list gets each pass's row count."""
    rows: list[int] = []
    rewards = policy._rewards

    def counted(model, states, targets):
        rows.append(len(targets))
        return rewards(model, states, targets)

    monkeypatch.setattr(policy, "_rewards", counted)
    return rows


# ---------------------------------------------------------------------------
# task readings: every part a runner could reach is immutable

def assert_read_only(reading) -> None:
    """Fail unless an env's reading of a task (``environments._read``) resists
    every mutation a runner could attempt: expr's bindings and query, grid's
    board, logic's nothing."""
    if reading is None:
        return
    if isinstance(reading, GridSpec):
        with pytest.raises(dataclasses.FrozenInstanceError):
            reading.start = (0, 0)
        assert isinstance(reading.walls, frozenset)
        return
    bindings, query = reading
    with pytest.raises(TypeError):
        bindings["a"] = 4
    assert isinstance(query, tuple)
