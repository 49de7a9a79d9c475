import math

import numpy as np
import pytest

from symtrain.autodiff import (
    ShapeError,
    Tape,
    TapeError,
    Tensor,
    TrainingError,
    collect_grads,
    sgd_step,
    zero_grads,
)
from helpers import assert_grads_close, central_differences, mp_log_softmax_nll


def _softmax_nll(logits, targets, lengths):
    """output_nll with the identity projection: the given rows are the logits."""
    logits = np.asarray(logits, dtype=np.float64)
    n_rows, width = logits.shape
    return Tape().output_nll(Tensor(logits), range(n_rows), Tensor(np.eye(width)),
                           Tensor(np.zeros((1, width))), targets, lengths)


def test_matmul_shape_error_names_both_shapes():
    # the output layer's projection is its one matmul
    with pytest.raises(ShapeError, match=r"\(2, 2\).*\(3, 1\)"):
        Tape().output_nll(Tensor(np.ones((2, 2))), [0], Tensor(np.ones((3, 1))),
                          Tensor(np.zeros((1, 1))), [0], [1])


def test_matmul_gradient_of_sum_wrt_left_operand():
    # the loss is the sum of the rows' NLLs, so dL/d(a @ b) = softmax - onehot
    a = Tensor([[1.0, 2.0], [-1.0, 0.5]])
    b = Tensor([[3.0, 0.0], [4.0, 1.0]])
    zero = Tensor(np.zeros((1, 2)))

    def forward():
        tape = Tape()
        return tape, tape.sum(tape.output_nll(a, [0, 1], b, zero, [0, 1], [1, 1]))

    tape, out = forward()
    tape.backward(out)
    fd = central_differences(lambda: float(forward()[1].data), {"a": a})
    assert_grads_close({"a": a.grad}, fd)
    z = a.data @ b.data
    d_logits = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True) - np.eye(2)
    assert np.allclose(a.grad, d_logits @ b.data.T)


@pytest.mark.parametrize("seed", range(3))
def test_output_nll_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    states = Tensor(rng.uniform(-2, 2, (5, 3)))
    w_out = Tensor(rng.uniform(-2, 2, (3, 6)))
    b_out = Tensor(rng.uniform(-2, 2, (1, 6)))
    params = {"states": states, "w_out": w_out, "b_out": b_out}
    rows = [4, 0, 4, 2, 2, 2, 1]  # rows 4 and 2 are picked more than once
    targets = [int(t) for t in rng.integers(0, 6, size=len(rows))]

    def forward():
        tape = Tape()
        nll = tape.output_nll(states, rows, w_out, b_out, targets, [2, 1, 4])
        # nonlinear in each example's NLL, so each example's gradient is weighted apart
        return tape, tape.sum(tape.log_sigmoid(tape.mul(nll, -0.4)))

    tape, loss = forward()
    tape.backward(loss)
    analytic = collect_grads(params)
    fd = central_differences(lambda: float(forward()[1].data), params)
    assert_grads_close(analytic, fd)


@pytest.mark.parametrize("fault, error, message", [
    (dict(states=np.ones(3)), ShapeError, "incompatible"),
    (dict(b_out=np.zeros((1, 3))), ShapeError, "bias"),
    (dict(rows=[0, 5]), IndexError, "row index"),
    (dict(rows=[0, -1]), IndexError, "row index"),
    (dict(targets=[0]), ShapeError, "2 rows vs 1 targets"),
    (dict(targets=[0, 4]), IndexError, r"target 4 out of range \[0, 4\)"),
])
def test_output_nll_rejects_inputs_that_do_not_fit(fault, error, message):
    args = dict(states=np.ones((5, 3)), rows=[0, 4], w_out=np.ones((3, 4)),
                b_out=np.zeros((1, 4)), targets=[1, 3], lengths=[2])
    args.update(fault)
    with pytest.raises(error, match=message):
        Tape().output_nll(Tensor(args["states"]), args["rows"], Tensor(args["w_out"]),
                          Tensor(args["b_out"]), args["targets"], args["lengths"])


def test_elementwise_shape_mismatch():
    with pytest.raises(ShapeError):
        Tape().add(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 3))))
    # mul scales by a number; there is no tensor x tensor product
    with pytest.raises(TypeError):
        Tape().mul(Tensor(np.ones((2, 2))), Tensor(np.ones((2, 2))))


# right-padded batch of three rows of unequal length; id 2 repeats in row 0
GRU_IDS = np.array([[2, 5, 2, 1, 3],
                    [4, 0, 1, 0, 0],
                    [3, 3, 2, 5, 0]])
GRU_LENGTHS = (5, 3, 4)


@pytest.mark.parametrize("seed", range(5))
def test_gru_sequence_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    n_batch, n_hidden = GRU_IDS.shape[0], 4
    embed = Tensor(rng.uniform(-1, 1, (6, 3)))
    w_x = Tensor(rng.uniform(-1, 1, (3, 3 * n_hidden)))
    w_h = Tensor(rng.uniform(-1, 1, (n_hidden, 3 * n_hidden)))
    b = Tensor(rng.uniform(-1, 1, (1, 3 * n_hidden)))
    params = {"embed": embed, "w_x": w_x, "w_h": w_h, "b": b}
    w_out = Tensor(rng.uniform(-2, 2, (n_hidden, 5)))
    b_out = Tensor(rng.uniform(-2, 2, (1, 5)))
    # only genuine positions enter the loss, as in batch_nll
    rows = [t * n_batch + i for i, n in enumerate(GRU_LENGTHS) for t in range(n)]
    targets = [int(t) for t in rng.integers(0, 5, size=len(rows))]

    def forward():
        tape = Tape()
        states = tape.gru_sequence(embed, GRU_IDS, w_x, w_h, b, n_hidden)
        nll = tape.output_nll(states, rows, w_out, b_out, targets, GRU_LENGTHS)
        return tape, tape.sum(nll)

    tape, loss = forward()
    tape.backward(loss)
    analytic = collect_grads(params)
    fd = central_differences(lambda: float(forward()[1].data), params)
    assert_grads_close(analytic, fd)


@pytest.mark.parametrize("bad", [6, -1])
def test_gru_sequence_rejects_out_of_range_id(bad):
    ids = GRU_IDS.copy()
    ids[1, 2] = bad
    w = Tensor(np.zeros((3, 6)))
    with pytest.raises(IndexError, match=rf"id {bad} out of range \[0, 6\)"):
        Tape().gru_sequence(Tensor(np.ones((6, 3))), ids, w, Tensor(np.zeros((2, 6))),
                            Tensor(np.zeros((1, 6))), 2)


def test_log_softmax_nll_uniform_two_way():
    nll = _softmax_nll([[0.0, 0.0]], [0], [1])
    assert nll.shape == (1,)
    assert float(nll.data[0]) == pytest.approx(-math.log(0.5), abs=1e-12)


def test_log_softmax_nll_large_logits_stable():
    nll = _softmax_nll([[1000.0, 0.0]], [0], [1])
    assert np.isfinite(nll.data).all()
    assert float(nll.data[0]) == pytest.approx(0.0, abs=1e-12)


def test_log_softmax_nll_matches_high_precision_oracle():
    rng = np.random.default_rng(7)
    logits = rng.normal(scale=3.0, size=(3, 5))
    targets = [1, 4, 0]
    oracle_loss, oracle_per_token = mp_log_softmax_nll(logits, targets)
    per_token = _softmax_nll(logits, targets, [1] * 3)
    assert -per_token.data == pytest.approx(oracle_per_token, abs=1e-12)
    summed = _softmax_nll(logits, targets, [3])
    assert float(summed.data[0]) == pytest.approx(oracle_loss, abs=1e-12)


def test_log_softmax_nll_sums_each_run_of_rows():
    rng = np.random.default_rng(8)
    logits = rng.normal(scale=2.0, size=(6, 4))
    targets = [3, 0, 1, 1, 2, 0]
    per_token = _softmax_nll(logits, targets, [1] * 6).data
    runs = _softmax_nll(logits, targets, [2, 1, 3]).data
    expected = [per_token[:2].sum(), per_token[2], per_token[3:].sum()]
    np.testing.assert_allclose(runs, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("lengths", [[2, 2], [1, 1, 1, 1], [3, 0, 1], [3, -1, 2], []])
def test_log_softmax_nll_rejects_lengths_that_do_not_partition_rows(lengths):
    with pytest.raises(ShapeError, match="partition"):
        _softmax_nll(np.zeros((3, 4)), [0, 1, 2], lengths)


def test_log_softmax_rows_sum_to_one():
    rng = np.random.default_rng(11)
    logits = rng.normal(scale=4.0, size=(6, 9))
    nll = _softmax_nll(logits, [0] * 6, [1] * 6)
    z = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(z - np.log(np.exp(z).sum(axis=1, keepdims=True)))
    assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9
    assert np.all(nll.data >= 0.0)


def test_log_softmax_nll_empty_targets_rejected():
    with pytest.raises(ValueError, match="empty"):
        _softmax_nll(np.zeros((0, 3)), [], [])


def test_backward_accumulates_an_input_used_twice():
    x = Tensor(3.0)
    tape = Tape()
    y = tape.add(tape.mul(x, 3.0), x)
    tape.backward(y)
    assert float(x.grad) == pytest.approx(4.0)


def test_backward_unused_parameter_gets_zero():
    x = Tensor(3.0)
    p = Tensor(1.0)
    tape = Tape()
    y = tape.mul(x, 2.0)
    tape.backward(y)
    grads = collect_grads({"x": x, "p": p})
    assert np.all(grads["p"] == 0.0)


def test_backward_twice_rejected():
    x = Tensor(2.0)
    tape = Tape()
    y = tape.mul(x, 2.0)
    tape.backward(y)
    with pytest.raises(TapeError):
        tape.backward(y)


def test_backward_requires_scalar_from_this_tape():
    tape = Tape()
    v = tape.mul(Tensor(np.ones((2, 2))), 2.0)
    with pytest.raises(TapeError, match="scalar"):
        tape.backward(v)
    with pytest.raises(TapeError, match="produced"):
        Tape().backward(Tensor(1.0))


@pytest.mark.parametrize("seed", range(20))
def test_every_op_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.uniform(-2, 2, (3, 4)))
    b = Tensor(rng.uniform(-2, 2, (3, 4)))
    w = Tensor(rng.uniform(-2, 2, (4, 5)))
    bias = Tensor(rng.uniform(-2, 2, (1, 5)))
    params = {"a": a, "b": b, "w": w, "bias": bias}
    targets = [int(t) for t in rng.integers(0, 5, size=7)]

    def forward():
        tape = Tape()
        mixed = tape.add(tape.log_sigmoid(a), b)
        mixed = tape.mul(tape.add(mixed, a), 0.5)
        nll = tape.output_nll(mixed, [0, 2, 1, 1, 0, 2, 2], w, bias, targets, [3, 1, 3])
        extra = tape.mul(tape.log_sigmoid(tape.mul(nll, 0.13)), -1.0)
        return tape, tape.sum(tape.add(nll, extra))

    tape, total = forward()
    tape.backward(total)
    analytic = collect_grads(params)
    fd = central_differences(lambda: float(forward()[1].data), params)
    assert_grads_close(analytic, fd)
    zero_grads(params)


def test_log_sigmoid_values_and_stability():
    tape = Tape()
    assert float(tape.log_sigmoid(Tensor(0.0)).data) == pytest.approx(math.log(0.5))
    assert float(tape.log_sigmoid(Tensor(800.0)).data) == pytest.approx(0.0, abs=1e-12)
    big = float(tape.log_sigmoid(Tensor(-800.0)).data)
    assert math.isfinite(big) and big == pytest.approx(-800.0)


def test_sgd_step_plain_update():
    p = Tensor(1.0)
    sgd_step({"p": p}, {"p": np.asarray(0.5)}, lr=0.1, clip=math.inf)
    assert float(p.data) == pytest.approx(0.95)


def test_sgd_step_global_norm_clip():
    p = Tensor(np.zeros(4))
    g = np.full(4, 5.0)  # global norm 10
    sgd_step({"p": p}, {"p": g}, lr=1.0, clip=1.0)
    # effective gradient is scaled by clip / norm = 0.1
    assert np.allclose(p.data, -0.5)


def test_sgd_step_rejects_nonfinite_named():
    p = Tensor(1.0)
    with pytest.raises(TrainingError, match="p"):
        sgd_step({"p": p}, {"p": np.asarray(math.nan)}, lr=0.1, clip=math.inf)


def test_sgd_step_rejects_bad_lr():
    with pytest.raises(ValueError):
        sgd_step({}, {}, lr=0.0, clip=1.0)


@pytest.mark.parametrize("clip", [-1.0, 0.0])
def test_sgd_step_rejects_nonpositive_clip(clip):
    # a negative clip would flip the step: p=1, grad=+2, lr=0.1 gives 1.1
    p = Tensor(1.0)
    with pytest.raises(ValueError, match="clip"):
        sgd_step({"p": p}, {"p": np.asarray(2.0)}, lr=0.1, clip=clip)
    assert float(p.data) == 1.0


def test_sgd_converges_on_quadratic():
    # f(p) = (p - 2.5)^2 has its analytic minimum at 2.5
    p = Tensor(-4.0)
    for _ in range(100):
        g = 2.0 * (p.data - 2.5)
        sgd_step({"p": p}, {"p": g}, lr=0.2, clip=math.inf)
    assert float(p.data) == pytest.approx(2.5, abs=1e-8)


def test_forward_ops_stay_finite_on_finite_inputs():
    rng = np.random.default_rng(3)
    tape = Tape()
    x = Tensor(rng.uniform(-50, 50, (4, 4)))
    embed = Tensor(rng.uniform(-50, 50, (6, 4)))
    w_x = Tensor(rng.uniform(-50, 50, (4, 6)))
    w_h = Tensor(rng.uniform(-50, 50, (2, 6)))
    b = Tensor(rng.uniform(-50, 50, (1, 6)))
    for out in (tape.log_sigmoid(x), tape.add(x, x), tape.mul(x, 3.0),
                tape.gru_sequence(embed, GRU_IDS, w_x, w_h, b, 2),
                tape.output_nll(tape.mul(x, 100.0), [0, 1, 2, 3], x,
                                Tensor(np.zeros((1, 4))), [0, 1, 2, 3], [1, 3]),
                tape.sum(x)):
        assert np.isfinite(out.data).all()
