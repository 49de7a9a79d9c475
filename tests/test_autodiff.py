import math

import numpy as np
import pytest

from symtrain import autodiff
from symtrain.autodiff import (
    Param,
    ShapeError,
    Tape,
    TapeError,
    TrainingError,
    gate_major,
    gru_cell_forward,
    gru_inputs,
    gru_sequence,
    gru_sequence_backward,
    gru_step,
    output_nll,
    output_nll_backward,
    sgd_step,
)
from helpers import (assert_grads_close, central_differences, mp_log_softmax_nll,
                     reference_gru, reference_gru_backward)


def _softmax_nll(logits, targets, lengths):
    """output_nll with the identity projection: the given rows are the logits."""
    logits = np.asarray(logits, dtype=np.float64)
    n_rows, width = logits.shape
    nll, _ = output_nll(logits, range(n_rows), np.eye(width), np.zeros((1, width)),
                        targets, lengths)
    return nll


def _grads(params):
    return {name: p.grad for name, p in params.items()}


def _output_params(rng, n_states, n_hidden, vocab):
    return {"states": Param(rng.uniform(-2, 2, (n_states, n_hidden))),
            "w_out": Param(rng.uniform(-2, 2, (n_hidden, vocab))),
            "b_out": Param(rng.uniform(-2, 2, (1, vocab)))}


def _weighted_output_nll(params, rows, targets, lengths, w):
    """sum_i w_i nll_i under the output layer, and the gradient wrt the states."""
    nll, cache = output_nll(params["states"].data, rows, params["w_out"].data,
                            params["b_out"].data, targets, lengths)
    return float(w @ nll), lambda: output_nll_backward(w, cache, params["w_out"],
                                                       params["b_out"])


def test_matmul_shape_error_names_both_shapes():
    # the output layer's projection is its one matmul
    with pytest.raises(ShapeError, match=r"\(2, 2\).*\(3, 1\)"):
        output_nll(np.ones((2, 2)), [0], np.ones((3, 1)), np.zeros((1, 1)), [0], [1])


def test_matmul_gradient_of_sum_wrt_left_operand():
    # the loss is the sum of the rows' NLLs, so dL/d(a @ b) = softmax - onehot
    params = {"states": Param([[1.0, 2.0], [-1.0, 0.5]]),
              "w_out": Param([[3.0, 0.0], [4.0, 1.0]]), "b_out": Param(np.zeros((1, 2)))}
    ones = np.ones(2)
    _, backward = _weighted_output_nll(params, [0, 1], [0, 1], [1, 1], ones)
    d_states = backward()
    fd = central_differences(
        lambda: _weighted_output_nll(params, [0, 1], [0, 1], [1, 1], ones)[0],
        {"states": params["states"]})
    assert_grads_close({"states": d_states}, fd)
    z = params["states"].data @ params["w_out"].data
    d_logits = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True) - np.eye(2)
    assert np.allclose(d_states, d_logits @ params["w_out"].data.T)


@pytest.mark.parametrize("seed", range(3))
def test_output_nll_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    params = _output_params(rng, 9, 3, 6)
    rows = [4, 0, 8, 2, 6, 5, 1]  # out of order, and rows 3 and 7 predict nothing
    targets = [int(t) for t in rng.integers(0, 6, size=len(rows))]
    lengths = [2, 1, 4]
    # non-unit weights of both signs, so each example's gradient is weighted apart
    w = rng.uniform(-2, 2, len(lengths))
    _, backward = _weighted_output_nll(params, rows, targets, lengths, w)
    d_states = backward()
    analytic = {**_grads(params), "states": d_states}
    fd = central_differences(
        lambda: _weighted_output_nll(params, rows, targets, lengths, w)[0], params)
    assert_grads_close(analytic, fd)


@pytest.mark.parametrize("fault, error, message", [
    (dict(states=np.ones(3)), ShapeError, "incompatible"),
    (dict(b_out=np.zeros((1, 3))), ShapeError, "bias"),
    (dict(rows=[0, 5]), IndexError, "row index"),
    (dict(rows=[0, -1]), IndexError, "row index"),
    (dict(targets=[0]), ShapeError, "2 rows vs 1 targets"),
    (dict(targets=[0, 4]), IndexError, r"target 4 out of range \[0, 4\)"),
    (dict(rows=[4, 4]), ValueError, "more than once"),
])
def test_output_nll_rejects_inputs_that_do_not_fit(fault, error, message):
    args = dict(states=np.ones((5, 3)), rows=[0, 4], w_out=np.ones((3, 4)),
                b_out=np.zeros((1, 4)), targets=[1, 3], lengths=[2])
    args.update(fault)
    with pytest.raises(error, match=message):
        output_nll(args["states"], args["rows"], args["w_out"], args["b_out"],
                   args["targets"], args["lengths"])


# right-padded batch of three rows of unequal length; id 2 repeats in row 0
GRU_IDS = np.array([[2, 5, 2, 1, 3],
                    [4, 0, 1, 0, 0],
                    [3, 3, 2, 5, 0]])
GRU_LENGTHS = (5, 3, 4)
GRU_HIDDEN = 4


def _gru_params(rng, n_hidden=GRU_HIDDEN, vocab=6, d=3, n_out=5):
    return {"embed": Param(rng.uniform(-1, 1, (vocab, d))),
            "w_x": Param(rng.uniform(-1, 1, (d, 3 * n_hidden))),
            "w_h": Param(rng.uniform(-1, 1, (n_hidden, 3 * n_hidden))),
            "b": Param(rng.uniform(-1, 1, (1, 3 * n_hidden))),
            "w_out": Param(rng.uniform(-2, 2, (n_hidden, n_out))),
            "b_out": Param(rng.uniform(-2, 2, (1, n_out)))}


def _gru_nll(p, ids, lengths, targets):
    """Each row's NLL of ``targets`` after the GRU and the output layer, as
    ``batch_nll`` computes it: only the first ``lengths[i]`` states of row i
    predict a target.  Returns them with their tape, as ``batch_nll`` does."""
    n_batch = ids.shape[0]
    rows = [t * n_batch + i for i, n in enumerate(lengths) for t in range(n)]
    states, gru_cache = gru_sequence(p["embed"].data, ids, p["w_x"].data, p["w_h"].data,
                                     p["b"].data, p["w_h"].data.shape[0])
    nll, cache = output_nll(states, rows, p["w_out"].data, p["b_out"].data, targets, lengths)
    return nll, Tape(n_batch, lambda w: gru_sequence_backward(
        output_nll_backward(w, cache, p["w_out"], p["b_out"]), ids, states, gru_cache,
        p["embed"], p["w_x"], p["w_h"], p["b"]))


@pytest.mark.parametrize("seed", range(5))
def test_gru_sequence_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    params = _gru_params(rng)
    targets = [int(t) for t in rng.integers(0, 5, size=sum(GRU_LENGTHS))]

    def loss():
        return float(_gru_nll(params, GRU_IDS, GRU_LENGTHS, targets)[0].sum())

    _, tape = _gru_nll(params, GRU_IDS, GRU_LENGTHS, targets)
    tape.backward(np.ones(len(GRU_LENGTHS)))
    assert_grads_close(_grads(params), central_differences(loss, params))


def _assert_close_to_reference(actual, reference, rtol=1e-12):
    """Equal to the reference within rtol of its largest entry: the batched
    kernels sum in another order, which moves entries that cancel."""
    assert actual.shape == reference.shape
    assert np.abs(actual - reference).max(initial=0.0) <= rtol * np.abs(reference).max(initial=0.0)


# the loop's shapes among them: a training minibatch of 8 rows over 75 steps,
# and a score of one row over 1-3 steps from its task-frame state
@pytest.mark.parametrize("n_batch", [1, 2, 8])
@pytest.mark.parametrize("n_steps", [1, 2, 3, 40, 75])
@pytest.mark.parametrize("scale", [1.0, 20.0])  # x20 saturates gates: r reaches 0 exactly
def test_gru_kernels_match_the_step_by_step_reference(n_batch, n_steps, scale):
    rng = np.random.default_rng(n_batch * 100 + n_steps)
    params = _gru_params(rng)
    for p in params.values():
        p.data *= scale
    p = {name: t.data for name, t in params.items()}
    ids = rng.integers(0, 6, (n_batch, n_steps))
    states, cache = gru_sequence(p["embed"], ids, p["w_x"], p["w_h"], p["b"], GRU_HIDDEN)
    ref_states, ref_caches = reference_gru(p["embed"], ids, p["w_x"], p["w_h"], p["b"])
    _assert_close_to_reference(states, ref_states)
    if scale > 1.0 and n_batch * n_steps >= 80:
        assert (cache.gates[:, 1] == 0.0).any()
    g = rng.uniform(-2, 2, states.shape)  # non-unit upstream gradients of both signs
    gru_sequence_backward(g, ids, states, cache, params["embed"], params["w_x"],
                          params["w_h"], params["b"])
    expected = reference_gru_backward(g, ids, ref_states, ref_caches, p["embed"], p["w_x"],
                                      p["w_h"])
    for name, grad in expected.items():
        _assert_close_to_reference(params[name].grad, grad)


@pytest.mark.parametrize("n_batch", [1, 2, 8])
@pytest.mark.parametrize("n_steps", [1, 3, 5, 7, 26, 40])
@pytest.mark.parametrize("padded", [False, True])
@pytest.mark.parametrize("scale", [1.0, 20.0])
def test_gru_input_paths_agree(monkeypatch, n_batch, n_steps, padded, scale):
    # one input path at every size: the training forward builds one vocabulary
    # table per call and gathers from it, in agreement with the step-by-step
    # reference's per-row products.  Over V = 6 ids S*B runs from 1 to 320; a
    # vocabulary padded with unused rows to V + S*B rows makes every batch,
    # 1x1 and 2x26 among them, step fewer positions than it has rows
    rng = np.random.default_rng(n_batch * 1000 + n_steps * 10 + padded)
    p = {name: t.data * scale for name, t in _gru_params(rng).items()}
    ids = rng.integers(0, len(p["embed"]), (n_batch, n_steps))
    embed = (np.vstack([p["embed"], rng.uniform(-1, 1, (n_batch * n_steps, 3))])
             if padded else p["embed"])
    tables = []

    def counted_gru_inputs(*args):
        tables.append(len(args[0]))
        return gru_inputs(*args)

    monkeypatch.setattr(autodiff, "gru_inputs", counted_gru_inputs)
    states, cache = gru_sequence(embed, ids, p["w_x"], p["w_h"], p["b"], GRU_HIDDEN)
    assert tables == [len(embed)]
    ref_states, ref_caches = reference_gru(embed, ids, p["w_x"], p["w_h"], p["b"])
    _assert_close_to_reference(states, ref_states)
    # each step's gates z, r, n and its candidate's h_prev @ w_h
    _assert_close_to_reference(cache.gates, np.array([c[:3] for c in ref_caches]))
    _assert_close_to_reference(cache.hw[:, 2], np.array([c[3] for c in ref_caches]))
    assert all(a.flags.c_contiguous for a in (states, *cache))


def test_gru_cell_forward_is_one_step_from_given_inputs():
    # the bench's GRU probe calls it so, and unpacks (h, cache)
    rng = np.random.default_rng(9)
    params = _gru_params(rng)
    x, h = rng.uniform(-1, 1, (5, 3)), rng.uniform(-1, 1, (5, GRU_HIDDEN))
    h_new, cache = gru_cell_forward(x, h, params["w_x"].data, params["w_h"].data,
                                    params["b"].data, GRU_HIDDEN)
    assert h_new.shape == (5, GRU_HIDDEN) and cache.gates.shape == (1, 3, 5, GRU_HIDDEN)
    # row i of x is the embedding of id i
    _assert_close_to_reference(h_new, reference_gru(x, np.arange(5)[:, None], params["w_x"].data,
                                                    params["w_h"].data, params["b"].data, h)[0])


def test_gru_cell_forward_casts_its_inputs_to_the_weights_dtype():
    # the bench's GRU probe feeds float64 inputs to the policy's float32 weights
    rng = np.random.default_rng(10)
    w_x, w_h, b = (rng.uniform(-0.5, 0.5, shape).astype(np.float32)
                   for shape in ((3, 3 * GRU_HIDDEN), (GRU_HIDDEN, 3 * GRU_HIDDEN),
                                 (1, 3 * GRU_HIDDEN)))
    x, h = rng.uniform(-1, 1, (5, 3)), rng.uniform(-1, 1, (5, GRU_HIDDEN))
    h_new, cache = gru_cell_forward(x, h, w_x, w_h, b, GRU_HIDDEN)
    assert h_new.dtype == cache.gates.dtype == np.float32
    x32, h32 = x.astype(np.float32), h.astype(np.float32)
    step = gru_step(np.ascontiguousarray(gate_major(x32 @ w_x + b)), h32, gate_major(w_h))
    assert np.array_equal(h_new, step)


@pytest.mark.parametrize("n_batch", [1, 8, 256])
def test_gru_step_in_place_equals_a_fresh_output(n_batch):
    # at the policy's width, so numpy and BLAS take the paths the loop takes
    rng = np.random.default_rng(n_batch)
    n_hidden = 64
    w_gates = gate_major(rng.uniform(-0.5, 0.5, (n_hidden, 3 * n_hidden)))
    xb = rng.uniform(-1, 1, (3, n_batch, n_hidden))
    h = rng.uniform(-1, 1, (n_batch, n_hidden))
    fresh = gru_step(xb.copy(), h, w_gates)
    in_place = h.copy()
    assert gru_step(xb.copy(), in_place, w_gates, out=in_place) is in_place
    assert np.array_equal(in_place, fresh)
    given = np.empty_like(h)
    gru_step(xb.copy(), h, w_gates, out=given, hw=np.empty((3, n_batch, n_hidden)))
    assert np.array_equal(given, fresh)
    # _frame_states steps the leading rows still in their frames, in place
    n = (n_batch + 1) // 2
    rows = h.copy()
    gru_step(xb[:, :n].copy(), rows[:n], w_gates, out=rows[:n])
    assert np.array_equal(rows[:n], gru_step(xb[:, :n].copy(), h[:n], w_gates))
    assert np.array_equal(rows[n:], h[n:])


@pytest.mark.parametrize("bad", [6, -1])
def test_gru_sequence_rejects_out_of_range_id(bad):
    ids = GRU_IDS.copy()
    ids[1, 2] = bad
    with pytest.raises(IndexError, match=rf"id {bad} out of range \[0, 6\)"):
        gru_sequence(np.ones((6, 3)), ids, np.zeros((3, 6)), np.zeros((2, 6)),
                     np.zeros((1, 6)), 2)


def test_log_softmax_nll_uniform_two_way():
    nll = _softmax_nll([[0.0, 0.0]], [0], [1])
    assert nll.shape == (1,)
    assert float(nll[0]) == pytest.approx(-math.log(0.5), abs=1e-12)


def test_log_softmax_nll_large_logits_stable():
    nll = _softmax_nll([[1000.0, 0.0]], [0], [1])
    assert np.isfinite(nll).all()
    assert float(nll[0]) == pytest.approx(0.0, abs=1e-12)


def test_log_softmax_nll_matches_high_precision_oracle():
    rng = np.random.default_rng(7)
    logits = rng.normal(scale=3.0, size=(3, 5))
    targets = [1, 4, 0]
    oracle_loss, oracle_per_token = mp_log_softmax_nll(logits, targets)
    per_token = _softmax_nll(logits, targets, [1] * 3)
    assert -per_token == pytest.approx(oracle_per_token, abs=1e-12)
    summed = _softmax_nll(logits, targets, [3])
    assert float(summed[0]) == pytest.approx(oracle_loss, abs=1e-12)


def test_log_softmax_nll_sums_each_run_of_rows():
    rng = np.random.default_rng(8)
    logits = rng.normal(scale=2.0, size=(6, 4))
    targets = [3, 0, 1, 1, 2, 0]
    per_token = _softmax_nll(logits, targets, [1] * 6)
    runs = _softmax_nll(logits, targets, [2, 1, 3])
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
    assert np.all(nll >= 0.0)


def test_log_softmax_nll_empty_targets_rejected():
    with pytest.raises(ValueError, match="empty"):
        _softmax_nll(np.zeros((0, 3)), [], [])


# a second batch over the same parameters, as DPO's negatives are to its positives;
# DPO runs both in one forward, its rows after the first batch's
GRU_IDS_2 = np.array([[5, 4, 3, 0],
                      [1, 1, 2, 2]])
GRU_LENGTHS_2 = (3, 4)
GRU_IDS_BOTH = np.vstack([GRU_IDS, np.pad(GRU_IDS_2, ((0, 0), (0, 1)))])
GRU_LENGTHS_BOTH = GRU_LENGTHS + GRU_LENGTHS_2


def test_backward_accumulates_an_input_used_twice():
    # one forward over both batches has the summed gradients of each batch's own
    # forward
    rng = np.random.default_rng(21)
    params = _gru_params(rng)
    t1 = [int(t) for t in rng.integers(0, 5, size=sum(GRU_LENGTHS))]
    t2 = [int(t) for t in rng.integers(0, 5, size=sum(GRU_LENGTHS_2))]
    w1, w2 = rng.uniform(-2, 2, 3), rng.uniform(-2, 2, 2)
    separate = {}
    for ids, lengths, targets, w in ((GRU_IDS, GRU_LENGTHS, t1, w1),
                                     (GRU_IDS_2, GRU_LENGTHS_2, t2, w2)):
        _, tape = _gru_nll(params, ids, lengths, targets)
        tape.backward(w)
        for name, g in _grads(params).items():
            separate[name] = separate.get(name, 0.0) + g
    _, tape = _gru_nll(params, GRU_IDS_BOTH, GRU_LENGTHS_BOTH, t1 + t2)
    tape.backward(np.concatenate([w1, w2]))
    for name, g in _grads(params).items():
        np.testing.assert_allclose(g, separate[name], rtol=0, atol=1e-12)


def test_backward_unused_parameter_gets_zero():
    rng = np.random.default_rng(22)
    params = _gru_params(rng, vocab=8)  # ids 6 and 7 never occur
    targets = [int(t) for t in rng.integers(0, 5, size=sum(GRU_LENGTHS))]
    _, tape = _gru_nll(params, GRU_IDS, GRU_LENGTHS, targets)
    tape.backward(rng.uniform(-2, 2, 3))
    assert np.all(params["embed"].grad[6:] == 0.0)
    assert np.any(params["embed"].grad[:6] != 0.0)
    # zero weights give zero gradients in every buffer
    _, tape = _gru_nll(params, GRU_IDS, GRU_LENGTHS, targets)
    tape.backward(np.zeros(3))
    assert all(np.all(g == 0.0) for g in _grads(params).values())


def test_backward_sets_the_gradient_of_its_own_forward():
    # two backwards in a row, nothing zeroed between them: the buffers hold
    # exactly the second forward's gradient, bit for bit, and the embedding rows
    # only the first batch used (ids 6 and 7) are zero
    rng = np.random.default_rng(26)
    params = _gru_params(rng, vocab=8)
    fresh = {name: Param(p.data.copy()) for name, p in params.items()}
    first_ids = np.array([[6, 7, 2, 6], [1, 7, 0, 3]])
    _, tape = _gru_nll(params, first_ids, (4, 3), [0, 1, 2, 3, 4, 0, 1])
    tape.backward(rng.uniform(-2, 2, 2))
    assert np.any(params["embed"].grad[6:] != 0.0)
    targets = [int(t) for t in rng.integers(0, 5, size=sum(GRU_LENGTHS))]
    w = rng.uniform(-2, 2, 3)
    for p in (params, fresh):
        _, tape = _gru_nll(p, GRU_IDS, GRU_LENGTHS, targets)
        tape.backward(w)
    for name, g in _grads(params).items():
        assert np.array_equal(g, fresh[name].grad), name
    assert np.all(params["embed"].grad[6:] == 0.0)


def test_backward_twice_rejected():
    params = _gru_params(np.random.default_rng(23))
    _, tape = _gru_nll(params, GRU_IDS, GRU_LENGTHS, [0] * sum(GRU_LENGTHS))
    tape.backward(np.ones(3))
    with pytest.raises(TapeError, match="already ran"):
        tape.backward(np.ones(3))


def test_a_tape_holds_one_record():
    # the benchmark counts the forwards a backward covers as len(tape)
    params = _gru_params(np.random.default_rng(24))
    _, tape = _gru_nll(params, GRU_IDS_BOTH, GRU_LENGTHS_BOTH, [0] * sum(GRU_LENGTHS_BOTH))
    assert len(tape) == 1
    tape.backward(np.ones(5))
    assert len(tape) == 1


def test_elementwise_shape_mismatch():
    # the weights scale the forward's NLL vector entry by entry
    params = _gru_params(np.random.default_rng(25))
    _, tape = _gru_nll(params, GRU_IDS, GRU_LENGTHS, [0] * sum(GRU_LENGTHS))
    for w in (np.ones(2), np.ones((3, 1)), np.ones(())):
        with pytest.raises(ShapeError, match="for 3 examples"):
            tape.backward(w)
    assert all(np.all(g == 0.0) for g in _grads(params).values())


@pytest.mark.parametrize("seed", range(20))
def test_every_op_matches_finite_differences(seed):
    # the GRU and output rules under one backward of both batches with random,
    # non-unit weights of both signs
    rng = np.random.default_rng(seed)
    params = _gru_params(rng)
    targets = [int(t) for t in rng.integers(0, 5, size=sum(GRU_LENGTHS_BOTH))]
    w = rng.uniform(-2, 2, len(GRU_LENGTHS_BOTH))

    def record():
        return _gru_nll(params, GRU_IDS_BOTH, GRU_LENGTHS_BOTH, targets)

    _, tape = record()
    tape.backward(w)
    fd = central_differences(lambda: float(w @ record()[0]), params)
    assert_grads_close(_grads(params), fd)


def test_sgd_step_plain_update():
    p = Param(1.0)
    sgd_step({"p": p}, {"p": np.asarray(0.5)}, lr=0.1, clip=math.inf)
    assert float(p.data) == pytest.approx(0.95)


def test_sgd_step_global_norm_clip():
    p = Param(np.zeros(4))
    g = np.full(4, 5.0)  # global norm 10
    sgd_step({"p": p}, {"p": g}, lr=1.0, clip=1.0)
    # effective gradient is scaled by clip / norm = 0.1
    assert np.allclose(p.data, -0.5)


def test_param_keeps_the_float_dtype_it_is_given():
    for dtype in (np.float32, np.float64):
        p = Param(np.zeros(3, dtype=dtype))
        assert p.data.dtype == p.grad.dtype == dtype
    assert Param([1, 2]).data.dtype == np.float64


def test_sgd_step_clips_a_float32_gradient_whose_squares_overflow_float32():
    # 1e20 squared is past float32's largest value, 3.4e38, but not float64's
    p = Param(np.zeros(4, dtype=np.float32))
    g = np.full(4, 1e20, dtype=np.float32)
    sgd_step({"p": p}, {"p": g}, lr=0.1, clip=autodiff.CLIP)
    assert p.data.dtype == np.float32
    # the step moves by lr * CLIP along -g
    np.testing.assert_allclose(p.data, -0.1 * autodiff.CLIP / 2, rtol=1e-6)


def test_sgd_step_that_overflows_float32_leaves_inf_and_zero_entries_unmoved():
    p = Param(np.ones(3, dtype=np.float32))
    sgd_step({"p": p}, {"p": np.array([1.0, 0.0, -1.0], dtype=np.float32)}, lr=1e308,
             clip=math.inf)
    assert p.data.tolist() == [-math.inf, 1.0, math.inf]


def test_sgd_step_rejects_nonfinite_named():
    p = Param(1.0)
    with pytest.raises(TrainingError, match="p"):
        sgd_step({"p": p}, {"p": np.asarray(math.nan)}, lr=0.1, clip=math.inf)


def test_sgd_step_rejects_bad_lr():
    with pytest.raises(ValueError):
        sgd_step({}, {}, lr=0.0, clip=1.0)


@pytest.mark.parametrize("clip", [-1.0, 0.0])
def test_sgd_step_rejects_nonpositive_clip(clip):
    # a negative clip would flip the step: p=1, grad=+2, lr=0.1 gives 1.1
    p = Param(1.0)
    with pytest.raises(ValueError, match="clip"):
        sgd_step({"p": p}, {"p": np.asarray(2.0)}, lr=0.1, clip=clip)
    assert float(p.data) == 1.0


def test_sgd_converges_on_quadratic():
    # f(p) = (p - 2.5)^2 has its analytic minimum at 2.5
    p = Param(-4.0)
    for _ in range(100):
        g = 2.0 * (p.data - 2.5)
        sgd_step({"p": p}, {"p": g}, lr=0.2, clip=math.inf)
    assert float(p.data) == pytest.approx(2.5, abs=1e-8)


def test_forward_ops_stay_finite_on_finite_inputs():
    rng = np.random.default_rng(3)
    x = rng.uniform(-50, 50, (4, 4))
    params = {"embed": Param(rng.uniform(-50, 50, (6, 4))),
              "w_x": Param(rng.uniform(-50, 50, (4, 6))),
              "w_h": Param(rng.uniform(-50, 50, (2, 6))),
              "b": Param(rng.uniform(-50, 50, (1, 6))),
              "w_out": Param(x), "b_out": Param(np.zeros((1, 4)))}
    nll, cache = output_nll(x * 100.0, [0, 1, 2, 3], x, np.zeros((1, 4)), [0, 1, 2, 3],
                            [1, 3])
    d_states = output_nll_backward(np.ones(2), cache, params["w_out"], params["b_out"])
    states, gru_cache = gru_sequence(params["embed"].data, GRU_IDS, params["w_x"].data,
                                     params["w_h"].data, params["b"].data, 2)
    gru_sequence_backward(np.ones_like(states), GRU_IDS, states, gru_cache, params["embed"],
                          params["w_x"], params["w_h"], params["b"])
    for out in (nll, d_states, states, *_grads(params).values()):
        assert np.isfinite(out).all()
