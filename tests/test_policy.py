import json
import math
import re

import numpy as np
import pytest

from symtrain.autodiff import CLIP, Param, gru_sequence, log_softmax, sgd_step
from symtrain.environments import MAX_SOLUTION_LEN, EnvKind, generate_dataset
from symtrain.policy import (
    BOS,
    CHECKPOINT_FORMAT,
    CHECKPOINT_VERSION,
    CONTROL_TOKENS,
    EOS,
    PAD,
    SEP,
    CheckpointError,
    GenerationParams,
    PolicyModel,
    Vocab,
    _CHECKPOINT_SLICE,
    _REWARD_ROWS,
    _rewards,
    batch_nll,
    condition_ids,
    _draw_tokens,
    _frame_states,
    _generate,
    default_vocab,
    draft_ids,
    frame_states,
    greedy_batch,
    greedy_decode,
    load_checkpoint,
    refine,
    sample,
    save_checkpoint,
    score,
    score_rows,
    sequence_token_logps,
    target_ids,
)
from helpers import (assert_grads_close, central_differences, count_reward_rows, float64_model,
                     one_reward, reference_gru, reference_reward)


def toy_vocab():
    return Vocab([*CONTROL_TOKENS, *list("abcdefghijkl")])  # V = 16


def toy_model(seed=0, d=8, h=12):
    return PolicyModel(toy_vocab(), d=d, h=h, seed=seed)


def toy_model64(seed=0, d=8, h=12):
    """The toy model in float64, for checks against a reference within 1e-12."""
    return float64_model(toy_vocab(), d=d, h=h, seed=seed)


def _random_tokens(rng, vocab, n):
    grammar = vocab.tokens[len(CONTROL_TOKENS):]
    return [str(rng.choice(grammar)) for _ in range(n)]


def _uniforms(seed, rows, max_len):
    """(rows, max_len) uniforms from the seed's stream, row by row."""
    return np.random.default_rng(seed).random((rows, max_len))


def _sample_task(model, x, params, seed):
    """Draw params.k_samples rows for one task, row k with the k-th row of
    uniforms drawn from the seed."""
    n = params.k_samples
    return sample(model, np.repeat(frame_states(model, [x]), n, axis=0), params,
                  _uniforms(seed, n, params.max_len))


def _refine_task(model, x, drafts, params, seed):
    """Refine every draft of one task, draft k with the k-th row of uniforms
    drawn from the seed."""
    return refine(model, np.repeat(frame_states(model, [x]), len(drafts), axis=0), drafts,
                  params, _uniforms(seed, len(drafts), params.max_len))


def _gru_states(model, ids):
    """The GRU states after each of the first T-1 tokens of ``ids[B, T]``, from
    the zero state through the training forward; row ``t*B + i`` predicts
    ``ids[i, t+1]``."""
    p = {k: t.data for k, t in model.params.items()}
    return gru_sequence(p["embed"], ids[:, :-1], p["w_x"], p["w_h"], p["b"], model.h)[0]


def _condition_nll(model, condition, target):
    """NLL of one target after ``BOS condition SEP``, and its tape."""
    vocab = model.vocab
    (nll,), tape = batch_nll(model, [(vocab.encode([BOS, *condition, SEP]),
                                      vocab.encode(target))])
    return float(nll), tape


def _token_nlls(model, examples):
    """Per-token NLLs of each example: one batch_nll example per target token."""
    singles = [([*cond, *tgt[:k]], [tgt[k]]) for cond, tgt in examples
               for k in range(len(tgt))]
    return batch_nll(model, singles)[0]


# ---------------------------------------------------------------------------
# vocabulary

def test_vocab_roundtrip_and_controls():
    vocab = default_vocab()
    ids = vocab.encode(["3", "+", "x", "fact", ":-"])
    assert vocab.decode(ids) == ["3", "+", "x", "fact", ":-"]
    assert vocab.decode([vocab.pad_id, vocab.bos_id, vocab.eos_id, vocab.sep_id]) == \
        list(CONTROL_TOKENS)


def test_vocab_rejects_duplicates_and_unknowns():
    with pytest.raises(ValueError, match="duplicate"):
        Vocab([*CONTROL_TOKENS, "a", "a"])
    with pytest.raises(ValueError, match="not in vocabulary"):
        toy_vocab().encode(["zz"])


@pytest.mark.parametrize("token", [5, None, "", ["a"]])
def test_vocab_and_checkpoints_reject_a_non_string_token(tmp_path, token):
    message = re.escape(f"token {token!r} is not a non-empty string")
    with pytest.raises(ValueError, match=message):
        Vocab([*CONTROL_TOKENS, "a", token])
    # a checkpoint holding one is corrupt, rather than a model whose decoding fails
    path = tmp_path / "model.json"
    save_checkpoint(toy_model(), path)
    payload = json.loads(path.read_text())
    payload["vocab"][-1] = token
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)


def test_control_tokens_absent_from_grammars():
    vocab = default_vocab()
    for tok in vocab.tokens[len(CONTROL_TOKENS):]:
        assert tok not in CONTROL_TOKENS


# ---------------------------------------------------------------------------
# distributions and generation

def test_sample_returns_k_sequences():
    model = toy_model()
    params = GenerationParams(temperature=1.0, max_len=6, k_samples=5)
    out = _sample_task(model, ["a", "b"], params, seed=1)
    assert len(out) == 5
    for seq in out:
        assert all(tok in model.vocab.tokens for tok in seq)
        assert len(seq) <= 6


def test_sample_fixed_seed_is_reproducible():
    model = toy_model()
    params = GenerationParams(temperature=1.0, max_len=8, k_samples=4)
    assert _sample_task(model, ["a"], params, 9) == _sample_task(model, ["a"], params, 9)


def test_tiny_temperature_matches_greedy():
    model = toy_model(seed=3)
    params = GenerationParams(temperature=1e-6, max_len=10, k_samples=3)
    greedy = greedy_decode(model, ["a", "b"], max_len=10)
    for seq in _sample_task(model, ["a", "b"], params, seed=0):
        assert seq == greedy


def test_a_subnormal_temperature_draws_the_greedy_tokens():
    # dividing by 1e-310 overflows every logit below its row's max to -inf, weight 0
    model = toy_model(seed=3)
    xs = [["a", "b"], ["c"], ["d", "e", "f"], ["g", "h"]]
    params = GenerationParams(temperature=1e-310, max_len=10, k_samples=len(xs))
    drawn = sample(model, frame_states(model, xs), params, _uniforms(0, len(xs), 10))
    assert drawn == greedy_batch(model, [condition_ids(model, x) for x in xs], 10)
    assert any(drawn)


def test_sample_requires_input():
    model = toy_model()
    with pytest.raises(ValueError, match="non-empty"):
        frame_states(model, [["a"], []])


def test_generation_params_validation():
    with pytest.raises(ValueError):
        GenerationParams(temperature=0.0, max_len=80, k_samples=5)
    # sampling at either would emit PAD on every row
    for temperature in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite positive"):
            GenerationParams(temperature=temperature, max_len=80, k_samples=5)
    with pytest.raises(ValueError):
        GenerationParams(temperature=1.0, max_len=0, k_samples=5)


def test_refine_outputs_are_valid_and_conditioning_roundtrips():
    model = toy_model()
    vocab = model.vocab
    out = _refine_task(model, ["a", "b"], [["c", "d"], ["e"]], GenerationParams(1.0, 80, 2),
                       seed=4)
    assert len(out) == 2
    for seq in out:
        assert vocab.decode(vocab.encode(seq)) == seq
    assert vocab.decode(condition_ids(model, ["a", "b"])) == [BOS, "a", "b", SEP]
    assert vocab.decode(condition_ids(model, ["a", "b"], ["c", "d"])) == \
        [BOS, "a", "b", SEP, "c", "d", SEP]
    # no frame is cut, however long the draft
    long_draft = ["c"] * 300
    assert vocab.decode(condition_ids(model, ["a", "b"], long_draft)) == \
        [BOS, "a", "b", SEP, *long_draft, SEP]


def test_refine_requires_previous_solution():
    with pytest.raises(ValueError, match="non-empty"):
        model = toy_model()
        _refine_task(model, ["a"], [["b"], []], GenerationParams(1.0, 80, 2), seed=0)


# uniforms a two-row, max_len 80 call rejects, naming their shape
_BAD_UNIFORM_SHAPES = [(1, 80), (2, 79), (2, 80, 1), (160,)]


def _bad_shape(shape):
    return re.escape(f"uniforms of shape {shape}, not (k_samples, max_len) = (2, 80)")


def test_refine_draws_one_refinement_per_draft():
    model = toy_model()
    states = np.repeat(frame_states(model, [["a"]]), 2, axis=0)
    params = GenerationParams(1.0, 80, 2)
    uniforms = _uniforms(0, 2, 80)
    with pytest.raises(ValueError, match="must agree"):
        refine(model, states[:1], [["b"]], params, uniforms)
    with pytest.raises(ValueError, match="must agree"):
        refine(model, states, [["b"]], params, uniforms)
    with pytest.raises(ValueError, match="must agree"):
        refine(model, states[:1], [["b"], ["c"]], params, uniforms)
    for shape in _BAD_UNIFORM_SHAPES:
        with pytest.raises(ValueError, match=_bad_shape(shape)):
            refine(model, states, [["b"], ["c"]], params, np.zeros(shape))


def test_sample_draws_one_row_per_state_and_uniform_row():
    model = toy_model()
    states = np.repeat(frame_states(model, [["a"]]), 2, axis=0)
    params = GenerationParams(1.0, 80, 2)
    with pytest.raises(ValueError, match="must agree"):
        sample(model, states[:1], params, _uniforms(0, 2, 80))
    for shape in _BAD_UNIFORM_SHAPES:
        with pytest.raises(ValueError, match=_bad_shape(shape)):
            sample(model, states, params, np.zeros(shape))


def test_generation_never_emits_pad_bos_or_sep():
    model = toy_model(seed=7)
    vocab = model.vocab
    # the three control tokens dwarf every other logit, SEP most of all
    for token_id, bias in ((vocab.pad_id, 38.0), (vocab.bos_id, 39.0), (vocab.sep_id, 40.0)):
        model.params["b_out"].data[0, token_id] = bias
    masked = {PAD, BOS, SEP}
    params = GenerationParams(temperature=1.0, max_len=12, k_samples=6)
    outputs = [greedy_decode(model, ["a", "b"], 12),
               *greedy_batch(model, [condition_ids(model, ["a"]),
                                     condition_ids(model, ["a", "b", "c"], ["d"])], 12),
               *_sample_task(model, ["a", "b"], params, seed=3),
               *_refine_task(model, ["a", "b"], [["c", "d"]] * 6, params, seed=6)]
    for seq in outputs:
        assert not masked & set(seq), seq
    # scoring keeps the full softmax, so SEP still takes nearly all the mass
    cond = condition_ids(model, ["a"])
    assert sequence_token_logps(model, cond, [vocab.sep_id])[0] > -0.5


def test_sample_rows_do_not_depend_on_how_many_are_drawn():
    model = toy_model(seed=11)
    for seed in range(5):
        more = _sample_task(model, ["a", "b"], GenerationParams(1.0, 12, 8), seed)
        assert more[:3] == _sample_task(model, ["a", "b"], GenerationParams(1.0, 12, 3), seed)


def test_refinement_does_not_depend_on_the_other_drafts():
    model = toy_model(seed=12)
    drafts = [["c", "d"], ["e"], list("fghijk"), ["a", "a", "b"]]
    start = frame_states(model, [["a", "b"]])
    uniforms = _uniforms(101, len(drafts), 12)
    together = refine(model, np.repeat(start, len(drafts), axis=0), drafts,
                      GenerationParams(1.0, 12, len(drafts)), uniforms)
    alone = [refine(model, start, [a], GenerationParams(1.0, 12, 1), uniforms[k:k + 1])[0]
             for k, a in enumerate(drafts)]
    assert together == alone


def test_rows_of_a_mixed_batch_equal_each_tasks_rows_drawn_alone():
    model = toy_model(seed=15)
    # large weights make the drawn tokens depend on the state they start from
    for param in model.params.values():
        param.data *= 5.0
    xs = [["a", "b"], list("cdefghi")]
    k = 4
    starts = frame_states(model, xs)
    owner = [0, 1, 1, 0, 1, 0, 0, 1]
    # row j takes its task's next row of uniforms
    task_uniforms = [_uniforms(7 + i, k, 12) for i in range(2)]
    uniforms = np.stack([task_uniforms[i][owner[:j].count(i)] for j, i in enumerate(owner)])
    params = GenerationParams(1.0, 12, len(owner))
    mixed = sample(model, starts[owner], params, uniforms)
    for i, x in enumerate(xs):
        alone = _sample_task(model, x, GenerationParams(1.0, 12, k), 7 + i)
        assert [a for a, o in zip(mixed, owner) if o == i] == alone
    drafts = [a or ["b"] for a in mixed]
    uniforms = _uniforms(100, len(owner), 12)
    mixed = refine(model, starts[owner], drafts, params, uniforms)
    for i, x in enumerate(xs):
        rows = [j for j, o in enumerate(owner) if o == i]
        alone = refine(model, np.repeat(starts[i:i + 1], len(rows), axis=0),
                       [drafts[j] for j in rows], GenerationParams(1.0, 12, len(rows)),
                       uniforms[rows])
        assert [mixed[j] for j in rows] == alone


def test_frame_states_are_forwards_states_at_the_frame_ends():
    model = toy_model64(seed=16)
    rng = np.random.default_rng(5)
    frames = [model.vocab.encode(_random_tokens(rng, model.vocab, n)) for n in (3, 1, 9, 4, 9)]
    ids = np.full((len(frames), 10), model.vocab.pad_id, dtype=np.intp)
    for i, frame in enumerate(frames):
        ids[i, :len(frame)] = frame
    ends = [(len(frame) - 1) * len(frames) + i for i, frame in enumerate(frames)]
    np.testing.assert_allclose(_frame_states(model, frames), _gru_states(model, ids)[ends],
                               rtol=0, atol=1e-12)
    # continued from given states, against the step-by-step reference
    start = rng.uniform(-1.0, 1.0, (len(frames), model.h))
    p = {k: t.data for k, t in model.params.items()}
    from_start, _ = reference_gru(p["embed"], ids[:, :-1], p["w_x"], p["w_h"], p["b"], start)
    np.testing.assert_allclose(_frame_states(model, frames, start), from_start[ends],
                               rtol=0, atol=1e-12)
    assert _frame_states(model, []).shape == (0, model.h)
    # a zero-length frame keeps its start state, among frames of any length
    with_empty = [frames[0], [], frames[2]]
    assert np.array_equal(_frame_states(model, with_empty)[1], np.zeros(model.h))
    given = _frame_states(model, with_empty, start[:3])
    assert np.array_equal(given[1], start[1].astype(given.dtype))
    assert np.array_equal(given[[0, 2]], _frame_states(model, [frames[0], frames[2]],
                                                       start[[0, 2]]))


def test_batched_refine_frames_give_the_row_by_row_token_logps():
    model = toy_model64(seed=13)
    vocab = model.vocab
    rng = np.random.default_rng(3)
    x = ["a", "b", "c"]
    drafts = [_random_tokens(rng, vocab, n) for n in (1, 9, 4, 30, 2)]  # 30 is cut
    frames = [condition_ids(model, x, a) for a in drafts]
    states = _frame_states(model, frames)
    p = {k: t.data for k, t in model.params.items()}
    targets = [vocab.encode([*_random_tokens(rng, vocab, n), EOS]) for n in (6, 0, 3, 6, 11)]
    # the reward pass continues the frames' states as the full forward does
    np.testing.assert_allclose(
        _rewards(model, states, targets),
        [sequence_token_logps(model, cond, target).mean()
         for cond, target in zip(frames, targets)], rtol=0, atol=1e-12)
    for cond, target in zip(frames, targets):
        logps = sequence_token_logps(model, cond, target)
        # from the zero state, the rows are gru_sequence's own
        rows = _gru_states(model, np.asarray([[*cond, *target]]))[len(cond) - 1:]
        assert np.array_equal(
            logps, log_softmax(rows @ p["w_out"] + p["b_out"])[np.arange(len(target)), target])


@pytest.mark.parametrize("temperature", [0.5, 1.0, 2.0])
def test_first_token_frequencies_follow_the_tempered_softmax(temperature):
    model = toy_model(seed=14)
    vocab = model.vocab
    # spread the logits so that drawing a neighbouring token moves a lot of mass
    model.params["b_out"].data[:] = np.random.default_rng(0).normal(0.0, 2.0, len(vocab))
    n_draws = 20_000
    start = frame_states(model, [["a", "b"]])
    drawn = _sample_task(model, ["a", "b"], GenerationParams(temperature, 1, n_draws), seed=5)
    ids = [vocab.encode(a)[0] if a else vocab.eos_id for a in drawn]
    frequencies = np.bincount(ids, minlength=len(vocab)) / n_draws
    logits = start @ model.params["w_out"].data \
        + model.params["b_out"].data
    logits[:, [vocab.pad_id, vocab.bos_id, vocab.sep_id]] = -np.inf
    expected = np.exp(log_softmax(logits / temperature))[0]
    assert 0.5 * np.abs(frequencies - expected).sum() < 0.02


def test_inverse_cdf_never_draws_a_zero_probability_token():
    logits = np.random.default_rng(1).normal(0.0, 3.0, (4, 16))
    # masked tokens at both ends and inside, as PAD, BOS and SEP are masked
    masked = [0, 1, 3, 9, 15]
    logits[:, masked] = -np.inf
    for u in (0.0, 1e-300, 0.5, np.nextafter(1.0, 0.0)):
        tokens = _draw_tokens(logits, np.full(4, u))
        assert not set(tokens.tolist()) & set(masked), u
    # u -> 1 draws the first allowed token and u -> 0 the last one
    assert _draw_tokens(logits, np.full(4, np.nextafter(1.0, 0.0))).tolist() == [2] * 4
    assert _draw_tokens(logits, np.zeros(4)).tolist() == [14] * 4


def test_greedy_decode_is_deterministic():
    model = toy_model(seed=5)
    assert greedy_decode(model, ["a", "c"], 80) == greedy_decode(model, ["a", "c"], 80)


def test_batched_greedy_rows_equal_their_one_row_decodes():
    model = toy_model(seed=2)
    # large weights make the greedy outputs depend on the frame and end at different steps
    for param in model.params.values():
        param.data *= 20.0
    rng = np.random.default_rng(4)
    frames = []
    for n_x in (1, 3, 7, 12):
        x = _random_tokens(rng, model.vocab, n_x)
        frames += [(x, None), (x, _random_tokens(rng, model.vocab, 1 + n_x % 5))]
    encoded = [condition_ids(model, x, a_prev) for x, a_prev in frames]
    alone = [greedy_batch(model, [frame], 12)[0] for frame in encoded]
    assert len({len(a) for a in alone}) > 2
    assert greedy_batch(model, encoded, 12) == alone
    # a task frame's one-row case is greedy_decode
    assert [greedy_decode(model, x, 12) for x, a_prev in frames if a_prev is None] == \
        alone[::2]
    assert greedy_batch(model, [], 12) == []


# ---------------------------------------------------------------------------
# scoring

def test_score_is_mean_per_token_logp_with_eos():
    model = toy_model64()
    a = ["a", "b", "c"]
    start = frame_states(model, [["d"]])
    p = {k: t.data for k, t in model.params.items()}
    expected = reference_reward(p, start, model.vocab.encode([*a, EOS]))
    assert abs(one_reward(model, start, a) - expected) <= 1e-12


def test_score_rows_steps_each_solution_once_and_score_looks_r_up(monkeypatch):
    model = toy_model()
    start = frame_states(model, [["d"]])
    rows = count_reward_rows(monkeypatch)
    a, b = ["a", "b"], ["c"]
    r_a, r_b = one_reward(model, start, a), one_reward(model, start, b)
    assert rows == [1, 1]
    solutions = (a, b, a, tuple(b))
    scored = score_rows(model, start, [(0, s) for s in solutions])[0]
    assert rows == [1, 1, 2]
    assert [score(s, scored) for s in solutions] == [r_a, r_b, r_a, r_b]
    assert rows == [1, 1, 2]
    assert scored == {("a", "b"): r_a, ("c",): r_b}


def _reward_rows_case(case, model, rng):
    """Task-frame states and (task, a) items for one case of the reward pass."""
    vocab = model.vocab
    if case == "single":
        return frame_states(model, [["a", "b"]]), [(0, _random_tokens(rng, vocab, 5))]
    if case == "ragged":
        # an empty solution is EOS alone; the longest is as long as execute grades
        lengths = (0, 3, MAX_SOLUTION_LEN, 1, 17, 0, 9, 3)
        return (frame_states(model, [["c"]]),
                [(0, _random_tokens(rng, vocab, n)) for n in lengths])
    xs = [_random_tokens(rng, vocab, n) for n in (1, 4, 2, 7, 3)]
    n_rows = 3 * _REWARD_ROWS + 5 if case == "more_than_one_pass" else 12
    return (frame_states(model, xs),
            [(i % len(xs), _random_tokens(rng, vocab, int(rng.integers(0, 25))))
             for i in range(n_rows)])


@pytest.mark.parametrize("case", ["ragged", "single", "more_than_one_pass", "several_tasks"])
@pytest.mark.parametrize("scale", [1.0, 20.0])  # x20 saturates the gates
def test_score_rows_match_the_step_by_step_reference(case, scale, monkeypatch):
    model = toy_model64(seed=11)
    for param in model.params.values():
        param.data *= scale
    p = {k: t.data for k, t in model.params.items()}
    starts, items = _reward_rows_case(case, model, np.random.default_rng(7))
    items += items[:3]  # repeats are computed once
    rows = count_reward_rows(monkeypatch)
    scored = score_rows(model, starts, items)
    assert len(scored) == len(starts)
    distinct = {(i, tuple(a)) for i, a in items}
    assert sum(rows) == len(distinct) == sum(len(r) for r in scored)
    assert max(rows) <= _REWARD_ROWS and len(rows) == -(-len(distinct) // _REWARD_ROWS)
    for i, a in distinct:
        expected = reference_reward(p, starts[i:i + 1], model.vocab.encode([*a, EOS]))
        assert abs(scored[i][a] - expected) <= 1e-12
    # a returned r is looked up, not recomputed
    assert [score(a, scored[i]) for i, a in items] == \
        [scored[i][tuple(a)] for i, a in items]
    assert sum(rows) == len(distinct)


def test_score_rows_do_not_depend_on_the_order_of_the_rows():
    model = toy_model(seed=12)
    rng = np.random.default_rng(8)
    starts, items = _reward_rows_case("more_than_one_pass", model, rng)
    scored = score_rows(model, starts, items)
    for seed in range(3):
        shuffled = [items[k] for k in np.random.default_rng(seed).permutation(len(items))]
        again = score_rows(model, starts, shuffled)
        assert [d.keys() for d in again] == [d.keys() for d in scored]
        for before, after in zip(scored, again):
            for a, r in before.items():
                assert abs(after[a] - r) <= 1e-12


@pytest.mark.parametrize("env", list(EnvKind))
def test_score_from_the_frame_state_equals_the_full_forward(env):
    tasks, _ = generate_dataset(env, 5, seed=2)
    model = float64_model(default_vocab(), d=8, h=12, seed=6)
    # large weights make the drawn tokens depend on the state they start from
    for param in model.params.values():
        param.data *= 20.0
    rng = np.random.default_rng(0)
    for task in tasks:
        start = frame_states(model, [task.x])
        for n_a in (0, 1, 8):
            a = _random_tokens(rng, model.vocab, n_a)
            # the task frame and the target, stepped from the zero state
            full = sequence_token_logps(model, condition_ids(model, task.x),
                                        model.vocab.encode([*a, EOS]))
            assert abs(one_reward(model, start, a) - full.mean()) <= 1e-12
        # sample and refine, started from the shared state, draw what the full
        # frames draw, stepped from the zero state as one batch
        drafts = [_random_tokens(rng, model.vocab, n) for n in (1, 10, 4)]
        full = _frame_states(model, [condition_ids(model, task.x, a) for a in drafts])
        np.testing.assert_allclose(
            _frame_states(model, [draft_ids(model, a) for a in drafts],
                          np.repeat(start, len(drafts), axis=0)), full, rtol=0, atol=1e-12)
        task_frames = _frame_states(model, [condition_ids(model, task.x)] * len(drafts))
        np.testing.assert_allclose(np.repeat(start, len(drafts), axis=0), task_frames,
                                   rtol=0, atol=1e-12)
        params = GenerationParams(1.0, 12, len(drafts))
        for seed in range(3):
            uniforms = _uniforms(seed, len(drafts), 12)
            assert _refine_task(model, task.x, drafts, params, seed) == \
                _generate(model, full, params.max_len, uniforms, params.temperature)
            assert _sample_task(model, task.x, params, seed) == \
                _generate(model, task_frames, params.max_len, uniforms, params.temperature)


def test_score_bounds():
    model = toy_model(seed=2)
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = _random_tokens(rng, model.vocab, int(rng.integers(1, 6)))
        r = one_reward(model, frame_states(model, [["a"]]), a)
        assert r <= 0.0
        assert 0.0 < math.exp(r * (len(a) + 1)) <= 1.0


def test_score_of_empty_solution_is_eos_alone():
    model = toy_model64()
    start = frame_states(model, [["a"]])
    p = {k: t.data for k, t in model.params.items()}
    eos_logp = reference_reward(p, start, [model.vocab.eos_id])
    assert abs(one_reward(model, start, []) - eos_logp) <= 1e-12


def test_a_zero_step_forward_has_no_states():
    model = toy_model(seed=3)
    p = {k: t.data for k, t in model.params.items()}
    # one column: the only token predicts nothing, so no step runs
    assert _gru_states(model, np.array([[1], [2]])).shape == (0, model.h)
    start = frame_states(model, [["a", "b"]])
    # an empty solution scored from the frame state is EOS alone, predicted by
    # that state with no step taken
    eos_logp = log_softmax(start @ p["w_out"] + p["b_out"])[0, model.vocab.eos_id]
    assert one_reward(model, start, []) == pytest.approx(eos_logp, abs=1e-12)


def test_score_consistent_with_loss_primitive():
    model = toy_model(seed=8)
    rng = np.random.default_rng(31)
    for _ in range(25):
        condition = _random_tokens(rng, model.vocab, int(rng.integers(1, 5)))
        a = _random_tokens(rng, model.vocab, int(rng.integers(1, 7)))
        target = [*a, EOS]
        loss, _ = _condition_nll(model, condition, target)
        cond_ids = model.vocab.encode([BOS, *condition, SEP])
        per_token = _token_nlls(model, [(cond_ids, model.vocab.encode(target))])
        assert one_reward(model, frame_states(model, [condition]), a) == \
            pytest.approx(-per_token.mean(), abs=1e-9)
        assert loss == pytest.approx(per_token.sum(), abs=1e-9)


def test_score_equals_negative_nll_over_length():
    model = toy_model(seed=1)
    a = ["b", "a", "d"]
    loss, _ = _condition_nll(model, ["c"], [*a, EOS])
    assert loss == pytest.approx(
        -one_reward(model, frame_states(model, [["c"]]), a) * (len(a) + 1), abs=1e-9)


# ---------------------------------------------------------------------------
# nll and batching

def test_nll_uniform_logits_is_log_vocab():
    model = toy_model64()
    model.params["w_out"].data[:] = 0.0
    model.params["b_out"].data[:] = 0.0
    loss, _ = _condition_nll(model, ["a"], ["b"])
    assert loss == pytest.approx(math.log(16), abs=1e-12)


def test_nll_rejects_empty_target_and_unknown_token():
    with pytest.raises(ValueError):
        _condition_nll(toy_model(), ["a"], [])
    with pytest.raises(ValueError, match="not in vocabulary"):
        _condition_nll(toy_model(), ["a"], ["nope"])


def test_nll_gradient_matches_finite_differences():
    model = toy_model64(seed=12)

    def loss_fn():
        return _condition_nll(model, ["a", "b"], ["c", "d", EOS])[0]

    _, tape = _condition_nll(model, ["a", "b"], ["c", "d", EOS])
    tape.backward(np.ones(1))
    analytic = {name: p.grad for name, p in model.params.items()}
    fd = central_differences(loss_fn, model.params)
    assert_grads_close(analytic, fd)


def test_batch_nll_equals_sum_of_single_losses():
    model = toy_model(seed=6)
    vocab = model.vocab
    examples = [
        (vocab.encode([BOS, "a", SEP]), vocab.encode(["b", EOS])),
        (vocab.encode([BOS, "b", "c", SEP]), vocab.encode(["d", "e", "f", EOS])),
        (vocab.encode([BOS, "a", "c", "d", SEP]), vocab.encode(["a", EOS])),
    ]
    nll, _ = batch_nll(model, examples)
    assert nll.shape == (3,)
    singles = [float(batch_nll(model, [ex])[0][0]) for ex in examples]
    np.testing.assert_allclose(nll, singles, rtol=0, atol=1e-12)


def test_sequence_token_logps_match_batch_nll_per_token():
    model = toy_model64(seed=9)
    vocab = model.vocab
    examples = [
        (vocab.encode([BOS, "a", "b", "c", SEP]), vocab.encode(["d", EOS])),
        (vocab.encode([BOS, "e", SEP]), vocab.encode(["f", "g", "h", "i", "j", EOS])),
        (vocab.encode([BOS, "k", "l", SEP]), vocab.encode(["a", "b", EOS])),
        (vocab.encode([BOS, "c", SEP, "d", "e", SEP]), vocab.encode(["f", EOS])),
    ]
    expected = np.concatenate([sequence_token_logps(model, cond, tgt)
                               for cond, tgt in examples])
    np.testing.assert_allclose(-_token_nlls(model, examples), expected, rtol=0,
                               atol=1e-12)
    sums = [logps.sum() for logps in (sequence_token_logps(model, c, t)
                                      for c, t in examples)]
    np.testing.assert_allclose(-batch_nll(model, examples)[0], sums,
                               rtol=0, atol=1e-12)


# the target's and condition's steps together on both sides of V = 16 positions;
# from a given start, the target is the reward pass's, continued from the state
# after cond
@pytest.mark.parametrize("n_cond, n_target", [(0, 1), (0, 4), (3, 2), (0, 30), (12, 20)])
@pytest.mark.parametrize("scale", [1.0, 20.0])  # x20 saturates the gates
@pytest.mark.parametrize("from_start", [False, True])
def test_sequence_token_logps_match_the_step_by_step_reference(n_cond, n_target, scale,
                                                               from_start):
    model = toy_model64(seed=n_cond + n_target)
    for param in model.params.values():
        param.data *= scale
    p = {k: t.data for k, t in model.params.items()}
    rng = np.random.default_rng(n_cond * 100 + n_target)
    cond = rng.integers(0, len(model.vocab), n_cond).tolist()
    target = rng.integers(0, len(model.vocab), n_target).tolist()
    start = rng.uniform(-1, 1, (1, model.h)) if from_start else np.zeros((1, model.h))
    ids = np.asarray([[*cond, *target[:-1]]], dtype=np.intp)
    states = reference_gru(p["embed"], ids, p["w_x"], p["w_h"], p["b"], start)[0]
    rows = np.vstack([start, states])[n_cond:]
    expected = log_softmax(rows @ p["w_out"] + p["b_out"])[np.arange(n_target), target]
    if from_start:
        (actual,) = _rewards(model, rows[:1], [target])
        assert abs(actual - expected.mean()) <= 1e-12
        return
    actual = sequence_token_logps(model, cond, target)
    assert actual.shape == (n_target,)
    np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)


def test_batch_nll_gradient_matches_finite_differences():
    model = toy_model64(seed=13)
    vocab = model.vocab
    examples = [
        (vocab.encode([BOS, "a", SEP]), vocab.encode(["b", "c", EOS])),
        (vocab.encode([BOS, "d", "e", SEP]), vocab.encode(["f", EOS])),
    ]

    # non-unit weights of both signs, so each example's gradient is weighted apart
    w = np.array([0.7, -1.3])
    _, tape = batch_nll(model, examples)
    assert len(tape) == 1
    tape.backward(w)
    analytic = {name: p.grad for name, p in model.params.items()}
    fd = central_differences(lambda: float(w @ batch_nll(model, examples)[0]),
                             model.params)
    assert_grads_close(analytic, fd)


def test_untaped_forward_equals_taped_states_bitwise():
    model = toy_model(seed=4)
    ids = np.array([[1, 4, 5, 3, 6, 2],
                    [1, 7, 3, 8, 2, 0],
                    [1, 9, 9, 3, 2, 0]])
    p = {k: t.data for k, t in model.params.items()}
    # the states batch_nll computes and backpropagates through
    taped, cache = gru_sequence(p["embed"], ids[:, :-1], p["w_x"], p["w_h"], p["b"], model.h)
    assert taped.shape == (5 * 3, model.h)
    assert cache.gates.shape == cache.hw.shape == (5, 3, 3, model.h)
    # sequence_token_logps steps a one-row batch from the zero state, as
    # batch_nll does
    cond, target = ids[0, :4].tolist(), ids[0, 4:].tolist()
    row, _ = gru_sequence(p["embed"], ids[:1, :-1], p["w_x"], p["w_h"], p["b"], model.h)
    expected = log_softmax(row[3:] @ p["w_out"] + p["b_out"])[np.arange(2), target]
    assert np.array_equal(sequence_token_logps(model, cond, target), expected)


def test_a_default_model_computes_in_float32_and_sums_its_losses_in_float64():
    model, wide = toy_model(seed=4), toy_model64(seed=4)
    # the float64 draws, cast: the init stream does not change
    for name, p in model.params.items():
        assert p.data.dtype == p.grad.dtype == np.float32
        assert np.array_equal(p.data, wide.params[name].data.astype(np.float32))
    vocab = model.vocab
    examples = [(vocab.encode([BOS, "a", SEP]), vocab.encode(["b", "c", EOS])),
                (vocab.encode([BOS, "d", "e", SEP]), vocab.encode(["f", EOS]))]
    nll, tape = batch_nll(model, examples)
    assert nll.dtype == np.float64
    tape.backward(np.ones(2))
    assert all(p.grad.dtype == np.float32 for p in model.params.values())
    states = frame_states(model, [["a", "b"], ["c"]])
    assert states.dtype == np.float32
    assert sequence_token_logps(model, examples[0][0], examples[0][1]).dtype == np.float32
    assert _rewards(model, states, [examples[0][1], examples[1][1]]).dtype == np.float64


def test_float32_training_tracks_float64():
    # the same init (the float32 parameters, cast) and the same minibatches: 30
    # SGD steps on logic_rules witnesses at the default size, lr 0.1 and the clip
    tasks, witnesses = generate_dataset(EnvKind.LOGIC_RULES, 12, seed=0)
    narrow = PolicyModel(default_vocab(), seed=0)
    wide = PolicyModel(default_vocab(), seed=0)
    wide.params = {name: Param(p.data.astype(np.float64))
                   for name, p in narrow.params.items()}
    examples = [(condition_ids(narrow, t.x), target_ids(narrow, witnesses[t.id]))
                for t in tasks]
    rng = np.random.default_rng(0)
    eps = np.finfo(np.float32).eps
    step, means = 0, []
    for _ in range(10):
        order = rng.permutation(len(examples))
        for start in range(0, len(order), 4):
            batch = [examples[i] for i in order[start:start + 4]]
            step += 1
            losses = []
            for model in (narrow, wide):
                nll, tape = batch_nll(model, batch)
                tape.backward(np.ones(len(nll)))
                sgd_step(model.params, {name: p.grad for name, p in model.params.items()},
                         0.1, CLIP)
                losses.append(nll)
            # each step's float32 roundings may add one epsilon of relative drift
            np.testing.assert_allclose(losses[0], losses[1], rtol=step * eps, atol=0)
            means.append(losses[1].mean())
    assert step == 30 and means[-1] < 0.8 * means[0]  # the steps trained


# ---------------------------------------------------------------------------
# parameter initialisation: PolicyModel(vocab, d, h, seed)

def test_reinit_same_seed_bitwise_identical():
    a = toy_model(seed=42)
    b = toy_model(seed=42)
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data)


def test_reinit_different_seed_differs():
    a = toy_model(seed=1)
    b = toy_model(seed=2)
    assert any(not np.array_equal(a.params[n].data, b.params[n].data)
               for n in a.params)


def test_reinit_bounds_and_behavior_change():
    model = toy_model(seed=0)
    fresh = PolicyModel(model.vocab, model.d, model.h, 77)
    for t in fresh.params.values():
        assert np.abs(t.data).max() <= 0.08
    # nudge the original far from init so greedy behaviour differs
    model.params["b_out"].data[0, 5] = 25.0
    assert greedy_decode(model, ["a"], 80) != greedy_decode(fresh, ["a"], 80)


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_roundtrip_scores_identical(tmp_path):
    model = toy_model(seed=21)
    path = tmp_path / "model.json"
    save_checkpoint(model, path, metadata={"note": "test"})
    loaded, metadata = load_checkpoint(path)
    assert metadata == {"note": "test"}
    # float32 values written as Python floats read back exactly, in the model's dtype
    for name, p in model.params.items():
        assert loaded.params[name].data.dtype == p.data.dtype == np.float32
        assert np.array_equal(loaded.params[name].data, p.data)
    rng = np.random.default_rng(2)
    for _ in range(10):
        cond = _random_tokens(rng, model.vocab, 3)
        a = _random_tokens(rng, model.vocab, int(rng.integers(1, 6)))
        assert one_reward(model, frame_states(model, [cond]), a) == \
            one_reward(loaded, frame_states(loaded, [cond]), a)


# strings shaped like the JSON around params, which a writer that splices text
# into a dump of the rest of the payload would match
TRICKY_METADATA = {"params": '{"b": {"shape": [1, 36], "values": [', "note": '"}, "vocab": [',
                   "warmup_task_ids": ["}, \"params\": {", "\u00e9"],
                   "nested": {"z": [1.5, None, True], "a": "}}"}}


@pytest.mark.parametrize("metadata", [None, TRICKY_METADATA], ids=["none", "tricky"])
def test_checkpoint_bytes_equal_one_dump_of_the_payload(tmp_path, metadata):
    # the toy model's largest parameter has 432 values, fewer than one slice;
    # the default size's span several slices (w_h has 12,288 values)
    toy, default = toy_model(seed=4), PolicyModel(default_vocab(), seed=4)
    assert max(t.data.size for t in toy.params.values()) < _CHECKPOINT_SLICE
    assert default.params["w_h"].data.size > 2 * _CHECKPOINT_SLICE
    default.params["b"].data[0, :3] = [np.nan, np.inf, -0.0]  # JSON's odd spellings
    for model in (toy, default):
        path = save_checkpoint(model, tmp_path / "model.json", metadata)
        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "d": model.d,
            "h": model.h,
            "vocab": model.vocab.tokens,
            "params": {k: {"shape": list(t.data.shape),
                           "values": t.data.reshape(-1).tolist()}
                       for k, t in model.params.items()},
            "metadata": metadata or {},
        }
        assert path.read_bytes() == json.dumps(payload, sort_keys=True).encode()
        if model is default:  # a checkpoint holds what it is given; a load refuses it
            with pytest.raises(CheckpointError, match="'b' has a non-finite value"):
                load_checkpoint(path)
            continue
        loaded, loaded_metadata = load_checkpoint(path)
        assert loaded_metadata == (metadata or {})
        assert (loaded.vocab.tokens, loaded.d, loaded.h) == \
            (model.vocab.tokens, model.d, model.h)
        for name, param in model.params.items():
            assert np.array_equal(loaded.params[name].data, param.data, equal_nan=True)


def test_checkpoint_metadata_json_cannot_encode_writes_no_file(tmp_path):
    with pytest.raises(TypeError):
        save_checkpoint(toy_model(), tmp_path / "model.json", {"seed": object()})
    assert not (tmp_path / "model.json").exists()


def test_checkpoint_truncated_file_is_error(tmp_path):
    model = toy_model()
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    path.write_text(path.read_text()[: 200])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_version_mismatch_is_error(tmp_path):
    model = toy_model()
    path = tmp_path / "model.json"
    save_checkpoint(model, path)
    payload = json.loads(path.read_text())
    # version 1 carried an rng stream the policy no longer has, version 2 a context
    # budget, version 3 float64 parameters
    for version in (1, 2, 3, 99):
        payload["version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)
    payload["format"] = "other"
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("fault, message", [
    (lambda payload: payload["params"].pop("w_out"), "'w_out' is missing"),
    (lambda payload: payload["params"].update(extra=payload["params"]["b"]),
     "'extra' is unknown"),
    (lambda payload: payload["params"].update(embed={"shape": [3, 8], "values": [0.0] * 24}),
     r"'embed' has shape \(3, 8\), expected \(16, 8\)"),
    (lambda payload: payload.update(params=list(payload["params"].values())),
     "params must be an object"),
    # past float32's largest value, 3.4e38
    (lambda payload: payload["params"]["b"]["values"].__setitem__(0, 1e39),
     "overflow encountered in cast"),
    # json writes and reads NaN and Infinity
    (lambda payload: payload["params"]["w_out"]["values"].__setitem__(0, math.nan),
     "'w_out' has a non-finite value"),
    (lambda payload: payload["params"]["embed"]["values"].__setitem__(5, math.inf),
     "'embed' has a non-finite value"),
    (lambda payload: payload["params"]["b_out"]["values"].__setitem__(-1, -math.inf),
     "'b_out' has a non-finite value"),
    (lambda payload: payload["params"]["b"]["values"].pop(), "'b' has 35 values, expected 36"),
    # a model of this d or h would need terabytes: the file is rejected unbuilt
    (lambda payload: payload.update(d=10**12),
     r"'embed' has shape \(16, 8\), expected \(16, 1000000000000\)"),
    (lambda payload: payload.update(h=10**12),
     r"'w_x' has shape \(8, 36\), expected \(8, 3000000000000\)"),
    (lambda payload: payload.update(h=0), "h must be a positive integer, got 0"),
], ids=["missing", "extra", "mis_shaped", "params_list", "past_float32", "nan", "inf",
        "minus_inf", "value_count", "huge_d", "huge_h", "zero_h"])
def test_checkpoint_parameters_must_fit_the_model(tmp_path, fault, message):
    path = tmp_path / "model.json"
    save_checkpoint(toy_model(), path)
    payload = json.loads(path.read_text())
    fault(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path)
