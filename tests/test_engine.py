import copy
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from symtrain import engine, environments, policy
from symtrain.autodiff import TrainingError, sgd_step
from symtrain.environments import expr, grid
from symtrain.engine import (
    ConfigError,
    RunConfig,
    TrainingSets,
    _dpo_losses,
    _encode_examples,
    _reference_margins,
    _run_epochs,
    _train_dpo_stage,
    build_training_sets,
    child_seed,
    dpo_loss,
    evaluate,
    explore_phase,
    filter_pair,
    run,
    select_u1,
    select_u2,
    train_iteration,
)
from symtrain.environments import (EnvKind, Status, _read, canonical_output, execute,
                                   generate_dataset)
from symtrain.policy import (
    BOS,
    EOS,
    SEP,
    GenerationParams,
    PolicyModel,
    Vocab,
    CONTROL_TOKENS,
    batch_nll,
    condition_ids,
    default_vocab,
    frame_states,
    greedy_batch,
    greedy_decode,
    refine,
    sample,
)
from symtrain.pool import REWARD_TIE, CandidatePool, RankedSets, Trajectory, filter_pair
from helpers import (assert_grads_close, assert_read_only, central_differences,
                     count_reward_rows, float64_model, mp_dpo_loss, one_reward,
                     reference_selection)


def tiny_config(**over):
    base = dict(env="expr_math", method="envisions", K=2, N1=3, N2=1,
                iterations=2, train_mode="scratch", ablations=[],
                epochs_per_iter=4, lr=0.1, dpo_beta=0.1, seed=0,
                d=8, h=12, max_len=12, warmup_tasks=2, batch_size=4)
    base.update(over)
    return RunConfig.from_dict(base)


def make_traj(task="t1", a=("a",), b=1, r=-0.5, source="explore", iteration=1):
    status = Status.OK if b else Status.RUNTIME_ERROR
    return Trajectory(task, ("x",), "y", tuple(a), b, r, source, iteration, status)


def ranked(n_pos, n_neg):
    pos = [make_traj(a=(f"p{i}",), b=1, r=-0.1 * (i + 1)) for i in range(n_pos)]
    neg = [make_traj(a=(f"n{i}",), b=0, r=-0.1 * (i + 1)) for i in range(n_neg)]
    return RankedSets(pos, neg)


# ---------------------------------------------------------------------------
# config validation

def test_config_missing_key_names_it():
    raw = tiny_config().as_dict()
    raw.pop("K")
    with pytest.raises(ConfigError, match="'K'"):
        RunConfig.from_dict(raw)


def test_config_unknown_key_rejected():
    raw = tiny_config().as_dict()
    raw["mystery"] = 1
    with pytest.raises(ConfigError, match="mystery"):
        RunConfig.from_dict(raw)


def test_config_invariants():
    with pytest.raises(ConfigError):
        tiny_config(K=0)
    with pytest.raises(ConfigError):
        tiny_config(method="nope")
    with pytest.raises(ConfigError, match="ablations"):
        tiny_config(method="star_env", ablations=["no_L2"])
    with pytest.raises(ConfigError):
        tiny_config(ablations=["bogus"])
    with pytest.raises(ConfigError):
        tiny_config(env="martian")
    # an integer past the largest float would overflow in the first SGD step
    with pytest.raises(ConfigError, match="lr must be a finite positive number"):
        tiny_config(lr=10**400)


@pytest.mark.parametrize("field,value", [
    ("warmup_tasks", -3), ("temperature", 0.0), ("temperature", math.inf),
    ("lr", math.inf), ("lr", math.nan), ("dpo_beta", math.inf),
    ("max_len", 0), ("d", 0), ("h", 0), ("max_len", 257),
    ("warmup_epochs", -1), ("K", 2.5), ("iterations", 1.5), ("K", True),
    ("seed", -1), ("dpo_beta", -0.1), ("ablations", "no_L2"),
    # tiny_config trains from scratch, which the SFT+DPO stages would ignore
    ("method", "sft_dpo"),
    # clip is fixed at autodiff.CLIP, so naming it at all is an unknown key
    ("clip", -1.0), ("clip", 0.0),
])
def test_config_rejects_values_that_misbehave_later(field, value):
    with pytest.raises(ConfigError, match=field):
        tiny_config(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("clip", 5.0), ("pool_cap", 64),
    ("eval_with_refine", False), ("seed_pool_with_warmup", True),
])
def test_config_rejects_the_fixed_knobs(field, value):
    # these are fixed: no config may set them, even to their values
    with pytest.raises(ConfigError, match=f"unknown config key '{field}'"):
        tiny_config(**{field: value})


# ---------------------------------------------------------------------------
# selection

def test_u1_takes_all_when_fewer_than_limit():
    sets = ranked(3, 0)
    u1 = select_u1(sets, n1=10)
    assert [t.a for t in u1] == [("p0",), ("p1",), ("p2",)]


def test_u1_takes_exactly_top_n1():
    sets = ranked(12, 0)
    u1 = select_u1(sets, n1=10)
    assert len(u1) == 10
    assert u1 == sets.s_plus[:10]


def _pool_of(tasks, n_pos, n_neg):
    pool = CandidatePool()
    for task in tasks:
        pool.update([make_traj(task=task.id, a=(f"p{i}",), b=1, r=-0.1 * (i + 1))
                     for i in range(n_pos)]
                    + [make_traj(task=task.id, a=(f"n{i}",), b=0, r=-0.1 * (i + 1))
                       for i in range(n_neg)])
    return pool


def test_no_self_reward_selection_is_a_seeded_permutation():
    from symtrain.environments import TaskInstance
    tasks = [TaskInstance(f"t{i}", ("x",), "y") for i in range(3)]
    pool = _pool_of(tasks, 14, 6)
    config = tiny_config(N1=10, N2=3, ablations=["no_self_reward"])
    sets = build_training_sets(pool, tasks, config, iteration=2)
    assert sets == build_training_sets(pool, tasks, config, iteration=2)
    ranked_sets = build_training_sets(pool, tasks, tiny_config(N1=10, N2=3), iteration=2)
    assert sets != ranked_sets
    assert (len(sets.u1), len(sets.u2)) == (len(ranked_sets.u1), len(ranked_sets.u2))

    # the same ranked slicing, applied to each task's S+ and S- in seeded order
    rng = np.random.default_rng(child_seed(config.seed, engine._DOM_SELECT, 2))
    u1, u2 = [], []
    for task in tasks:
        ranked_pool = pool.ranked_sets(task.id)
        pos = [ranked_pool.s_plus[i] for i in rng.permutation(len(ranked_pool.s_plus))]
        neg = [ranked_pool.s_minus[i] for i in rng.permutation(len(ranked_pool.s_minus))]
        ref_u1, ref_u2 = reference_selection(pos, neg, config.N1, config.N2)
        u1 += [(t.x, t.a) for t in ref_u1]
        u2 += [(p.x, p.a, n.a) for p, n in ref_u2]
        assert not {p.a for p, _ in ref_u2} & {t.a for t in ref_u1}
    assert (sets.u1, sets.u2) == (u1, u2)


def test_u2_spec_index_arithmetic():
    sets = ranked(12, 5)
    pairs = select_u2(sets, 10, 2)
    assert len(pairs) == 2
    assert pairs[0] == (sets.s_plus[10], sets.s_minus[0])
    assert pairs[1] == (sets.s_plus[11], sets.s_minus[1])


def test_u2_zero_pairs_at_boundary():
    sets = ranked(10, 5)
    assert select_u2(sets, 10, 2) == []


def test_u2_limited_by_negatives():
    sets = ranked(15, 1)
    pairs = select_u2(sets, 10, 2)
    assert len(pairs) == 1


def test_u2_empty_when_no_positives():
    sets = ranked(0, 4)
    assert select_u1(sets, 10) == []
    assert select_u2(sets, 10, 2) == []


def test_selection_matches_reference_on_200_random_pools():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n_pos = int(rng.integers(0, 25))
        n_neg = int(rng.integers(0, 25))
        n1 = int(rng.integers(1, 15))
        n2 = int(rng.integers(0, 5))
        sets = ranked(n_pos, n_neg)
        u1 = select_u1(sets, n1)
        u2 = select_u2(sets, n1, n2)
        ref_u1, ref_u2 = reference_selection(sets.s_plus, sets.s_minus, n1, n2)
        assert u1 == ref_u1
        assert u2 == ref_u2


def test_training_set_provenance():
    pool = CandidatePool()
    pool.update([make_traj(a=("p",), b=1), make_traj(a=("n",), b=0)])
    from symtrain.environments import TaskInstance
    task = TaskInstance("t1", ("x",), "y")
    sets = build_training_sets(pool, [task], tiny_config(N1=1, N2=5), iteration=1)
    # single positive: selected into U1, leaving none for pairs
    assert sets.u1 == [(("x",), ("p",))]
    assert sets.u2 == []


# ---------------------------------------------------------------------------
# exploration

@pytest.fixture(scope="module")
def expr_setup():
    tasks, witnesses = generate_dataset(EnvKind.EXPR_MATH, 6, seed=0)
    model = PolicyModel(default_vocab(), d=8, h=12, seed=0)
    return tasks, witnesses, model


def test_explore_produces_k_pairs_per_task(expr_setup):
    tasks, _, model = expr_setup
    config = tiny_config(K=3)
    pairs = explore_phase(model, tasks[:2], config, iteration=1)
    assert len(pairs) == 6
    for t, t_tilde in pairs:
        assert t.source == "explore"
        assert t_tilde is None or t_tilde.source == "refine"


def test_explore_without_refinement_yields_bare_trajectories(expr_setup):
    tasks, _, model = expr_setup
    config = tiny_config(ablations=["no_self_refine"], K=3)
    pairs = explore_phase(model, tasks[:2], config, iteration=1)
    assert len(pairs) == 6
    assert all(t_tilde is None for _, t_tilde in pairs)
    survivors = [filter_pair(t, tt) for t, tt in pairs]
    assert [s.a for s in survivors] == [t.a for t, _ in pairs]


def test_untrained_model_failures_become_zero_feedback(expr_setup):
    tasks, _, model = expr_setup
    config = tiny_config(K=5)
    pairs = explore_phase(model, tasks[:1], config, iteration=1)
    assert len(pairs) == 5
    for t, _ in pairs:
        assert t.b in (0, 1)
        if t.status is not Status.OK:
            assert t.b == 0
        assert t.r <= 0.0


def test_explore_is_deterministic_and_independent_of_batch_makeup(expr_setup):
    tasks, _, model = expr_setup
    config = tiny_config(K=2)
    first = explore_phase(model, tasks, config, iteration=1)
    second = explore_phase(model, tasks, config, iteration=1)
    assert first == second
    # a task's candidates depend on its position only, not on the tasks after it
    prefix = explore_phase(model, tasks[:3], config, iteration=1)
    assert prefix == first[:3 * config.K]
    # draft k and its refinement do not depend on how many drafts share the batch
    wider = explore_phase(model, tasks, tiny_config(K=5), iteration=1)
    assert [pair for i in range(len(tasks)) for pair in wider[5 * i:5 * i + 2]] == first
    assert any(t_tilde is not None for _, t_tilde in first)
    # the drafts do not depend on whether they are refined
    unrefined = explore_phase(model, tasks, tiny_config(K=2, ablations=["no_self_refine"]),
                              iteration=1)
    assert [t for t, _ in unrefined] == [t for t, _ in first]
    assert all(t_tilde is None for _, t_tilde in unrefined)


def _explore_task_by_task(model, tasks, config, iteration):
    """What explore_phase computes, one task per sample call and per refine call."""
    pairs = []
    for i, task in enumerate(tasks):
        start = frame_states(model, [task.x])

        def candidate(a, source):
            res = execute(config.env, task, a)
            return Trajectory(task.id, task.x, task.y, tuple(a), res.b,
                              one_reward(model, start, a), source, iteration, res.status)

        # row [k, 0] of the task's block holds draft k's uniforms, [k, 1] its refinement's
        block = np.random.default_rng(
            child_seed(config.seed, engine._DOM_SAMPLE, iteration, i)
        ).random((config.K, 2, config.max_len))
        samples = sample(model, np.repeat(start, config.K, axis=0),
                         GenerationParams(config.temperature, config.max_len, config.K),
                         block[:, 0])
        refined = [None] * config.K
        drafts = ([k for k, a in enumerate(samples) if a]
                  if "no_self_refine" not in config.ablations else [])
        if drafts:
            refinements = refine(
                model, np.repeat(start, len(drafts), axis=0), [samples[k] for k in drafts],
                GenerationParams(config.temperature, config.max_len, len(drafts)),
                block[drafts, 1])
            for k, a_ref in zip(drafts, refinements):
                refined[k] = candidate(a_ref, "refine")
        pairs += zip([candidate(a, "explore") for a in samples], refined)
    return pairs


@pytest.fixture(scope="module", params=[EnvKind.EXPR_MATH, EnvKind.GRID_AGENT])
def cloned(request):
    """A model behaviour-cloned on half of 12 tasks, so exploration solves some."""
    tasks, witnesses = generate_dataset(request.param, 12, seed=1)
    config = tiny_config(env=request.param.value, train_mode="continual",
                         epochs_per_iter=30, lr=0.5, batch_size=2, max_len=40)
    sets = TrainingSets([(t.x, tuple(witnesses[t.id])) for t in tasks[:6]], [])
    model = PolicyModel(default_vocab(), d=16, h=24, seed=2)
    train_iteration(model, sets, config, iteration=1)
    return tasks, model


@pytest.mark.parametrize("ablations", [[], ["no_self_refine"]])
def test_explore_phase_equals_a_per_task_loop(cloned, ablations):
    tasks, model = cloned
    config = tiny_config(env=tasks[0].env, K=4, max_len=40, ablations=ablations)
    batched = explore_phase(model, tasks, config, iteration=3)
    alone = _explore_task_by_task(model, tasks, config, iteration=3)

    def key(t):
        return None if t is None else (t.task_id, t.a, t.b, t.status, t.source)

    assert len(batched) == len(tasks) * config.K
    assert [(key(t), key(u)) for t, u in batched] == [(key(t), key(u)) for t, u in alone]
    for pair, pair_alone in zip(batched, alone):
        for t, t_alone in zip(pair, pair_alone):
            assert t is None or abs(t.r - t_alone.r) <= 1e-12
    assert any(t.b == 1 for pair in batched for t in pair if t is not None)
    assert any(t_tilde is not None for _, t_tilde in batched) == (not ablations)


def test_refinements_are_scored_from_the_task_frame(cloned):
    tasks, model = cloned
    config = tiny_config(env=tasks[0].env, K=4, max_len=40)
    pairs = explore_phase(model, tasks, config, iteration=3)
    starts = frame_states(model, [t.x for t in tasks])
    copies = 0
    for j, (t, t_tilde) in enumerate(pairs):
        if t_tilde is None:
            continue
        i = j // config.K
        # its r is the one-row r from the task frame, up to the pass's makeup
        assert abs(t_tilde.r - one_reward(model, starts[i:i + 1], t_tilde.a)) <= 1e-12
        if t_tilde.a == t.a:
            # a refinement that copies its draft ties it exactly
            assert t_tilde.r == t.r
            copies += 1
    assert copies > 0


def test_explore_phase_reads_each_task_x_once(cloned, monkeypatch):
    tasks, model = cloned
    config = tiny_config(env=tasks[0].env, K=4, max_len=40)
    parsed = []

    def counted(parse):
        def parse_and_count(x):
            parsed.append(tuple(x))
            return parse(x)
        return parse_and_count

    monkeypatch.setattr(expr, "parse_task_input", counted(expr.parse_task_input))
    monkeypatch.setattr(grid, "parse_grid_task", counted(grid.parse_grid_task))
    _read.cache_clear()
    pairs = explore_phase(model, tasks, config, iteration=3)
    assert any(t_tilde is not None for _, t_tilde in pairs)
    assert sorted(parsed) == sorted({t.x for t in tasks})
    for t in tasks:
        reading, _ = _read(EnvKind(t.env), t.x, t.y)
        assert_read_only(reading)


def test_explore_phase_canonicalizes_each_task_y_once(cloned, monkeypatch):
    tasks, model = cloned
    config = tiny_config(env=tasks[0].env, K=4, max_len=40)
    executed, canonicalized = [], []

    def counted_execute(env, task, a):
        executed.append(task.id)
        return execute(env, task, a)

    def counted_canonical(y):
        canonicalized.append(y)
        return canonical_output(y)

    monkeypatch.setattr(engine, "execute", counted_execute)
    monkeypatch.setattr(environments, "canonical_output", counted_canonical)
    _read.cache_clear()
    pairs = explore_phase(model, tasks, config, iteration=3)
    assert any(t_tilde is not None for _, t_tilde in pairs)
    # a task's first execution reads its x and y; every later one shares the reading
    distinct = {(t.x, t.y) for t in tasks}
    assert sorted(canonicalized) == sorted(y for _, y in distinct)
    info = _read.cache_info()
    assert info.misses == len(distinct)
    assert info.hits == len(executed) - info.misses > 0
    for t in tasks:
        assert _read(EnvKind(t.env), t.x, t.y)[1] == t.y


def test_explore_phase_scores_and_executes_each_candidate_once(cloned, monkeypatch):
    # the benchmark's traced identity: score calls = sampled + refined rows
    tasks, model = cloned
    config = tiny_config(env=tasks[0].env, K=4, max_len=40)
    calls = {"score": [], "execute": []}

    def counted(name, fn):
        def call_and_count(*args):
            calls[name].append(args)
            return fn(*args)
        return call_and_count

    monkeypatch.setattr(engine, "score", counted("score", engine.score))
    monkeypatch.setattr(engine, "execute", counted("execute", engine.execute))
    pairs = explore_phase(model, tasks, config, iteration=3)
    # all drafts are graded first, then all refinements
    candidates = [t for t, _ in pairs] + [u for _, u in pairs if u is not None]
    assert len(candidates) > len(pairs)
    assert [tuple(args[0]) for args in calls["score"]] == [t.a for t in candidates]
    assert [(task.id, tuple(a)) for _, task, a in calls["execute"]] == \
        [(t.task_id, t.a) for t in candidates]


def _in_score_order(pairs):
    # all drafts are scored first, then all refinements
    return [t for t, _ in pairs] + [u for _, u in pairs if u is not None]


def test_explore_phase_computes_each_distinct_task_solution_once(cloned, monkeypatch):
    tasks, model = cloned
    config = tiny_config(env=tasks[0].env, K=4, max_len=40)
    rows = count_reward_rows(monkeypatch)
    candidates = _in_score_order(explore_phase(model, tasks, config, iteration=3))
    first = {}
    for t in candidates:
        first.setdefault((t.task_id, t.a), t)
    assert len(candidates) > len(first)
    # one pass over every distinct (task, a); each candidate's score looks it up
    assert rows == [len(first)]
    for t in candidates:
        # a repeat ties its first occurrence exactly
        assert t.r == first[(t.task_id, t.a)].r


def test_the_same_solution_on_two_tasks_is_computed_for_each(cloned, monkeypatch):
    tasks, model = cloned
    config = tiny_config(env=tasks[0].env, K=3, max_len=40, ablations=["no_self_refine"])
    a = ("R",) if tasks[0].env == EnvKind.GRID_AGENT.value else ("1",)
    monkeypatch.setattr(engine, "sample",
                        lambda model, states, params, uniforms: [a] * len(states))
    rows = count_reward_rows(monkeypatch)
    two = tasks[:2]
    assert two[0].x != two[1].x
    pairs = explore_phase(model, two, config, iteration=3)
    assert len(pairs) == 2 * config.K and rows == [2]
    starts = frame_states(model, [t.x for t in two])
    for j, (t, _) in enumerate(pairs):
        i = j // config.K
        assert abs(t.r - one_reward(model, starts[i:i + 1], a)) <= 1e-12
    assert pairs[0][0].r != pairs[config.K][0].r


def test_a_later_explore_phase_recomputes_every_reward(cloned, monkeypatch):
    tasks, model = cloned
    config = tiny_config(env=tasks[0].env, K=4, max_len=40, train_mode="continual",
                         epochs_per_iter=1, lr=0.05)
    before = _in_score_order(explore_phase(model, tasks, config, iteration=3))
    sets = TrainingSets([(t.x, t.a) for t in before if t.b == 1], [])
    trained = copy.deepcopy(model)
    train_iteration(trained, sets, config, iteration=3)
    rows = count_reward_rows(monkeypatch)
    after = _in_score_order(explore_phase(trained, tasks, config, iteration=3))
    r_before = {(t.task_id, t.a): t.r for t in before}
    distinct = {(t.task_id, t.a) for t in after}
    assert rows == [len(distinct)]
    # some solutions are found again, and their r is the trained model's
    again = [t for t in after if (t.task_id, t.a) in r_before]
    assert again
    starts = frame_states(trained, [t.x for t in tasks])
    index = {t.id: i for i, t in enumerate(tasks)}
    for t in again:
        i = index[t.task_id]
        assert abs(t.r - one_reward(trained, starts[i:i + 1], t.a)) <= 1e-12
        assert abs(t.r - r_before[(t.task_id, t.a)]) > 1e-12


# ---------------------------------------------------------------------------
# training

def test_memorizes_single_positive_example():
    model = PolicyModel(default_vocab(), d=16, h=24, seed=1)
    x = ("a", "=", "3", ";", "sum", "a", "a")
    target = ("a", "+", "a")
    sets = TrainingSets([(x, target)], [])
    config = tiny_config(epochs_per_iter=150, lr=0.5, batch_size=1,
                         train_mode="continual")
    l1, l2 = train_iteration(model, sets, config, iteration=1)
    assert l2 == 0.0
    assert tuple(greedy_decode(model, list(x), max_len=8)) == target


def test_memorizes_single_contrastive_pair():
    model = PolicyModel(default_vocab(), d=16, h=24, seed=2)
    x = ("b", "=", "2", ";", "diff", "b", "b")
    a_plus = ("b", "-", "b")
    a_minus = ("b", "+", "b")
    sets = TrainingSets([], [(x, a_plus, a_minus)])
    config = tiny_config(epochs_per_iter=150, lr=0.5, batch_size=1,
                         train_mode="continual")
    l1, l2 = train_iteration(model, sets, config, iteration=1)
    assert l1 == 0.0
    refined = greedy_batch(model, [condition_ids(model, x, a_minus)], max_len=8)[0]
    assert tuple(refined) == a_plus


def test_fresh_model_first_batch_loss_near_uniform():
    vocab = Vocab([*CONTROL_TOKENS, *list("abcdefghijkl")])  # V = 16
    model = PolicyModel(vocab, d=8, h=12, seed=3)
    examples = [(vocab.encode([BOS, "a", SEP]), vocab.encode(["b", "c", EOS]))]
    (loss,), _ = batch_nll(model, examples)
    assert float(loss) == pytest.approx(3 * math.log(16), rel=0.02)


def test_train_iteration_requires_data():
    model = PolicyModel(default_vocab(), d=8, h=12, seed=0)
    with pytest.raises(ValueError):
        train_iteration(model, TrainingSets([], []), tiny_config(), 1)


def test_sft_and_dpo_take_one_step_per_minibatch(monkeypatch):
    steps = []

    def counting_sgd_step(*args, **kwargs):
        steps.append(1)
        return sgd_step(*args, **kwargs)

    monkeypatch.setattr(engine, "sgd_step", counting_sgd_step)
    model = PolicyModel(default_vocab(), d=8, h=12, seed=2)
    x = ("a", "=", "2", ";", "sum", "a", "a")
    sets = TrainingSets([(x, ("a", "+", "a"))] * 5,
                        [(x, ("a", "+", "a"), ("a",)), (x, ("a",), ("2",))] * 3)
    config = tiny_config(method="sft_dpo", train_mode="continual", epochs_per_iter=2,
                         batch_size=2)
    examples = _encode_examples(model, sets)
    _run_epochs(model, examples, config, shuffle_seed=0, iteration=1, epochs=3)
    assert len(steps) == 3 * math.ceil(len(examples) / 2)  # 11 examples: 18 steps
    steps.clear()
    _train_dpo_stage(model, sets, config, iteration=1)
    assert len(steps) == 2 * math.ceil(6 / 2)


# ---------------------------------------------------------------------------
# DPO

def _dpo_pairs(model, ref_margins):
    """Pairs of unequal condition and target lengths, one per reference margin."""
    vocab = model.vocab
    raw = [(["a", "b"], ["c", "d"], ["e"]),
           (["f"], ["g"], ["h", "i", "j"]),
           (["k", "l", "a"], ["b", "c", "d", "e"], ["f", "g"]),
           (["h"], ["i", "j"], ["k", "l"])]
    return [(vocab.encode([BOS, *x, SEP]), vocab.encode([*pos, EOS]),
             vocab.encode([*neg, EOS]), margin)
            for (x, pos, neg), margin in zip(raw, ref_margins)]


def _toy_model(seed):
    return float64_model(Vocab([*CONTROL_TOKENS, *list("abcdefghijkl")]), d=8, h=12,
                         seed=seed)


def test_dpo_loss_is_ln2_when_policy_equals_reference():
    model = _toy_model(4)
    encoded = [pair[:3] for pair in _dpo_pairs(model, [0.0] * 4)]
    # the stage's own reference code, in chunks other than the loss's one batch
    pairs = [(*pair, margin)
             for pair, margin in zip(encoded, _reference_margins(model, encoded, 3))]
    loss, weights, _ = _dpo_losses(model, pairs, beta=0.1)
    w_pos, w_neg = weights[:4], weights[4:]
    assert loss.shape == (4,) and weights.shape == (8,)
    np.testing.assert_allclose(loss, math.log(2), rtol=0, atol=1e-12)
    # at a zero margin the weight is beta * sigmoid(0)
    np.testing.assert_allclose(w_pos, 0.05, rtol=0, atol=1e-12)
    assert np.array_equal(w_neg, -w_pos)


def test_dpo_loss_values_and_stability():
    # margins of both signs, up to |beta * m| = 800, where exp(-x) would overflow
    for beta in (0.1, 0.7):
        m = np.array([0.0, 3.0, -3.0, 800.0 / beta, -800.0 / beta, 40.0, -40.0])
        nll_pos = np.array([2.0, 1.5, 4.0, 0.5, 7.0, 1.0, 3.0])
        ref = np.array([0.25, -1.0, 2.0, 0.0, 0.0, -0.5, 0.5])
        nll_neg = nll_pos + m + ref
        loss, w_pos = dpo_loss(nll_pos, nll_neg, ref, beta)
        assert np.isfinite(loss).all() and np.isfinite(w_pos).all()
        x = beta * ((nll_neg - nll_pos) - ref)
        for k in range(len(m)):
            oracle_loss, oracle_w = mp_dpo_loss(x[k], beta)
            assert loss[k] == pytest.approx(oracle_loss, rel=1e-12, abs=1e-300)
            assert w_pos[k] == pytest.approx(oracle_w, rel=1e-12, abs=1e-300)
        assert loss[0] == pytest.approx(math.log(2), abs=1e-12)
        assert loss[3] == 0.0 and w_pos[3] == 0.0
        assert loss[4] == pytest.approx(800.0, rel=1e-12) and w_pos[4] == beta


@pytest.mark.parametrize("beta", [0.1, 0.7])
def test_dpo_weight_matches_finite_differences_of_the_loss(beta):
    rng = np.random.default_rng(int(beta * 10))
    ref = rng.uniform(-2, 2, 8)
    nll_pos = rng.uniform(0.5, 6, 8)
    # margins beta * m of both signs, two of them near +-800
    m = np.array([-6.0, -2.0, -0.3, 0.0, 0.4, 5.0, 800.0 / beta, -800.0 / beta])
    nll_neg = nll_pos + m + ref
    _, w_pos = dpo_loss(nll_pos, nll_neg, ref, beta)
    h = 1e-5
    for k in range(len(m)):
        step = np.zeros(len(m))
        step[k] = h
        d_pos = (dpo_loss(nll_pos + step, nll_neg, ref, beta)[0][k]
                 - dpo_loss(nll_pos - step, nll_neg, ref, beta)[0][k]) / (2 * h)
        d_neg = (dpo_loss(nll_pos, nll_neg + step, ref, beta)[0][k]
                 - dpo_loss(nll_pos, nll_neg - step, ref, beta)[0][k]) / (2 * h)
        assert d_pos == pytest.approx(w_pos[k], rel=1e-6, abs=1e-9)
        assert d_neg == pytest.approx(-w_pos[k], rel=1e-6, abs=1e-9)


def test_dpo_gradient_matches_finite_differences():
    model = _toy_model(5)
    pairs = _dpo_pairs(model, [0.37, -1.2, 2.5, 0.0])  # arbitrary frozen margins
    _, weights, tape = _dpo_losses(model, pairs, beta=0.7)
    assert len(tape) == 1
    tape.backward(weights)
    analytic = {name: p.grad for name, p in model.params.items()}
    fd = central_differences(
        lambda: float(_dpo_losses(model, pairs, beta=0.7)[0].sum()), model.params)
    assert_grads_close(analytic, fd)


def test_batched_dpo_loss_equals_sum_of_single_pairs(monkeypatch):
    model = _toy_model(6)
    pairs = _dpo_pairs(model, [0.5, -0.25, 1.5, -2.0])
    singles = [_dpo_losses(model, [pair], beta=0.3) for pair in pairs]
    calls = []

    def counting_batch_nll(model, examples):
        calls.append(examples)
        return batch_nll(model, examples)

    monkeypatch.setattr(engine, "batch_nll", counting_batch_nll)
    batched, weights, _ = _dpo_losses(model, pairs, beta=0.3)
    np.testing.assert_allclose(batched, [loss[0] for loss, _, _ in singles], rtol=0,
                               atol=1e-12)
    # the weights of all positives, then of all negatives
    np.testing.assert_allclose(weights, [w[k] for k in (0, 1) for _, w, _ in singles],
                               rtol=0, atol=1e-12)
    assert batched.sum() == pytest.approx(sum(loss[0] for loss, _, _ in singles), rel=0,
                                          abs=1e-12)
    # one call: all positives, then all negatives
    assert calls == [[(cond, pos) for cond, pos, _, _ in pairs]
                     + [(cond, neg) for cond, _, neg, _ in pairs]]


def test_sft_dpo_trains_dpo_against_the_fine_tuned_model():
    model = PolicyModel(default_vocab(), d=8, h=12, seed=7)
    x = ("a", "=", "2", ";", "sum", "a", "a")
    sets = TrainingSets([(x, ("a", "+", "a"))],
                        [(x, ("a", "+", "a"), ("a", "*", "a")),
                         (x, ("a", "+", "a"), ("a",)),
                         (x, ("2", "+", "2"), ("a", "-", "a"))])
    config = tiny_config(method="sft_dpo", train_mode="continual", epochs_per_iter=1,
                         batch_size=8)
    l1, l2 = train_iteration(model, sets, config, iteration=1)
    assert l1 > 0.0
    # one DPO minibatch, scored before its step: the policy equals the reference
    assert l2 == pytest.approx(3 * math.log(2), abs=1e-12)


def test_sft_dpo_stage_without_pairs_runs_no_forward(monkeypatch):
    calls = []
    monkeypatch.setattr(engine, "batch_nll", lambda *args: calls.append(args))
    model = PolicyModel(default_vocab(), d=8, h=12, seed=7)
    x = ("a", "=", "2", ";", "sum", "a", "a")
    config = tiny_config(method="sft_dpo", train_mode="continual")
    assert _train_dpo_stage(model, TrainingSets([(x, ("a", "+", "a"))], []), config, 1) == 0.0
    assert calls == []


@pytest.mark.parametrize("batch_size", [1, 3, 8])
def test_first_dpo_step_margins_are_zero_to_float32_rounding(monkeypatch, batch_size):
    # a default float32 model: the reference forwards chunk U2 in order, the
    # first step takes a shuffled minibatch, and the policy equals the reference
    tasks, witnesses = environments.generate_dataset(EnvKind.LOGIC_RULES, 12, seed=0)
    u2 = [(t.x, tuple(witnesses[t.id]), tuple(witnesses[tasks[i - 1].id]))
          for i, t in enumerate(tasks)]
    steps = []

    def recording_dpo_loss(nll_pos, nll_neg, ref_margins, beta):
        steps.append((nll_pos, nll_neg, ref_margins))
        return dpo_loss(nll_pos, nll_neg, ref_margins, beta)

    monkeypatch.setattr(engine, "dpo_loss", recording_dpo_loss)
    config = tiny_config(env="logic_rules", method="sft_dpo", train_mode="continual",
                         epochs_per_iter=1, batch_size=batch_size)
    _train_dpo_stage(PolicyModel(default_vocab(), seed=3), TrainingSets([], u2), config, 1)
    nll_pos, nll_neg, ref_margins = steps[0]
    # one float32 rounding of each side's NLL
    bound = np.finfo(np.float32).eps * (nll_pos + nll_neg)
    assert (np.abs((nll_neg - nll_pos) - ref_margins) <= bound).all()


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("method, message", [("envisions", "non-finite loss"),
                                             ("sft_dpo", "non-finite DPO loss")])
def test_non_finite_loss_raises_training_error(method, message, value):
    model = PolicyModel(default_vocab(), d=8, h=12, seed=7)
    model.params["b_out"].data[0, model.vocab.eos_id] = value
    x = ("a", "=", "2", ";", "sum", "a", "a")
    # with no U1, sft_dpo's first loss is its DPO stage's
    sets = (TrainingSets([(x, ("a", "+", "a"))], []) if method == "envisions"
            else TrainingSets([], [(x, ("a", "+", "a"), ("a",))]))
    config = tiny_config(method=method, train_mode="continual", epochs_per_iter=1)
    # the loss guard, not sgd_step's gradient check, must be what stops the step
    with np.errstate(invalid="ignore"), \
            pytest.raises(TrainingError, match=f"^{message} at iteration 3$"):
        train_iteration(model, sets, config, iteration=3)


# ---------------------------------------------------------------------------
# evaluation

@pytest.fixture(scope="module")
def partly_trained():
    """A grid_agent model behaviour-cloned on half of 16 tasks: it solves some
    tasks but not all, and greedy refinement solves some that it misses."""
    tasks, witnesses = generate_dataset(EnvKind.GRID_AGENT, 16, seed=0)
    model = float64_model(default_vocab(), d=16, h=24, seed=1)
    sets = TrainingSets([(t.x, tuple(witnesses[t.id])) for t in tasks[:8]], [])
    config = tiny_config(env="grid_agent", train_mode="continual", epochs_per_iter=40,
                         lr=0.5, batch_size=2, max_len=40)
    train_iteration(model, sets, config, iteration=1)
    return tasks, model


def test_evaluate_solves_what_a_per_task_greedy_loop_solves(partly_trained):
    tasks, model = partly_trained
    assert len({len(t.x) for t in tasks}) > 1  # the batch is right-padded
    plain, refined = set(), set()
    for t in tasks:
        a = greedy_decode(model, t.x, 40)
        if execute("grid_agent", t, a).b == 1:
            plain.add(t.id)
        elif a and execute("grid_agent", t,
                           greedy_batch(model, [condition_ids(model, t.x, a)], 40)[0]).b == 1:
            refined.add(t.id)
    assert plain and refined and len(plain | refined) < len(tasks)
    for with_refine, solved in ((False, plain), (True, plain | refined)):
        assert evaluate(model, tasks, "grid_agent", 40, with_refine) == \
            (len(solved) / len(tasks), solved)


def test_empty_splits_evaluate_to_zero_without_generating(tiny_dataset, monkeypatch):
    generate = policy._generate

    def generate_rows(model, states, *args):
        assert len(states) > 0, "generation called on zero rows"
        return generate(model, states, *args)

    monkeypatch.setattr(policy, "_generate", generate_rows)
    model = PolicyModel(default_vocab(), d=8, h=12, seed=0)
    for with_refine in (False, True):
        assert evaluate(model, [], "expr_math", 12, with_refine) == (0.0, set())
    # without held_out tasks, that evaluation batch is empty at every iteration
    tasks, witnesses = tiny_dataset
    held_in = [t for t in tasks if t.split == "held_in"]
    result = run(tiny_config(iterations=1), held_in,
                 {t.id: witnesses[t.id] for t in held_in})
    assert [r.held_out_rate for r in result.reports] == [0.0] * 2


# ---------------------------------------------------------------------------
# the full loop

@pytest.fixture(scope="module")
def tiny_dataset():
    tasks, witnesses = generate_dataset(EnvKind.EXPR_MATH, 6, seed=0)
    held_out, held_out_w = generate_dataset(EnvKind.EXPR_MATH, 3, seed=0,
                                            split="held_out")
    witnesses.update(held_out_w)
    return tasks + held_out, witnesses


def test_run_is_deterministic(tiny_dataset):
    tasks, witnesses = tiny_dataset
    a = run(tiny_config(), tasks, witnesses)
    b = run(tiny_config(), tasks, witnesses)
    assert a.reports == b.reports


def test_a_last_update_that_overflows_the_weights_stops_the_run(tiny_dataset, tmp_path):
    # one warmup step: its loss is finite, and no loss follows the update, which
    # leaves finite weights ~1e306 that overflow in the next forward
    tasks, witnesses = tiny_dataset
    with pytest.raises(TrainingError, match=r"^non-finite norm of parameter '\w+' after "
                                            r"the last loss update at iteration 0$"):
        run(tiny_config(lr=1e308, warmup_epochs=1), tasks, witnesses,
            out_dir=tmp_path / "run")
    assert (tmp_path / "run" / "reports.jsonl").read_text() == ""


def test_run_report_stream_shape(tiny_dataset):
    tasks, witnesses = tiny_dataset
    result = run(tiny_config(iterations=2), tasks, witnesses)
    assert [r.iteration for r in result.reports] == [0, 1, 2]
    assert (result.reports[0].stability, result.reports[0].delta_logp) == (None, None)
    assert all(r.stability is not None for r in result.reports[1:])
    for report in result.reports:
        assert 0.0 <= report.held_in_rate <= 1.0
        assert 0.0 <= report.held_out_rate <= 1.0
    assert result.warmup_task_ids == tuple(t.id for t in tasks[:2])


def test_pool_accumulates_across_iterations(tiny_dataset):
    tasks, witnesses = tiny_dataset
    result = run(tiny_config(iterations=2), tasks, witnesses)
    diversities = [report.diversity for report in result.reports]
    assert all(b >= a for a, b in zip(diversities, diversities[1:]))


def test_every_report_line_carries_the_analysis_quantities(tiny_dataset, tmp_path):
    tasks, witnesses = tiny_dataset
    result = run(tiny_config(), tasks, witnesses, out_dir=tmp_path / "run")
    lines = [json.loads(line)
             for line in (tmp_path / "run" / "reports.jsonl").read_text().splitlines()]
    assert lines == [r.as_dict() for r in result.reports]
    quantities = {"exploratory_ability", "stability", "delta_logp", "diversity"}
    assert all(quantities <= set(line) for line in lines)
    assert not list((tmp_path / "run").glob("analysis_*"))


@pytest.mark.parametrize("fault,message", [
    ("duplicate", "duplicate task id 'expr_math-held_in-0-0000'"),
    ("other_env", "task 'logic_rules-held_in-0-0000' is a logic_rules task"),
    ("unknown_witness", "witness for unknown task id 'nope'"),
    # a control token inside x or a witness would corrupt the frame BOS x SEP a SEP
    ("x_control", "task 'expr_math-held_in-0-0000': control token '<sep>'"),
    ("witness_control",
     "witness of task 'expr_math-held_in-0-0001': control token '<pad>'"),
])
def test_run_rejects_a_dataset_it_cannot_grade(tiny_dataset, fault, message):
    tasks, witnesses = tiny_dataset
    witnesses = dict(witnesses)
    if fault == "duplicate":
        tasks = tasks + [tasks[0]]
    elif fault == "other_env":
        logic, logic_w = generate_dataset(EnvKind.LOGIC_RULES, 1, seed=0)
        tasks = tasks + logic
        witnesses.update(logic_w)
    elif fault == "x_control":
        tasks = [dataclasses.replace(tasks[0], x=(*tasks[0].x, "<sep>", "<eos>")),
                 *tasks[1:]]
    elif fault == "witness_control":
        witnesses[tasks[1].id] = ["<pad>", *witnesses[tasks[1].id]]
    else:
        witnesses["nope"] = ["a"]
    with pytest.raises(ValueError, match=re.escape(message)):
        run(tiny_config(), tasks, witnesses)


def test_run_rejects_a_warmup_witness_that_does_not_solve_its_task(tiny_dataset, tmp_path,
                                                                  monkeypatch):
    tasks, witnesses = tiny_dataset
    task = tasks[0]
    res = execute("expr_math", task, ["a"])
    assert res.b == 0
    built = []
    monkeypatch.setattr(engine, "PolicyModel", lambda *args, **kwargs: built.append(args))
    message = (f"witness of warmup task {task.id!r} does not solve it: "
               f"status {res.status.value}, output {res.output!r}")
    with pytest.raises(ValueError, match=re.escape(message)):
        run(tiny_config(), tasks, {**witnesses, task.id: ["a"]}, out_dir=tmp_path / "run")
    # the witness is graded before the model is built or any file is written
    assert built == [] and not (tmp_path / "run").exists()


def test_run_seeds_the_pool_with_the_warmup_witnesses(tiny_dataset, monkeypatch):
    tasks, witnesses = tiny_dataset
    sizes = []
    update = CandidatePool.update

    def recording_update(self, filtered):
        sizes.append(len(self))
        return update(self, filtered)

    monkeypatch.setattr(CandidatePool, "update", recording_update)
    seeded = run(tiny_config(iterations=1), tasks, witnesses)
    assert seeded.reports[0].new_trajectory_count == 2  # the two warmup witnesses
    assert sizes == [0, 2]


def test_star_env_matches_fully_ablated_envisions(tiny_dataset):
    tasks, witnesses = tiny_dataset
    ablated = run(tiny_config(ablations=["no_self_refine", "no_L2"]),
                  tasks, witnesses)
    star = run(tiny_config(method="star_env", ablations=[]),
                        tasks, witnesses)
    assert [r.as_dict() for r in ablated.reports] == \
        [r.as_dict() for r in star.reports]


def test_star_env_training_sets_have_no_negatives(tiny_dataset):
    tasks, witnesses = tiny_dataset
    config = tiny_config(method="star_env", ablations=[])
    result = run(config, tasks, witnesses)
    for t in result.pool.all_entries():
        assert t.source == "explore"
    assert all(r.loss_l2 == 0.0 for r in result.reports)


def test_sft_dpo_runs_and_reports(tiny_dataset):
    tasks, witnesses = tiny_dataset
    config = tiny_config(method="sft_dpo", train_mode="continual", iterations=1)
    result = run(config, tasks, witnesses)
    assert len(result.reports) == 2


def test_no_candidate_pool_resets_memory(tiny_dataset):
    tasks, witnesses = tiny_dataset
    config = tiny_config(ablations=["no_candidate_pool"], iterations=2)
    result = run(config, tasks, witnesses)
    # pool only holds the last iteration's trajectories
    assert all(t.iteration == 2 for t in result.pool.all_entries())


def test_single_iteration_equals_hand_driven_composition(tiny_dataset):
    tasks, witnesses = tiny_dataset
    config = tiny_config(iterations=1)
    result = run(config, tasks, witnesses)

    # hand-drive the same pipeline out of the engine's public pieces
    from symtrain.engine import (_DOM_INIT, _DOM_WARMUP, _encode_examples,
                                 _run_epochs)
    from symtrain.environments import execute
    from symtrain.pool import filter_pair as fp, CandidatePool

    held_in = [t for t in tasks if t.split == "held_in"]
    held_out = [t for t in tasks if t.split == "held_out"]
    warmup, eval_tasks = held_in[:2], held_in[2:]
    model = PolicyModel(default_vocab(), config.d, config.h,
                        seed=child_seed(config.seed, _DOM_INIT, 0))
    warm = TrainingSets([(t.x, tuple(witnesses[t.id])) for t in warmup], [])
    _run_epochs(model, _encode_examples(model, warm), config,
                child_seed(config.seed, _DOM_WARMUP), 0,
                epochs=config.warmup_epochs)
    pool = CandidatePool()
    starts = frame_states(model, [t.x for t in warmup])
    pool.update([Trajectory(t.id, t.x, t.y, tuple(witnesses[t.id]), 1,
                            one_reward(model, starts[i:i + 1], witnesses[t.id]),
                            "explore", 0, Status.OK) for i, t in enumerate(warmup)])
    pairs = explore_phase(model, held_in, config, iteration=1)
    pool.update([fp(t, tt) for t, tt in pairs])
    sets = build_training_sets(pool, held_in, config, iteration=1)
    train_iteration(model, sets, config, iteration=1)
    rate, _ = evaluate(model, eval_tasks, config.env, config.max_len)
    out_rate, _ = evaluate(model, held_out, config.env, config.max_len)

    assert result.reports[-1].held_in_rate == rate
    assert result.reports[-1].held_out_rate == out_rate


@pytest.mark.parametrize("train_mode", ["scratch", "continual"])
def test_each_iteration_trains_from_the_warmup_or_the_previous_weights(
        tiny_dataset, monkeypatch, train_mode):
    # scratch: every iteration's training enters with the post-warmup weights;
    # continual: with the weights the previous training left
    entered, left = [], []

    def recording_run_epochs(model, *args, **kwargs):
        entered.append({n: p.data.copy() for n, p in model.params.items()})
        out = _run_epochs(model, *args, **kwargs)
        left.append({n: p.data.copy() for n, p in model.params.items()})
        return out

    monkeypatch.setattr(engine, "_run_epochs", recording_run_epochs)
    tasks, witnesses = tiny_dataset
    result = run(tiny_config(iterations=3, train_mode=train_mode), tasks, witnesses)
    # the warmup witnesses stay in the pool, so every iteration trains
    assert len(entered) == 4
    for i in range(1, 4):
        start = left[0] if train_mode == "scratch" else left[i - 1]
        assert all(np.array_equal(entered[i][n], start[n]) for n in start)
        assert not all(np.array_equal(left[i][n], start[n]) for n in start)
    final = {n: p.data for n, p in result.model.params.items()}
    assert all(np.array_equal(final[n], left[-1][n]) for n in final)


@pytest.mark.parametrize("env", list(EnvKind))
def test_a_scratch_run_matches_the_continual_run_through_iteration_1(env):
    # both modes enter iteration 1 with the warmup model, and differ from 2 on
    tasks, witnesses = generate_dataset(env, 6, seed=0)
    held_out, held_out_w = generate_dataset(env, 2, seed=0, split="held_out")
    witnesses.update(held_out_w)
    runs = [run(tiny_config(env=env.value, iterations=1, max_len=40, train_mode=mode),
                tasks + held_out, witnesses) for mode in ("scratch", "continual")]
    scratch, continual = runs
    assert [r.iteration for r in scratch.reports] == [0, 1]
    assert scratch.reports == continual.reports
    assert scratch.reports[1].loss_l1 > 0.0  # iteration 1 trained
    assert all(np.array_equal(p.data, continual.model.params[n].data)
               for n, p in scratch.model.params.items())


def test_a_re_found_witness_keeps_its_warmup_entry(tiny_dataset):
    tasks, witnesses = tiny_dataset
    config = tiny_config()
    held_in = [t for t in tasks if t.split == "held_in"]
    warmup = held_in[:config.warmup_tasks]
    model = PolicyModel(default_vocab(), config.d, config.h, seed=5)
    pool = CandidatePool()
    # run seeds the pool from the warmup tasks' frame states
    starts = frame_states(model, [t.x for t in warmup])
    rows = [(i, witnesses[t.id], "explore") for i, t in enumerate(warmup)]
    seeded = engine._candidates(model, warmup, starts, rows, config, 0)
    pool.update(seeded)
    # exploration scores the same witness from a frame state of a larger batch
    wide = frame_states(model, [t.x for t in reversed(held_in)])[::-1]
    again = engine._candidates(model, held_in, wide, rows, config, 1)
    for old, new in zip(seeded, again):
        assert abs(new.r - old.r) <= 1e-12 * abs(old.r)
    assert pool.update(again) == 0
    assert sorted(pool.all_entries(), key=lambda t: t.task_id) == \
        sorted(seeded, key=lambda t: t.task_id)


def test_a_witness_re_found_in_a_pass_of_another_makeup_keeps_its_older_entry():
    # at the default size and dtype, a witness scored in a one-row pass moves from
    # its r in a pass of 8 rows by float32 noise, beyond the old tie of 1e-9
    tasks, witnesses = generate_dataset(EnvKind.LOGIC_RULES, 8, seed=0)
    config = tiny_config(env="logic_rules")
    model = PolicyModel(default_vocab(), seed=0)
    seeded = engine._candidates(model, tasks, frame_states(model, [t.x for t in tasks]),
                                [(i, witnesses[t.id], "explore")
                                 for i, t in enumerate(tasks)], config, 0)
    pool = CandidatePool()
    pool.update(seeded)
    again = [engine._candidates(model, [t], frame_states(model, [t.x]),
                                [(0, witnesses[t.id], "explore")], config, 1)[0]
             for t in tasks]
    gaps = [abs(new.r - old.r) for old, new in zip(seeded, again)]
    assert 1e-9 < max(gaps) < REWARD_TIE
    assert pool.update(again) == 0
    assert [pool.entries(t.id) for t in tasks] == [[t] for t in seeded]


def test_a_witness_re_found_as_a_refinement_keeps_its_warmup_entry(tiny_dataset,
                                                                   monkeypatch):
    tasks, witnesses = tiny_dataset
    config = tiny_config(K=1)
    held_in = [t for t in tasks if t.split == "held_in"]
    warmup = held_in[:4]
    model = PolicyModel(default_vocab(), config.d, config.h, seed=0)
    # large weights make the draft's tail move the state: in the refine frame
    # after the draft "(", every witness would score higher than from its x alone
    for param in model.params.values():
        param.data *= 10.0
    pool = CandidatePool()
    seeded = engine._candidates(model, warmup, frame_states(model, [t.x for t in warmup]),
                                [(i, witnesses[t.id], "explore")
                                 for i, t in enumerate(warmup)], config, 0)
    pool.update(seeded)
    # under the unchanged model, every task's draft fails to parse and is refined
    # into the task's witness
    monkeypatch.setattr(engine, "sample", lambda model, states, params, uniforms:
                        [["("] for _ in uniforms])
    monkeypatch.setattr(engine, "refine", lambda model, states, drafts, params, uniforms:
                        [witnesses[t.id] for t in held_in])
    pairs = explore_phase(model, held_in, config, iteration=1)
    assert [(t.b, t_tilde.b, t_tilde.a) for t, t_tilde in pairs] == \
        [(0, 1, tuple(witnesses[t.id])) for t in held_in]
    pool.update([filter_pair(t, t_tilde) for t, t_tilde in pairs])
    assert [pool.entries(t.id) for t in warmup] == [[t] for t in seeded]


def test_run_rejects_dataset_without_held_in():
    tasks, witnesses = generate_dataset(EnvKind.EXPR_MATH, 3, seed=0,
                                        split="held_out")
    with pytest.raises(ValueError, match="held_in"):
        run(tiny_config(), tasks, witnesses)
    # a warmup that takes every held_in task leaves none to evaluate
    tasks, witnesses = generate_dataset(EnvKind.EXPR_MATH, 2, seed=0)
    with pytest.raises(ValueError, match=r"^warmup_tasks = 2 leaves none of the "
                                         r"dataset's 2 held_in tasks to evaluate$"):
        run(tiny_config(warmup_tasks=2), tasks, witnesses)


def test_child_seed_is_stable():
    assert child_seed(0, 1, 2) == child_seed(0, 1, 2)
    assert child_seed(0, 1, 2) != child_seed(0, 1, 3)
