import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from symtrain.cli import main
from symtrain.engine import ABLATIONS, METHODS, TRAIN_MODES, evaluate
from symtrain.environments import (SPLITS, EnvKind, execute, generate_dataset, load_dataset,
                                   write_dataset)
from symtrain.policy import load_checkpoint


def _cfg(tmp_path, **over):
    raw = dict(env="expr_math", method="envisions", K=2, N1=3, N2=1,
               iterations=1, train_mode="scratch", ablations=[],
               epochs_per_iter=3, lr=0.1, dpo_beta=0.1, seed=0,
               d=8, h=12, max_len=10, warmup_tasks=2, batch_size=4)
    raw.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def _gen(tmp_path, n_train=6, n_held_out=2, env="expr_math"):
    out = tmp_path / "data.jsonl"
    code = main(["gen-data", "--env", env, "--n-train", str(n_train),
                 "--n-held-out", str(n_held_out), "--seed", "0",
                 "--out", str(out)])
    assert code == 0
    return out


def test_gen_data_round_trips_through_run(tmp_path, capsys):
    data = _gen(tmp_path)
    out_dir = tmp_path / "run"
    code = main(["run", "--config", str(_cfg(tmp_path)), "--dataset", str(data),
                 "--out-dir", str(out_dir)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "iter=0 held_in=" in printed and "iter=1 held_in=" in printed
    assert sorted(p.name for p in out_dir.iterdir()) == \
        ["checkpoint.json", "pool.jsonl", "reports.jsonl", "summary.json"]


def test_gen_data_same_seed_byte_identical(tmp_path):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for out in (a, b):
        assert main(["gen-data", "--env", "expr_math", "--n-train", "5",
                     "--n-held-out", "3", "--seed", "7", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.witness.jsonl").read_bytes() == \
        (tmp_path / "b.witness.jsonl").read_bytes()


def test_gen_data_zero_train_is_usage_error(tmp_path, capsys):
    code = main(["gen-data", "--env", "expr_math", "--n-train", "0",
                 "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "n-train" in capsys.readouterr().err


def test_gen_data_negative_seed_is_usage_error(tmp_path, capsys):
    code = main(["gen-data", "--env", "expr_math", "--n-train", "3", "--seed", "-1",
                 "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert "--seed must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "x.jsonl").exists()


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen-data", "--env", "expr_math", "--n-train", "3",
              "--out", str(tmp_path / "x.jsonl"), "--bogus"])
    assert exc.value.code == 2


def test_run_missing_config_key_names_it(tmp_path, capsys):
    data = _gen(tmp_path)
    raw = json.loads(_cfg(tmp_path).read_text())
    raw.pop("K")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))
    code = main(["run", "--config", str(bad), "--dataset", str(data),
                 "--out-dir", str(tmp_path / "r")])
    assert code == 2
    assert "K" in capsys.readouterr().err


@pytest.mark.parametrize("content,message", [
    (None, "cannot read config"),
    ("{not json", "is not valid JSON"),
    ("[1, 2]", "must be a JSON object"),
])
def test_run_unreadable_config_is_usage_error(tmp_path, capsys, content, message):
    data = _gen(tmp_path)
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_text(content)
    code = main(["run", "--config", str(bad), "--dataset", str(data),
                 "--out-dir", str(tmp_path / "r")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_run_accepts_all_ablation_names(tmp_path):
    data = _gen(tmp_path)
    cfg = _cfg(tmp_path, ablations=["no_self_refine", "no_self_reward",
                                    "no_candidate_pool", "no_L2"])
    assert main(["run", "--config", str(cfg), "--dataset", str(data),
                 "--out-dir", str(tmp_path / "run")]) == 0


def test_run_star_env_method(tmp_path):
    data = _gen(tmp_path)
    cfg = _cfg(tmp_path, method="star_env")
    assert main(["run", "--config", str(cfg), "--dataset", str(data),
                 "--out-dir", str(tmp_path / "run")]) == 0
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["config"]["method"] == "star_env"


@pytest.fixture()
def finished_run(tmp_path):
    data = _gen(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["run", "--config", str(_cfg(tmp_path)), "--dataset", str(data),
                 "--out-dir", str(out_dir)]) == 0
    return data, out_dir


def test_eval_reproduces_final_reported_rate(finished_run, capsys):
    data, out_dir = finished_run
    reports = [json.loads(line)
               for line in (out_dir / "reports.jsonl").read_text().splitlines()]
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(out_dir / "checkpoint.json"),
                 "--dataset", str(data), "--split", "held_in"])
    assert code == 0
    rate = float(capsys.readouterr().out.strip())
    assert rate == reports[-1]["held_in_rate"]


def test_eval_held_out_split(finished_run, capsys):
    data, out_dir = finished_run
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(out_dir / "checkpoint.json"),
                 "--dataset", str(data), "--split", "held_out"])
    assert code == 0
    rate = float(capsys.readouterr().out.strip())
    assert 0.0 <= rate <= 1.0


def test_eval_with_refine_never_lowers_rate(finished_run, capsys):
    data, out_dir = finished_run
    capsys.readouterr()
    main(["eval", "--checkpoint", str(out_dir / "checkpoint.json"),
          "--dataset", str(data), "--split", "held_in"])
    base = float(capsys.readouterr().out.strip())
    main(["eval", "--checkpoint", str(out_dir / "checkpoint.json"),
          "--dataset", str(data), "--split", "held_in", "--with-refine"])
    refined = float(capsys.readouterr().out.strip())
    assert refined >= base


def test_run_max_len_over_the_bound_is_usage_error(tmp_path, capsys):
    data = _gen(tmp_path)
    capsys.readouterr()
    code = main(["run", "--config", str(_cfg(tmp_path, max_len=257)), "--dataset", str(data),
                 "--out-dir", str(tmp_path / "run")])
    assert code == 2
    assert "max_len must be <= 256" in capsys.readouterr().err


def test_eval_checkpoint_with_list_metadata_exits_1(finished_run, capsys):
    data, out_dir = finished_run
    path = out_dir / "checkpoint.json"
    payload = json.loads(path.read_text())
    payload["metadata"] = [1]
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(path), "--dataset", str(data)])
    assert code == 1
    assert "metadata must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("warmup_ids", [5, ["t0", 5], "t0"], ids=["int", "list_of_int", "str"])
def test_eval_checkpoint_with_bad_warmup_task_ids_exits_1(finished_run, capsys, warmup_ids):
    # an int ended in a TypeError traceback, and a string excluded no task
    data, out_dir = finished_run
    path = out_dir / "checkpoint.json"
    payload = json.loads(path.read_text())
    payload["metadata"]["warmup_task_ids"] = warmup_ids
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(path), "--dataset", str(data)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'warmup_task_ids' must be a list of strings" in err


@pytest.mark.parametrize("edit, message", [
    (lambda metadata: metadata.pop("config"), "field 'config': missing or not an object"),
    (lambda metadata: metadata["config"].update(max_len=257),
     "field 'config': max_len must be <= 256"),
    (lambda metadata: metadata["config"].pop("max_len"),
     "field 'config': missing config key 'max_len'"),
    (lambda metadata: metadata["config"].update(bogus=1),
     "field 'config': unknown config key 'bogus'"),
    (lambda metadata: metadata["config"].update(lr="0.1"),
     "field 'config': lr must be a finite positive number"),
], ids=["no_config", "max_len_257", "no_max_len", "unknown_key", "lr_string"])
def test_eval_checkpoint_without_its_whole_run_config_exits_1(finished_run, capsys, edit,
                                                              message):
    # eval grades at the recorded config, so it takes no default for any field
    data, out_dir = finished_run
    path = out_dir / "checkpoint.json"
    payload = json.loads(path.read_text())
    edit(payload["metadata"])
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(path), "--dataset", str(data)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: metadata {message}")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("env, max_len", [("grid_agent", 1), ("expr_math", 2)])
def test_eval_grades_at_the_max_len_its_run_recorded(tmp_path, capsys, env, max_len):
    # the model's greedy outputs outgrow these caps: graded at a cap of 80, eval's
    # old default, grid's held_in rate read 0.056 where the run reported 0.111, and
    # expr's rates 0.056 and 0.2 where it reported 0.0 and 0.0
    data = _gen(tmp_path, n_train=30, n_held_out=10, env=env)
    config = _cfg(tmp_path, env=env, max_len=max_len, train_mode="continual", d=16, h=24,
                  warmup_tasks=12)
    run_dir = tmp_path / "run"
    assert main(["run", "--config", str(config), "--dataset", str(data),
                 "--out-dir", str(run_dir)]) == 0
    summary = json.loads((run_dir / "summary.json").read_text())
    model, _ = load_checkpoint(run_dir / "checkpoint.json")
    reported, at_80 = [], []
    for split in SPLITS:
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                     "--dataset", str(data), "--split", split]) == 0
        assert float(capsys.readouterr().out) == summary[f"final_{split}_rate"]
        reported.append(summary[f"final_{split}_rate"])
        tasks = [t for t in load_dataset(data)
                 if t.split == split and t.id not in summary["warmup_task_ids"]]
        at_80.append(evaluate(model, tasks, env, 80)[0])
    assert at_80 != reported  # so a cap other than the run's shows here


def test_eval_missing_checkpoint_exits_1(tmp_path, capsys):
    data = _gen(tmp_path)
    code = main(["eval", "--checkpoint", str(tmp_path / "missing.json"),
                 "--dataset", str(data)])
    assert code == 1


def test_eval_mixed_env_split_is_usage_error(finished_run, tmp_path, capsys):
    data, out_dir = finished_run
    grid, _ = generate_dataset(EnvKind.GRID_AGENT, 1, seed=0, split="held_out")
    tasks = load_dataset(data) + grid
    mixed = tmp_path / "mixed.jsonl"
    write_dataset(tasks, {t.id: ["a"] for t in tasks}, mixed)  # eval reads no witness
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(out_dir / "checkpoint.json"),
                 "--dataset", str(mixed), "--split", "held_out"])
    assert code == 2
    assert "the held_out tasks include grid_agent tasks" in capsys.readouterr().err


def test_eval_on_another_env_is_usage_error(finished_run, tmp_path, capsys):
    _, out_dir = finished_run
    grid = tmp_path / "grid.jsonl"
    assert main(["gen-data", "--env", "grid_agent", "--n-train", "2",
                 "--n-held-out", "2", "--out", str(grid)]) == 0
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(out_dir / "checkpoint.json"),
                 "--dataset", str(grid), "--split", "held_out"])
    assert code == 2
    assert "trained on expr_math" in capsys.readouterr().err


def test_run_rejects_an_unknown_split(tmp_path, capsys):
    data = _gen(tmp_path)
    lines = data.read_text().splitlines()
    record = json.loads(lines[2])
    record["split"] = "heldin"
    lines[2] = json.dumps(record)
    data.write_text("\n".join(lines) + "\n")
    code = main(["run", "--config", str(_cfg(tmp_path)), "--dataset", str(data),
                 "--out-dir", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 3" in err and "'heldin'" in err


@pytest.mark.parametrize("defect,message", [
    ("x_token", "task 'expr_math-held_in-0-0003': token 'hello' not in vocabulary"),
    ("witness_token", "witness of task 'expr_math-held_in-0-0000': "
                      "token 'hello' not in vocabulary"),
    ("x_layout", "task 'expr_math-held_in-0-0003': x has no query after bindings"),
    ("x_control", "task 'expr_math-held_in-0-0003': control token '<sep>'"),
    ("y_value", "task 'expr_math-held_in-0-0003': y 'seven' is not an integer"),
])
def test_run_rejects_bad_input_before_warmup_naming_the_task(tmp_path, capsys, defect,
                                                              message):
    data = _gen(tmp_path)
    path = data.with_name("data.witness.jsonl") if defect == "witness_token" else data
    line = 0 if defect == "witness_token" else 3  # a warmup witness, an eval task
    lines = path.read_text().splitlines()
    record = json.loads(lines[line])
    if defect == "x_token":
        record["x"] += " hello"
    elif defect == "x_control":
        record["x"] += " <sep> <eos>"
    elif defect == "witness_token":
        record["a"] = "hello"
    elif defect == "y_value":
        record["y"] = "seven"
    else:
        record["x"] = "a = 2 ;"
    lines[line] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["run", "--config", str(_cfg(tmp_path)), "--dataset", str(data),
                 "--out-dir", str(tmp_path / "run")])
    assert code == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()  # rejected before warmup wrote anything


def test_run_rejects_a_grid_task_whose_y_is_not_its_goal(tmp_path, capsys):
    # the empty program would grade b=1 on a task whose y is its start cell
    data = tmp_path / "grid.jsonl"
    assert main(["gen-data", "--env", "grid_agent", "--n-train", "6", "--n-held-out", "2",
                 "--seed", "0", "--out", str(data)]) == 0
    lines = data.read_text().splitlines()
    record = json.loads(lines[3])
    x = record["x"].split()
    start = x.index("start")
    record["y"] = f"{x[start + 1]},{x[start + 2]}"
    lines[3] = json.dumps(record)
    data.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["run", "--config", str(_cfg(tmp_path, env="grid_agent")), "--dataset",
                 str(data), "--out-dir", str(tmp_path / "run")])
    assert code == 1
    assert (f"task {record['id']!r}: y {record['y']!r} is not the goal cell"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("suffix,message", [
    (" hello", "task 'expr_math-held_out-0-0001': token 'hello' not in vocabulary"),
    (" <sep> <eos>", "task 'expr_math-held_out-0-0001': control token '<sep>'"),
])
def test_eval_rejects_a_bad_task_naming_it(finished_run, capsys, suffix, message):
    data, out_dir = finished_run
    lines = data.read_text().splitlines()
    record = json.loads(lines[-1])  # the second held_out task
    record["x"] += suffix
    lines[-1] = json.dumps(record)
    data.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(out_dir / "checkpoint.json"),
                 "--dataset", str(data), "--split", "held_out"])
    assert code == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("line", ["[1, 2]", '{"id": "t", "x": 5, "y": "1", '
                                  '"split": "held_in", "env": "expr_math"}'],
                         ids=["list", "x_not_a_string"])
def test_run_on_a_malformed_dataset_line_prints_one_error(tmp_path, capsys, line):
    data = _gen(tmp_path)
    data.write_text(data.read_text() + line + "\n")
    capsys.readouterr()
    code = main(["run", "--config", str(_cfg(tmp_path)), "--dataset", str(data),
                 "--out-dir", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 9" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_a_diverging_run_prints_one_error(tmp_path, capsys):
    # at this lr the first SGD step overflows the weights, so the next loss is not
    # finite; numpy warns on the way
    data = _gen(tmp_path)
    capsys.readouterr()
    with pytest.warns(RuntimeWarning):
        code = main(["run", "--config", str(_cfg(tmp_path, lr=1e308)), "--dataset",
                     str(data), "--out-dir", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == "error: non-finite loss at iteration 0\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value, writes_run_dir", [("d", 10**12, False),
                                                         ("K", 10**13, False)])
def test_an_oversize_run_config_prints_one_error(tmp_path, capsys, field, value,
                                                 writes_run_dir):
    # the model's embedding at this d, or exploration's uniforms at this K, need
    # more than x86-64's 128 TiB of user address space, so no machine maps them,
    # even under overcommit; the model and one task's uniforms are asked for
    # before the run writes anything
    data = _gen(tmp_path)
    capsys.readouterr()
    code = main(["run", "--config", str(_cfg(tmp_path, **{field: value})), "--dataset",
                 str(data), "--out-dir", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and str(value) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert (tmp_path / "run").exists() == writes_run_dir


def test_compare_merges_runs(tmp_path):
    data = _gen(tmp_path)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(_cfg(tmp_path)), "--dataset", str(data),
                 "--out-dir", str(dir_a)]) == 0
    cfg_b = _cfg(tmp_path, method="star_env", seed=1)
    assert main(["run", "--config", str(cfg_b), "--dataset", str(data),
                 "--out-dir", str(dir_b)]) == 0
    merged = tmp_path / "merged.csv"
    assert main(["compare", "--runs", str(dir_a), str(dir_b),
                 "--out", str(merged)]) == 0
    header = merged.read_text().splitlines()[0].split(",")
    assert header == ["iteration", "envisions_0_held_in", "envisions_0_held_out",
                      "star_env_1_held_in", "star_env_1_held_out"]
    reports = [[json.loads(line) for line in (d / "reports.jsonl").read_text().splitlines()]
               for d in (dir_a, dir_b)]
    rows = [",".join([str(i)] + [repr(r[i][key]) for r in reports
                                 for key in ("held_in_rate", "held_out_rate")])
            for i in range(len(reports[0]))]
    assert merged.read_text() == "\n".join([",".join(header), *rows]) + "\n"


def test_compare_single_run_is_usage_error(tmp_path, capsys):
    code = main(["compare", "--runs", str(tmp_path), "--out",
                 str(tmp_path / "m.csv")])
    assert code == 2


def _without_config_key(key):
    """An edit of a run summary that drops one key of its recorded config."""
    def edit(text):
        summary = json.loads(text)
        del summary["config"][key]
        return json.dumps(summary)
    return edit


@pytest.mark.parametrize("name, content, message", [
    ("summary.json", _without_config_key("method"),
     "is not a run summary: field 'config': missing config key 'method'"),
    ("summary.json", _without_config_key("seed"),
     "is not a run summary: field 'config': missing config key 'seed'"),
    ("summary.json", "[1]", "is not a run summary: field 'config': missing or not an object"),
    ("reports.jsonl", json.dumps({"held_out_rate": 0.0}) + "\n", "is not a run's reports"),
    ("reports.jsonl", "[0.0, 0.0]\n", "is not a run's reports"),
], ids=["no_method", "no_seed", "summary_list", "no_held_in_rate", "report_list"])
def test_compare_on_files_that_are_not_a_run_is_usage_error(finished_run, capsys, name,
                                                            content, message):
    _, out_dir = finished_run
    other = out_dir.parent / "other"
    other.mkdir()
    for file in ("summary.json", "reports.jsonl"):
        (other / file).write_text((out_dir / file).read_text())
    (other / name).write_text(content((out_dir / name).read_text()) if callable(content)
                              else content)
    capsys.readouterr()
    code = main(["compare", "--runs", str(out_dir), str(other),
                 "--out", str(out_dir.parent / "m.csv")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_compare_pads_mismatched_iterations(tmp_path, capsys):
    data = _gen(tmp_path)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(_cfg(tmp_path, iterations=1)),
                 "--dataset", str(data), "--out-dir", str(dir_a)]) == 0
    assert main(["run", "--config", str(_cfg(tmp_path, iterations=2, seed=3)),
                 "--dataset", str(data), "--out-dir", str(dir_b)]) == 0
    merged = tmp_path / "m.csv"
    capsys.readouterr()
    assert main(["compare", "--runs", str(dir_a), str(dir_b),
                 "--out", str(merged)]) == 0
    assert "padding" in capsys.readouterr().err
    last = merged.read_text().splitlines()[-1].split(",")
    assert last[1] == "" and last[2] == ""  # shorter run padded with nulls


# ---------------------------------------------------------------------------
# fuzzed run configs

# every field's tiny valid values: a run over at most 6 + 3 tasks takes tens of ms
_TINY_FIELDS = {
    "env": st.sampled_from([env.value for env in EnvKind]),
    "method": st.sampled_from(METHODS),
    "K": st.integers(1, 3),
    "N1": st.integers(1, 3),
    "N2": st.integers(0, 2),
    "iterations": st.integers(1, 2),
    "train_mode": st.sampled_from(TRAIN_MODES),
    "ablations": st.one_of(st.just([]), st.lists(st.sampled_from(ABLATIONS), max_size=2)),
    "epochs_per_iter": st.integers(1, 2),
    "lr": st.sampled_from([0.05, 0.3, 1.0]),
    "dpo_beta": st.sampled_from([0.1, 1.0]),
    "seed": st.integers(0, 3),
    "d": st.integers(1, 10),
    "h": st.integers(1, 12),
    "temperature": st.sampled_from([1.0, 0.5, 5.0, 1e-310]),
    "max_len": st.integers(1, 16),
    "batch_size": st.integers(1, 5),
    "warmup_tasks": st.integers(0, 2),
    "warmup_epochs": st.integers(0, 3),
}
# each needs more than x86-64's 128 TiB of address space, so no machine maps it,
# even under overcommit: the (V, d) embedding, the (d, 3h) input weights with
# d >= 1, and one task's (K, 2, max_len) exploration uniforms with max_len >= 1
_OVERSIZE = {"d": 10**12, "h": 10**13, "K": 10**13}
_CHOICES = {"env": [env.value for env in EnvKind], "method": list(METHODS),
            "train_mode": list(TRAIN_MODES), "ablations": [list(ABLATIONS)]}
_FLOATS = ("lr", "dpo_beta", "temperature")


def _out_of_range(name):
    if name in _CHOICES:
        return [["bogus"]] if name == "ablations" else ["bogus"]
    if name in _FLOATS:
        # an lr of 1e308 is in range, and its first update overflows the weights
        return [0, -1.0, math.inf, math.nan, *([1e308] if name == "lr" else [])]
    minimum = 0 if name in ("N2", "seed", "warmup_tasks", "warmup_epochs") else 1
    # 257 is one past the longest solution execute grades; 6 warmup tasks take
    # every held_in task of the largest dataset drawn
    return [minimum - 1, *{"max_len": [257], "warmup_tasks": [6]}.get(name, [])]


# how a field is spoiled, and the values each field takes so
_SPOILERS = {
    "size": lambda name: [_OVERSIZE[name]] if name in _OVERSIZE else [],
    "range": _out_of_range,
    "type": lambda name: [None, "2", [2], {"K": 2}, True, 2.5, 3],
    # another valid choice, which the rest of the config or the dataset's env
    # may not admit
    "choice": lambda name: _CHOICES.get(name, []),
}


@st.composite
def _fuzzed_runs(draw):
    """A raw run config with at most two fields spoiled, and the held_in and
    held_out sizes of the dataset it runs on, of the config's drawn env."""
    raw = {name: draw(values) for name, values in _TINY_FIELDS.items()}
    # a valid config before spoiling: only envisions takes ablations, and
    # sft_dpo trains continually
    if raw["method"] != "envisions":
        raw["ablations"] = []
    if raw["method"] == "sft_dpo":
        raw["train_mode"] = "continual"
    env = raw["env"]
    for _ in range(draw(st.integers(0, 2))):
        spoil = _SPOILERS[draw(st.sampled_from(sorted(_SPOILERS)))]
        name = draw(st.sampled_from([name for name in _TINY_FIELDS if spoil(name)]))
        raw[name] = draw(st.sampled_from(spoil(name)))
    return raw, env, draw(st.integers(3, 6)), draw(st.integers(0, 3))


def _main(argv):
    """main's exit code, stdout and stderr; any exception it lets out fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_completed_run(run_dir, data, raw):
    reports = [json.loads(line) for line in (run_dir / "reports.jsonl").read_text().splitlines()]
    assert len(reports) == raw["iterations"] + 1
    for report in reports:
        for key, value in report.items():
            if isinstance(value, float):
                assert math.isfinite(value), (key, report)
    tasks = {t.id: t for t in load_dataset(data)}
    pool = [json.loads(line) for line in (run_dir / "pool.jsonl").read_text().splitlines()]
    for entry in pool:
        if entry["b"] == 1:
            assert execute(raw["env"], tasks[entry["task_id"]], entry["a"].split()).b == 1
    summary = json.loads((run_dir / "summary.json").read_text())
    for split in ("held_in", "held_out"):
        code, out, _ = _main(["eval", "--checkpoint", str(run_dir / "checkpoint.json"),
                              "--dataset", str(data), "--split", split])
        if split == "held_out" and not summary["n_held_out"]:
            assert code == 2  # no tasks to evaluate
        else:
            assert code == 0 and float(out) == summary[f"final_{split}_rate"]


def test_a_fuzzed_run_config_exits_cleanly_and_a_finished_run_keeps_its_contract(tmp_path):
    @settings(max_examples=150, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_fuzzed_runs())
    def check(case):
        raw, env, n_train, n_held_out = case
        with tempfile.TemporaryDirectory(dir=tmp_path) as scratch:
            scratch = Path(scratch)
            data = scratch / "data.jsonl"
            tasks, witnesses = generate_dataset(env, n_train, 0, "held_in")
            if n_held_out:
                more, more_witnesses = generate_dataset(env, n_held_out, 0, "held_out")
                tasks += more
                witnesses.update(more_witnesses)
            write_dataset(tasks, witnesses, data)
            config = scratch / "config.json"
            config.write_text(json.dumps(raw))
            runs = [scratch / "run", scratch / "again"]
            code, _, err = _main(["run", "--config", str(config), "--dataset", str(data),
                                  "--out-dir", str(runs[0])])
            assert code in (0, 1, 2), code
            if code:
                assert err.startswith("error: ") and err.count("\n") == 1, err
                assert "Traceback" not in err
                return
            _check_completed_run(runs[0], data, raw)
            assert _main(["run", "--config", str(config), "--dataset", str(data),
                          "--out-dir", str(runs[1])])[0] == 0
            for name in ("reports.jsonl", "pool.jsonl", "checkpoint.json", "summary.json"):
                assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()

    check()


# ---------------------------------------------------------------------------
# fuzzed checkpoints

# each mutation kind, and the mutations it draws: (path into the checkpoint
# payload, operation, value, whether eval must accept the result).  Every size
# fits in a few MB or, like d = 10**12, is rejected before anything is allocated
_MUTATION_KINDS = ("weight", "shape", "vocab", "size", "header", "metadata", "config",
                   "warmup")
_DELETE = "delete"
# a value out of each config field's range, values of the wrong type for every
# field, and valid changes, which eval grades at (max_len) or does not read
_CONFIG_OUT_OF_RANGE = {"env": "bogus", "method": "bogus", "train_mode": "bogus",
                        "ablations": ["bogus"], "K": 0, "N1": 0, "N2": -1,
                        "iterations": 0, "epochs_per_iter": 0, "lr": -1.0,
                        "dpo_beta": 0, "seed": -1, "d": 0, "h": 0, "temperature": math.inf,
                        "max_len": 257, "batch_size": 0, "warmup_tasks": -1,
                        "warmup_epochs": -1}
_CONFIG_WRONG_TYPES = [None, "2", [2], {"K": 2}, True]
_CONFIG_VALID = [("seed", 3), ("K", 5), ("N1", 1), ("N2", 0), ("iterations", 2),
                 ("lr", 0.5), ("temperature", 1e-310), ("max_len", 1), ("max_len", 256),
                 ("warmup_tasks", 0), ("d", 3), ("train_mode", "continual"),
                 ("ablations", ["no_L2"])]


@st.composite
def _checkpoint_mutations(draw, payload, kinds=_MUTATION_KINDS):
    """One drawn field of a checkpoint payload and how it is mutated."""
    kind = draw(st.sampled_from(kinds))
    params, vocab = payload["params"], payload["vocab"]
    if kind in ("weight", "shape"):
        name = draw(st.sampled_from(sorted(params)))
    if kind == "weight":
        i = draw(st.integers(0, len(params[name]["values"]) - 1))
        value, valid = draw(st.sampled_from([
            (math.nan, False), (math.inf, False), (-math.inf, False), (1e39, False),
            (-3.5e38, False), (0.0, True), (-2.5, True), (100.0, True)]))
        return ("params", name, "values", i), "set", value, valid
    if kind == "shape":
        shape = params[name]["shape"]
        op = draw(st.sampled_from(["set", "append", "pop"]))
        if op != "set":  # one value too many or too few
            return ("params", name, "values"), op, 0.0, False
        return ("params", name, "shape"), op, draw(st.sampled_from([
            shape[:-1], [*shape, 1], [shape[0] + 1, *shape[1:]], [10**12, *shape[1:]],
            "2", 5])), False
    if kind == "vocab":
        i = draw(st.integers(0, len(vocab) - 1))
        other = draw(st.sampled_from([t for t in vocab if t != vocab[i]]))
        return ("vocab", i), "set", draw(st.sampled_from([5, 1.5, "", other])), False
    if kind == "size":
        return ((draw(st.sampled_from(["d", "h"])),), "set",
                draw(st.sampled_from([0, -1, True, 10**12])), False)
    if kind == "header":
        key = draw(st.sampled_from(["version", "format"]))
        return (key,), "set", draw(st.sampled_from([None, _DELETE, "bogus", 3, 5, "4"])), False
    if kind == "metadata":
        return draw(st.sampled_from([
            (("metadata",), "set", [1], False), (("metadata",), "set", "x", False),
            (("metadata",), "set", None, False), (("metadata",), "set", _DELETE, False),
            (("metadata", "config"), "set", _DELETE, False),
            (("metadata", "note"), "set", "x", True)]))
    if kind == "config":
        field = draw(st.sampled_from(sorted(_CONFIG_OUT_OF_RANGE)))
        change = draw(st.sampled_from(["unknown", "missing", "range", "type", "valid"]))
        if change == "unknown":
            return ("metadata", "config", "bogus"), "set", 1, False
        if change == "valid":
            field, value = draw(st.sampled_from(_CONFIG_VALID))
            return ("metadata", "config", field), "set", value, True
        if change == "missing":
            value = _DELETE
        elif change == "range":
            value = _CONFIG_OUT_OF_RANGE[field]
        else:
            value = draw(st.sampled_from(_CONFIG_WRONG_TYPES))
        return ("metadata", "config", field), "set", value, False
    value, valid = draw(st.sampled_from([
        (5, False), ("t0", False), ([5], False), (None, False), ({"t0": 1}, False),
        (_DELETE, False), ([], True), (["elsewhere"], True)]))
    return ("metadata", "warmup_task_ids"), "set", value, valid


def _mutate(payload, path, op, value):
    *parents, key = path
    for part in parents:
        payload = payload[part]
    if op != "set":
        getattr(payload[key], op)(*([value] if op == "append" else []))
    elif value == _DELETE:
        del payload[key]
    else:
        payload[key] = value


def test_a_fuzzed_checkpoint_evaluates_or_exits_with_one_error(finished_run, tmp_path):
    data, out_dir = finished_run
    text = (out_dir / "checkpoint.json").read_text()

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    # held_in reads the warmup task ids, held_out does not
    @given(_checkpoint_mutations(json.loads(text)), st.sampled_from(SPLITS))
    def check(mutation, split):
        path, op, value, valid = mutation
        payload = json.loads(text)
        _mutate(payload, path, op, value)
        checkpoint = tmp_path / "mutated.json"
        checkpoint.write_text(json.dumps(payload))
        code, out, err = _main(["eval", "--checkpoint", str(checkpoint), "--dataset",
                                str(data), "--split", split])
        assert "Traceback" not in err
        if valid:
            assert code == 0 and 0 <= float(out) <= 1, err
        else:
            assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err

    check()
