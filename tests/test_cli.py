import json

import pytest

from symtrain.cli import main
from symtrain.environments import EnvKind, generate_dataset, load_dataset, write_dataset


def _cfg(tmp_path, **over):
    raw = dict(env="expr_math", method="envisions", K=2, N1=3, N2=1,
               iterations=1, train_mode="scratch", ablations=[],
               epochs_per_iter=3, lr=0.1, dpo_beta=0.1, seed=0,
               d=8, h=12, max_len=10, warmup_tasks=2, batch_size=4)
    raw.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def _gen(tmp_path, n_train=6, n_held_out=2):
    out = tmp_path / "data.jsonl"
    code = main(["gen-data", "--env", "expr_math", "--n-train", str(n_train),
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
    assert summary["method"] == "star_env"


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
                 "--dataset", str(data), "--split", "held_in",
                 "--max-len", "10"])
    assert code == 0
    rate = float(capsys.readouterr().out.strip())
    assert rate == reports[-1]["held_in_rate"]


def test_eval_held_out_split(finished_run, capsys):
    data, out_dir = finished_run
    capsys.readouterr()
    code = main(["eval", "--checkpoint", str(out_dir / "checkpoint.json"),
                 "--dataset", str(data), "--split", "held_out", "--max-len", "10"])
    assert code == 0
    rate = float(capsys.readouterr().out.strip())
    assert 0.0 <= rate <= 1.0


def test_eval_with_refine_never_lowers_rate(finished_run, capsys):
    data, out_dir = finished_run
    capsys.readouterr()
    main(["eval", "--checkpoint", str(out_dir / "checkpoint.json"),
          "--dataset", str(data), "--split", "held_in", "--max-len", "10"])
    base = float(capsys.readouterr().out.strip())
    main(["eval", "--checkpoint", str(out_dir / "checkpoint.json"),
          "--dataset", str(data), "--split", "held_in", "--max-len", "10",
          "--with-refine"])
    refined = float(capsys.readouterr().out.strip())
    assert refined >= base


@pytest.mark.parametrize("max_len", ["0", "-3"])
def test_eval_max_len_below_one_is_usage_error(finished_run, capsys, max_len):
    data, out_dir = finished_run
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--checkpoint", str(out_dir / "checkpoint.json"),
              "--dataset", str(data), "--max-len", max_len])
    assert exc.value.code == 2
    assert "--max-len: must be >= 1" in capsys.readouterr().err


def test_eval_max_len_over_the_bound_is_usage_error(finished_run, capsys):
    data, out_dir = finished_run
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--checkpoint", str(out_dir / "checkpoint.json"),
              "--dataset", str(data), "--max-len", "257"])
    assert exc.value.code == 2
    assert "--max-len: must be <= 256" in capsys.readouterr().err


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
    assert "mix envs" in capsys.readouterr().err


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
                 "--dataset", str(data), "--split", "held_out", "--max-len", "10"])
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


@pytest.mark.parametrize("name, content, message", [
    ("summary.json", json.dumps({"seed": 0}), "is not a run summary"),
    ("summary.json", json.dumps({"method": "envisions"}), "is not a run summary"),
    ("summary.json", "[1]", "is not a run summary"),
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
    (other / name).write_text(content)
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
