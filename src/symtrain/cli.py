"""Command-line entry point: gen-data, run, eval and compare.

Exit codes: 0 success, 1 runtime/io failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from symtrain.autodiff import TrainingError
from symtrain.engine import ConfigError, RunConfig, check_tasks, evaluate, run
from symtrain.environments import (
    MAX_SOLUTION_LEN,
    SPLITS,
    EnvKind,
    generate_dataset,
    load_dataset,
    load_witnesses,
    witness_path,
    write_dataset,
)
from symtrain.policy import CheckpointError, load_checkpoint

EXIT_OK, EXIT_RUNTIME, EXIT_USAGE = 0, 1, 2


class UsageError(Exception):
    pass


def _max_len(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    if value > MAX_SOLUTION_LEN:
        raise argparse.ArgumentTypeError(f"must be <= {MAX_SOLUTION_LEN}, "
                                         f"the longest solution execute grades, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symtrain",
        description="Self-training of symbolic sequence policies against "
                    "executable environments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a task dataset plus witness sidecar")
    p.add_argument("--env", required=True, choices=[e.value for e in EnvKind])
    p.add_argument("--n-train", type=int, required=True)
    p.add_argument("--n-held-out", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("run", help="run a self-training experiment from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("eval", help="evaluate a checkpoint's greedy solve rate")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", choices=SPLITS, default="held_in")
    p.add_argument("--with-refine", action="store_true",
                   help="allow one refinement attempt on failures")
    p.add_argument("--max-len", type=_max_len, default=RunConfig.max_len)

    p = sub.add_parser("compare", help="merge several runs' curves into one CSV")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--out", required=True)
    return parser


def _cmd_gen_data(args) -> int:
    if args.n_train <= 0:
        raise UsageError("--n-train must be positive")
    if args.n_held_out < 0:
        raise UsageError("--n-held-out must be non-negative")
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    env = EnvKind(args.env)
    tasks, witnesses = generate_dataset(env, args.n_train, args.seed, "held_in")
    if args.n_held_out:
        more, more_w = generate_dataset(env, args.n_held_out, args.seed, "held_out")
        tasks += more
        witnesses.update(more_w)
    data_path, side_path = write_dataset(tasks, witnesses, args.out)
    print(f"wrote {args.n_train} held_in + {args.n_held_out} held_out instances "
          f"to {data_path} (witnesses: {side_path})")
    return EXIT_OK


def _load_config(path: str) -> RunConfig:
    """Parse and validate a JSON run configuration file."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return RunConfig.from_dict(raw)


def _cmd_run(args) -> int:
    config = _load_config(args.config)
    tasks = load_dataset(args.dataset)
    witnesses = load_witnesses(witness_path(args.dataset))
    run(config, tasks, witnesses, out_dir=args.out_dir, progress=print)
    return EXIT_OK


def _cmd_eval(args) -> int:
    model, metadata = load_checkpoint(args.checkpoint)
    warmup_ids = metadata.get("warmup_task_ids", [])
    if not (isinstance(warmup_ids, list) and all(isinstance(i, str) for i in warmup_ids)):
        raise CheckpointError(f"{args.checkpoint}: metadata field 'warmup_task_ids' "
                              "must be a list of strings")
    tasks = [t for t in load_dataset(args.dataset) if t.split == args.split]
    if args.split == "held_in":
        exclude = set(warmup_ids)
        tasks = [t for t in tasks if t.id not in exclude]
    if not tasks:
        raise UsageError(f"no {args.split} tasks to evaluate")
    envs = sorted({t.env for t in tasks})
    if len(envs) > 1:
        raise UsageError(f"the {args.split} tasks mix envs {envs}")
    trained_on = metadata.get("env")  # absent from checkpoints of older runs
    if trained_on is not None and trained_on != envs[0]:
        raise UsageError(f"the checkpoint was trained on {trained_on}, "
                         f"but the {args.split} tasks are {envs[0]} tasks")
    check_tasks(tasks, envs[0], model.vocab)
    rate, _ = evaluate(model, tasks, envs[0], args.max_len, args.with_refine)
    print(rate)
    return EXIT_OK


def _cmd_compare(args) -> int:
    if len(args.runs) < 2:
        raise UsageError("compare needs at least two run directories")
    loaded = []
    for run_dir in map(Path, args.runs):
        summary = json.loads((run_dir / "summary.json").read_text())
        if not isinstance(summary, dict) or not {"method", "seed"} <= summary.keys():
            raise UsageError(f"{run_dir / 'summary.json'} is not a run summary: "
                             "it needs a method and a seed")
        rows = [json.loads(line)
                for line in (run_dir / "reports.jsonl").read_text().splitlines()]
        if not all(isinstance(row, dict) and {"held_in_rate", "held_out_rate"} <= row.keys()
                   for row in rows):
            raise UsageError(f"{run_dir / 'reports.jsonl'} is not a run's reports: "
                             "every line needs a held_in_rate and a held_out_rate")
        loaded.append((summary["method"], summary["seed"], rows))
    lengths = {len(rows) for _, _, rows in loaded}
    if len(lengths) > 1:
        print("warning: runs have different iteration counts; padding with nulls",
              file=sys.stderr)
    n_rows = max(lengths)
    header = ["iteration"]
    for method, seed, _ in loaded:
        header += [f"{method}_{seed}_held_in", f"{method}_{seed}_held_out"]
    lines = [",".join(header)]
    for i in range(n_rows):
        cells = [str(i)]
        for _, _, rows in loaded:
            if i < len(rows):
                cells += [repr(rows[i]["held_in_rate"]), repr(rows[i]["held_out_rate"])]
            else:
                cells += ["", ""]
        lines.append(",".join(cells))
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {args.out}")
    return EXIT_OK


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "run": _cmd_run,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (UsageError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, CheckpointError, ValueError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
