"""One repetition of a benchmark workload, in a fresh single-threaded process.

    python3 bench/worker.py --workload NAME --rep-seed N --out DIR [--trace]
                            [--probe-seconds S]

Times set-up (imports plus dataset generation), runs ``engine.run`` once with
``--out`` as its output directory, checks the outputs and prints one JSON
object with the measurements.  ``run.py`` starts it with BLAS pinned to one
thread; it is not meant to be run by hand except for debugging.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from before the first import

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from symtrain import engine  # noqa: E402
from symtrain.autodiff import gru_cell_forward  # noqa: E402
from symtrain.engine import RunConfig, evaluate  # noqa: E402
from symtrain.environments import execute, generate_dataset  # noqa: E402
from symtrain.policy import PolicyModel  # noqa: E402

import tracing  # noqa: E402
from workloads import COMMON, WORKLOADS  # noqa: E402

PROBE_BATCHES = (1, 8, 64, 300)
REFERENCE_LOOP = 200_000


def label_prior_rate(tasks) -> float:
    """Share of tasks whose expected output is the most common one."""
    return Counter(t.y for t in tasks).most_common(1)[0][1] / len(tasks)


def output_failures(result, config, held_in, held_out) -> list[str]:
    """Checks on a finished run that do not depend on tracing."""
    failures = []
    tasks = {t.id: t for t in [*held_in, *held_out]}
    stale = sum(1 for t in result.pool.all_entries()
                if t.b == 1 and execute(config.env, tasks[t.task_id], t.a).b != 1)
    if stale:
        failures.append(f"{stale} b=1 pool entries do not re-execute to b=1")
    warmup_ids = set(result.warmup_task_ids)
    eval_held_in = [t for t in held_in if t.id not in warmup_ids]
    final = result.reports[-1]
    rates = (evaluate(result.model, eval_held_in, config.env, config.max_len,
                      config.eval_with_refine)[0],
             evaluate(result.model, held_out, config.env, config.max_len,
                      config.eval_with_refine)[0])
    if rates != (final.held_in_rate, final.held_out_rate):
        failures.append(f"re-evaluated solve rates {rates} != reported "
                        f"{(final.held_in_rate, final.held_out_rate)}")
    return failures


def gru_probe(model: PolicyModel, seconds: float) -> dict[int, float]:
    """Rows per second of one GRU step plus the output projection, by batch size."""
    p = {k: t.data for k, t in model.params.items()}
    rng = np.random.default_rng(0)
    rates = {}
    for batch in PROBE_BATCHES:
        x = rng.standard_normal((batch, model.d))
        h = np.zeros((batch, model.h))
        steps = max(5, 2000 // batch)
        samples = []
        deadline = time.perf_counter() + seconds / len(PROBE_BATCHES)
        while len(samples) < 5 or time.perf_counter() < deadline:
            start = time.perf_counter()
            for _ in range(steps):
                h, _ = gru_cell_forward(x, h, p["w_x"], p["w_h"], p["b"], model.h)
                h @ p["w_out"] + p["b_out"]
            samples.append(batch * steps / (time.perf_counter() - start))
        rates[batch] = statistics.median(samples)
    return rates


def reference_seconds(repeats: int = 3) -> list[float]:
    """Times of a fixed pure-Python loop: how fast the machine runs right now."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--rep-seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe-seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    config = RunConfig(seed=args.rep_seed, **COMMON, **workload.config)
    held_in, witnesses = generate_dataset(config.env, workload.n_held_in,
                                          args.rep_seed, "held_in")
    held_out, _ = generate_dataset(config.env, workload.n_held_out,
                                   args.rep_seed, "held_out")
    setup_s = time.perf_counter() - _T0

    reference = reference_seconds()
    out_dir = Path(args.out)
    recorder = tracing.Recorder()
    tracing.install(recorder, full=args.trace)
    marks: list[float] = []
    start = time.perf_counter()
    try:
        result = engine.run(config, held_in + held_out, witnesses, out_dir=out_dir / "run",
                            progress=lambda _line: marks.append(time.perf_counter()))
    finally:
        run_s = time.perf_counter() - start
        recorder.uninstall()
    reference += reference_seconds()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = output_failures(result, config, held_in, held_out)
    warmup_ids = set(result.warmup_task_ids)
    eval_held_in = [t for t in held_in if t.id not in warmup_ids]

    _, seconds, _ = recorder.totals()
    counts = recorder.counts
    iteration_s = marks[-1] - marks[0]
    out = {
        "setup_s": setup_s,
        "reference_s": statistics.median(reference),
        "run_s": run_s,
        "iteration_s": iteration_s,
        "iterations": config.iterations,
        "gen_tokens": counts["engine.explore_phase.tokens"],
        "explore_s": seconds["engine.explore_phase"],
        "train_tokens": counts["engine.train.tokens"] + counts["engine.dpo.tokens"],
        "train_s": seconds["engine.train"] + seconds["engine.dpo"],
        "peak_rss_mb": peak_rss_mb,
        "held_in_solve_rate": result.reports[-1].held_in_rate,
        "held_out_solve_rate": result.reports[-1].held_out_rate,
        "held_in_label_prior_rate": label_prior_rate(eval_held_in),
        "held_out_label_prior_rate": label_prior_rate(held_out),
        "reports": [r.as_dict() for r in result.reports],
        "failures": failures,
        "environment": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": {k: v for k, v in
                     np.show_config(mode="dicts")["Build Dependencies"]["blas"].items()
                     if k in ("name", "version")},
        },
    }
    if args.trace:
        layers = tracing.layer_metrics(recorder, iteration_s, len(result.pool))
        for batch, rate in gru_probe(result.model, args.probe_seconds).items():
            layers[f"autodiff.gru_cell_forward.rows_per_s.b{batch}"] = (rate, "rows/s")
        out["layers"] = layers
        out["failures"] += tracing.consistency_failures(
            recorder, config, len(held_in), len(warmup_ids))
        recorder.write_spans(out_dir / "spans.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
