"""Benchmark of the symtrain self-training loop.

    python3 bench/run.py --workload expr_explore --seed 0 --seconds 30 --trace 0

Run from the repository root.  Every repetition of a workload is one
``engine.run`` in a fresh process (``worker.py``) with BLAS pinned to one
thread, on the dataset and loop seed ``workloads.rep_seed(seed, rep)``.

``--trace 0`` repeats the workload until ``--seconds`` have passed (at least
``MIN_REPS`` times) and prints the end-to-end metrics over all repetitions.
``--trace 1`` runs repetition 0 untraced and then traced, checks that both
give identical iteration reports, probes the GRU kernel for the rest of
``--seconds`` and prints the per-layer metrics.

Each run prints a human-readable table and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Details, the run
environment and the traced spans go to ``.bench_build/symtrain/``.  The exit
code is 1 when a repetition fails or a check does not hold, and 2 when the
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, rep_seed

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
MIN_REPS = 3
DEADLINE_S = 170.0  # every run ends within 180 s
# Time of worker.reference_seconds' loop at the machine's nominal speed.  On a
# shared machine the speed drifts over tens of seconds (the loop took 13-24 ms
# on a 2-core cloud host), which spreads raw wall times of runs minutes apart
# by more than any useful bound.  Every end-to-end time is therefore its wall
# time scaled by REFERENCE_S / the loop's time measured around the same
# repetition; a change to symtrain still moves it in full.
REFERENCE_S = 0.015

# name -> unit, in print order
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "iter_s": "s",
    "gen_tokens_per_s": "tok/s",
    "train_tokens_per_s": "tok/s",
    "peak_rss_mb": "MB",
}
QUALITY = ("held_in_solve_rate", "held_out_solve_rate",
           "held_in_label_prior_rate", "held_out_label_prior_rate")


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(workload: str, seed: int, out_dir: Path, deadline: float,
               trace: bool = False, probe_seconds: float = 0.0) -> dict:
    """One repetition in a fresh process; a failure comes back as ``failures``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
           "--rep-seed", str(seed), "--out", str(out_dir)]
    if trace:
        cmd += ["--trace", "--probe-seconds", str(probe_seconds)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"failures": [f"seed {seed}: timed out"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"failures": [f"seed {seed}: exit {proc.returncode}: {tail[0]}"]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
    except OSError:
        return None
    return head


def end_to_end(reps: list[dict], calibrated: bool = True) -> dict[str, float]:
    """End-to-end metrics over the repetitions.

    Set-up time and memory are medians; the other metrics pool work and time
    across repetitions.  Times are speed-calibrated unless ``calibrated`` is
    false (see REFERENCE_S).
    """
    def scaled(r: dict, key: str) -> float:
        return r[key] * REFERENCE_S / r["reference_s"] if calibrated else r[key]

    def per_second(work: str, seconds: str) -> float:
        return sum(r[work] for r in reps) / sum(scaled(r, seconds) for r in reps)

    return {
        "setup_s": statistics.median(scaled(r, "setup_s") for r in reps),
        "run_s": statistics.mean(scaled(r, "run_s") for r in reps),
        "iter_s": sum(scaled(r, "iteration_s") for r in reps)
        / sum(r["iterations"] for r in reps),
        "gen_tokens_per_s": per_second("gen_tokens", "explore_s"),
        "train_tokens_per_s": per_second("train_tokens", "train_s"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def untraced(args, out_root: Path, deadline: float) -> tuple[list[dict], dict, dict]:
    """Repetitions until ``--seconds`` pass; returns the runs, the end-to-end
    metrics and the printed-only figures (quality and uncalibrated times)."""
    reps: list[dict] = []
    start = time.monotonic()
    longest = 0.0
    while len(reps) < MIN_REPS or time.monotonic() - start < args.seconds:
        began = time.monotonic()
        if len(reps) >= MIN_REPS and began + longest > deadline:
            break
        reps.append(run_worker(args.workload, rep_seed(args.seed, len(reps)),
                               out_root / "rep", deadline))
        longest = max(longest, time.monotonic() - began)
    good = [r for r in reps if not r["failures"]]
    if not good:
        return reps, {}, {}
    metrics = {name: (value, END_TO_END[name]) for name, value in end_to_end(good).items()}
    printed = {f"wall.{name}": (value, END_TO_END[name])
               for name, value in end_to_end(good, calibrated=False).items()
               if name != "peak_rss_mb"}
    # quality comes from the first MIN_REPS repetitions only, so it repeats
    # exactly for a seed however many repetitions fit in the time
    first = [r for r in reps[:MIN_REPS] if not r["failures"]]
    for name in QUALITY if first else ():
        printed[name] = (statistics.mean(r[name] for r in first), "ratio")
    return reps, metrics, printed


def traced(args, out_root: Path, deadline: float) -> tuple[list[dict], dict, dict]:
    """Repetition 0 untraced, then traced, then the kernel probe; returns the
    runs and the per-layer metrics."""
    seed = rep_seed(args.seed, 0)
    start = time.monotonic()
    plain = run_worker(args.workload, seed, out_root / "untraced", deadline)
    probe = max(1.0, args.seconds - 2 * (time.monotonic() - start))
    with_trace = run_worker(args.workload, seed, out_root, deadline,
                            trace=True, probe_seconds=probe)
    reps = [plain, with_trace]
    if any(r["failures"] for r in reps):
        return reps, {}, {}
    if plain["reports"] != with_trace["reports"]:
        with_trace["failures"].append("traced and untraced iteration reports differ")
        return reps, {}, {}
    metrics = {name: tuple(value) for name, value in with_trace["layers"].items()}
    # calibrated like run_s, so that a change in machine speed between the
    # two processes does not show as tracing overhead
    bases = [r["run_s"] * REFERENCE_S / r["reference_s"] for r in reps]
    metrics["trace.run_s.untraced"] = (bases[0], "s")
    metrics["trace.run_s.traced"] = (bases[1], "s")
    metrics["trace.overhead"] = (bases[1] / bases[0] - 1, "ratio")
    for name in QUALITY:
        metrics[f"quality.{name}"] = (plain[name], "ratio")
    return reps, metrics, {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "symtrain" / "engine.py").is_file():
        print(f"error: no symtrain sources under {ROOT / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    out_root = ROOT / ".bench_build" / "symtrain" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
    reps, metrics, printed = (traced if args.trace else untraced)(args, out_root, deadline)
    failed = sum(1 for r in reps if r["failures"])
    environment = {
        "nproc": os.cpu_count(),
        "blas_threads": worker_env()["OPENBLAS_NUM_THREADS"],
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        **next((r["environment"] for r in reps if "environment" in r), {}),
    }

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(reps)} runs, {failed} failed")
    for r in reps:
        for failure in r["failures"]:
            print(f"  FAILED: {failure}")
    printed["failed_run_share"] = (failed / len(reps), "ratio")
    for name, (value, unit) in [*metrics.items(), *printed.items()]:
        print(f"  {name:48s} {value:14.6g} {unit}")
    print(f"  environment: {json.dumps(environment, sort_keys=True)}")

    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "result.json").write_text(json.dumps(
        {**result, "printed": printed, "environment": environment,
         "runs": [{k: v for k, v in r.items() if k != "layers"} for r in reps]},
        indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
