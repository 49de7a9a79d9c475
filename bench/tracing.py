"""Spans and counters around the calls into each symtrain layer.

A Recorder replaces module attributes -- ``symtrain.engine.sample``,
``symtrain.autodiff.Tape.backward``, ``symtrain.pool.CandidatePool.update``
and so on -- with wrappers.  Each call records one span (name, start, end,
parent) in memory and updates counters from the call's arguments and result.
Nothing under ``src/`` changes; ``uninstall`` puts the originals back.

Wrappers sit on the caller's side of each boundary: the engine imports policy
and environment functions by name, so those names are patched in
``symtrain.engine``.  Calls a layer makes internally (``score`` calling
``sequence_token_logps``) are part of the outer call's span.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable

from symtrain import autodiff, engine, pool
from symtrain.autodiff import global_norm
from symtrain.environments import Status
from symtrain.policy import EOS


class Recorder:
    """Installs wrappers and keeps their spans and counters in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, Callable]] = []

    def wrap(self, owner: object, attr: str, name: str | Callable[[dict], str],
             count: Callable[[Counter, str, dict, object], None] | None = None) -> None:
        """Replace ``owner.attr`` with a wrapper recording a span per call.

        ``name`` may be a function of the bound arguments; ``count`` is called
        after the span closes with the counters, span name, bound arguments
        and result.
        """
        fn = getattr(owner, attr)
        signature = inspect.signature(fn)
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            arguments = bound.arguments
            span_name = name(arguments) if callable(name) else name
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((span_name, 0.0, 0.0, parent))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (span_name, start, end, parent)
            if count is not None:
                count(counts, span_name, arguments, result)
            return result

        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, fn = self._originals.pop()
            setattr(owner, attr, fn)

    def write_spans(self, path: Path) -> None:
        with path.open("w") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Calls, summed seconds and longest single call, per span name."""
        calls: Counter = Counter()
        seconds: Counter = Counter()
        longest: Counter = Counter()
        for name, start, end, _ in self.spans:
            calls[name] += 1
            seconds[name] += end - start
            longest[name] = max(longest[name], end - start)
        return calls, seconds, longest

    def seconds_under(self, name: str, ancestor: str) -> float:
        """Summed duration of ``name`` spans that run inside an ``ancestor`` span."""
        total = 0.0
        for span_name, start, end, parent in self.spans:
            if span_name != name:
                continue
            while parent != -1 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent != -1:
                total += end - start
        return total


# ---------------------------------------------------------------------------
# counters

def emitted_tokens(solution, max_len: int) -> int:
    """Tokens a generation step emitted: the solution plus EOS unless capped."""
    return len(solution) + (1 if len(solution) < max_len else 0)


def _count_explore(counts, name, args, pairs) -> None:
    max_len = args["config"].max_len
    for t, t_tilde in pairs:
        counts["engine.candidates"] += 1
        counts["engine.explore_phase.tokens"] += emitted_tokens(t.a, max_len)
        if t_tilde is not None:
            counts["engine.candidates"] += 1
            counts["engine.explore_phase.tokens"] += emitted_tokens(t_tilde.a, max_len)


def _epochs_name(args) -> str:
    return "engine.warmup" if args["iteration"] == 0 else "engine.train"


def _count_epochs(counts, name, args, result) -> None:
    epochs = args["epochs"] if args["epochs"] is not None else args["config"].epochs_per_iter
    examples = args["examples"]
    counts[f"{name}.tokens"] += epochs * sum(len(tgt) for _, _, tgt in examples)
    counts[f"{name}.l1_examples"] += sum(1 for kind, _, _ in examples if kind == "L1")


def _count_dpo(counts, name, args, result) -> None:
    # pos and neg both get a forward and backward pass, each with its EOS
    u2 = args["sets"].u2
    counts["engine.dpo.tokens"] += args["config"].epochs_per_iter * sum(
        len(a_plus) + len(a_minus) + 2 for _, a_plus, a_minus in u2)


def _count_training_sets(counts, name, args, sets) -> None:
    counts["engine.u1_size"] += len(sets.u1)
    counts["engine.u2_size"] += len(sets.u2)


def _count_generation(counts, name, args, solutions) -> None:
    params = args["params"]
    counts[f"{name}.rows"] += params.k_samples
    counts[f"{name}.tokens"] += sum(emitted_tokens(a, params.max_len) for a in solutions)


def _count_score(counts, name, args, result) -> None:
    a = list(args["a"])
    counts[f"{name}.tokens"] += a.index(EOS) + 1 if EOS in a else len(a) + 1


def _count_greedy(counts, name, args, solution) -> None:
    counts[f"{name}.tokens"] += emitted_tokens(solution, args["max_len"])


def _count_batch_nll(counts, name, args, result) -> None:
    examples = args["examples"]
    steps = max(len(c) + len(t) for c, t in examples) - 1
    counts[f"{name}.rows"] += len(examples)
    counts[f"{name}.target_tokens"] += sum(len(t) for _, t in examples)
    counts[f"{name}.padded_steps"] += len(examples) * steps


def _count_execute(counts, name, args, result) -> None:
    counts[f"{name}.status.{result.status.value}"] += 1
    counts[f"{name}.b1"] += result.b


def _count_sgd(counts, name, args, result) -> None:
    counts[f"{name}.clipped"] += global_norm(args["grads"]) > args["clip"]


def _count_backward(counts, name, args, result) -> None:
    # len(tape) does not change during backward, so reading it after is exact
    counts[f"{name}.records"] += len(args["self"])


def _count_pool_update(counts, name, args, inserted) -> None:
    counts[f"{name}.inserted"] += inserted


def install(recorder: Recorder, full: bool) -> None:
    """Wrap the engine phases the end-to-end metrics need; with ``full``,
    also every layer boundary the per-layer metrics need."""
    recorder.wrap(engine, "explore_phase", "engine.explore_phase", _count_explore)
    recorder.wrap(engine, "_run_epochs", _epochs_name, _count_epochs)
    recorder.wrap(engine, "_train_dpo_stage", "engine.dpo", _count_dpo)
    if not full:
        return
    recorder.wrap(engine, "evaluate", "engine.evaluate")
    recorder.wrap(engine, "build_training_sets", "engine.build_training_sets",
                  _count_training_sets)
    recorder.wrap(engine, "sample", "policy.sample", _count_generation)
    recorder.wrap(engine, "refine", "policy.refine", _count_generation)
    recorder.wrap(engine, "score", "policy.score", _count_score)
    recorder.wrap(engine, "greedy_decode", "policy.greedy_decode", _count_greedy)
    recorder.wrap(engine, "batch_nll", "policy.batch_nll", _count_batch_nll)
    recorder.wrap(engine, "sequence_token_logps", "policy.sequence_token_logps")
    recorder.wrap(engine, "save_checkpoint", "policy.save_checkpoint")
    recorder.wrap(engine, "execute", "environments.execute", _count_execute)
    recorder.wrap(engine, "sgd_step", "autodiff.sgd_step", _count_sgd)
    recorder.wrap(autodiff.Tape, "backward", "autodiff.Tape.backward", _count_backward)
    recorder.wrap(pool.CandidatePool, "update", "pool.update", _count_pool_update)
    recorder.wrap(pool.CandidatePool, "ranked_sets", "pool.ranked_sets")
    recorder.wrap(engine, "persist", "pool.persist")


# ---------------------------------------------------------------------------
# per-layer metrics

STATUSES = tuple(status.value for status in Status)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(recorder: Recorder, iteration_s: float,
                  pool_size: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit) from one traced run.

    ``iteration_s`` is the summed wall time of iterations 1..n, the base of
    the explore and train shares.
    """
    calls, seconds, longest = recorder.totals()
    counts = recorder.counts
    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (float(value), unit)

    for span in ("engine.warmup", "engine.explore_phase", "engine.train", "engine.dpo",
                 "engine.evaluate", "engine.build_training_sets"):
        put(f"{span}.s", seconds[span], "s")
    put("engine.iteration.s", iteration_s, "s")
    put("engine.explore_share", _share(seconds["engine.explore_phase"], iteration_s), "ratio")
    put("engine.train_share",
        _share(seconds["engine.train"] + seconds["engine.dpo"], iteration_s), "ratio")
    for name in ("engine.u1_size", "engine.u2_size", "engine.candidates"):
        put(name, counts[name], "count")

    for span in ("policy.sample", "policy.refine"):
        put(f"{span}.calls", calls[span], "count")
        put(f"{span}.rows", counts[f"{span}.rows"], "count")
        put(f"{span}.tokens", counts[f"{span}.tokens"], "count")
        put(f"{span}.s", seconds[span], "s")
    for span in ("policy.score", "policy.greedy_decode"):
        put(f"{span}.calls", calls[span], "count")
        put(f"{span}.tokens", counts[f"{span}.tokens"], "count")
        put(f"{span}.s", seconds[span], "s")
    put("policy.score.share_of_explore",
        _share(recorder.seconds_under("policy.score", "engine.explore_phase"),
               seconds["engine.explore_phase"]), "ratio")
    nll = "policy.batch_nll"
    put(f"{nll}.calls", calls[nll], "count")
    for key in ("rows", "target_tokens", "padded_steps"):
        put(f"{nll}.{key}", counts[f"{nll}.{key}"], "count")
    put(f"{nll}.s", seconds[nll], "s")
    put(f"{nll}.pad_ratio", _share(counts[f"{nll}.target_tokens"],
                                   counts[f"{nll}.padded_steps"]), "ratio")
    put(f"{nll}.rows_per_call", _share(counts[f"{nll}.rows"], calls[nll]), "rows/call")
    put("policy.sequence_token_logps.calls", calls["policy.sequence_token_logps"], "count")
    put("policy.sequence_token_logps.s", seconds["policy.sequence_token_logps"], "s")
    put("policy.save_checkpoint.s", seconds["policy.save_checkpoint"], "s")

    back = "autodiff.Tape.backward"
    put(f"{back}.calls", calls[back], "count")
    put(f"{back}.records", counts[f"{back}.records"], "count")
    put(f"{back}.s", seconds[back], "s")
    sgd = "autodiff.sgd_step"
    put(f"{sgd}.calls", calls[sgd], "count")
    put(f"{sgd}.s", seconds[sgd], "s")
    put(f"{sgd}.clipped_share", _share(counts[f"{sgd}.clipped"], calls[sgd]), "ratio")

    ex = "environments.execute"
    put(f"{ex}.calls", calls[ex], "count")
    put(f"{ex}.s", seconds[ex], "s")
    put(f"{ex}.per_s", _share(calls[ex], seconds[ex]), "1/s")
    put(f"{ex}.max_call_ms", longest[ex] * 1e3, "ms")
    for status in STATUSES:
        put(f"{ex}.status.{status}", counts[f"{ex}.status.{status}"], "count")
    put(f"{ex}.b1_share", _share(counts[f"{ex}.b1"], calls[ex]), "ratio")

    put("pool.update.calls", calls["pool.update"], "count")
    put("pool.update.inserted", counts["pool.update.inserted"], "count")
    put("pool.update.s", seconds["pool.update"], "s")
    put("pool.ranked_sets.s", seconds["pool.ranked_sets"], "s")
    put("pool.persist.s", seconds["pool.persist"], "s")
    put("pool.size", pool_size, "count")
    return out


def consistency_failures(recorder: Recorder, config, n_held_in: int,
                         n_warmup: int) -> list[str]:
    """Cross-layer identities a traced run must satisfy."""
    calls, _, _ = recorder.totals()
    counts = recorder.counts
    failures = []
    sampled = counts["policy.sample.rows"]
    if sampled != config.K * n_held_in * config.iterations:
        failures.append(f"policy.sample.rows {sampled} != K x held_in tasks x "
                        f"iterations = {config.K * n_held_in * config.iterations}")
    witnesses = n_warmup if config.seed_pool_with_warmup else 0
    expected = sampled + counts["policy.refine.rows"] + witnesses
    if calls["policy.score"] != expected:
        failures.append(f"policy.score.calls {calls['policy.score']} != sampled + "
                        f"refined rows + warmup witnesses = {expected}")
    if counts["engine.u1_size"] != counts["engine.train.l1_examples"]:
        failures.append(f"engine.u1_size {counts['engine.u1_size']} != L1 examples "
                        f"trained {counts['engine.train.l1_examples']}")
    statuses = sum(counts[f"environments.execute.status.{s}"] for s in STATUSES)
    if statuses != calls["environments.execute"]:
        failures.append(f"execute status counts sum to {statuses}, not "
                        f"{calls['environments.execute']} calls")
    return failures
