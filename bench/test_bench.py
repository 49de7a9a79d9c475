"""Tests of the benchmark itself.

    python3 -m pytest bench -q

They run the ``tiny`` workload for a second, so they take a few seconds.
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_reported_with_its_unit(trace, section):
    proc = run_bench(ROOT, "tiny", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)


def test_end_to_end_metrics_are_printed_by_name_and_unit():
    proc = run_bench(ROOT, "tiny", 0)
    table = proc.stdout.splitlines()[:-1]
    for m in SPEC["end_to_end"]:
        assert any(line.split()[0] == m["name"] and line.split()[-1] == m["unit"]
                   for line in table if line.strip()), m["name"]
    for name in ("held_in_solve_rate", "held_out_solve_rate", "failed_run_share"):
        assert any(line.split()[0] == name for line in table if line.strip())


def test_benchmark_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} < set(WORKLOADS)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_recorder_nests_spans_counts_and_restores():
    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    module = types.SimpleNamespace(inner=inner, outer=outer)
    recorder = tracing.Recorder()
    recorder.wrap(module, "outer", "outer")
    recorder.wrap(module, "inner", lambda args: f"inner.{args['x']}",
                  lambda counts, name, args, result: counts.update({name: result}))
    assert module.outer(3) == 8
    recorder.uninstall()
    assert module.outer is outer and module.inner is inner
    (outer_name, o_start, o_end, o_parent), (inner_name, i_start, i_end, i_parent) = \
        recorder.spans
    assert (outer_name, o_parent) == ("outer", -1)
    assert (inner_name, i_parent) == ("inner.3", 0)
    assert o_start <= i_start <= i_end <= o_end
    assert recorder.counts["inner.3"] == 4
    assert recorder.seconds_under("inner.3", "outer") == i_end - i_start
