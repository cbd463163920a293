"""The benchmark's own tests.

    python3 -m pytest -q perfbench/tests

They run the benchmark at a tiny size in subprocesses, so the tracing
wrappers never touch the modpoly imported by the test process.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402
from tracer import Tracer, _window_products  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def traced_pass(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload, "--seed", "3",
         "--mode", "trace", "--tiny", "--launched-at", repr(time.monotonic())],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return last_json(proc.stdout)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_workload_passes_the_gate(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        printed = {line.split()[0] for line in proc.stdout.splitlines()[:-1] if line.strip()}
        assert {"failed_frac", "wall_raw_s", "task_p50_raw_ms", "task_p90_raw_ms", "probe_ms",
                "setup_raw_s", "bare_start_s"} <= printed


def copy_bench(tmp_path):
    """A copy of the benchmark's files in ``tmp_path``, without modpoly's sources."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))


def test_corrupted_reference_fails_the_run(tmp_path):
    copy_bench(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    path = tmp_path / "perfbench" / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    row = reference["library-session"]["rows"]["101"]
    row[5] = "0" * len(row[5])
    path.write_text(json.dumps(reference), encoding="utf-8")
    proc = run_bench("--workload", "library-session", "--seed", "7", "--seconds", "1", "--tiny",
                     cwd=str(tmp_path))
    assert proc.returncode != 0
    result = last_json(proc.stdout)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert "failed_frac 0.000000" not in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_self_times_account_for_the_traced_wall_time(workload):
    result = traced_pass(workload)
    layers = result["layers"]
    self_times = [v for k, v in layers.items() if k.startswith("layer.") and k.endswith(".self_s")]
    assert len(self_times) == 8
    assert math.isclose(sum(self_times) + layers["trace.untraced_s"], result["wall_s"],
                        rel_tol=1e-9, abs_tol=1e-9)
    assert layers["trace.untraced_s"] >= 0


def test_wrappers_see_calls_between_layers():
    crosscheck = traced_pass("crosscheck-sweep")["layers"]
    # cli_main -> coeff_closed -> term_weight -> binomial, all through imported bindings
    assert crosscheck["io_cli.cli_main.calls"] == 2 * len(workloads.make_tasks("crosscheck-sweep", 3, tiny=True))
    assert crosscheck["closedform.term_weight.calls"] > crosscheck["closedform.coeff_closed.calls"] > 0
    assert crosscheck["layer.comb.self_s"] > 0
    full = traced_pass("full-table")["layers"]
    # io_cli's own binding of solve_full_polynomial, and IntSeries methods on the class
    assert full["recurrence.solve_full_polynomial.calls"] == len(workloads.make_tasks("full-table", 3, tiny=True))
    assert full["qseries.mul.calls"] > 0 and full["qseries.pow.calls"] > 0
    assert full["congruence.records"] > 0 and full["io_cli.parse_sutherland.s"] > 0
    library = traced_pass("library-session")["layers"]
    assert library["recurrence.recurrence_row.memo_hits"] > 0
    assert library["jfun.j_coefficients.count_sum"] == workloads.LIBRARY_J_COUNT


def test_counter_updates_are_charged_to_the_harness():
    tracer = Tracer()
    counted = tracer.wrap(lambda: None, "recurrence.inner", observe=lambda args, result: time.sleep(0.02))
    caller = tracer.wrap(lambda: counted(), "recurrence.outer")
    tracer.task("t", caller)
    layers = tracer.layer_metrics(wall_s=1.0)
    assert layers["layer.recurrence.self_s"] < 0.01
    assert layers["layer.bench.self_s"] >= 0.02


@pytest.mark.parametrize("la,lb,n", [(0, 3, 5), (3, 0, 5), (4, 4, 3), (5, 3, 6), (3, 5, 6),
                                     (7, 7, 7), (7, 7, 20), (10, 2, 4), (1, 1, 0)])
def test_window_products_counts_the_multiplication_loop(la, lb, n):
    brute = sum(1 for i in range(min(la, n)) for j in range(min(lb, n - i)))
    assert _window_products(la, lb, n) == brute


def test_same_seed_same_tasks_and_every_task_has_a_reference():
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    for workload in workloads.WORKLOADS:
        for seed in (0, 1, 2):
            tasks = workloads.make_tasks(workload, seed)
            assert tasks == workloads.make_tasks(workload, seed)
            for task in tasks:
                assert workloads.expected_output(reference[workload], task)
    library = workloads.make_tasks("library-session", 5)
    assert len(library) >= 100
    assert sorted(workloads.make_tasks("crosscheck-sweep", 1)) == sorted(workloads.make_tasks("crosscheck-sweep", 2))


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    copy_bench(tmp_path)
    proc = run_bench("--workload", "full-table", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
