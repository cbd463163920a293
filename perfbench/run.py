"""The modpoly benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports modpoly from
``src/``.  Workloads: crosscheck-sweep, full-table, library-session (see
perfbench/README.md for why each exists).

A run starts one fresh worker process per pass over the workload's task
list, one after the other, until ``--seconds`` have passed.  With
``--trace 0`` it samples set-up time after each pass, and at the end
until there are SETUP_SAMPLES samples: each is a worker that only sets
up, next to a bare interpreter start.  Each worker is single-threaded
and runs its tasks in a closed loop, one at a time, and checks every
output against perfbench/reference.json after the timed loop.

``--trace 0`` reports the end-to-end metrics.  Their times are adjusted
for the swings in CPU speed of a shared machine: each task's latency by
a fixed reference computation timed around it (see worker.adjust), and
set-up time by a bare interpreter start timed next to it; the raw times
are printed too, but not gated.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones, with the tracing overhead as the difference of the two
pass times.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it restate every metric with its unit, the sample counts and the run's
environment, which are also written to perfbench/out/.  The exit code is
1 when a task failed and 2 when the run itself could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 16       # set-up samples per --trace 0 run
SETUP_PER_PASS = 3       # of which taken after each pass, the rest at the end
# setup_s is each sample's set-up time divided by the bare interpreter start
# timed next to it, times this constant: the median bare start on the machine
# the benchmark was built on (see README, "setup_s").
BARE_START_S = 0.075
RUN_LIMIT_S = 170        # a run must end within 180 s, whatever the program does

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}
# Printed and recorded beside the end-to-end metrics, but not gated: on a
# machine whose speed swings, raw times spread too much between runs.
RAW_UNITS = {"wall_raw_s": "s", "task_p50_raw_ms": "ms", "task_p90_raw_ms": "ms",
             "probe_ms": "ms", "setup_raw_s": "s", "bare_start_s": "s"}
# Workers run single-threaded whatever the caller's shell sets.
WORKER_ENV = {**os.environ, "MODPOLY_THREADS": "1"}


class RunError(Exception):
    """The run could not be made; no result is printed."""


def _run(argv: list, limit: float) -> subprocess.CompletedProcess:
    """Run ``argv`` to its end; it is killed if still running at monotonic time ``limit``."""
    now = time.monotonic()
    if now >= limit:
        raise RunError("run exceeded %d s" % RUN_LIMIT_S)
    try:
        return subprocess.run(argv, cwd=ROOT, env=WORKER_ENV, capture_output=True, text=True,
                              timeout=limit - now)
    except subprocess.TimeoutExpired:
        raise RunError("worker killed: run exceeded %d s" % RUN_LIMIT_S) from None


def launch(workload: str, seed: int, mode: str, limit: float, extra=()) -> dict:
    """Start one worker, wait for it to end, and return its result."""
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--mode", mode, "--launched-at", repr(time.monotonic()), *extra]
    proc = _run(argv, limit)
    if proc.returncode != 0:
        raise RunError("worker exited with %d:\n%s" % (proc.returncode, proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sample_setup(workload: str, seed: int, limit: float, extra=()) -> tuple:
    """One set-up sample: (set-up-only worker's setup_s, bare interpreter start in s)."""
    t0 = time.monotonic()
    _run([sys.executable, "-c", "pass"], limit)
    bare = time.monotonic() - t0
    return launch(workload, seed, "setup", limit, extra)["setup_s"], bare


def quantile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(passes: list, setups: list) -> dict:
    adjusted = [t for p in passes for t in p["latencies_adj"]]
    return {
        "setup_s": BARE_START_S * statistics.median(s / bare for s, bare in setups),
        "wall_s": statistics.median(p["wall_adj"] for p in passes),
        "task_p50_ms": 1000.0 * statistics.median(adjusted),
        "task_p90_ms": 1000.0 * quantile(adjusted, 90),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def raw_times(passes: list, setups: list) -> dict:
    latencies = [t for p in passes for t in p["latencies_s"]]
    raw = {
        "wall_raw_s": statistics.median(p["wall_s"] for p in passes),
        "task_p50_raw_ms": 1000.0 * statistics.median(latencies),
        "task_p90_raw_ms": 1000.0 * quantile(latencies, 90),
        "probe_ms": statistics.median(p["probe_ms"] for p in passes),
    }
    if setups:
        raw["setup_raw_s"] = statistics.median(s for s, _ in setups)
        raw["bare_start_s"] = statistics.median(bare for _, bare in setups)
    return raw


def per_layer(passes: list) -> dict:
    traced = [p for p in passes if p["mode"] == "trace"]
    plain = [p for p in passes if p["mode"] == "run"]
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    out["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
    out["trace.untraced_wall_s"] = statistics.median(p["wall_s"] for p in plain)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def units_of_layers(names) -> dict:
    def unit(name):
        if name.endswith(("_s", ".s")):
            return "s"
        if name.endswith("_bits"):
            return "bit"
        if name.endswith("bytes_out"):
            return "byte"
        return "count"
    return {name: unit(name) for name in names}


def measure(workload: str, seed: int, seconds: int, trace: bool, extra=()) -> dict:
    spans = os.path.join(OUT_DIR, "spans-%s-seed%d.tsv.gz" % (workload, seed))
    start = time.monotonic()
    deadline, limit = start + seconds, start + RUN_LIMIT_S
    passes, setups = [], []
    while True:
        mode = "trace" if trace and len(passes) % 2 == 0 else "run"
        # Spans are written out for the first traced pass only: writing them
        # takes seconds on crosscheck-sweep and the other passes repeat it.
        passes.append(launch(workload, seed, mode, limit,
                             tuple(extra) + (("--spans", spans) if not passes and trace else ())))
        if not trace:
            # Set-up samples are spread over the run, so that a change in
            # the machine's speed during the run reaches them as it
            # reaches the passes.
            setups += [sample_setup(workload, seed, limit, extra)
                       for _ in range(min(SETUP_PER_PASS, SETUP_SAMPLES - len(setups)))]
        enough_kinds = not trace or len(passes) >= 2
        if time.monotonic() >= deadline and enough_kinds:
            break
    if trace:
        metrics = per_layer(passes)
        units = units_of_layers(metrics)
    else:
        setups += [sample_setup(workload, seed, limit, extra)
                   for _ in range(SETUP_SAMPLES - len(setups))]
        metrics = end_to_end(passes, setups)
        units = END_TO_END_UNITS
    plain = [p for p in passes if p["mode"] == "run"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": len(passes),
        "setup_samples": len(setups),
        "task_samples": sum(len(p["latencies_s"]) for p in plain),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": [f for p in passes for f in p["failures"]][:20],
        "metrics": metrics,
        "units": units,
        "raw": raw_times(plain, setups),
        "raw_units": RAW_UNITS,
        "pass_results": [{k: v for k, v in p.items() if not k.startswith("latencies")}
                         for p in passes],
    }


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="a small slice of each task list (for the benchmark's own tests)")
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "modpoly", "__init__.py")):
        sys.stderr.write("error: no modpoly sources under %s; run from a source checkout\n"
                         % os.path.join(ROOT, "src"))
        return 2
    extra = ("--tiny",) if args.tiny else ()
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), extra)
    except RunError as err:
        sys.stderr.write("error: %s\n" % err)
        return 2
    record_path = os.path.join(OUT_DIR, "run-%s-seed%d-trace%d.json"
                               % (args.workload, args.seed, args.trace))
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print("workload %s  seed %d  python %s  nproc %s  passes %d  task samples %d  setup samples %d"
          % (record["workload"], record["seed"], record["python"], record["nproc"],
             record["passes"], record["task_samples"], record["setup_samples"]))
    print("failed_frac %.6f  (%d of %d tasks)" % (record["failed_frac"], record["failed"],
                                                 record["attempted"]))
    for failure in record["failures"]:
        print("FAILED %s" % json.dumps(failure))
    for name, value in record["metrics"].items():
        print("%-44s %.6g %s" % (name, value, record["units"][name]))
    for name, value in record["raw"].items():
        print("%-44s %.6g %s  (raw, not gated)" % (name, value, record["raw_units"][name]))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": record["units"][name]}
                    for name, value in record["metrics"].items()},
    }))
    return 1 if record["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
