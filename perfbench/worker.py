"""One pass of one workload, in a fresh process.

``run.py`` starts this script once per pass, so nothing the program
caches (the recurrence row memo, j tables) carries from one pass to the
next.  Usage:

    python3 perfbench/worker.py --workload NAME --seed N --mode run|trace|setup \
        --launched-at T [--tiny] [--spans FILE]

``--launched-at`` is the parent's ``time.monotonic()`` just before it
started this process; set-up time runs from there to the first timed
task.  Mode ``setup`` stops at that point, ``run`` runs the task list
untraced and ``trace`` runs it with the tracing wrappers installed.
Between tasks, after every quarter second of task time, the worker
times a fixed reference computation (``probe``); each task's latency is
also reported adjusted by the probes timed around it (``adjust``).
The result is one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")
PROBE_EVERY_S = 0.25     # task time between two probes
# The probe's median time on the machine the benchmark was built on, and
# the share of the probe's swings that the tasks follow (see README).
PROBE_NOMINAL_S = 0.0025
PROBE_EXPONENT = 0.5


def probe() -> float:
    """Seconds taken by a fixed reference computation of about 2.5 ms.

    Exact rational arithmetic on small integers, in the interpreter.
    The probe calls nothing in modpoly, so a change to the program
    cannot move it.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for u in range(1, 600):
        k = u % 13 + 1
        acc += Fraction(math.factorial(k) * 97 * math.comb(67 + k, k), math.factorial(k // 2 + 1))
    return time.perf_counter() - t0


def adjust(latency: float, probe_s: float) -> float:
    """``latency`` taken back to the machine speed at which the probe takes PROBE_NOMINAL_S.

    The CPU speed of the machine the benchmark was built on swings by up
    to 2x over seconds to minutes, and task times follow about half of
    the probe's swing (log-log slope 0.3-0.6 over passes), so a task is
    scaled by the square root of the probe's ratio, not the ratio itself.
    """
    return latency * (PROBE_NOMINAL_S / probe_s) ** PROBE_EXPONENT


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("run", "trace", "setup"), required=True)
    p.add_argument("--launched-at", type=float, required=True)
    p.add_argument("--tiny", action="store_true", help="a small slice of the task list")
    p.add_argument("--spans", help="write the traced pass's spans to this file")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import modpoly
    import workloads

    tasks = workloads.make_tasks(args.workload, args.seed, tiny=args.tiny)
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]
    expected = [workloads.expected_output(reference, task) for task in tasks]
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(modpoly)
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="pass-", dir=OUT_DIR)
    try:
        session = workloads.Session(modpoly, scratch)
        setup_s = time.monotonic() - args.launched_at
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0

        outputs, latencies, before = [], [], []
        probes = [probe()]
        clock = time.perf_counter
        probing_s = since_probe = 0.0
        start = clock()
        for task in tasks:
            if since_probe >= PROBE_EVERY_S:
                t0 = clock()
                probes.append(probe())
                probing_s += clock() - t0
                since_probe = 0.0
            before.append(len(probes) - 1)
            t0 = clock()
            try:
                if tracer is None:
                    out = session.run_task(task)
                else:
                    out = tracer.task(task[0], session.run_task, task)
            except Exception as err:  # a task that raises is a failed task, not a failed run
                out = err
            latencies.append(clock() - t0)
            since_probe += latencies[-1]
            outputs.append(out)
        wall_s = clock() - start - probing_s
        probes.append(probe())
        # A task is adjusted by the median of the probes from one before it
        # to two after it: about a second of context, which follows the
        # machine's speed but not the jitter of a single probe.
        latencies_adj = [adjust(lat, statistics.median(probes[max(0, i - 1):i + 3]))
                         for lat, i in zip(latencies, before)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failures = []
    for task, out, want in zip(tasks, outputs, expected):
        if isinstance(out, Exception):
            failures.append({"task": list(task), "error": repr(out)})
            continue
        got = workloads.digest_output(task, out)
        if got != want:
            failures.append({"task": list(task), "got": got, "want": want})

    result = {
        "mode": args.mode,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies_s": latencies,
        "latencies_adj": latencies_adj,
        "wall_adj": sum(latencies_adj),
        "probe_ms": 1000.0 * statistics.median(probes),
        "kinds": [task[0] for task in tasks],
        "attempted": len(tasks),
        "failed": len(failures),
        "failures": failures,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        layers = tracer.layer_metrics(wall_s)
        layers["io_cli.bytes_out"] = sum(
            workloads.cli_bytes_out(task, out) for task, out in zip(tasks, outputs)
            if not isinstance(out, Exception))
        result["layers"] = layers
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
