"""Task lists of the three benchmark workloads, and how each task runs.

A task is a tuple ``(kind, *params)``.  The seed only orders tasks and
draws the library-session sample; level sets and size caps are fixed, so
runs with different seeds cost about the same.  ``Session.run_task``
calls the program and returns the raw output; ``digest_output`` turns
that output into the form the reference file stores, and
``expected_output`` looks up the stored form.  Outputs are digested
after the timed task list, never inside it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

WORKLOADS = ("crosscheck-sweep", "full-table", "library-session")

# crosscheck-sweep: every odd prime 17 <= ell <= 97; the closed partition
# sum runs to m = min(ell, CROSSCHECK_CAP).  The levels stay above the
# solver's ell <= 13 limit, so the solver is never reached.
CROSSCHECK_LEVELS = (17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
CROSSCHECK_CAP = 30

# full-table: solve, write, re-read, check and verify whole tables.
FULL_TABLE_LEVELS = (5, 7, 11, 13, 17)
FULL_TABLE_CHECKS = "prop22,prop23,conj25,conj12"

# library-session: one process, one shared j table, many point requests.
LIBRARY_LEVELS = (101, 131, 163, 199)
LIBRARY_J_COUNT = 200            # enough j coefficients for a full ell = 199 row
LIBRARY_CLOSED_M = tuple(range(1, 26))
LIBRARY_SMALL_M = tuple(range(1, 8))
LIBRARY_JCOEFF_COUNTS = (250, 500, 1000)
# Requests per level: point lookups the row memo can answer, and
# divisibility checks of the whole row (which read the row from the memo
# too).  The checks are the largest group, so the median request is a
# millisecond-scale check_row: the median of microsecond lookups varied
# by a third from run to run, with the cache state left by the previous
# request.
LIBRARY_COEFF_PER_LEVEL = 8
LIBRARY_ROW_PER_LEVEL = 3
LIBRARY_CHECK_PER_LEVEL = 15


def _stratified(rng: random.Random, count: int, top: int) -> list:
    """``count`` integers in [0, top], one drawn from each of ``count`` equal strata.

    Stratifying keeps the spread of the sample, and so its cost, nearly
    the same for every seed.
    """
    width = (top + 1) / count
    return [min(top, int((i + rng.random()) * width)) for i in range(count)]


def library_tasks(seed: int) -> list:
    """The request stream of one library session.

    It opens by building the shared j table.  The first request touching
    a level asks for its whole row, so every later recurrence request for
    that level can be served by the row memo; which requests those are,
    and their order, comes from the seed.
    """
    rng = random.Random(seed)
    body = []
    for ell in LIBRARY_LEVELS:
        body += [("coeff_recurrence", ell, m) for m in _stratified(rng, LIBRARY_COEFF_PER_LEVEL, ell)]
        body += [("recurrence_row", ell, m) for m in _stratified(rng, LIBRARY_ROW_PER_LEVEL, ell)]
        body += [("check_row", ell)] * LIBRARY_CHECK_PER_LEVEL
    # Levels cycle with m rather than being drawn, so the costs of the
    # closed-form requests are the same for every seed.
    levels = LIBRARY_LEVELS * len(LIBRARY_CLOSED_M)
    body += [("coeff_closed", ell, m) for ell, m in zip(levels, LIBRARY_CLOSED_M)]
    body += [("coeff_small_m", ell, m) for ell, m in zip(levels, LIBRARY_SMALL_M * 2)]
    body += [("jcoeff", n) for n in LIBRARY_JCOEFF_COUNTS]
    rng.shuffle(body)
    tasks = [("jtable", LIBRARY_J_COUNT)]
    opened = set()
    for task in body:
        ell = task[1] if task[0] in ("coeff_recurrence", "recurrence_row", "check_row") else None
        if ell is not None and ell not in opened:
            opened.add(ell)
            tasks.append(("recurrence_row", ell, ell))
        tasks.append(task)
    return tasks


def _tiny_library_task(task) -> bool:
    kind = task[0]
    if kind == "jtable":
        return True
    if kind in ("coeff_closed", "coeff_small_m"):
        return task[2] <= 15
    if kind in ("coeff_recurrence", "recurrence_row", "check_row"):
        return task[1] == LIBRARY_LEVELS[0]
    return False


def make_tasks(workload: str, seed: int, tiny: bool = False) -> list:
    """Task list of one pass; ``tiny`` keeps a small slice for the benchmark's own tests."""
    if workload == "library-session":
        tasks = library_tasks(seed)
        return [t for t in tasks if _tiny_library_task(t)] if tiny else tasks
    if workload == "crosscheck-sweep":
        tasks = [("crosscheck", ell) for ell in CROSSCHECK_LEVELS if not tiny or ell <= 23]
    elif workload == "full-table":
        tasks = [("full", ell) for ell in FULL_TABLE_LEVELS if not tiny or ell <= 7]
    else:
        raise ValueError("unknown workload %r" % workload)
    random.Random(seed).shuffle(tasks)
    return tasks


# -- running ---------------------------------------------------------------

def _cli(mp, argv) -> tuple:
    """One in-process ``cli_main`` call: (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = mp.io_cli.cli_main(argv)
    return code, out.getvalue()


class Session:
    """State one pass shares between tasks: the modpoly package, a scratch
    directory for table files, and (library-session) the shared j table."""

    def __init__(self, mp, scratch_dir: str):
        self.mp = mp
        self.scratch_dir = scratch_dir
        self.j = None

    def run_task(self, task):
        mp = self.mp
        kind = task[0]
        if kind == "crosscheck":
            ell = str(task[1])
            m_max = str(min(task[1], CROSSCHECK_CAP))
            return (_cli(mp, ["crosscheck", "--ell", ell, "--m-max", m_max]),
                    _cli(mp, ["check", "--ell", ell, "--format", "json"]))
        if kind == "full":
            ell = task[1]
            # The file name carries the level: check --file reads it from there.
            path = os.path.join(self.scratch_dir, "phi%d.txt" % ell)
            poly = _cli(mp, ["poly", "--ell", str(ell), "--format", "text", "--out", path])
            check = _cli(mp, ["check", "--ell", str(ell), "--file", path, "--set", FULL_TABLE_CHECKS])
            table = mp.io_cli.load_sutherland(path).to_polynomial()
            residual = mp.recurrence.polynomial_residual(
                table, mp.jfun.j_coefficients(ell * ell + ell + 2))
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            return poly, check, text, residual.is_zero()
        if kind == "jtable":
            self.j = mp.jfun.j_coefficients(task[1])
            return self.j
        if kind == "jcoeff":
            return mp.jfun.j_coefficients(task[1])
        if kind == "recurrence_row":
            return mp.recurrence.recurrence_row(task[1], self.j, task[2])
        if kind == "coeff_recurrence":
            return mp.recurrence.coeff_recurrence(task[1], task[2], self.j)
        if kind == "coeff_closed":
            return mp.closedform.coeff_closed(mp.closedform.CoeffRequest(task[1], task[2]), self.j)
        if kind == "coeff_small_m":
            return mp.closedform.coeff_small_m(mp.closedform.CoeffRequest(task[1], task[2]), self.j)
        if kind == "check_row":
            row = mp.recurrence.recurrence_row(task[1], self.j)
            return mp.congruence.check_row(task[1], row[1:])
        raise ValueError("unknown task kind %r" % kind)


# -- reference keys and digests --------------------------------------------

def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def digest_ints(values) -> list:
    return [digest(str(v)) for v in values]


def digest_report(report) -> str:
    return digest(json.dumps(report.to_json_dict(), sort_keys=True))


def expected_output(reference: dict, task):
    """What ``digest_output(task, ...)`` must equal, taken from the reference."""
    kind = task[0]
    if kind == "crosscheck":
        return reference["crosscheck"][str(task[1])]
    if kind == "full":
        return reference["full"][str(task[1])]
    if kind in ("jtable", "jcoeff"):
        return reference["jcoeff"][str(task[1])]
    row = reference["rows"][str(task[1])]
    if kind == "recurrence_row":
        return row[: task[2] + 1]
    if kind in ("coeff_recurrence", "coeff_closed", "coeff_small_m"):
        return row[task[2]]
    if kind == "check_row":
        return reference["check_row"][str(task[1])]
    raise ValueError("unknown task kind %r" % kind)


def cli_bytes_out(task, output) -> int:
    """Bytes the CLI wrote for one task: stdout plus any --out file."""
    if task[0] == "crosscheck":
        return sum(len(s.encode("utf-8")) for _, s in output)
    if task[0] == "full":
        (_, pout), (_, cout), text, _ = output
        return sum(len(s.encode("utf-8")) for s in (pout, cout, text))
    return 0


def digest_output(task, output):
    """The comparable form of a task's output: exit codes plus digests of
    stdout, table text and values."""
    kind = task[0]
    if kind == "crosscheck":
        return {"exit": [c for c, _ in output], "sha": [digest(s) for _, s in output]}
    if kind == "full":
        (pcode, pout), (ccode, cout), text, residual_zero = output
        return {"exit": [pcode, ccode], "sha": [digest(pout), digest(cout), digest(text)],
                "residual_zero": residual_zero}
    if kind in ("jtable", "jcoeff"):
        return digest(",".join(map(str, output.values)))
    if kind == "recurrence_row":
        return digest_ints(output)
    if kind in ("coeff_recurrence", "coeff_closed", "coeff_small_m"):
        return digest(str(output))
    if kind == "check_row":
        return digest_report(output)
    raise ValueError("unknown task kind %r" % kind)
