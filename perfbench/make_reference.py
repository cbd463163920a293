"""Generate perfbench/reference.json, the answers every benchmark task is checked against.

    python3 perfbench/make_reference.py [--out FILE]

The file covers every task any seed can draw.  Before anything is
written, each answer is cross-validated by an independent route:

* rows: the closed partition sum against the series recurrence (and the
  expanded small-m forms for m <= 7);
* full tables: the solver's top row against ``recurrence_row``, a zero
  residual Phi_ell(j(ell z), j(z)), the re-read table against the solved
  one, and Phi_5 against its published factored coefficients;
* j tables: every shorter table against a prefix of the longest, and the
  first coefficients against their published values.

The committed reference was generated once; regenerating it from a
changed program would let the change define its own answers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import modpoly  # noqa: E402
import workloads as wl  # noqa: E402
from modpoly import closedform, jfun, recurrence  # noqa: E402

# Phi_5 as published, one coefficient a_{m,n} per entry, fully factored.
PHI5_PUBLISHED = {
    (0, 0): 2**90 * 3**18 * 5**3 * 11**9,
    (0, 1): 2**77 * 3**16 * 5**3 * 11**6 * 31 * 1193,
    (1, 1): -(2**62) * 3**13 * 11**3 * 26984268714163,
    (0, 2): 2**60 * 3**13 * 5**2 * 11**3 * 13**2 * 3167 * 204437,
    (1, 2): 2**47 * 3**10 * 5**4 * 53359 * 131896604713,
    (2, 2): 2**30 * 3**8 * 5**4 * 7 * 13 * 1861 * 6854302120759,
    (0, 3): 2**48 * 3**9 * 5**2 * 31 * 1193 * 24203 * 2260451,
    (1, 3): -(2**31) * 3**7 * 5**3 * 327828841654280269,
    (2, 3): 2**17 * 3**4 * 5**3 * 2311 * 2579 * 3400725958453,
    (3, 3): -(2**2) * 5**2 * 11 * 17 * 131 * 1061 * 169751677267033,
    (0, 4): 2**30 * 3**7 * 5 * 13**2 * 3167 * 204437,
    (1, 4): 2**20 * 3**4 * 5**3 * 12107359229837,
    (2, 4): 3 * 5**3 * 167 * 6117103549378223,
    (3, 4): 2**5 * 3 * 5**2 * 197 * 227 * 421 * 2387543,
    (4, 4): 2**3 * 5**2 * 257 * 32412439,
    (0, 5): 2**17 * 3**4 * 5 * 31 * 1193,
    (1, 5): -2 * 3 * 5**2 * 1644556073,
    (2, 5): 2**5 * 5**2 * 13 * 195053,
    (3, 5): -(2**2) * 3**2 * 5 * 131 * 193,
    (4, 5): 2**3 * 3 * 5 * 31,
    (5, 5): -1,
}

# c_{-1} .. c_5 of the j-invariant, as published.
J_PUBLISHED = (1, 744, 196884, 21493760, 864299970, 20245856256, 333202640600)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit("cross-validation failed: " + what)


def crosscheck_reference(session) -> dict:
    out = {}
    for ell in wl.CROSSCHECK_LEVELS:
        j = jfun.j_coefficients(ell)
        m_max = min(ell, wl.CROSSCHECK_CAP)
        row = recurrence.recurrence_row(ell, j)
        _require(closedform.closed_row(ell, j, m_max) == row[: m_max + 1],
                 "closed and recurrence rows differ at ell=%d" % ell)
        output = session.run_task(("crosscheck", ell))
        report = modpoly.check_row(ell, row[1:])
        _require(output[1][1] == json.dumps(report.to_json_dict(), indent=2) + "\n",
                 "check report at ell=%d does not match the cross-validated row" % ell)
        out[str(ell)] = wl.digest_output(("crosscheck", ell), output)
    return {"crosscheck": out}


def full_table_reference(session) -> dict:
    out = {}
    for ell in wl.FULL_TABLE_LEVELS:
        poly = recurrence.solve_full_polynomial(ell, jfun.j_coefficients(ell * ell + ell + 2))
        j = jfun.j_coefficients(ell)
        row = recurrence.recurrence_row(ell, j)
        _require(poly.top_row() == row, "solver and recurrence rows differ at ell=%d" % ell)
        _require(closedform.closed_row(ell, j) == row, "closed and recurrence rows differ at ell=%d" % ell)
        if ell == 5:
            _require(all(poly.get(m, n) == v for (m, n), v in PHI5_PUBLISHED.items()),
                     "solved Phi_5 differs from the published table")
        task = ("full", ell)
        output = session.run_task(task)
        _require(output[0][0] == 0, "poly failed at ell=%d" % ell)
        _require(output[3], "nonzero residual at ell=%d" % ell)
        _require(modpoly.parse_sutherland(output[2]).to_polynomial() == poly,
                 "written table differs from the solved one at ell=%d" % ell)
        out[str(ell)] = wl.digest_output(task, output)
    return {"full": out}


def library_reference(session) -> dict:
    counts = (wl.LIBRARY_J_COUNT,) + wl.LIBRARY_JCOEFF_COUNTS
    tables = {n: jfun.j_coefficients(n) for n in counts}
    longest = tables[max(counts)]
    _require(longest.values[: len(J_PUBLISHED)] == J_PUBLISHED, "j coefficients differ from published")
    _require(all(t.values == longest.values[: n + 1] for n, t in tables.items()),
             "j tables of different lengths disagree")
    session.run_task(("jtable", wl.LIBRARY_J_COUNT))
    j = session.j
    rows, checks = {}, {}
    for ell in wl.LIBRARY_LEVELS:
        row = session.run_task(("recurrence_row", ell, ell))
        closed_m = max(wl.LIBRARY_CLOSED_M)
        _require(closedform.closed_row(ell, j, closed_m) == row[: closed_m + 1],
                 "closed and recurrence rows differ at ell=%d" % ell)
        for m in wl.LIBRARY_SMALL_M:
            _require(closedform.coeff_small_m(closedform.CoeffRequest(ell, m), j) == row[m],
                     "small-m form differs at ell=%d, m=%d" % (ell, m))
        rows[str(ell)] = wl.digest_ints(row)
        checks[str(ell)] = wl.digest_output(("check_row", ell), session.run_task(("check_row", ell)))
    jcoeff = {str(n): wl.digest_output(("jcoeff", n), t) for n, t in tables.items()}
    return {"rows": rows, "check_row": checks, "jcoeff": jcoeff}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", default=os.path.join(HERE, "reference.json"))
    args = p.parse_args(argv)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        session = wl.Session(modpoly, scratch)
        doc = {
            "crosscheck-sweep": crosscheck_reference(session),
            "full-table": full_table_reference(session),
            "library-session": library_reference(session),
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
