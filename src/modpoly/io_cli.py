"""File ingestion, serialization and the command line front end.

The text format accepted here is the one used by published modular
polynomial tables: one coefficient per line, written as

    [m,n] value

where [m,n] and [n,m] name one pair, with optional blank lines, comment
lines starting with '#', and an optional monic boundary entry such as
"[8,0] 1" or "[0,8] 1" for level 7.  Files usually hold one triangle of
the symmetric table; the parser fills the other half, flagging conflicts.

JSON output serializes coefficient values as decimal strings since they
overflow 64-bit integers almost immediately.

Exit codes of the CLI: 0 success, 1 usage error, 2 computation error, 3 a
proved divisibility statement failed or crosscheck found a MISMATCH, 4 a
conjectural one failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import NamedTuple

from .closedform import closed_row, hypergeometric_row, partition_row
from .comb import is_prime
from .congruence import ALL_CHECKS, ROW_CHECKS, CongruenceReport, check_conjecture_div, check_row
from .jfun import j_coefficients
from .recurrence import ModularPolynomial, recurrence_row, solve_full_polynomial, solver_precision

__all__ = ["SutherlandFile", "SutherlandParseError", "UsageError", "cli_main",
           "emit_polynomial_json", "emit_sutherland_text", "load_sutherland", "parse_sutherland",
           "read_polynomial_json"]

# How far the CLI takes its costlier routes (solve times best of 3 in each
# of two runs, 2-CPU x86-64, Python 3.11.7).  crosscheck runs the
# term-by-term partition sum, the one route with no series code, up to
# m = 20: one walk of p(20) = 627 nodes and 2,713 checked terms.  The
# solver, in check --set conj12 without --file and as crosscheck's third
# oracle, stops at ell = 13 not for time (ell = 17 solves in 0.12-0.14 s)
# but because from ell = 17 on crosscheck's OK line would list "solver",
# and the benchmark's digests of that line would change.  poly stops at
# ell = 23 for time: 0.24-0.28 s at ell = 19 and 0.83-0.92 s at 23, about
# ell^6, so ell = 97 would run for over an hour (extrapolated).
PARTITION_CHECK_MAX = 20
SOLVER_FEASIBLE_MAX = 13
POLY_FEASIBLE_MAX = 23


class UsageError(Exception):
    """Bad arguments or configuration; maps to exit code 1."""


class SutherlandParseError(ValueError):
    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = "line %d: %s" % (line_number, message)
        super().__init__(message)
        self.line_number = line_number


class SutherlandFile(NamedTuple):
    """Raw parse result: the level and the (m, n, value) triples in file order."""

    ell: int
    lines: tuple

    def to_polynomial(self) -> ModularPolynomial:
        """Drop monic boundary entries and build the symmetric table."""
        entries = {}
        for m, n, v in self.lines:
            if max(m, n) == self.ell + 1:
                if min(m, n) != 0 or v != 1:
                    raise SutherlandParseError(
                        "unexpected boundary entry [%d,%d] %d for level %d" % (m, n, v, self.ell)
                    )
                continue
            entries[(m, n)] = v
        return ModularPolynomial(self.ell, entries)


_LINE_RE = re.compile(r"^\s*\[\s*(\d+)\s*,\s*(\d+)\s*\]\s+([+-]?\d+)\s*$")
_HEADER_ELL_RE = re.compile(r"^#\s*(?:ell|level)\s*[=:]\s*(\d+)\s*$", re.IGNORECASE)


def parse_sutherland(text) -> SutherlandFile:
    """Parse coefficient lines and figure out the level.

    ``text`` may be str or UTF-8 bytes, byte-order mark or not; LF and CRLF
    both work.  The level is taken from a "# ell = N" header comment if there
    is one, else from the entry indices themselves (a boundary entry [M,0]
    with value 1 puts the level at M-1, otherwise at the largest m seen).
    Headers that give two different levels raise SutherlandParseError.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8-sig")
    header_ell = None
    seen = {}  # (m, n) -> value, in file order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            got = _HEADER_ELL_RE.match(line)
            if got:
                stated = int(got.group(1))
                if header_ell not in (None, stated):
                    raise SutherlandParseError(
                        "header gives level %d but an earlier one gave %d" % (stated, header_ell),
                        lineno)
                header_ell = stated
            continue
        got = _LINE_RE.match(raw)
        if not got:
            raise SutherlandParseError("malformed coefficient line %r" % line, lineno)
        m, n, v = int(got.group(1)), int(got.group(2)), int(got.group(3))
        if (m, n) in seen:
            raise SutherlandParseError("duplicate entry [%d,%d]" % (m, n), lineno)
        if (n, m) in seen and seen[(n, m)] != v:
            raise SutherlandParseError(
                "symmetry conflict: [%d,%d] is %d but [%d,%d] was %d"
                % (m, n, v, n, m, seen[(n, m)]),
                lineno,
            )
        seen[(m, n)] = v
    if not seen:
        raise SutherlandParseError("no coefficient lines found")
    level = header_ell
    if level is None:
        top = max(m for m, _ in seen)
        level = top - 1 if seen.get((top, 0)) == 1 else top
    return SutherlandFile(level, tuple((m, n, v) for (m, n), v in seen.items()))


def load_sutherland(path: str) -> SutherlandFile:
    with open(path, "rb") as fh:
        return parse_sutherland(fh.read())


def emit_polynomial_json(poly: ModularPolynomial) -> str:
    """Deterministic JSON, one entry per stored pair, (m, n) descending."""
    doc = {
        "ell": poly.ell,
        "monic_degree": poly.ell + 1,
        "coefficients": [
            {"m": m, "n": n, "value": str(v)} for m, n, v in poly.items()
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _int_field(obj, key: str) -> int:
    try:
        # through str, so that a float or a boolean is refused, not truncated
        return int(str(obj[key]))
    except (KeyError, TypeError, ValueError):
        raise ValueError("polynomial JSON lacks an integer %r field" % key) from None


def read_polynomial_json(text) -> ModularPolynomial:
    """Read emit_polynomial_json's document; a missing or ill-typed field raises ValueError."""
    doc = json.loads(text)
    rows = doc.get("coefficients") if isinstance(doc, dict) else None
    if not isinstance(rows, list):
        raise ValueError("polynomial JSON lacks a 'coefficients' list")
    entries = {(_int_field(c, "m"), _int_field(c, "n")): _int_field(c, "value") for c in rows}
    return ModularPolynomial(_int_field(doc, "ell"), entries)


def emit_sutherland_text(poly: ModularPolynomial) -> str:
    lines = ["[%d,0] 1" % (poly.ell + 1)]
    lines.extend("[%d,%d] %d" % (m, n, v) for m, n, v in poly.items())
    return "\n".join(lines) + "\n"


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parse_args keeps no state in it."""
    top = _ArgumentParser(
        prog="modpoly",
        description="Exact modular polynomial coefficients and divisibility checks.",
    )
    sub = top.add_subparsers(dest="command", metavar="command")

    def common(p, ell=True, output=True):
        if ell:
            p.add_argument("--ell", type=int, required=True, help="prime level")
        if output:
            p.add_argument("--format", choices=("text", "json"), default="text")
            p.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")

    p = sub.add_parser("jcoeff", help="print j-invariant coefficients c_{-1}..c_{N-1}")
    p.add_argument("--count", type=int, required=True)
    common(p, ell=False)

    p = sub.add_parser("coeff", help="one coefficient a_{ell,ell-m}")
    p.add_argument("--m", type=int, required=True)
    common(p)

    p = sub.add_parser("row", help="the row a_{ell,ell-m} for m = 0..m-max")
    p.add_argument("--m-max", type=int, default=None)
    common(p)

    p = sub.add_parser("poly", help="solve the full polynomial (JSON by default)")
    common(p)
    p.set_defaults(format="json")

    p = sub.add_parser("check", help="run divisibility checkers, report pass/fail")
    p.add_argument("--file", metavar="SUTHERLAND", help="check an ingested coefficient file")
    p.add_argument("--set", default=",".join(ROW_CHECKS),
                   help="comma list from %s (default %%(default)s)" % ",".join(ALL_CHECKS))
    common(p)

    p = sub.add_parser("crosscheck", help="assert closed = recurrence = hypergeometric "
                                            "(= solver when feasible)")
    p.add_argument("--m-max", type=int, default=None)
    common(p, output=False)

    return top


def _deliver(args, text: str, doc=None) -> None:
    """Write ``doc`` as JSON under --format json and ``text`` otherwise, to --out
    or stdout; with no ``doc``, ``text`` is already in the chosen format."""
    if doc is not None and args.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_jcoeff(args) -> int:
    if args.count < 1:
        raise UsageError("--count must be at least 1")
    values = j_coefficients(args.count).values
    doc = {"first_index": -1, "values": [str(v) for v in values]}
    _deliver(args, "".join("%d\n" % v for v in values), doc)
    return 0


def _check_level(args, m: int | None = None, flag: str = "") -> None:
    """Raise UsageError unless --ell is a prime and m lies in [0, ell]."""
    if not is_prime(args.ell):
        raise UsageError("%s needs --ell a prime >= 2, got %d" % (args.command, args.ell))
    if m is not None and not 0 <= m <= args.ell:
        raise UsageError("%s must lie in [0, %d], got %d" % (flag, args.ell, m))


def _cmd_coeff(args) -> int:
    _check_level(args, args.m, "--m")
    value = hypergeometric_row(args.ell, args.m)[args.m]
    _deliver(args, "%d\n" % value, {"ell": args.ell, "m": args.m, "value": str(value)})
    return 0


def _cmd_row(args) -> int:
    _check_level(args, args.m_max, "--m-max")
    row = hypergeometric_row(args.ell, args.m_max)
    doc = {"ell": args.ell, "values": [{"m": m, "value": str(v)} for m, v in enumerate(row)]}
    _deliver(args, "".join("%d %d\n" % (m, v) for m, v in enumerate(row)), doc)
    return 0


def _cmd_poly(args) -> int:
    _check_level(args)
    if args.ell > POLY_FEASIBLE_MAX:
        raise ValueError(
            "the full table for ell=%d is out of reach; poly is limited to ell <= %d"
            % (args.ell, POLY_FEASIBLE_MAX)
        )
    poly = solve_full_polynomial(args.ell, j_coefficients(solver_precision(args.ell)))
    text = emit_sutherland_text(poly) if args.format == "text" else emit_polynomial_json(poly)
    _deliver(args, text)
    return 0


def _screen_table(poly: ModularPolynomial, row: list) -> None:
    """Raise ValueError if ``poly`` is not Phi_ell by either of two screens.

    A table that is not Phi_ell is a computation error, not evidence
    against a proved or conjectured bound, so it is refused before
    grading.  Its top row must equal ``row``, and every pair must obey
    Kronecker's congruence Phi_ell(X, Y) = (X^ell - Y)(X - Y^ell) mod ell:
    a_{1,1} = -1 and every other a_{m,n} = 0 mod ell, a_{ell,ell} aside.
    Both are necessary conditions only: off the top row, a change by a
    multiple of ell gets through.
    """
    ell = poly.ell
    top = poly.top_row()
    m = next((m for m in range(ell + 1) if top[m] != row[m]), None)
    if m is not None:
        raise ValueError(
            "the file is not Phi_%d: its top row first differs at m=%d, "
            "where a_{%d,%d} is %d, not %d" % (ell, m, ell, ell - m, top[m], row[m])
        )
    for m, n, value in poly.items():
        want = -1 if (m, n) == (1, 1) else 0
        if (value - want) % ell and (m, n) != (ell, ell):
            raise ValueError(
                "the file is not Phi_%d: a_{%d,%d} is %d mod %d, but Kronecker's "
                "congruence requires %d" % (ell, m, n, value % ell, ell, want % ell)
            )


def _cmd_check(args) -> int:
    check_set = tuple(s.strip() for s in args.set.split(",") if s.strip())
    _check_level(args)
    if not check_set:
        raise UsageError("--set names no checks (choose from %s)" % ",".join(ALL_CHECKS))
    bad = [c for c in check_set if c not in ALL_CHECKS]
    if bad:
        raise UsageError(
            "unknown checks: %s (choose from %s)" % (",".join(bad), ",".join(ALL_CHECKS))
        )
    row_checks = tuple(c for c in check_set if c in ROW_CHECKS)
    conj12 = "conj12" in check_set
    poly = None
    if args.file:
        parsed = load_sutherland(args.file)
        if parsed.ell != args.ell:
            raise ValueError(
                "file is for level %d but --ell %d was requested" % (parsed.ell, args.ell)
            )
        poly = parsed.to_polynomial()
        # Zero coefficients are legitimate, so absent pairs are noted, not refused.
        pairs = (args.ell + 1) * (args.ell + 2) // 2
        present = {(max(m, n), min(m, n)) for m, n, _ in parsed.lines if max(m, n) <= args.ell}
        absent = pairs - len(present)
        if absent:
            sys.stderr.write("note: %d of %d coefficient pairs are absent from the file "
                             "and read as 0\n" % (absent, pairs))
    elif conj12 and args.ell > SOLVER_FEASIBLE_MAX:
        raise ValueError(
            "full-table checks for ell=%d need --file; the reference solver "
            "is limited to ell <= %d" % (args.ell, SOLVER_FEASIBLE_MAX)
        )
    elif conj12:
        poly = solve_full_polynomial(args.ell, j_coefficients(solver_precision(args.ell)))

    row = hypergeometric_row(args.ell)
    if args.file:
        _screen_table(poly, row)
    records = []
    if row_checks:
        records += check_row(args.ell, row[1:], row_checks).records
    if conj12:
        records += check_conjecture_div(poly).records
    if not records:
        raise UsageError("no coefficient at ell=%d falls under %s"
                         % (args.ell, ",".join(check_set)))
    covered = {r.check for r in records}
    for name in dict.fromkeys(check_set):
        if name not in covered:
            sys.stderr.write("note: %s covers no coefficient at ell=%d\n" % (name, args.ell))
    report = CongruenceReport(args.ell, records)

    # --out always receives the JSON report; the text report still goes to stdout
    if args.out or args.format == "json":
        _deliver(args, report.to_json_text())
    if args.out or args.format == "text":
        sys.stdout.write(report.to_text())
    return {"OK": 0, "FATAL": 3, "COUNTEREXAMPLE": 4}[report.verdict]


def _cmd_crosscheck(args) -> int:
    _check_level(args, args.m_max, "--m-max")
    if args.m_max == 0:
        raise UsageError("--m-max 0 compares only a_{ell,ell} = -1, which every route returns")
    m_max = args.m_max if args.m_max is not None else args.ell
    solvable = args.ell <= SOLVER_FEASIBLE_MAX
    # In solver range the solver's table serves every route; the rows read its prefix.
    j = j_coefficients(solver_precision(args.ell) if solvable else max(m_max, 1))
    sources = {
        "closed": closed_row(args.ell, j, m_max),
        "recurrence": recurrence_row(args.ell, j, m_max),
    }
    if solvable:
        sources["solver"] = solve_full_polynomial(args.ell, j).top_row()[: m_max + 1]
    # Compared too, on every m each reaches, but left out of the OK line's
    # method list, whose text callers match on.
    routes = dict(
        sources,
        hypergeometric=hypergeometric_row(args.ell, m_max),
        partition=partition_row(args.ell, j, min(m_max, PARTITION_CHECK_MAX)),
    )

    mismatches = []
    for m in range(m_max + 1):
        values = {name: vals[m] for name, vals in routes.items() if m < len(vals)}
        if len(set(values.values())) != 1:
            mismatches.append((m, values))
    for m, values in mismatches:
        detail = ", ".join("%s=%d" % (k, v) for k, v in sorted(values.items()))
        sys.stdout.write("MISMATCH at m=%d: %s\n" % (m, detail))
    if mismatches:
        sys.stdout.write("crosscheck: MISMATCH (%d of %d rows)\n" % (len(mismatches), m_max + 1))
        return 3
    sys.stdout.write(
        "crosscheck: OK (ell=%d, m <= %d, methods: %s)\n"
        % (args.ell, m_max, ",".join(sorted(sources)))
    )
    return 0


_COMMANDS = {
    "jcoeff": _cmd_jcoeff,
    "coeff": _cmd_coeff,
    "row": _cmd_row,
    "poly": _cmd_poly,
    "check": _cmd_check,
    "crosscheck": _cmd_crosscheck,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a command is required (one of %s)" % ", ".join(sorted(_COMMANDS)))
        return _COMMANDS[args.command](args)
    except UsageError as err:
        sys.stderr.write("error: %s\n" % err)
        return 1
    except (ValueError, ArithmeticError, OSError) as err:
        # parse errors, precision shortfalls, integrality and solver
        # failures, unreadable files
        sys.stderr.write("error: %s\n" % err)
        return 2


def main() -> None:
    raise SystemExit(cli_main())
