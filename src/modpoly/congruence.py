"""p-adic valuations of modular polynomial coefficients and their checkers.

Two kinds of divisibility statements are checked.  Row statements bound
ord_2 and ord_3 of a_{ell,ell-m} by the residue of m (these are proved
facts, so a failure is flagged FATAL), and predict when 5 divides a
coefficient from (ell mod 5, m mod 5) (conjectural, flagged
COUNTEREXAMPLE on failure).  Corner statements bound ord_2 / ord_3 /
ord_5 of a_{m,n} linearly in c = ell + 1 - m - n when c > 0; these are
conjectural as well.

Every valuation is exact and comes from ``ord_p``: ord_2 is the position
of the lowest set bit.  Every odd prime p takes one loop over p^k, the
largest power of p below one CPython int digit for p = 3, 5 (3^18, 5^12
on 64-bit CPython) and p itself otherwise: while p^k divides x it is
divided out, and the rest of e is read off the remainder x % p^k, so a
valuation e costs O(e/k) divisions, each by one digit when p^k fits one.
A valuation is a plain int, or INFINITE (``math.inf``) for x = 0, so it
compares with ``>=`` and prints as ``inf``.  Records and reports are
immutable named tuples.  A checker grades one prime at a time over the
whole row or table: each column takes its valuations from ``ord_p`` in one
pass and builds its records with no Python frame per record.  A column has
one entry per index, None where its check grades nothing; slice assignment
interleaves the columns and the holes are dropped.

Checkers never raise on a failed comparison; they record verdicts so a
sweep can aggregate.  Zero coefficients have INFINITE valuation and pass
everything vacuously.
"""

from __future__ import annotations

import functools
import math
import sys
from itertools import cycle, islice, repeat
from json.encoder import encode_basestring_ascii as _json_string
from typing import NamedTuple

from .comb import _require_prime, is_prime
from .recurrence import ModularPolynomial

__all__ = ["ALL_CHECKS", "INFINITE", "ROW_CHECKS", "CheckRecord", "CongruenceReport",
           "check_conjecture_div", "check_row", "five_predicted", "ord_p",
           "required_three_valuation", "required_two_valuation"]

ROW_CHECKS = ("prop22", "prop23", "conj25")
ALL_CHECKS = ("prop22", "prop23", "conj25", "conj12")

_FATAL_CHECKS = frozenset({"prop22", "prop23"})
# Row tables: ord_2 by m mod 8, ord_3 by m mod 3, and m mod 5 predicted by ell mod 5.
_TWO_REQUIRED = (0, 3, 2, 5, 1, 4, 2, 5)
_THREE_REQUIRED = (0, 1, 2)
_FIVE_CLASS = {1: 4, 3: 4, 2: 3, 4: 2}


INFINITE = math.inf  # ord_p(0, p)
# For p = 3, 5: k, the largest exponent with p^k below one CPython int digit, and p^k.
_DIGIT = 1 << sys.int_info.bits_per_digit
_DIGIT_EXPONENTS = {p: max(k for k in range(64) if p ** k < _DIGIT) for p in (3, 5)}
_DIGIT_POWERS = {p: p ** k for p, k in _DIGIT_EXPONENTS.items()}


def ord_p(x: int, p: int) -> int | float:
    """Largest e with p^e dividing x; INFINITE when x is 0.

    x and p must be ints (a bool counts as one); a float, even an
    integral one, raises TypeError rather than being graded inexactly.
    """
    if not isinstance(x, int):
        raise TypeError("x must be an integer, got %r" % (x,))
    if not isinstance(p, int):
        raise TypeError("p must be an integer, got %r" % (p,))
    if p == 2:
        e = (x & -x).bit_length() - 1  # -1 for x = 0
        return INFINITE if e < 0 else e
    pk = _DIGIT_POWERS.get(p)
    if pk is None:
        if not is_prime(p):
            raise ValueError("p must be prime, got %r" % (p,))
        pk = p
    # x = p^e * u leaves r = x mod p^k with ord_p(r) = e once e < k, so
    # p^k is divided out until r is nonzero and the rest is read off r.
    r = x % pk
    e = 0
    if not r:
        if not x:
            return INFINITE
        k = _DIGIT_EXPONENTS.get(p, 1)
        while not r:
            x //= pk
            e += k
            r = x % pk
    while not r % p:
        r //= p
        e += 1
    return e


def required_two_valuation(m: int) -> int:
    """Guaranteed ord_2 of a_{ell,ell-m} for odd primes ell, by m mod 8."""
    if m < 1:
        raise ValueError("m must be positive")
    return _TWO_REQUIRED[m % 8]


def required_three_valuation(m: int) -> int:
    """Guaranteed ord_3 of a_{ell,ell-m}, by m mod 3."""
    if m < 1:
        raise ValueError("m must be positive")
    return _THREE_REQUIRED[m % 3]


def five_predicted(ell: int, m: int) -> bool:
    """Whether 5 is predicted to divide a_{ell,ell-m}, for 0 < m < ell."""
    if not 0 < m < ell:
        raise ValueError("need 0 < m < ell, got m=%d, ell=%d" % (m, ell))
    return _FIVE_CLASS.get(ell % 5) == m % 5


class CheckRecord(NamedTuple):
    check: str            # prop22 | prop23 | conj25 | conj12
    index: tuple          # (m,) for row checks, (m, n) for corner checks
    prime: int
    required: int
    observed: int | float  # an int, or INFINITE

    @property
    def passed(self) -> bool:
        return self.observed >= self.required

    @property
    def severity(self) -> str:
        """FATAL for proved statements, COUNTEREXAMPLE otherwise."""
        return "FATAL" if self.check in _FATAL_CHECKS else "COUNTEREXAMPLE"


# Row checks whose table leaves a residue class unclaimed (required
# valuation 0): report.stats tallies how often p fails to divide there.
_UNCLAIMED_STATS = {
    "prop22": "unclaimed_mod8_indivisible_by_2",
    "prop23": "unclaimed_mod3_indivisible_by_3",
}


@functools.cache
def _record_json(n: int) -> str:
    """to_json_text's template for one record whose index has n entries."""
    index = "[\n        %s\n      ]" % ",\n        ".join(["%d"] * n) if n else "[]"
    return ('    {\n      "check": %s,\n      "index": ' + index + ',\n      "prime": %d,\n'
            '      "required": %d,\n      "observed": "%s",\n      "verdict": "%s",\n'
            '      "severity": "%s"\n    }')


def _json_pairs(items, names: tuple) -> str:
    """{key: {names[0]: a, names[1]: b}} as JSON at indent 2, for sorted (key, (a, b)) items."""
    entry = '    %%s: {\n      "%s": %%d,\n      "%s": %%d\n    }' % names
    body = ",\n".join(entry % (_json_string(key), a, b) for key, (a, b) in sorted(items))
    return "{\n%s\n  }" % body if body else "{}"


class CongruenceReport(NamedTuple("CongruenceReport", [("ell", int), ("records", list)])):
    """The records of one run at level ell, with their tallies.

    Its JSON schema is {"ell", "checks": [one object per record: "check",
    "index", "prime", "required", "observed" (a string, "inf" for 0),
    "verdict", "severity"], "summary": {check: {"pass", "fail"}}, "stats":
    {key: {"indivisible", "total"}}}.  ``to_json_dict`` builds it as a dict;
    ``to_json_text`` writes ``json.dumps(to_json_dict(), indent=2)`` plus a
    newline, byte for byte, by one template per record.
    """

    __slots__ = ()

    def _walk(self) -> tuple:
        """(passed per record, summary, stats) from one walk, reading each record's passed once."""
        flags, summary, stats = [], {}, {}
        for rec in self.records:
            ok = rec.passed
            flags.append(ok)
            passed, failed = summary.get(rec.check, (0, 0))
            summary[rec.check] = (passed + 1, failed) if ok else (passed, failed + 1)
            key = _UNCLAIMED_STATS.get(rec.check)
            if key is not None:
                hit, total = stats.get(key, (0, 0))
                if rec.required == 0:
                    hit, total = hit + (rec.observed == 0), total + 1
                stats[key] = (hit, total)
        return flags, summary, stats

    @property
    def summary(self) -> dict:
        return self._walk()[1]

    @property
    def stats(self) -> dict:
        """(indivisible, total) over the unclaimed classes of each row check run."""
        return self._walk()[2]

    def failures(self) -> list:
        return [r for r in self.records if not r.passed]

    @property
    def verdict(self) -> str:
        """FATAL if a proved statement failed, else COUNTEREXAMPLE if any failed, else OK."""
        return _verdict(self.failures())

    def to_json_dict(self) -> dict:
        flags, summary, stats = self._walk()
        checks = [{"check": r.check, "index": list(r.index), "prime": r.prime,
                   "required": r.required, "observed": str(r.observed),
                   "verdict": "pass" if ok else "fail", "severity": r.severity}
                  for r, ok in zip(self.records, flags)]
        summary = {k: {"pass": p, "fail": f} for k, (p, f) in sorted(summary.items())}
        stats = {k: {"indivisible": h, "total": t} for k, (h, t) in sorted(stats.items())}
        return {"ell": self.ell, "checks": checks, "summary": summary, "stats": stats}

    def to_json_text(self) -> str:
        """json.dumps(self.to_json_dict(), indent=2) + "\\n", one % per record."""
        return self._render(True, False)[1]

    def to_text(self) -> str:
        """One FAIL line per failed record, the tallies, and the verdict."""
        return self._render(False, True)[2]

    def _render(self, want_json: bool, want_text: bool) -> tuple:
        """(verdict, to_json_text or None, to_text or None), all from one walk."""
        flags, summary, stats = self._walk()
        failures = [r for r, ok in zip(self.records, flags) if not ok]
        verdict, json_text, text = _verdict(failures), None, None
        if want_json:
            checks = ",\n".join(
                _record_json(len(r.index)) % (_json_string(r.check), *r.index, r.prime, r.required,
                                              r.observed, "pass" if ok else "fail", r.severity)
                for r, ok in zip(self.records, flags))
            json_text = '{\n  "ell": %d,\n  "checks": %s,\n  "summary": %s,\n  "stats": %s\n}\n' % (
                self.ell, "[\n%s\n  ]" % checks if checks else "[]",
                _json_pairs(summary.items(), ("pass", "fail")),
                _json_pairs(stats.items(), ("indivisible", "total")))
        if want_text:
            lines = ["FAIL %s [%s]: ord_%d = %s, required %d (%s)" % (
                r.check, ",".join(map(str, r.index)), r.prime, r.observed, r.required, r.severity)
                for r in failures]
            for name, (passed, failed) in sorted(summary.items()):
                lines.append("%s: %d checked, %d failed" % (name, passed + failed, failed))
            for key, (hit, total) in sorted(stats.items()):
                lines.append("note: %s: %d of %d" % (key, hit, total))
            count = "" if verdict == "OK" else " (%d %s statements failed)" % (
                sum(r.severity == verdict for r in failures),
                "proved" if verdict == "FATAL" else "conjectural")
            text = "\n".join(lines + ["result: " + verdict + count]) + "\n"
        return verdict, json_text, text


def _verdict(failures) -> str:
    """A report's verdict, from its failed records alone."""
    failed = {r.check for r in failures}
    return "FATAL" if failed & _FATAL_CHECKS else "COUNTEREXAMPLE" if failed else "OK"


def _column(check: str, index, prime: int, required, values) -> list:
    """CheckRecords (check, index[i], prime, required[i], ord_p(values[i], prime)).

    One column of a report, graded by ``ord_p`` in one pass and built by
    ``tuple.__new__`` with no Python frame per record; it stops with the
    shortest of index, required and values.
    """
    observed = map(ord_p, values, repeat(prime))
    return list(map(tuple.__new__, repeat(CheckRecord),
                    zip(repeat(check), index, repeat(prime), required, observed)))


def _report(ell: int, columns: list) -> CongruenceReport:
    """The report of equal columns: their entries in turn, holes (None) dropped."""
    records = [None] * sum(map(len, columns))
    for c, column in enumerate(columns):
        records[c::len(columns)] = column
    return CongruenceReport(ell, list(filter(None, records)))


def check_row(ell: int, row, checks=ROW_CHECKS) -> CongruenceReport:
    """Check a_{ell,ell-m} for m = 1..ell against the row divisibility tables.

    ``row`` lists the coefficients starting at m=1, so it has length ell.
    The two-adic table applies to odd levels only and is skipped for
    ell = 2.  Residue classes carrying no divisibility claim (m = 0 mod 8
    for ord_2, m = 0 mod 3 for ord_3) get records with required valuation
    0, which always pass; report.stats tallies them.  A name in ``checks``
    outside ROW_CHECKS raises ValueError rather than checking nothing.
    """
    _require_prime(ell)
    unknown = [c for c in checks if c not in ROW_CHECKS]
    if unknown:
        raise ValueError("unknown row checks %r (choose from %s)" % (unknown, ",".join(ROW_CHECKS)))
    row = list(row)
    if len(row) != ell:
        raise ValueError("row must list a_{ell,ell-m} for m=1..ell, got %d values" % len(row))
    index = list(zip(range(1, ell + 1)))  # (m,), shared by every record at m
    columns = []  # required is table[m % len(table)]
    if "prop22" in checks and ell % 2 == 1:
        columns.append(_column("prop22", index, 2, islice(cycle(_TWO_REQUIRED), 1, None), row))
    if "prop23" in checks:
        columns.append(_column("prop23", index, 3, islice(cycle(_THREE_REQUIRED), 1, None), row))
    if "conj25" in checks and ell % 5:
        graded = slice(_FIVE_CLASS[ell % 5] - 1, ell - 1, 5)  # m < ell, m mod 5 from ell mod 5
        column = [None] * ell
        column[graded] = _column("conj25", index[graded], 5, repeat(1), row[graded])
        columns.append(column)
    return _report(ell, columns)


def check_conjecture_div(poly: ModularPolynomial) -> CongruenceReport:
    """Check every a_{m,n} with c = ell+1-m-n > 0 against the corner bounds.

    Required valuations: ord_2 >= 15c (unless ell = 2); ord_3 >= 3c,
    strengthened to ceil(9c/2) when ell = 1 mod 3 (unless ell = 3);
    ord_5 >= 3c (unless ell = 5).
    """
    ell = poly.ell
    index, values = [], []
    for m, n, a in poly.items():
        if m + n <= ell:
            index.append((m, n))
            values.append(a)
    cs = [ell + 1 - m - n for m, n in index]
    columns = []
    if ell != 2:
        columns.append(_column("conj12", index, 2, [15 * c for c in cs], values))
    if ell != 3:
        need3 = [(9 * c + 1) // 2 for c in cs] if ell % 3 == 1 else [3 * c for c in cs]
        columns.append(_column("conj12", index, 3, need3, values))
    if ell != 5:
        columns.append(_column("conj12", index, 5, [3 * c for c in cs], values))
    return _report(ell, columns)
