"""p-adic valuations and the divisibility checkers."""

import hashlib
import json
import math
import re
from fractions import Fraction

import pytest
from conftest import PHI5_FACTORED
from hypothesis import given, strategies as st

from modpoly import (
    ALL_CHECKS,
    INFINITE,
    ROW_CHECKS,
    CheckRecord,
    CongruenceReport,
    ModularPolynomial,
    check_conjecture_div,
    check_row,
    cli_main,
    five_predicted,
    hypergeometric_row,
    j_coefficients,
    ord_p,
    recurrence_row,
    required_three_valuation,
    required_two_valuation,
    solve_full_polynomial,
)
from modpoly.comb import primes_upto
from modpoly.recurrence import solver_precision


def naive_ord(x, p):
    """Test oracle: ord_p(x) by dividing out one p at a time."""
    if x == 0:
        return INFINITE
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


def naive_check_row(ell, row, checks=ROW_CHECKS):
    """Test oracle: check_row's records, decided afresh for every m."""
    records = []
    for m, a in enumerate(row, start=1):
        if "prop22" in checks and ell % 2 == 1:
            need = (0, 3, 2, 5, 1, 4, 2, 5)[m % 8]
            records.append(CheckRecord("prop22", (m,), 2, need, naive_ord(a, 2)))
        if "prop23" in checks:
            records.append(CheckRecord("prop23", (m,), 3, (0, 1, 2)[m % 3], naive_ord(a, 3)))
        if "conj25" in checks and m < ell and (ell % 5, m % 5) in {(1, 4), (3, 4), (2, 3), (4, 2)}:
            records.append(CheckRecord("conj25", (m,), 5, 1, naive_ord(a, 5)))
    return records


def naive_conjecture_div(poly):
    """Test oracle: check_conjecture_div's records from the stated corner bounds."""
    ell, records = poly.ell, []
    for m, n, a in poly.items():
        c = ell + 1 - m - n
        for p, need in ((2, 15 * c), (3, -(-9 * c // 2) if ell % 3 == 1 else 3 * c), (5, 3 * c)):
            if c > 0 and p != ell:
                records.append(CheckRecord("conj12", (m, n), p, need, naive_ord(a, p)))
    return records


# --- ord_p ---------------------------------------------------------------


def test_ord_examples():
    assert ord_p(3720, 2) == 3
    assert ord_p(0, 3) == INFINITE
    assert ord_p(2028551200, 5) == 2


def test_ord_of_negative():
    assert ord_p(-246683410950, 2) == 1
    assert ord_p(-246683410950, 5) == 2


def test_ord_large_power():
    assert ord_p(2 ** 1000 * 3, 2) == 1000


def test_ord_requires_prime():
    with pytest.raises(ValueError):
        ord_p(12, 6)
    with pytest.raises(ValueError):
        ord_p(12, 1)
    with pytest.raises(ValueError):
        ord_p(0, 9)
    for p in (9, 15, 25, 27, 1, 0, -3):
        with pytest.raises(ValueError):
            ord_p(3 ** 20 * 5 ** 15, p)


def test_ord_requires_an_integer():
    # an inexact float would otherwise be graded as if it were exact
    for x in (9.0, 1e22, 2.5):
        with pytest.raises(TypeError):
            ord_p(x, 3)
    with pytest.raises(TypeError):
        ord_p(1e22, 5)
    with pytest.raises(TypeError):
        ord_p(8.0, 2)
    # bool is an int
    assert ord_p(True, 3) == 0
    assert ord_p(True, 2) == 0
    assert ord_p(False, 5) == INFINITE
    for p in (2, 3, 5, 7, 11, 13):
        assert ord_p(True, p) == naive_ord(True, p) == 0
        assert ord_p(False, p) == naive_ord(False, p) == INFINITE
    # so must p: float division would grade 3^40 * 7 as 1 and 7^30 as 0
    for x, p in ((3 ** 40 * 7, 3.0), (7 ** 30, 7.0), (5 ** 30, 5.0), (2 ** 70, 2.0), (0, 3.0)):
        with pytest.raises(TypeError, match="^p must be an integer"):
            ord_p(x, p)
    # a bool p is an int, and neither True nor False is prime
    for p in (True, False):
        with pytest.raises(ValueError, match="^p must be prime"):
            ord_p(9, p)


def test_ord_high_powers_of_odd_primes():
    assert ord_p(3 ** 500 * 7, 3) == 500
    assert ord_p(-(5 ** 130), 5) == 130
    for e in (63, 64, 65, 127, 128, 129, 255, 256):
        assert ord_p(-(3 ** e) * 2, 3) == e, e


# Units coprime to 2, 3 and 5: small, one int digit wide, and far wider.
UNITS = (1, 7, 11 * 13 * 17, 2 ** 30 - 3, 7 ** 200 + 30, 11 ** 333 * 49)


@pytest.mark.parametrize("p", [3, 5])
def test_ord_every_small_valuation_matches_naive_oracle(p):
    # e = 17, 18, 19 straddle 3^18 and e = 11, 12, 13 straddle 5^12, the
    # largest powers below one 30-bit int digit
    for e in range(41):
        for u in UNITS:
            if u % p == 0:
                continue
            for x in (p ** e * u, -(p ** e) * u):
                assert ord_p(x, p) == naive_ord(x, p) == e, (e, u)


# 65537 fits one 30-bit int digit though its square does not; 2^31 - 1 is
# wider than a digit.
@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 65537, 2 ** 31 - 1])
def test_ord_past_the_shared_valuations_matches_naive_oracle(p):
    for e in (62, 63, 64, 65, 70, 100, 127, 128, 129, 300):
        for u in UNITS[:4]:
            if u % p == 0:
                continue
            x = p ** e * u
            assert ord_p(x, p) == ord_p(-x, p) == naive_ord(x, p) == e, (e, u)


@given(
    p=st.sampled_from([2, 3, 5, 7, 11, 13]),
    e=st.integers(0, 300),
    u=st.integers(1, 10 ** 40),
    negative=st.booleans(),
)
def test_ord_matches_naive_oracle(p, e, u, negative):
    if u % p == 0:
        u += 1
    x = (-1 if negative else 1) * p ** e * u
    assert ord_p(x, p) == naive_ord(x, p) == e


nonzero = st.integers(-10 ** 12, 10 ** 12).filter(lambda n: n != 0)


@given(x=nonzero, y=nonzero, p=st.sampled_from([2, 3, 5, 7, 11, 13]))
def test_ord_multiplicative(x, y, p):
    assert ord_p(x * y, p) == ord_p(x, p) + ord_p(y, p)


@given(x=nonzero, y=nonzero, p=st.sampled_from([2, 3, 5]))
def test_ord_ultrametric(x, y, p):
    if x + y == 0:
        return
    assert ord_p(x + y, p) >= min(ord_p(x, p), ord_p(y, p))


def test_valuations_are_plain_ints():
    # an int for every nonzero x, small or large, bools included; INFINITE for 0
    for p in (2, 3, 5, 7):
        for e in (0, 63, 64, 300):
            assert type(ord_p(p ** e * 11, p)) is int, (p, e)
            assert type(ord_p(-(p ** e) * 11, p)) is int, (p, e)
        assert type(ord_p(True, p)) is int
        assert ord_p(0, p) is INFINITE
        assert ord_p(False, p) is INFINITE
    assert INFINITE == math.inf and str(INFINITE) == "inf"
    assert CheckRecord("conj12", (0, 0), 2, 10 ** 9, INFINITE).passed
    assert not CheckRecord("conj12", (0, 0), 2, 10 ** 9, 10 ** 9 - 1).passed


def test_records_are_immutable_tuples():
    rec = CheckRecord("prop22", (1,), 2, 3, 3)
    assert rec == CheckRecord("prop22", (1,), 2, 3, 3)
    assert rec != CheckRecord("prop22", (1,), 2, 3, 4)
    assert str(rec) == (
        "CheckRecord(check='prop22', index=(1,), prime=2, required=3, "
        "observed=3)"
    )
    assert rec.passed and rec.severity == "FATAL"
    with pytest.raises(AttributeError):
        rec.observed = INFINITE
    with pytest.raises(AttributeError):
        rec.required = 0


# --- required valuation tables --------------------------------------------


def test_required_two_examples():
    assert required_two_valuation(12) == 1
    assert required_two_valuation(1) == 3
    assert required_two_valuation(16) == 0


def test_required_two_full_residue_table():
    table = {4: 1, 2: 2, 6: 2, 1: 3, 5: 4, 3: 5, 7: 5, 0: 0}
    for m in range(1, 49):
        assert required_two_valuation(m) == table[m % 8], m


def test_required_three_examples():
    assert required_three_valuation(4) == 1
    assert required_three_valuation(5) == 2
    assert required_three_valuation(9) == 0


def test_required_three_full_residue_table():
    for m in range(1, 31):
        assert required_three_valuation(m) == (0, 1, 2)[m % 3], m


def test_required_valuations_reject_nonpositive():
    with pytest.raises(ValueError):
        required_two_valuation(0)
    with pytest.raises(ValueError):
        required_three_valuation(-1)


def test_five_predicted_examples():
    assert five_predicted(7, 3)
    assert five_predicted(11, 4)
    assert not five_predicted(11, 1)


def test_five_predicted_exact_pair_set():
    hits = {
        (ell % 5, m % 5)
        for ell in (7, 11, 13, 19, 23, 29, 31, 41)
        for m in range(1, ell)
        if five_predicted(ell, m)
    }
    assert hits == {(1, 4), (3, 4), (2, 3), (4, 2)}


def test_five_predicted_domain():
    with pytest.raises(ValueError):
        five_predicted(7, 0)
    with pytest.raises(ValueError):
        five_predicted(7, 7)


# --- check_row -------------------------------------------------------------


PHI5_ROW = [PHI5_FACTORED[(5 - m, 5)] for m in range(1, 6)]


def test_check_row_level_five_all_pass():
    report = check_row(5, PHI5_ROW)
    assert report.ell == 5
    assert not report.failures()
    assert {r.check for r in report.records} <= set(ROW_CHECKS)


def test_check_row_computed_level_31():
    row = recurrence_row(31, j_coefficients(31))[1:]
    report = check_row(31, row)
    assert not [r for r in report.failures() if r.severity == "FATAL"]


def test_check_row_zero_row_vacuous():
    report = check_row(7, [0] * 7)
    assert not report.failures()
    assert all(r.observed == INFINITE for r in report.records)
    # INFINITE is not 0, so no unclaimed class counts as indivisible
    assert check_row(17, [0] * 17).stats == {"unclaimed_mod8_indivisible_by_2": (0, 2),
                                             "unclaimed_mod3_indivisible_by_3": (0, 5)}
    assert check_row(17, [1] * 17).stats == {"unclaimed_mod8_indivisible_by_2": (2, 2),
                                             "unclaimed_mod3_indivisible_by_3": (5, 5)}


def test_check_row_requires_full_row():
    with pytest.raises(ValueError):
        check_row(5, PHI5_ROW[:3])
    with pytest.raises(ValueError):
        check_row(6, [0] * 6)


def test_check_row_severity_labels():
    # a row of 2-, 3-, 5-free values fails everything that is claimed
    report = check_row(7, [11] * 7)
    fatal = [r for r in report.failures() if r.severity == "FATAL"]
    assert fatal and all(r.check in ("prop22", "prop23") for r in fatal)
    counter = [r for r in report.failures() if r.severity == "COUNTEREXAMPLE"]
    assert counter and all(r.check == "conj25" for r in counter)
    assert set(report.failures()) == set(fatal) | set(counter)


def test_check_row_respects_check_subset():
    report = check_row(5, PHI5_ROW, checks=("prop23",))
    assert {r.check for r in report.records} == {"prop23"}
    assert "unclaimed_mod8_indivisible_by_2" not in report.stats


@pytest.mark.parametrize("checks", [("prop2",), ("conj12",), ("prop22", "Prop23"), ("",)])
def test_check_row_refuses_unknown_check_names(checks):
    # an unknown name used to select nothing and pass with no record
    unknown = [c for c in checks if c not in ROW_CHECKS]
    with pytest.raises(ValueError, match=re.escape("unknown row checks %r" % unknown)):
        check_row(5, PHI5_ROW, checks)


def test_check_row_skips_two_adic_table_for_level_two():
    report = check_row(2, [1488, -162000])
    assert all(r.check != "prop22" for r in report.records)
    assert not [r for r in report.failures() if r.severity == "FATAL"]


def test_check_row_stats_tally_unclaimed_classes():
    row = recurrence_row(11, j_coefficients(11))[1:]
    report = check_row(11, row)
    indiv, total = report.stats["unclaimed_mod3_indivisible_by_3"]
    assert total == 3  # m = 3, 6, 9
    assert 0 <= indiv <= total
    indiv8, total8 = report.stats["unclaimed_mod8_indivisible_by_2"]
    assert total8 == 1  # m = 8
    assert 0 <= indiv8 <= total8


# --- check_conjecture_div ----------------------------------------------------


def test_conjecture_div_level_five_corner():
    poly = ModularPolynomial(5, dict(PHI5_FACTORED))
    report = check_conjecture_div(poly)
    assert not report.failures()
    by_key = {(r.index, r.prime): r for r in report.records}
    corner2 = by_key[((0, 0), 2)]
    assert corner2.required == 90 and corner2.observed == 90
    edge2 = by_key[((4, 1), 2)]
    assert edge2.required == 15 and edge2.observed == 20
    # level 5 makes no claim about its own prime
    assert all(r.prime != 5 for r in report.records)


def test_conjecture_div_level_seven_all_pass():
    poly = solve_full_polynomial(7, j_coefficients(58))
    report = check_conjecture_div(poly)
    assert not report.failures()
    # 7 = 1 mod 3 strengthens the 3-adic bound to ceil(9c/2)
    by_key = {(r.index, r.prime): r for r in report.records}
    assert by_key[((0, 0), 3)].required == 36  # c = 8
    assert by_key[((0, 0), 2)].required == 120
    assert by_key[((0, 0), 2)].observed == INFINITE  # a_{0,0} = 0


def test_conjecture_div_detects_violation():
    entries = dict(PHI5_FACTORED)
    entries[(0, 0)] = 3  # ord_2 = 0 < 90
    report = check_conjecture_div(ModularPolynomial(5, entries))
    bad = report.failures()
    assert bad and all(r.severity == "COUNTEREXAMPLE" for r in bad)
    assert {r.index for r in bad} == {(0, 0)}


def test_conjecture_div_only_positive_c():
    poly = ModularPolynomial(5, dict(PHI5_FACTORED))
    report = check_conjecture_div(poly)
    assert all(sum(r.index) <= poly.ell for r in report.records)


# --- same verdicts as the naive oracle ---------------------------------------


ROW_CHECK_SETS = [ROW_CHECKS, ("conj25", "prop22"), ("prop23",), ("conj25",), (),
                  ("prop22",), ("prop22", "prop23"), ("prop23", "conj25")]


@pytest.mark.parametrize("ell", primes_upto(199))
def test_check_row_records_match_naive_oracle(ell):
    row = hypergeometric_row(ell)[1:]
    for checks in ROW_CHECK_SETS:
        assert check_row(ell, row, checks).records == naive_check_row(ell, row, checks), checks


# Values where a valuation's branch can change: zero, signs, 2^70 (past the
# 64 shared valuations), and powers of 3 and 5 around 3^18 and 5^12.
ADVERSARIAL = [0, -1, 1, -(2 ** 70) * 7, 2 ** 70 * 3 ** 18 * 5 ** 12]
ADVERSARIAL += [s * p ** (k + d) * u for p, k in ((3, 18), (5, 12)) for d in (-1, 0, 1, 47)
                for s in (1, -1) for u in (1, 7 ** 60 + 2 if p == 5 else 7 ** 60 + 1)]


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13, 31, 97])
def test_check_row_matches_naive_oracle_on_adversarial_rows(ell):
    for shift in range(len(ADVERSARIAL)):
        row = [ADVERSARIAL[(shift + i) % len(ADVERSARIAL)] for i in range(ell)]
        for checks in ROW_CHECK_SETS:
            assert check_row(ell, row, checks).records == naive_check_row(ell, row, checks)


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13])
def test_check_conjecture_div_matches_naive_oracle_on_adversarial_tables(ell):
    pairs = [(m, n) for m in range(ell, -1, -1) for n in range(m, -1, -1)][1:]  # all but (ell, ell)
    for shift in range(len(ADVERSARIAL)):
        entries = {pair: ADVERSARIAL[(shift + i) % len(ADVERSARIAL)] for i, pair in enumerate(pairs)}
        entries[(ell, ell)] = -1
        poly = ModularPolynomial(ell, entries)
        assert check_conjecture_div(poly).records == naive_conjecture_div(poly)


@pytest.mark.parametrize("checks", [checks for checks in ROW_CHECK_SETS if checks])
@pytest.mark.parametrize("bad", [1.0, Fraction(1)])
def test_check_row_refuses_a_non_integer_at_a_graded_position(checks, bad):
    ell = 13  # odd, so prop22 grades every m; conj25 grades m = 4 and 9
    row = hypergeometric_row(ell)[1:]
    graded = {m for rec in check_row(ell, row, checks).records for m in rec.index}
    assert graded
    for m in sorted(graded):
        with pytest.raises(TypeError, match="must be an integer"):
            check_row(ell, row[:m - 1] + [bad] + row[m:], checks)


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13])
def test_check_conjecture_div_records_match_naive_oracle(ell):
    poly = solve_full_polynomial(ell, j_coefficients(solver_precision(ell)))
    records = check_conjecture_div(poly).records
    assert records
    assert records == naive_conjecture_div(poly)


@pytest.mark.parametrize("argv, sha256", [
    (("check", "--ell", "199", "--format", "json"),
     "04c66f0ecc1997544ebaed1a838f8d5001c5827cfcd4a36feea13467fc67c81d"),
    (("check", "--ell", "13", "--set", "prop22,prop23,conj25,conj12"),
     "af41d12c49530b8db9d8891aded9379aee0d66606a9612b12c24b725a29b102d"),
    (("check", "--ell", "401", "--format", "json"),
     "118752c22e1411e0024c1ff838af92123e991fbc4f8cd1714a71a2eb70de75c3"),
])
def test_check_report_bytes_pinned(capsys, argv, sha256):
    code = cli_main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == sha256


# --- report plumbing ---------------------------------------------------------


def test_report_summary_counts():
    report = check_row(5, PHI5_ROW)
    summary = report.summary
    assert summary["prop22"] == (5, 0)
    assert summary["prop23"] == (5, 0)
    total = sum(p + f for p, f in summary.values())
    assert total == len(report.records)


def test_report_json_schema():
    report = check_row(5, PHI5_ROW)
    doc = report.to_json_dict()
    assert doc["ell"] == 5
    assert set(doc) == {"ell", "checks", "summary", "stats"}
    for entry in doc["checks"]:
        assert set(entry) == {
            "check", "index", "prime", "required", "observed", "verdict", "severity"
        }
        assert entry["verdict"] in ("pass", "fail")
    assert doc["summary"]["prop22"] == {"pass": 5, "fail": 0}
    assert all(set(v) == {"indivisible", "total"} for v in doc["stats"].values())


# --- the JSON report, by template ----------------------------------------------


def json_oracle(report):
    """Test oracle: the report through json's own indent-2 encoder."""
    return json.dumps(report.to_json_dict(), indent=2) + "\n"


valuations = st.one_of(st.just(INFINITE), st.integers(0, 300))
records = st.builds(
    CheckRecord,
    check=st.one_of(st.sampled_from(ALL_CHECKS), st.text(max_size=8)),
    index=st.one_of(st.tuples(st.integers(0, 500)),
                    st.tuples(st.integers(0, 500), st.integers(0, 500))),
    prime=st.sampled_from([2, 3, 5]),
    required=st.integers(0, 400),
    observed=valuations,
)


@given(ell=st.integers(2, 1000), recs=st.lists(records, max_size=12))
def test_json_text_matches_json_dumps(ell, recs):
    report = CongruenceReport(ell, recs)
    assert report.to_json_text() == json_oracle(report)


# Fail verdicts of both severities, INFINITE and a valuation past 64, row
# and corner indices, and a check name that JSON must escape.
SHAPE_RECORDS = [
    CheckRecord("prop22", (3,), 2, 5, 1),
    CheckRecord("conj12", (3, 1), 5, 90, 70),
    CheckRecord("conj12", (0, 0), 3, 9, INFINITE),
    CheckRecord("conj25", (4,), 5, 1, 200),
    CheckRecord('quo"te\\\u00e9', (1,), 3, 1, 0),
]


def test_json_text_covers_every_shape():
    # every shape above, then empty checks, summary and stats
    recs = SHAPE_RECORDS
    report = CongruenceReport(7, recs)
    text = report.to_json_text()
    assert text == json_oracle(report)
    assert {r.severity for r in report.failures()} == {"FATAL", "COUNTEREXAMPLE"}
    assert '"observed": "inf"' in text and '"observed": "70"' in text
    corner = CongruenceReport(7, recs[1:3])
    assert corner.to_json_text() == json_oracle(corner)
    assert corner.to_json_text().endswith('"stats": {}\n}\n')
    assert CongruenceReport(5, []).to_json_text() == (
        '{\n  "ell": 5,\n  "checks": [],\n  "summary": {},\n  "stats": {}\n}\n'
    )


def test_text_report_pinned():
    # check's text report byte for byte: FAIL lines, tallies, notes, verdict
    assert CongruenceReport(7, SHAPE_RECORDS[:4]).to_text() == (
        "FAIL prop22 [3]: ord_2 = 1, required 5 (FATAL)\n"
        "FAIL conj12 [3,1]: ord_5 = 70, required 90 (COUNTEREXAMPLE)\n"
        "conj12: 2 checked, 1 failed\n"
        "conj25: 1 checked, 0 failed\n"
        "prop22: 1 checked, 1 failed\n"
        "note: unclaimed_mod8_indivisible_by_2: 0 of 0\n"
        "result: FATAL (1 proved statements failed)\n"
    )
    assert CongruenceReport(7, SHAPE_RECORDS[1:3]).to_text() == (
        "FAIL conj12 [3,1]: ord_5 = 70, required 90 (COUNTEREXAMPLE)\n"
        "conj12: 2 checked, 1 failed\n"
        "result: COUNTEREXAMPLE (1 conjectural statements failed)\n"
    )
    assert CongruenceReport(7, []).to_text() == "result: OK\n"


def test_verdict_ranks_fatal_over_counterexample_over_ok():
    fatal, counterexample, passing = SHAPE_RECORDS[:3]
    assert CongruenceReport(7, [counterexample, fatal, passing]).verdict == "FATAL"
    prop23 = CheckRecord("prop23", (2,), 3, 2, 1)
    assert CongruenceReport(7, [passing, prop23, counterexample]).verdict == "FATAL"
    assert CongruenceReport(7, [passing, counterexample]).verdict == "COUNTEREXAMPLE"
    assert CongruenceReport(7, SHAPE_RECORDS[2:4]).verdict == "OK"
    assert CongruenceReport(7, []).verdict == "OK"


@pytest.mark.parametrize("ell", primes_upto(199))
def test_json_text_matches_json_dumps_on_every_row(ell):
    row = hypergeometric_row(ell)[1:]
    for checks in ROW_CHECK_SETS:
        report = check_row(ell, row, checks)
        assert report.to_json_text() == json_oracle(report), checks


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13])
def test_json_text_matches_json_dumps_on_corner_reports(ell):
    poly = solve_full_polynomial(ell, j_coefficients(solver_precision(ell)))
    broken = {(m, n): v for m, n, v in poly.items()}
    broken[(0, 0)] = 1  # c = ell + 1, so every prime checked here fails
    for table in (poly, ModularPolynomial(ell, broken)):
        report = check_conjecture_div(table)
        assert report.to_json_text() == json_oracle(report)
    assert report.failures()  # the broken table's report holds failures


def test_check_name_constants():
    assert set(ROW_CHECKS) == {"prop22", "prop23", "conj25"}
    assert set(ALL_CHECKS) == set(ROW_CHECKS) | {"conj12"}
