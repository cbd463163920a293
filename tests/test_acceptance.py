"""Acceptance gate: nine end-to-end criteria with explicit time budgets.

Each criterion prints one ``ACCEPTANCE n: PASS`` / ``ACCEPTANCE n: FAIL``
line (repeated after the run via the terminal-summary hook in conftest)
and asserts both the mathematical statement and its wall-clock budget.
"""

import functools
import math
import time

import conftest
from conftest import PHI5_FACTORED

from modpoly import (
    CoeffRequest,
    binomial,
    check_conjecture_div,
    check_row,
    cli_main,
    closed_row,
    coeff_closed,
    emit_sutherland_text,
    five_predicted,
    j_coefficients,
    ord_p,
    partitions,
    polynomial_residual,
    primes_upto,
    recurrence_row,
    required_three_valuation,
    required_two_valuation,
    solve_full_polynomial,
    stirling_first,
    stirling_second,
    term_weight,
    verify_d_recurrence,
)


def criterion(n, budget_seconds):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            try:
                fn(*args, **kwargs)
                elapsed = time.monotonic() - started
                assert elapsed < budget_seconds, (
                    "criterion %d exceeded its %ds budget (%.1fs)"
                    % (n, budget_seconds, elapsed)
                )
            except BaseException:
                conftest.ACCEPTANCE_VERDICTS[n] = "FAIL"
                print("ACCEPTANCE %d: FAIL" % n)
                raise
            conftest.ACCEPTANCE_VERDICTS[n] = "PASS"
            print("ACCEPTANCE %d: PASS (%.2fs)" % (n, elapsed))
        return wrapper
    return decorate


@criterion(1, 1)
def test_acceptance_1_j_coefficients():
    table = j_coefficients(7)
    expected = (744, 196884, 21493760, 864299970, 20245856256,
                333202640600, 4252023300096)
    assert tuple(table[i] for i in range(7)) == expected
    assert table[-1] == 1


@criterion(2, 1)
def test_acceptance_2_level_five_row_closed():
    j = j_coefficients(5)
    values = [coeff_closed(CoeffRequest(5, m), j) for m in range(1, 6)]
    assert values == [
        3720,
        -4550940,
        2028551200,
        -2 * 3 * 5 ** 2 * 1644556073,
        2 ** 17 * 3 ** 4 * 5 * 31 * 1193,
    ]


@criterion(3, 300)
def test_acceptance_3_oracle_equivalence():
    j_small = j_coefficients(31)
    for ell in primes_upto(31)[1:]:  # odd primes 3..31
        assert closed_row(ell, j_small) == recurrence_row(ell, j_small), ell
    j_wide = j_coefficients(60)
    for ell in (37, 61, 97):
        m_max = min(60, ell)
        closed = closed_row(ell, j_wide, m_max=m_max)
        assert closed == recurrence_row(ell, j_wide, m_max=m_max), ell


@criterion(4, 600)
def test_acceptance_4_full_solver():
    phi5 = solve_full_polynomial(5, j_coefficients(32))
    for (m, n), expected in PHI5_FACTORED.items():
        assert phi5.get(m, n) == expected, (m, n)
    phi7 = solve_full_polynomial(7, j_coefficients(58))
    assert phi7.get(0, 0) == 0
    assert phi7.get(1, 0) == 0
    for ell in (2, 3, 5, 7):
        count = ell * ell + ell + 2
        poly = solve_full_polynomial(ell, j_coefficients(count))
        residual = polynomial_residual(poly, j_coefficients(count))
        assert not residual.coeffs, ell
        assert residual.precision > 0, ell


@criterion(5, 600)
def test_acceptance_5_theorem_congruences():
    for ell in primes_upto(97):
        if ell == 2:
            row = solve_full_polynomial(2, j_coefficients(8)).top_row()[1:]
        else:
            row = recurrence_row(ell, j_coefficients(ell))[1:]
        report = check_row(ell, row, checks=("prop22", "prop23"))
        assert not report.failures(), (ell, report.failures()[:3])
        for m in range(1, ell + 1):
            a = row[m - 1]
            if ell % 2 == 1:
                assert ord_p(a, 2) >= required_two_valuation(m), (ell, m)
            assert ord_p(a, 3) >= required_three_valuation(m), (ell, m)


@criterion(6, 600)
def test_acceptance_6_conjecture_checks():
    for ell in (5, 7, 11):
        poly = solve_full_polynomial(ell, j_coefficients(ell * ell + ell + 2))
        report = check_conjecture_div(poly)
        assert not report.failures(), ell
    beyond = 0
    for ell in primes_upto(97)[1:]:
        row = recurrence_row(ell, j_coefficients(ell))[1:]
        for m in range(1, ell):
            if not five_predicted(ell, m):
                continue
            ok = ord_p(row[m - 1], 5) >= 1
            if m <= 7:
                assert ok, (ell, m)
            elif not ok:
                beyond += 1
    print("five_predicted exceptions beyond m=7: %d (reported, not fatal)" % beyond)


@criterion(7, 60)
def test_acceptance_7_integrality():
    for ell in (31, 37, 97):
        for m in range(1, 31):
            for term in partitions(m):
                term_weight(ell, m, term)  # raises IntegralityError on failure


@criterion(8, 60)
def test_acceptance_8_proof_identities():
    for n in range(13):
        # falling factorial x(x-1)...(x-n+1) expanded by repeated multiplication
        coeffs = [1]
        for i in range(n):
            nxt = [0] * (len(coeffs) + 1)
            for k, v in enumerate(coeffs):
                nxt[k + 1] += v
                nxt[k] -= i * v
            coeffs = nxt
        for k in range(n + 1):
            assert stirling_first(n, k) == coeffs[k], (n, k)
        for d in range(13):
            lhs = sum(
                (-1) ** i * binomial(n, i) * (n - i) ** d for i in range(n + 1)
            )
            assert lhs == math.factorial(n) * stirling_second(d, n), (n, d)
    for ell in (13, 17):
        for weight in range(1, 13):
            for term in partitions(weight):
                assert verify_d_recurrence(ell, term.r, term.t), (ell, term)


@criterion(9, 120)
def test_acceptance_9_ingestion_path(tmp_path):
    for ell in (7, 11):
        poly = solve_full_polynomial(ell, j_coefficients(ell * ell + ell + 2))
        path = tmp_path / ("phi%d.txt" % ell)
        path.write_text(emit_sutherland_text(poly))
        code = cli_main(
            ["check", "--ell", str(ell), "--file", str(path), "--set", "conj12"]
        )
        assert code == 0, ell
