"""Recurrence row oracle, d-weight bookkeeping, and the full-polynomial solver."""

from fractions import Fraction

import pytest
from conftest import PHI2_KNOWN, PHI5_FACTORED
from hypothesis import given, settings, strategies as st
from oracles import d_weight, verify_d_recurrence

from modpoly import (
    InconsistentSystemError,
    IntSeries,
    IntegralityError,
    JTable,
    ModularPolynomial,
    PartitionTerm,
    PrecisionError,
    closed_row,
    coeff_recurrence,
    hypergeometric_row,
    j_coefficients,
    partitions,
    polynomial_residual,
    recurrence_row,
    solve_full_polynomial,
    term_weight,
)
from modpoly import recurrence
from modpoly.recurrence import solver_precision

J = j_coefficients(60)


# --- jhat powers (IntSeries.__pow__ against a brute-force oracle) ---------


def jhat_power(N, k, j):
    # coefficient of q^k in (q*j)^N
    return (j.hat_series(k + 1) ** N).coefficient(k)


def jhat_power_brute(N, k, j):
    # multiply out (1 + c_0 q + ... + c_{k-1} q^k)^N with plain lists
    base = [1] + [j[i] for i in range(k)]
    acc = [1]
    for _ in range(N):
        out = [0] * (k + 1)
        for i, x in enumerate(acc):
            if i > k:
                break
            for d, y in enumerate(base):
                if i + d <= k:
                    out[i + d] += x * y
        acc = out
    return acc[k] if k < len(acc) else 0


def test_jhat_power_constant_term():
    for N in (1, 2, 5, 20):
        assert jhat_power(N, 0, J) == 1


def test_jhat_power_first_order():
    assert jhat_power(5, 1, J) == 5 * 744 == 3720


def test_jhat_power_second_order():
    assert jhat_power(5, 2, J) == 5 * 196884 + 10 * 744 ** 2 == 6519780


@settings(deadline=None)
@given(N=st.integers(1, 9), k=st.integers(0, 8))
def test_jhat_power_matches_brute_force(N, k):
    assert jhat_power(N, k, J) == jhat_power_brute(N, k, J)


def test_jhat_power_requires_coefficients():
    with pytest.raises(ValueError):
        jhat_power(3, 9, j_coefficients(8))


# --- coeff_recurrence / recurrence_row ------------------------------------


def test_recurrence_level_five_values():
    assert coeff_recurrence(5, 0, J) == -1
    assert coeff_recurrence(5, 1, J) == 3720
    assert coeff_recurrence(5, 5, J) == PHI5_FACTORED[(0, 5)]


def test_recurrence_row_matches_level_five_table():
    row = recurrence_row(5, J)
    assert row == [PHI5_FACTORED[(5 - m, 5)] for m in range(6)]


@pytest.mark.parametrize("ell", [3, 5, 7, 11, 13])
def test_recurrence_agrees_with_closed_form(ell):
    assert recurrence_row(ell, J) == closed_row(ell, J)


def clear_memo():
    # the next row starts the memo afresh, whatever its table
    recurrence._MEMO[0] = None


@pytest.mark.parametrize("ell", [2, 3, 5, 31, 97])
def test_recurrence_row_triangle_boundary(ell):
    # the shortest table allowed and an empty memo, so a chain power built
    # one coefficient short raises instead of being masked; m_max = 2 is
    # the shortest chain with a product step
    for m_max in sorted({0, 1, 2, ell // 2, ell - 1, ell}):
        clear_memo()
        j = j_coefficients(max(m_max, 1))
        assert recurrence_row(ell, j, m_max) == closed_row(ell, j, m_max), m_max


@pytest.mark.parametrize("ell, m_max", [(2, 2), (5, 5), (31, 9), (31, 31), (97, 40)])
def test_recurrence_chain_powers_match_pow(monkeypatch, ell, m_max):
    # every power the chain builds equals jhat^k from the power kernel, and
    # every u_m is -[q^m] jhat^(m-1) / (m-1); a spy on the chain's closing
    # Miller step sees each power complete
    built = {}
    real = recurrence._miller_next

    def spy(f, g, alpha):
        value = real(f, g, alpha)
        built[alpha] = tuple(g) + (value,)
        return value

    monkeypatch.setattr(recurrence, "_miller_next", spy)
    clear_memo()
    recurrence_row(ell, J, m_max)
    assert sorted(built) == list(range(1, m_max))
    for k, coeffs in built.items():
        assert coeffs == (J.hat_series(k + 2) ** k).coeffs, k
    u = recurrence._MEMO[1]
    assert u[:2] == [1, -J[0]]
    assert len(u) == m_max + 1
    for m in range(2, m_max + 1):
        assert u[m] == Fraction(-built[m - 1][m], m - 1), m


def test_recurrence_row_matches_hypergeometric_at_199():
    # levels in either order on a fresh memo: the first row builds u, a
    # lower level reads a prefix of it, a higher one extends it
    j = j_coefficients(199)
    for levels in ((199, 101, 163, 131), (131, 163, 101, 199)):
        clear_memo()
        for ell in levels:
            assert recurrence_row(ell, j) == hypergeometric_row(ell), (levels, ell)


def test_recurrence_row_checks_the_miller_step(monkeypatch):
    # a chain step with its exponent off by one leaves a remainder that the
    # step's integrality guard turns into IntegralityError
    real = recurrence._miller_next
    monkeypatch.setattr(recurrence, "_miller_next", lambda f, g, alpha: real(f, g, alpha + 1))
    clear_memo()
    with pytest.raises(IntegralityError, match="is not an integer"):
        recurrence_row(31, J)


def test_recurrence_row_checks_each_u_division(monkeypatch):
    # a corrupted chain power leaves a remainder in the division that reads
    # u_m off it; neither that nor a failed ** once u is extended changes
    # the memo, which only a complete row updates
    clear_memo()
    row = recurrence_row(5, J)
    memo = [recurrence._MEMO[0], list(recurrence._MEMO[1]), recurrence._MEMO[2], dict(recurrence._MEMO[3])]
    real = recurrence._miller_next
    with monkeypatch.context() as patch:
        patch.setattr(recurrence, "_miller_next", lambda f, g, alpha: real(f, g, alpha) + (alpha == 7))
        with pytest.raises(IntegralityError, match=r"u_8 = -\[q\^8\] jhat\^7 / 7 is not an integer"):
            recurrence_row(13, J)
    assert recurrence._MEMO == memo

    def failed_power(self, n):
        raise IntegralityError("a step of the power kernel failed")

    with monkeypatch.context() as patch:
        patch.setattr(IntSeries, "__pow__", failed_power)
        with pytest.raises(IntegralityError, match="power kernel"):
            recurrence_row(13, J)
    assert recurrence._MEMO == memo
    assert recurrence_row(5, J) == row


def test_recurrence_row_prefix():
    assert recurrence_row(7, J, m_max=3) == recurrence_row(7, J)[:4]


def test_recurrence_row_deterministic():
    assert recurrence_row(11, J) == recurrence_row(11, J)


def test_recurrence_row_returns_a_copy():
    # a caller may mutate what it gets; the memo keeps its own row
    clear_memo()
    first = recurrence_row(11, J)  # built
    want = list(first)
    first[3] = 0
    second = recurrence_row(11, J)  # served from the memo
    assert second == want
    second[3] = 0
    assert recurrence_row(11, J, 5) == want[:6]
    assert recurrence_row(11, J) == want


def test_recurrence_row_memo_builds_no_powers(monkeypatch):
    # a repeat request, or a shorter one, is served from the memo: with
    # series powers made to fail, only a memo miss would raise
    clear_memo()
    row = recurrence_row(13, J)

    def no_powers(self, n):
        raise AssertionError("memo miss: recurrence_row raised a power")

    with monkeypatch.context() as patch:
        patch.setattr(IntSeries, "__pow__", no_powers)
        assert recurrence_row(13, J) == row
        assert recurrence_row(13, J, m_max=5) == row[:6]

    # another level on the same table reads u's prefix: no chain power,
    # and one ** for the row
    real_pow = IntSeries.__pow__
    powers = []

    def count_powers(self, n):
        powers.append(n)
        return real_pow(self, n)

    def no_chain(f, g, alpha):
        raise AssertionError("recurrence_row built a chain power")

    with monkeypatch.context() as patch:
        patch.setattr(IntSeries, "__pow__", count_powers)
        patch.setattr(recurrence, "_miller_next", no_chain)
        assert recurrence_row(11, J) == closed_row(11, J)
    assert powers == [11]

    # another table starts the memo afresh
    other = j_coefficients(13)
    recurrence_row(7, other)
    table, u, power, rows = recurrence._MEMO
    assert table is other
    assert list(rows) == [7]
    assert len(u) == 8 and len(power) == 8


def test_recurrence_requires_enough_coefficients():
    with pytest.raises(ValueError):
        recurrence_row(11, j_coefficients(6))


# --- ModularPolynomial ---------------------------------------------------


def build_phi5():
    return ModularPolynomial(5, dict(PHI5_FACTORED))


def test_polynomial_symmetric_get():
    poly = build_phi5()
    assert poly.get(0, 3) == poly.get(3, 0) == PHI5_FACTORED[(0, 3)]
    assert poly.get(5, 5) == -1


def test_polynomial_top_row():
    poly = build_phi5()
    assert poly.top_row() == [PHI5_FACTORED[(5 - m, 5)] for m in range(6)]


def test_polynomial_items_cover_lower_triangle():
    poly = build_phi5()
    seen = {(m, n) for m, n, _ in poly.items()}
    assert seen == {(m, n) for m in range(6) for n in range(m + 1)}
    values = {(m, n): v for m, n, v in poly.items()}
    assert values[(5, 0)] == PHI5_FACTORED[(0, 5)]


def test_polynomial_missing_entries_default_zero():
    poly = ModularPolynomial(3, {(3, 3): -1})
    assert poly.get(0, 0) == 0
    assert poly.top_row() == [-1, 0, 0, 0]


def test_polynomial_validation():
    with pytest.raises(ValueError):
        ModularPolynomial(4, {(4, 4): -1})
    with pytest.raises(ValueError):
        ModularPolynomial(3, {(3, 3): 1})
    with pytest.raises(ValueError):
        ModularPolynomial(3, {(3, 3): -1, (4, 0): 2})
    with pytest.raises(ValueError):
        ModularPolynomial(3, {(3, 3): -1, (1, 0): 5, (0, 1): 6})
    with pytest.raises(TypeError):
        ModularPolynomial(3, {(3, 3): -1, (1, 0): 1.5})


def test_polynomial_equality():
    assert build_phi5() == build_phi5()
    assert build_phi5() != ModularPolynomial(5, {(5, 5): -1})


# --- d-weights ------------------------------------------------------------


def test_d_weight_zero_split_is_minus_one():
    assert d_weight(5, (1, 2), (0, 0), (2, 1)) == -1


def test_d_weight_simple_values():
    assert d_weight(5, (1,), (1,), (1,)) == 5
    assert d_weight(7, (2,), (3,), (3,)) == 7
    assert d_weight(7, (2,), (3,), (3,)) == term_weight(7, 6, PartitionTerm((2,), (3,)))


def test_d_weight_matches_term_weight_at_full_split():
    # taking every part into the split reproduces the closed-formula weight
    for ell in (11, 13):
        for m in range(1, 7):
            for term in partitions(m):
                w = d_weight(ell, term.r, term.t, term.t)
                assert w == term_weight(ell, m, term), (ell, term)


def test_d_weight_is_exact_rational():
    # ell=7, r=(1,), t1=(2,): sign (-1), 1/2! * 7 * (6-2+2)!/(5)! = 7*6/2 = 21
    assert d_weight(7, (1,), (2,), (3,)) == Fraction(-21)


def test_d_weight_validation():
    with pytest.raises(ValueError):
        d_weight(5, (1, 2), (1,), (1,))  # length mismatch
    with pytest.raises(ValueError):
        d_weight(5, (2, 1), (1, 1), (1, 1))  # not increasing
    with pytest.raises(ValueError):
        d_weight(5, (1, 3), (3, 1), (3, 1))  # weighted sum exceeds ell
    with pytest.raises(ValueError):
        d_weight(5, (1,), (2,), (1,))  # split exceeds multiplicity
    with pytest.raises(ValueError):
        d_weight(5, (1,), (1,), (1, 1))  # t_full length mismatch


def test_verify_d_recurrence_examples():
    assert verify_d_recurrence(5, (1,), (2,))
    assert verify_d_recurrence(7, (1, 2), (1, 1))
    assert verify_d_recurrence(11, (3,), (1,))


def test_verify_d_recurrence_sweep():
    for ell in (11, 13):
        for m in range(1, 9):
            for term in partitions(m):
                assert verify_d_recurrence(ell, term.r, term.t), (ell, term)


# --- full-polynomial solver -------------------------------------------------


# The pair-basis formulation the solver had before it worked row by row:
# IntSeries arithmetic throughout, j(ell z)^k spread from j(z)^k, and one
# basis S[m]*T[n] + S[n]*T[m] per pair.  Kept as the oracle that the
# row-by-row expansion must match exactly.


def pair_basis_tables(ell, j):
    tail = j.count - ell * ell - ell + 1
    T = [IntSeries.one(j.count), j.series()]
    for _ in range(ell):
        T.append(T[-1] * T[1])
    S = []
    for t in T:
        block = [0] * (ell * (tail - t.base_exponent))
        block[::ell] = t.coeffs[: tail - t.base_exponent]
        S.append(IntSeries(ell * t.base_exponent, block))

    def basis(m, n):
        return S[m] * T[m] if m == n else S[m] * T[n] + S[n] * T[m]

    return S[ell + 1] + T[ell + 1], basis


def pair_basis_residual(poly, j):
    residual, basis = pair_basis_tables(poly.ell, j)
    for m, n, a in poly.items():
        if a:
            residual = residual + basis(m, n) * a
    return residual


def pair_basis_solve(ell, j):
    residual, basis = pair_basis_tables(ell, j)
    entries = {}
    for m in range(ell, -1, -1):
        for n in range(m, -1, -1):
            e = -(ell * m + n)
            b = basis(m, n)
            assert b.coefficient(e) == 1, (m, n)
            entries[(m, n)] = a = -residual.coefficient(e)
            residual = residual + b * a
    if not residual.is_zero():
        raise InconsistentSystemError(
            "residual %d survives at q^%d after eliminating all pairs"
            % (residual.coeffs[0], residual.base_exponent)
        )
    return ModularPolynomial(ell, entries)


# Longer tables give tail > 3, where j(ell z)^m has more terms below q^tail.
@pytest.mark.parametrize(
    "ell,count",
    [(2, 8), (3, 14), (5, 32), (5, 60), (7, 58), (7, 120), (11, 134), (11, 200), (13, 184)],
)
def test_solver_and_residual_match_pair_basis_oracle(ell, count):
    j = j_coefficients(count)
    poly = solve_full_polynomial(ell, j)
    assert poly == pair_basis_solve(ell, j)
    entries = {(m, n): v for m, n, v in poly.items()}
    tables = [poly, ModularPolynomial(ell, {**entries, (1, 0): entries[(1, 0)] + 1})]
    if ell >= 3:
        changed = entries[(3, 1)] + 7 * 2**40 * 3**20
        tables.append(ModularPolynomial(ell, {**entries, (3, 1): changed}))
    for k, table in enumerate(tables):
        residual = polynomial_residual(table, j)
        want = pair_basis_residual(table, j)
        assert (residual.base_exponent, residual.coeffs, residual.precision) == (
            want.base_exponent,
            want.coeffs,
            want.precision,
        )
        assert residual.is_zero() == (k == 0)


# --- the shared power table ------------------------------------------------


def count_products(monkeypatch):
    """A list that gains one entry per IntSeries product from now on."""
    calls = []
    real = IntSeries.__mul__

    def spy(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(IntSeries, "__mul__", spy)
    return calls


def test_residual_reuses_the_solvers_power_table(monkeypatch):
    # a residual check on a table equal to the solve's, though built
    # separately, reads the solve's powers and multiplies no series
    recurrence._power_table.cache_clear()
    ell = 11
    j, same = j_coefficients(solver_precision(ell)), j_coefficients(solver_precision(ell))
    products = count_products(monkeypatch)
    poly = solve_full_polynomial(ell, j)
    assert len(products) == ell  # j^2 .. j^ell by the chain, then j^(ell+1)
    del products[:]
    assert polynomial_residual(poly, same).is_zero()
    assert products == []
    assert recurrence._power_table.cache_info().currsize == 1


def test_power_table_cache_hits_on_an_equal_table():
    # the cache keys on (ell, j): a separately built table with equal
    # values is the same key, one of another length is not
    recurrence._power_table.cache_clear()
    first = recurrence._power_table(5, j_coefficients(32))
    again = recurrence._power_table(5, JTable(j_coefficients(32).values))
    assert again is first
    info = recurrence._power_table.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    recurrence._power_table(5, j_coefficients(33))
    assert recurrence._power_table.cache_info().misses == 2


def test_power_table_rebuilds_for_another_level_or_table(monkeypatch):
    recurrence._power_table.cache_clear()
    products = count_products(monkeypatch)
    # (ell, count, products built): a repeat is free, anything else rebuilds,
    # and the one entry held is the last table built
    steps = [(5, 32, 5), (5, 32, 0), (7, 58, 7), (5, 32, 5), (5, 60, 5), (5, 60, 0), (2, 60, 2)]
    for ell, count, built in steps:
        del products[:]
        solve_full_polynomial(ell, j_coefficients(count))
        assert len(products) == built, (ell, count)
        assert recurrence._power_table.cache_info().currsize == 1


def test_power_table_is_keyed_by_the_j_values(monkeypatch):
    # a table of the same length with c_3 changed rebuilds, and fails
    recurrence._power_table.cache_clear()
    j = j_coefficients(8)
    solve_full_polynomial(2, j)
    values = list(j.values)
    values[4] += 1
    products = count_products(monkeypatch)
    with pytest.raises(InconsistentSystemError):
        solve_full_polynomial(2, JTable(tuple(values)))
    assert len(products) == 2


@pytest.mark.parametrize("ell", [5, 7, 11])
def test_shared_power_table_shares_no_verdict(ell):
    # right after a solve has cached its powers, changed tables still give
    # the pair-basis oracle's nonzero residual, and the solved one still 0
    recurrence._power_table.cache_clear()
    j = j_coefficients(solver_precision(ell))
    poly = solve_full_polynomial(ell, j)
    entries = {(m, n): v for m, n, v in poly.items()}
    changes = [((1, 0), 1), ((3, 1), 7 * 2**40 * 3**20)]
    for key, delta in changes:
        table = ModularPolynomial(ell, {**entries, key: entries[key] + delta})
        residual = polynomial_residual(table, j)
        want = pair_basis_residual(table, j)
        assert (residual.base_exponent, residual.coeffs, residual.precision) == (
            want.base_exponent,
            want.coeffs,
            want.precision,
        )
        assert not residual.is_zero(), key
    assert polynomial_residual(poly, j).is_zero()
    info = recurrence._power_table.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 3, 1)


@pytest.mark.parametrize("ell,count,value,exponent", [(2, 8, -2, 2), (5, 60, -5, 30), (7, 120, -7, 64)])
def test_solver_names_lowest_surviving_residual(ell, count, value, exponent):
    values = list(j_coefficients(count).values)
    values[-1] += 1  # c_{count-1}, read only by the tail check
    j = JTable(tuple(values))
    message = r"^residual %d survives at q\^%d after eliminating all pairs$" % (value, exponent)
    with pytest.raises(InconsistentSystemError, match=message):
        solve_full_polynomial(ell, j)
    with pytest.raises(InconsistentSystemError, match=message):
        pair_basis_solve(ell, j)


def test_solver_reads_its_pivots_from_the_tables():
    # JTable refuses c_{-1} != 1, so build one past its check: every
    # power of j then leads with 2^k, and the first pivot is 2^2 * 2^2.
    j = object.__new__(JTable)
    object.__setattr__(j, "values", (2,) + j_coefficients(8).values[1:])
    with pytest.raises(InconsistentSystemError, match=r"^pivot at pair \(2, 2\) is 16, not 1$"):
        solve_full_polynomial(2, j)


def test_solver_level_two_classical():
    poly = solve_full_polynomial(2, j_coefficients(8))
    assert {(m, n): v for m, n, v in poly.items()} == PHI2_KNOWN


def test_solver_level_five_full_table():
    poly = solve_full_polynomial(5, j_coefficients(32))
    for (m, n), expected in PHI5_FACTORED.items():
        assert poly.get(m, n) == expected, (m, n)


def test_solver_level_seven_vanishing_corner():
    poly = solve_full_polynomial(7, j_coefficients(58))
    assert poly.get(0, 0) == 0
    assert poly.get(1, 0) == 0
    assert poly.top_row() == closed_row(7, J)


def test_solver_residual_vanishes():
    for ell, count in ((2, 8), (3, 14), (5, 60), (7, 120)):
        poly = solve_full_polynomial(ell, j_coefficients(count))
        residual = polynomial_residual(poly, j_coefficients(count))
        assert not residual.coeffs, residual
        assert residual.precision == count - ell * ell - ell + 1


def test_residual_detects_corruption():
    for ell in (2, 11):
        j = j_coefficients(ell * ell + ell + 2)
        entries = {(m, n): v for m, n, v in solve_full_polynomial(ell, j).items()}
        entries[(1, 0)] += 1
        residual = polynomial_residual(ModularPolynomial(ell, entries), j)
        assert residual.coeffs, ell


def test_residual_refuses_short_tables():
    entries = dict(PHI5_FACTORED)
    entries[(0, 1)] += 1
    with pytest.raises(PrecisionError, match="need j coefficients c_0..c_31 but table stops at c_19"):
        polynomial_residual(ModularPolynomial(5, entries), j_coefficients(20))
    assert polynomial_residual(ModularPolynomial(5, entries), j_coefficients(32)).coeffs


def test_solver_requires_precision():
    with pytest.raises(ValueError):
        solve_full_polynomial(5, j_coefficients(20))


def test_solver_rejects_corrupt_series():
    values = list(j_coefficients(8).values)
    values[4] += 1  # corrupt c_3
    with pytest.raises(InconsistentSystemError):
        solve_full_polynomial(2, JTable(tuple(values)))


def test_inconsistent_system_error_type():
    assert issubclass(InconsistentSystemError, ArithmeticError)
