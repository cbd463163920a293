"""The j-invariant expansion and the series feeding it."""

import math
from operator import mul

import pytest
from conftest import truncated

from modpoly import (
    IntSeries,
    IntegralityError,
    JTable,
    PrecisionError,
    delta_series,
    e4_series,
    euler_factor_series,
    j_coefficients,
    ord_p,
)
from modpoly import jfun

# c_0 .. c_6, frozen reference values
JCOEFFS = (744, 196884, 21493760, 864299970, 20245856256, 333202640600, 4252023300096)


def test_euler_factor_matches_direct_product():
    # independent route: multiply the (1 - q^n) factors one by one
    prec = 40
    direct = IntSeries.one(prec)
    for n in range(1, prec):
        factor = IntSeries(0, [1] + [0] * (n - 1) + [-1], precision=prec)
        direct = direct * factor
    assert euler_factor_series(prec) == direct


def test_delta_small_coefficients():
    d = delta_series(6)
    assert d.coefficient(1) == 1
    assert d.coefficient(2) == -24
    assert d.coefficient(3) == 252
    assert d.coefficient(4) == -1472


def delta_by_log_derivative(precision):
    """Delta = q * sum a_n q^n from the logarithmic derivative of prod (1 - q^n)^24:
    n a_n = -24 sum_{k=1..n} sigma_1(k) a_{n-k}, with every division checked."""
    sigma = [0] * precision
    for d in range(1, precision):
        for n in range(d, precision, d):
            sigma[n] += d
    a = [1]
    for n in range(1, precision - 1):
        quotient, remainder = divmod(-24 * sum(map(mul, sigma[1 : n + 1], reversed(a))), n)
        assert remainder == 0, n
        a.append(quotient)
    return IntSeries(1, a, precision)


@pytest.mark.parametrize("precision", [2, 3, 60, 1001])
def test_delta_matches_log_derivative_oracle(precision):
    assert delta_series(precision) == delta_by_log_derivative(precision)


def test_delta_leading_coefficient_is_unit():
    d = delta_series(10)
    assert d.base_exponent == 1
    assert d.coeffs[0] == 1


def test_e4_small_coefficients():
    e = e4_series(4)
    assert e.coefficient(0) == 1
    assert e.coefficient(1) == 240
    assert e.coefficient(2) == 2160  # 240 * (1 + 8)
    assert e.coefficient(3) == 6720  # 240 * (1 + 27)


def e8_by_sieve(precision):
    """E8 = 1 + 480 sum sigma_7(n) q^n, by a divisor sieve of its own."""
    coeffs = [1] + [0] * (precision - 1)
    for d in range(1, precision):
        for n in range(d, precision, d):
            coeffs[n] += 480 * d**7
    return IntSeries(0, coeffs, precision)


def test_e8_small_coefficients():
    e = e8_by_sieve(3)
    assert (e.coefficient(0), e.coefficient(1), e.coefficient(2)) == (1, 480, 480 * (1 + 2**7))


@pytest.mark.parametrize("precision", [1, 2, 50, 300])
def test_e8_is_e4_squared(precision):
    # the weight-8 forms are one-dimensional
    assert e4_series(precision) ** 2 == e8_by_sieve(precision)


def test_e4_cubed_is_e4_times_e8():
    # the dense product against the power kernel's E4^3
    e4 = e4_series(300)
    assert e4 ** 3 == e4 * e8_by_sieve(300)


# tau(1) .. tau(12)
TAU = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920, 534612, -370944)


def test_delta_pins_ramanujan_tau():
    d = delta_series(13)
    assert tuple(d.coefficient(n) for n in range(1, 13)) == TAU


@pytest.fixture(scope="module")
def tau_1000():
    d = delta_series(1001)
    return [None] + [d.coefficient(n) for n in range(1, 1001)]


def test_tau_is_multiplicative(tau_1000):
    tau = tau_1000
    for m in range(2, 32):  # m < n and m * n <= 1000
        for n in range(m + 1, 1000 // m + 1):
            if math.gcd(m, n) == 1:
                assert tau[m * n] == tau[m] * tau[n], (m, n)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_tau_at_prime_squares(tau_1000, p):
    assert tau_1000[p * p] == tau_1000[p] ** 2 - p**11


def test_e4_cubed_from_sigma11_and_tau_matches_power():
    cube = jfun._e4_cubed(delta_series(1001), 1001)
    assert tuple(cube) == (e4_series(1001) ** 3).coeffs


def test_e4_cubed_checks_the_691_division_against_wrong_tau(monkeypatch):
    # tau(7) one off breaks tau = sigma_11 (mod 691), and 691 is prime
    real = jfun.delta_series

    def corrupt(precision):
        d = real(precision)
        coeffs = list(d.coeffs)
        coeffs[6] += 1
        return IntSeries(d.base_exponent, coeffs, d.precision)

    monkeypatch.setattr(jfun, "delta_series", corrupt)
    with pytest.raises(IntegralityError, match=r"\[q\^7\] E4\^3 from sigma_11 and tau is not an integer"):
        j_coefficients(10)


def test_e4_cubed_checks_the_691_division_against_wrong_sigma11(monkeypatch):
    real = jfun._eisenstein_series

    def corrupt(precision, weight, factor):
        return real(precision, weight, factor + 1 if weight == 12 else factor)

    monkeypatch.setattr(jfun, "_eisenstein_series", corrupt)
    with pytest.raises(IntegralityError, match=r"\[q\^1\] E4\^3"):
        j_coefficients(10)


def test_j_coefficients_known_values():
    table = j_coefficients(7)
    assert table[-1] == 1
    for i, v in enumerate(JCOEFFS):
        assert table[i] == v


def test_j_satisfies_defining_quotient():
    # j * Delta = E4^3 exactly, coefficient by coefficient
    count = 20
    j = j_coefficients(count).series()
    lhs = j * delta_series(count + 2)
    rhs = e4_series(count + 1) ** 3
    prec = min(lhs.precision, rhs.precision)
    assert truncated(lhs, prec) == truncated(rhs, prec)


@pytest.mark.parametrize("count", [1, 2, 3, 60, 400, 1000])
def test_j_matches_series_quotient_oracle(count):
    # the independent route: E4^3 times the series inverse of Delta
    quotient = e4_series(count + 1) ** 3 * delta_series(count + 2).invert(count)
    assert j_coefficients(count).values == tuple(quotient.coefficient(i) for i in range(-1, count))


def test_prefix_stability():
    small = j_coefficients(5)
    large = j_coefficients(40)
    assert large.values[: len(small.values)] == small.values


def test_tail_divisibility_patterns():
    # classical congruences for the c_i: for index r with r odd and >= 3,
    # 2^11 divides c_{r-1}; for r = 1 mod 3 (r > 1), 3^5 divides c_{r-1};
    # for r = 2 mod 3, 3^3 divides c_{r-1}
    table = j_coefficients(60)
    for r in range(2, 60):
        c = table[r - 1]
        if r % 2 == 1 and r >= 3:
            assert ord_p(c, 2) >= 11, r
        if r % 3 == 1 and r > 1:
            assert ord_p(c, 3) >= 5, r
        if r % 3 == 2:
            assert ord_p(c, 3) >= 3, r


def test_table_validates_pinned_constants():
    with pytest.raises(ValueError):
        JTable((2, 744))
    with pytest.raises(ValueError):
        JTable((1, 745))
    with pytest.raises(ValueError):
        JTable((1, 744, 0))
    with pytest.raises(ValueError):
        JTable(())


def test_table_is_an_immutable_value():
    table, same = j_coefficients(20), j_coefficients(20)
    assert table is not same and table == same and hash(table) == hash(same)
    assert {table: 1}[same] == 1
    assert table != j_coefficients(21) and table != table.values
    changed = JTable(table.values[:-1] + (table.values[-1] + 1,))
    assert changed != table
    assert repr(JTable((1, 744))) == "JTable(values=(1, 744))"
    with pytest.raises(AttributeError, match="cannot assign to or delete field 'values'"):
        table.values = same.values
    with pytest.raises(AttributeError):
        table.extra = 1
    with pytest.raises(AttributeError, match="cannot assign to or delete field 'values'"):
        del table.values
    assert table == same


def test_table_index_bounds():
    table = j_coefficients(3)
    assert table.count == 3
    assert table[2] == JCOEFFS[2]
    with pytest.raises(IndexError):
        table[3]
    with pytest.raises(IndexError):
        table[-2]


def test_hat_series_shifts_expansion():
    table = j_coefficients(6)
    hat = table.hat_series(4)
    assert hat.coefficient(0) == 1
    assert hat.coefficient(1) == 744
    assert hat.coefficient(2) == JCOEFFS[1]
    assert hat.coefficient(3) == JCOEFFS[2]
    with pytest.raises(PrecisionError, match="need j coefficients c_0..c_6 but table stops at c_5"):
        table.hat_series(8)
    with pytest.raises(ValueError, match="precision must be at least 1"):
        table.hat_series(0)


def test_series_base_exponent():
    s = j_coefficients(4).series()
    assert s.base_exponent == -1
    assert s.coefficient(-1) == 1


def test_count_validation():
    with pytest.raises(ValueError):
        j_coefficients(0)
