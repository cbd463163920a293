"""The j-invariant expansion and the series feeding it."""

from operator import mul

import pytest
from conftest import truncated

from modpoly import (
    IntSeries,
    JTable,
    PrecisionError,
    delta_series,
    e4_series,
    euler_factor_series,
    j_coefficients,
    ord_p,
)
from modpoly.jfun import e8_series

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


def test_e8_small_coefficients():
    e = e8_series(3)
    assert (e.coefficient(0), e.coefficient(1), e.coefficient(2)) == (1, 480, 480 * (1 + 2**7))


@pytest.mark.parametrize("precision", [1, 2, 50, 300])
def test_e8_is_e4_squared(precision):
    # the weight-8 forms are one-dimensional
    assert e4_series(precision) ** 2 == e8_series(precision)


def test_e4_cubed_is_e4_times_e8():
    # the product j_coefficients takes, against the power kernel's E4^3
    e4 = e4_series(300)
    assert e4 ** 3 == e4 * e8_series(300)


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


@pytest.mark.parametrize("count", [1, 2, 3, 60, 400])
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
            assert ord_p(c, 2).at_least(11), r
        if r % 3 == 1 and r > 1:
            assert ord_p(c, 3).at_least(5), r
        if r % 3 == 2:
            assert ord_p(c, 3).at_least(3), r


def test_table_validates_pinned_constants():
    with pytest.raises(ValueError):
        JTable((2, 744))
    with pytest.raises(ValueError):
        JTable((1, 745))
    with pytest.raises(ValueError):
        JTable((1, 744, 0))
    with pytest.raises(ValueError):
        JTable(())


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
