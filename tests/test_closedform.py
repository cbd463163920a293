"""Closed partition-sum coefficients, checked against published level-5 values."""

import math
import re

import pytest
from conftest import PHI2_KNOWN, PHI5_FACTORED
from hypothesis import given, settings, strategies as st

from modpoly import (
    CoeffRequest,
    IntegralityError,
    JTable,
    PartitionTerm,
    PrecisionError,
    binomial,
    closed_row,
    coeff_closed,
    coeff_small_m,
    hypergeometric_row,
    j_coefficients,
    partition_row,
    partitions,
    primes_upto,
    recurrence_row,
    solve_full_polynomial,
    term_weight,
)
from modpoly import closedform

J = j_coefficients(16)


# --- CoeffRequest domain -------------------------------------------------


def test_request_accepts_valid():
    req = CoeffRequest(5, 3)
    assert (req.ell, req.m) == (5, 3)
    CoeffRequest(3, 3)
    CoeffRequest(97, 0)
    CoeffRequest(2, 2)


def test_request_is_an_immutable_value():
    req = CoeffRequest(5, 3)
    assert req == CoeffRequest(5, 3) and hash(req) == hash(CoeffRequest(5, 3))
    assert req != CoeffRequest(5, 2) and req != CoeffRequest(7, 3)
    assert len({req, CoeffRequest(5, 3), CoeffRequest(7, 3)}) == 2
    assert repr(req) == "CoeffRequest(ell=5, m=3)"
    with pytest.raises(AttributeError):
        req.m = 4
    with pytest.raises(AttributeError):
        req.extra = 1
    # a copy with a field changed is validated like a new request
    assert req._replace(m=5) == CoeffRequest(5, 5)
    with pytest.raises(ValueError, match="^m must lie in"):
        req._replace(m=6)
    with pytest.raises(ValueError, match="^ell must be prime"):
        req._replace(ell=9)


@pytest.mark.parametrize("ell", [4, 9, 1, 0, -5])
def test_request_rejects_bad_level(ell):
    with pytest.raises(ValueError):
        CoeffRequest(ell, 1)


@pytest.mark.parametrize("m", [-1, 6, 100])
def test_request_rejects_bad_m(m):
    with pytest.raises(ValueError):
        CoeffRequest(5, m)


# Every top-row route, called as route(ell, m_max) on J where it reads a j table.
ROW_ROUTES = {
    "closed_row": lambda ell, m_max=None: closed_row(ell, J, m_max),
    "partition_row": lambda ell, m_max=None: partition_row(ell, J, m_max),
    "hypergeometric_row": hypergeometric_row,
    "recurrence_row": lambda ell, m_max=None: recurrence_row(ell, J, m_max),
}


@pytest.mark.parametrize("route", sorted(ROW_ROUTES))
def test_every_row_route_validates_the_same_request(route):
    row = ROW_ROUTES[route]
    for args, message in [
        ((9,), "ell must be prime, got 9"),
        ((9, 3), "ell must be prime, got 9"),
        ((13, -1), "m must lie in [0, ell], got m=-1 for ell=13"),
        ((13, 14), "m must lie in [0, ell], got m=14 for ell=13"),
    ]:
        with pytest.raises(ValueError) as info:
            row(*args)
        assert str(info.value) == message, args
    assert row(13) == row(13, 13) == hypergeometric_row(13)
    assert row(13, 5) == hypergeometric_row(13)[:6]


# --- term_weight ---------------------------------------------------------


def test_term_weight_single_part_is_ell():
    assert term_weight(5, 1, PartitionTerm((1,), (1,))) == 5
    assert term_weight(97, 1, PartitionTerm((1,), (1,))) == 97


def test_term_weight_two_equal_parts():
    # u=1: -(1/2) * 5 * C(4,1) = -10
    assert term_weight(5, 2, PartitionTerm((1,), (2,))) == -10


def test_term_weight_rational_cancellation():
    # u=2: +(2!/3!) * 7 * C(3,2) = 7, integral only after cancellation
    assert term_weight(7, 6, PartitionTerm((2,), (3,))) == 7


def test_term_weight_pure_smallest_part_pattern():
    # the all-ones partition of m carries weight (-1)^{m-1} C(ell, m)
    for ell in (11, 13):
        for m in range(1, 8):
            w = term_weight(ell, m, PartitionTerm((1,), (m,)))
            assert w == (-1) ** (m - 1) * binomial(ell, m)


def test_term_weight_validates_weight():
    with pytest.raises(ValueError):
        term_weight(5, 3, PartitionTerm((1,), (2,)))


def test_term_weight_validates_m_bound():
    with pytest.raises(ValueError):
        term_weight(5, 6, PartitionTerm((1, 2), (2, 2)))


@settings(deadline=None)
@given(
    ell=st.sampled_from([13, 17, 19, 23, 29, 31]),
    m=st.integers(min_value=1, max_value=12),
)
def test_term_weight_always_integral(ell, m):
    # term_weight raises IntegralityError internally if the exact rational
    # fails to reduce; sweeping partitions exercises that assertion
    for term in partitions(m):
        term_weight(ell, m, term)


def test_term_weight_checks_exact_division(monkeypatch):
    # with C(ell-m+u, u) one too large, (2^3) at ell=7 weighs 2! * 7 * 4 / 3!,
    # and the first term of coeff_closed's sum to fail is (3^2): 1! * 7 * 3 / 2!
    real = closedform.binomial
    monkeypatch.setattr(closedform, "binomial", lambda n, k: real(n, k) + 1)
    term = PartitionTerm((2,), (3,))
    with pytest.raises(IntegralityError, match=re.escape("ell=7, m=6, term=%r" % (term,))):
        term_weight(7, 6, term)
    first_to_fail = PartitionTerm((3,), (2,))
    with pytest.raises(IntegralityError, match=re.escape("ell=7, m=6, term=%r" % (first_to_fail,))):
        coeff_closed(CoeffRequest(7, 6), J)


def first_term_weight_error(ell, m):
    """The message of the first term_weight over partitions(m) to raise, or None."""
    for term in partitions(m):
        try:
            term_weight(ell, m, term)
        except IntegralityError as exc:
            return str(exc)
    return None


def test_coeff_closed_fails_on_the_first_term_weight_to_fail(monkeypatch):
    # a bad weight must raise, naming the first bad term of partitions(m),
    # the walk's own order, exactly as term_weight does
    real = closedform.binomial
    monkeypatch.setattr(closedform, "binomial", lambda n, k: real(n, k) + 1)
    for m in range(2, 13):
        want = first_term_weight_error(13, m)
        assert want is not None, m
        with pytest.raises(IntegralityError) as info:
            coeff_closed(CoeffRequest(13, m), J)
        assert str(info.value) == want, m


def test_coeff_closed_walks_in_partitions_order(monkeypatch):
    # with numerator v for u in us and 0 otherwise, the first term to fail is
    # the first in partitions(m) with u in us and prod t_i! not dividing v;
    # over these choices the walk must raise exactly when some term fails
    for m in range(2, 15):
        for us in [range(m)] + [(u,) for u in range(1, m)]:
            for v in (1, 2, 6):
                monkeypatch.setattr(closedform, "_weight_numerator", lambda ell, m, u: v if u in us else 0)
                want = first_term_weight_error(97, m)
                if want is None:
                    coeff_closed(CoeffRequest(97, m), J)
                    continue
                with pytest.raises(IntegralityError) as info:
                    coeff_closed(CoeffRequest(97, m), J)
                assert str(info.value) == want, (m, us, v)


def test_coeff_closed_raises_when_no_term_is_named(monkeypatch):
    # the walk's own remainder raises even if the naming pass over
    # partitions(m) finds no term to blame
    real = closedform.binomial
    monkeypatch.setattr(closedform, "binomial", lambda n, k: real(n, k) + 1)
    monkeypatch.setattr(closedform, "partitions", lambda m: iter(()))
    with pytest.raises(IntegralityError, match=re.escape("a term weight for ell=7, m=6 is not an integer")):
        coeff_closed(CoeffRequest(7, 6), J)


def test_integrality_error_is_arithmetic_error():
    assert issubclass(IntegralityError, ArithmeticError)


# --- coeff_closed --------------------------------------------------------


def test_coeff_closed_m_zero():
    assert coeff_closed(CoeffRequest(5, 0), J) == -1


def test_coeff_closed_matches_level_five_table():
    for m in range(6):
        assert coeff_closed(CoeffRequest(5, m), J) == PHI5_FACTORED[(5 - m, 5)], m


def test_coeff_closed_first_values():
    assert coeff_closed(CoeffRequest(5, 1), J) == 3720
    assert coeff_closed(CoeffRequest(5, 2), J) == -4550940
    assert coeff_closed(CoeffRequest(5, 3), J) == 2028551200


def test_coeff_closed_needs_enough_coefficients():
    short = j_coefficients(2)
    with pytest.raises(ValueError):
        coeff_closed(CoeffRequest(5, 3), short)
    # m coefficients are exactly enough
    assert coeff_closed(CoeffRequest(5, 2), j_coefficients(2)) == -4550940


def partition_sum(ell, m, j):
    """The term-by-term oracle: sum of term_weight * prod c_{r-1}^t over partitions(m)."""
    c = j.values
    total = sum(
        term_weight(ell, m, term) * math.prod(map(pow, map(c.__getitem__, term.r), term.t))
        for term in partitions(m)
    )
    return total - (ell + 1) * c[1] if m == ell else total


# c_-1, c_0 and c_1 are pinned by JTable; the rest may be anything, 0 and negatives included
ARBITRARY_J = st.lists(st.integers(), min_size=16, max_size=16).map(
    lambda rest: JTable((1, 744, 196884) + tuple(rest))
)


@settings(deadline=None)
@given(ell=st.sampled_from([2, 3, 5, 7, 13, 17, 31, 97, 199]), j=ARBITRARY_J, data=st.data())
def test_coeff_closed_is_the_partition_sum_on_any_table(ell, j, data):
    m = data.draw(st.integers(min_value=1, max_value=min(ell, 18)), label="m")
    assert coeff_closed(CoeffRequest(ell, m), j) == partition_sum(ell, m, j)


@settings(deadline=None)
@given(ell=st.sampled_from([2, 3, 5, 7, 11, 13]), j=ARBITRARY_J)
def test_coeff_closed_at_m_equal_ell_on_any_table(ell, j):
    assert coeff_closed(CoeffRequest(ell, ell), j) == partition_sum(ell, ell, j)


# --- partition_row -------------------------------------------------------


@settings(deadline=None)
@given(ell=st.sampled_from([2, 3, 5, 7, 13, 17, 31, 97, 199]), j=ARBITRARY_J, data=st.data())
def test_partition_row_is_the_partition_sum_on_any_table(ell, j, data):
    m_max = data.draw(st.integers(min_value=0, max_value=min(ell, 18)), label="m_max")
    want = [-1] + [partition_sum(ell, m, j) for m in range(1, m_max + 1)]
    assert partition_row(ell, j, m_max) == want


@settings(deadline=None)
@given(ell=st.sampled_from([2, 3, 5, 7, 11, 13]), j=ARBITRARY_J)
def test_partition_row_on_full_rows_on_any_table(ell, j):
    # m = ell carries the extra -(ell+1) * c_0
    assert partition_row(ell, j) == [-1] + [partition_sum(ell, m, j) for m in range(1, ell + 1)]


def test_partition_row_at_m_max_zero():
    assert partition_row(5, J, 0) == [-1]
    assert partition_row(2, JTable((1, 744)), 0) == [-1]


def test_partition_row_matches_coeff_closed_at_the_crosscheck_levels():
    # every level crosscheck-sweep runs, at crosscheck's bound m <= 20
    j = j_coefficients(20)
    levels = [ell for ell in primes_upto(97) if ell >= 17]
    assert len(levels) == 19
    for ell in levels:
        m_max = min(ell, 20)
        want = [coeff_closed(CoeffRequest(ell, m), j) for m in range(m_max + 1)]
        assert partition_row(ell, j, m_max) == want, ell


def test_partition_row_validates_its_request():
    with pytest.raises(PrecisionError):
        partition_row(5, j_coefficients(2), 3)
    assert partition_row(5, j_coefficients(2), 2) == [-1, 3720, -4550940]


def per_m_error(ell, m_max):
    """The message [coeff_closed(CoeffRequest(ell, m), J) for m <= m_max] raises, or None."""
    try:
        [coeff_closed(CoeffRequest(ell, m), J) for m in range(m_max + 1)]
    except IntegralityError as exc:
        return str(exc)
    return None


def test_partition_row_fails_on_the_first_term_weight_to_fail(monkeypatch):
    # every m from 2 on fails: the row names m = 2's first bad term for every m_max
    real = closedform.binomial
    monkeypatch.setattr(closedform, "binomial", lambda n, k: real(n, k) + 1)
    for m_max in range(2, 14):
        want = per_m_error(13, m_max)
        assert want == first_term_weight_error(13, 2), m_max
        with pytest.raises(IntegralityError) as info:
            partition_row(13, J, m_max)
        assert str(info.value) == want, m_max


def test_partition_row_fails_at_the_smallest_failing_m(monkeypatch):
    # the walk may meet a larger m's remainder first; the row must still
    # raise what the per-m list raises, at its smallest failing m
    for m_max in range(2, 15):
        for us in [range(m_max)] + [(u,) for u in range(1, m_max)]:
            for v in (1, 2, 6):
                monkeypatch.setattr(closedform, "_weight_numerator", lambda ell, m, u: v if u in us else 0)
                want = per_m_error(97, m_max)
                if want is None:
                    partition_row(97, J, m_max)
                    continue
                with pytest.raises(IntegralityError) as info:
                    partition_row(97, J, m_max)
                assert str(info.value) == want, (m_max, us, v)


def test_partition_row_raises_when_no_term_is_named(monkeypatch):
    # with no term to blame, the row raises the smallest failing m's own error
    real = closedform.binomial
    monkeypatch.setattr(closedform, "binomial", lambda n, k: real(n, k) + 1)
    monkeypatch.setattr(closedform, "partitions", lambda m: iter(()))
    want = per_m_error(7, 6)
    assert want.startswith("integrality violation: a term weight for ell=7, m=2 is not an integer")
    with pytest.raises(IntegralityError) as info:
        partition_row(7, J, 6)
    assert str(info.value) == want


# --- closed_row ----------------------------------------------------------


def test_closed_row_shape_and_prefix():
    row = closed_row(5, J)
    assert len(row) == 6
    assert row[0] == -1
    assert row == [coeff_closed(CoeffRequest(5, m), J) for m in range(6)]
    assert closed_row(5, J, m_max=2) == row[:3]
    with pytest.raises(ValueError):
        closed_row(5, j_coefficients(2), m_max=3)
    with pytest.raises(ValueError):
        closed_row(5, J, m_max=6)


@pytest.mark.parametrize("ell", [31, 37, 97])
def test_closed_row_matches_term_by_term_sum(ell):
    j = j_coefficients(30)
    assert closed_row(ell, j, m_max=30) == [
        coeff_closed(CoeffRequest(ell, m), j) for m in range(31)
    ]


def test_term_by_term_sum_matches_hypergeometric_row_at_199():
    # a level the library-session benchmark asks about, past crosscheck-sweep's ell <= 97
    j = j_coefficients(25)
    want = hypergeometric_row(199, 25)
    assert [coeff_closed(CoeffRequest(199, m), j) for m in range(26)] == want


def test_closed_row_matches_recurrence_on_full_rows():
    j = j_coefficients(199)
    for ell in primes_upto(97) + [199]:
        assert closed_row(ell, j) == recurrence_row(ell, j), ell


def test_closed_row_checks_exact_division(monkeypatch):
    # with every binomial forced to 1, the m=5, k=5 term at ell=7 is
    # 7 * c_0^5 / 5, which is not an integer
    monkeypatch.setattr(closedform, "binomial", lambda n, k: 1)
    with pytest.raises(IntegralityError, match="m=5, k=5"):
        closed_row(7, J, m_max=5)


def test_level_two_top_row_from_every_route():
    # the top-row formulas hold for every prime level, 2 included
    want = [PHI2_KNOWN[(2, 2 - m)] for m in range(3)]
    assert want == [-1, 1488, -162000]
    assert closed_row(2, J) == want
    assert recurrence_row(2, J) == want
    assert [coeff_closed(CoeffRequest(2, m), J) for m in range(3)] == want
    assert coeff_small_m(CoeffRequest(2, 1), J) == want[1]
    assert solve_full_polynomial(2, j_coefficients(8)).top_row() == want
    assert hypergeometric_row(2) == want


# --- hypergeometric_row --------------------------------------------------


def test_hypergeometric_row_matches_closed_row():
    j = j_coefficients(199)
    for ell in (2, 3, 5, 7, 31, 97, 199):
        assert hypergeometric_row(ell) == closed_row(ell, j), ell
        m_max = min(ell, 30)
        assert hypergeometric_row(ell, m_max) == closed_row(ell, j, m_max), ell


def test_hypergeometric_row_checks_exact_division(monkeypatch):
    # one more in every ratio's numerator makes B_1 = 121, and then
    # B_2 = 121 * (24 * 7 * 11 * 3 + 1) / 8 leaves a remainder
    real = closedform._b_ratio
    monkeypatch.setattr(closedform, "_b_ratio", lambda k: (real(k)[0] + 1, real(k)[1]))
    with pytest.raises(IntegralityError, match=re.escape("B_2 of 3F2")):
        hypergeometric_row(7)


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13])
def test_top_row_from_negative_powers_of_jhat(ell):
    # Oracle: a_{ell,ell-m} = -(ell/(ell-m)) [q^m] jhat^-(ell-m) for 0 < m < ell,
    # the grouped closed form summed over k with the binomial series.
    inverse = j_coefficients(ell + 1).hat_series(ell + 1).invert(ell + 1)
    want = []
    for m in range(1, ell):
        value, rem = divmod(-ell * (inverse ** (ell - m)).coefficient(m), ell - m)
        assert rem == 0, m
        want.append(value)
    assert hypergeometric_row(ell)[1:ell] == want


# --- coeff_small_m -------------------------------------------------------


def test_small_m_first_coefficient():
    assert coeff_small_m(CoeffRequest(11, 1), J) == 11 * 744 == 8184


def test_small_m_level_five():
    assert coeff_small_m(CoeffRequest(5, 2), J) == -4550940


@pytest.mark.parametrize("ell", [11, 13])
def test_small_m_agrees_with_partition_sum(ell):
    for m in range(1, 8):
        req = CoeffRequest(ell, m)
        assert coeff_small_m(req, J) == coeff_closed(req, J), (ell, m)


@settings(deadline=None)
@given(ell=st.sampled_from([11, 13, 17, 31]), j=ARBITRARY_J)
def test_small_m_agrees_with_coeff_closed_on_any_table(ell, j):
    for m in range(1, 8):
        req = CoeffRequest(ell, m)
        assert coeff_small_m(req, j) == coeff_closed(req, j), m


def test_small_m_domain_errors():
    with pytest.raises(ValueError):
        coeff_small_m(CoeffRequest(11, 8), J)
    with pytest.raises(ValueError):
        coeff_small_m(CoeffRequest(5, 5), J)
    with pytest.raises(ValueError):
        coeff_small_m(CoeffRequest(7, 0), J)
