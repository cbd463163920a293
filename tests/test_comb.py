"""Combinatorial kernels, each validated against an independent oracle."""

import math

import pytest
from hypothesis import given, strategies as st
from oracles import full_multinomial, primes_upto, stirling_first, stirling_second

from modpoly import (
    PartitionTerm,
    binomial,
    is_prime,
    partitions,
)

# --- oracles -----------------------------------------------------------


def partition_count_oracle(m):
    # p(n, k) = number of partitions of n into parts <= k, straight DP
    table = [[0] * (m + 1) for _ in range(m + 1)]
    for k in range(m + 1):
        table[0][k] = 1
    for n in range(1, m + 1):
        for k in range(1, m + 1):
            table[n][k] = table[n][k - 1] + (table[n - k][k] if n >= k else 0)
    return table[m][m]


def pascal_oracle(n, k):
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k] if k < len(row) else 0


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def falling_factorial_coeffs(n):
    # coefficients of x (x-1) ... (x-n+1), index = power of x
    poly = [1]
    for i in range(n):
        poly = poly_mul(poly, [-i, 1])
    return poly


# --- partitions --------------------------------------------------------


def test_single_part_partition():
    assert list(partitions(1)) == [PartitionTerm((1,), (1,))]


def test_partitions_of_four_exact_order():
    assert list(partitions(4)) == [
        PartitionTerm((4,), (1,)),
        PartitionTerm((1, 3), (1, 1)),
        PartitionTerm((2,), (2,)),
        PartitionTerm((1, 2), (2, 1)),
        PartitionTerm((1,), (4,)),
    ]


def descending_partitions_oracle(m, largest):
    # every partition of m into parts <= largest, parts descending,
    # larger first parts first (reverse lexicographic order)
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest), 0, -1):
        for rest in descending_partitions_oracle(m - first, first):
            yield (first,) + rest


def multiplicity_form(parts):
    r = sorted(set(parts))
    return PartitionTerm(tuple(r), tuple(parts.count(p) for p in r))


def test_partitions_match_recursive_oracle():
    for m in range(1, 26):
        want = [multiplicity_form(parts) for parts in descending_partitions_oracle(m, m)]
        assert list(partitions(m)) == want, m


def test_partition_counts_frozen():
    expected = [1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176,
                231, 297, 385, 490, 627]
    got = [sum(1 for _ in partitions(m)) for m in range(1, 21)]
    assert got == expected


@pytest.mark.parametrize("m", [1, 7, 18, 25, 33, 40])
def test_partition_counts_against_dp_oracle(m):
    assert sum(1 for _ in partitions(m)) == partition_count_oracle(m)


def test_partition_term_invariants():
    for m in (1, 5, 12):
        seen = set()
        for term in partitions(m):
            assert term.weight() == m
            assert all(t >= 1 for t in term.t)
            assert all(a < b for a, b in zip(term.r, term.r[1:]))
            assert term.u() == sum(term.t) - 1
            assert term not in seen
            seen.add(term)


def test_partitions_rejects_nonpositive():
    with pytest.raises(ValueError):
        next(partitions(0))


# --- binomial / multinomial --------------------------------------------


def test_binomial_basics():
    assert binomial(5, 2) == 10
    assert binomial(3, 7) == 0
    assert binomial(0, 0) == 1


def test_binomial_against_pascal_oracle():
    assert binomial(40, 20) == pascal_oracle(40, 20) == 137846528820


def test_binomial_negative_rejected():
    with pytest.raises(ValueError):
        binomial(-1, 2)
    with pytest.raises(ValueError):
        binomial(3, -1)


def test_full_multinomial_factorial_ratio():
    assert full_multinomial(10, (3, 3, 4)) == 4200
    assert full_multinomial(10, (3, 3, 4)) == math.factorial(10) // (
        math.factorial(3) ** 2 * math.factorial(4)
    )
    assert full_multinomial(0, ()) == 1


def test_full_multinomial_validates_sum():
    with pytest.raises(ValueError):
        full_multinomial(9, (3, 3, 4))
    with pytest.raises(ValueError):
        full_multinomial(4, (5, -1))


@given(st.lists(st.integers(0, 6), min_size=1, max_size=4))
def test_full_multinomial_times_part_factorials(parts):
    n = sum(parts)
    value = full_multinomial(n, parts)
    for p in parts:
        value *= math.factorial(p)
    assert value == math.factorial(n)


# --- Stirling numbers ---------------------------------------------------


def test_stirling_first_small():
    assert stirling_first(0, 0) == 1
    assert stirling_first(3, 3) == 1
    assert stirling_first(3, 1) == 2
    assert stirling_first(3, 2) == -3
    assert stirling_first(6, 3) == -225


def test_stirling_first_against_expansion_oracle():
    for n in range(13):
        coeffs = falling_factorial_coeffs(n)
        for k in range(n + 1):
            assert stirling_first(n, k) == coeffs[k], (n, k)


def test_stirling_first_bounds():
    with pytest.raises(ValueError):
        stirling_first(3, 4)
    with pytest.raises(ValueError):
        stirling_first(-1, 0)


def test_stirling_second_small():
    assert stirling_second(0, 0) == 1
    assert stirling_second(4, 2) == 7
    assert stirling_second(3, 5) == 0
    assert stirling_second(5, 1) == 1


def test_stirling_second_vanishes_below_diagonal():
    for n in range(1, 8):
        for d in range(n):
            assert stirling_second(d, n) == 0


def test_stirling_second_summation_identities():
    # sum_i (-1)^i C(n,i) (n-i)^d = n! S(d,n) and the i^d mirror form
    for n in range(11):
        for d in range(11):
            lhs = sum((-1) ** i * binomial(n, i) * (n - i) ** d for i in range(n + 1))
            assert lhs == math.factorial(n) * stirling_second(d, n), (n, d)
            mirror = sum((-1) ** i * binomial(n, i) * i ** d for i in range(n + 1))
            assert mirror == (-1) ** n * math.factorial(n) * stirling_second(d, n), (n, d)


# --- primes -------------------------------------------------------------


def test_primes():
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert [p for p in range(60) if is_prime(p)] == primes_upto(59)
    assert not is_prime(1)
    assert is_prime(97)
    assert not is_prime(91)
