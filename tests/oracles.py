"""Reference implementations of the paper's proof identities, for tests only.

The paper proves its closed formulas for a_{ell,ell-m} through Stirling
number and split-weight identities.  Nothing in modpoly computes with
them, so they live here, beside the tests that read them, rather than as
parallel paths through the library.  Tests import them with
``from oracles import ...``, as they import conftest.

- full_multinomial: test_comb's test_full_multinomial_* tests, and
  verify_d_recurrence below.
- stirling_first, stirling_second: test_comb's test_stirling_* tests and
  test_acceptance_8_proof_identities.
- primes_upto: test_comb's test_primes, the level sweeps of
  test_acceptance_3, 5 and 6, test_closedform's
  test_partition_row_matches_coeff_closed_at_the_crosscheck_levels and
  test_closed_row_matches_recurrence_on_full_rows, and test_congruence's
  test_check_row_records_match_naive_oracle and
  test_json_text_matches_json_dumps_on_every_row.
- d_weight: test_recurrence's test_d_weight_* tests, and
  verify_d_recurrence below.
- verify_d_recurrence: test_recurrence's test_verify_d_recurrence_*
  tests and test_acceptance_8_proof_identities.
"""

import math
from fractions import Fraction

from modpoly.comb import _require_prime


def full_multinomial(n: int, parts) -> int:
    """n! / prod(parts!) where parts sums to n exactly."""
    parts = tuple(parts)
    if n < 0 or any(p < 0 for p in parts):
        raise ValueError("arguments must be nonnegative")
    if sum(parts) != n:
        raise ValueError("parts %r must sum to n=%d" % (parts, n))
    out = 1
    rest = n
    for p in parts:
        out *= math.comb(rest, p)
        rest -= p
    return out


def stirling_first(n: int, k: int) -> int:
    """Signed Stirling number of the first kind: prod_{i<n} (x - i) = sum_k s(n,k) x^k."""
    if n < 0 or k < 0:
        raise ValueError("arguments must be nonnegative")
    if k > n:
        raise ValueError("need k <= n, got k=%d > n=%d" % (k, n))
    row = [1]
    for i in range(n):
        nxt = [0] * (i + 2)
        for j, v in enumerate(row):
            nxt[j + 1] += v
            nxt[j] -= i * v
        row = nxt
    return row[k]


def stirling_second(d: int, n: int) -> int:
    """Stirling number of the second kind S(d, n); zero when 0 <= d < n."""
    if d < 0 or n < 0:
        raise ValueError("arguments must be nonnegative")
    if n > d:
        return 0
    row = [1]
    for i in range(d):
        nxt = [0] * (i + 2)
        for j, v in enumerate(row):
            nxt[j] += j * v
            nxt[j + 1] += v
        row = nxt
    return row[n]


def primes_upto(n: int) -> list:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, alive in enumerate(sieve) if alive]


def d_weight(ell: int, r, t1, t_full):
    """Exact rational split weight d, a Fraction, for parts r at sub-multiplicities t1.

    r must be strictly increasing and positive, and t_full holds the full
    multiplicities the split was taken from, so 0 <= t1[i] <= t_full[i]
    and sum(t1 * r) <= ell.  For s = sum(t1) and W = sum(t1*r):

        d = (-1)^(s-1) * (1 / prod t1_i!) * ell * (ell-1-W+s)! / (ell-W)!

    The all-zero split evaluates to -1, consistent with reading the
    formula at s = 0.
    """
    r, t1, t_full = tuple(r), tuple(t1), tuple(t_full)
    if not len(r) == len(t1) == len(t_full):
        raise ValueError("r, t1 and t_full must have equal length")
    if any(ri < 1 for ri in r) or any(a >= b for a, b in zip(r, r[1:])):
        raise ValueError("parts must be positive and strictly increasing")
    if any(not 0 <= a <= b for a, b in zip(t1, t_full)):
        raise ValueError("split multiplicities must lie in [0, t_full]")
    s = sum(t1)
    W = sum(ri * ti for ri, ti in zip(r, t1))
    if W > ell:
        raise ValueError("sum(t1*r) must not exceed ell")
    den = 1
    for ti in t1:
        den *= math.factorial(ti)
    val = Fraction(ell * math.factorial(ell - 1 - W + s), den * math.factorial(ell - W))
    return val if s % 2 else -val


def verify_d_recurrence(ell: int, r, t) -> bool:
    """Check the sum rule tying a full split weight to all proper sub-splits.

    With n = ell - sum(t1*r) for each proper sub-split t1 of t, and
    t2 = t - t1, the rule is

        d(r; t) = - sum_{t1 proper} d(r; t1) * C(n; t2_1, ..., t2_lam, n - sum(t2)).

    Returns True when the identity holds exactly.
    """
    r = tuple(r)
    t = tuple(t)
    _require_prime(ell)
    if len(r) != len(t) or any(ti < 1 for ti in t):
        raise ValueError("t must give positive multiplicity for each part")
    lhs = d_weight(ell, r, t, t)
    rhs = 0
    splits = [()]
    for ti in t:
        splits = [prefix + (x,) for prefix in splits for x in range(ti + 1)]
    for t1 in splits:
        if t1 == t:
            continue
        n = ell - sum(ri * ai for ri, ai in zip(r, t1))
        t2 = tuple(ti - ai for ti, ai in zip(t, t1))
        parts = t2 + (n - sum(t2),)
        rhs -= d_weight(ell, r, t1, t) * full_multinomial(n, parts)
    return lhs == rhs
