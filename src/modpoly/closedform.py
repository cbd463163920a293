"""Closed partition-sum formulas for modular polynomial coefficients.

For a prime ell, write the classical modular polynomial of level ell as

    Phi_ell(X, Y) = X^{ell+1} + Y^{ell+1} + sum_{0<=m,n<=ell} a_{m,n} X^m Y^n

with a_{m,n} = a_{n,m} and a_{ell,ell} = -1.  The coefficients along the
top row are explicit integer linear combinations of monomials in the
j-invariant coefficients c_i: for 0 < m < ell,

    a_{ell,ell-m} = sum over partitions (r_1^{t_1} ... r_lam^{t_lam}) of m
        of  (-1)^u * (u! / prod t_i!) * ell * C(ell-m+u, u)
            * prod c_{r_i - 1}^{t_i},          u = sum t_i - 1,

and for m = ell the same sum applies with the binomial factor equal to 1,
plus an extra -(ell+1) * c_0.  Each term's rational weight is provably an
integer; term_weight computes it for one term.  A partition of m is a
multiset of parts >= 2 with sum s <= m plus m - s ones, so partition_row
reaches every term of every m <= M in one walk over those multisets, p(M)
nodes, and coeff_closed is the same walk at one m.  Each term costs one
division and two products.  A remainder raises IntegralityError (qseries'
one checked division): a non-integer weight means the inputs are outside
the valid domain or the arithmetic is wrong.

The sum has p(m) terms.  Grouping it by the number of parts k = u + 1
makes it polynomial in m: u!/prod t_i! = (1/k) * k!/prod t_i!, and the
sum over partitions of m into k parts of (k!/prod t_i!) * prod c_{r_i-1}^{t_i}
is [q^m] J^k with J = sum_{r>=1} c_{r-1} q^r.  Hence

    a_{ell,ell-m} = sum_{k=1..m} (-1)^{k-1} * ell * C(ell-m+k-1, k-1)
                        * [q^m] J^k / k

(minus (ell+1) * c_0 at m = ell).  Each grouped term is a sum of integer
partition terms, so the division by k is exact; closed_row checks it on
every term and raises IntegralityError otherwise.

closed_row evaluates the grouped form.  partition_row and coeff_closed, with
no series code at all, are the oracles tests and crosscheck compare it against.

hypergeometric_row reaches the same row with no j table, and is the row
the CLI serves.  Summing the grouped form over k gives, for 0 < m < ell,
a_{ell,ell-m} = -(ell/(ell-m)) [q^m] jhat^-(ell-m) with jhat = q*j, and
Lagrange inversion turns that into

    a_{ell,ell-m} = -[t^m] (t/q)^ell          (minus 744 (ell+1) at m = ell)

with t = 1/j and q written as a series in t.  Ramanujan's
q dj/dq = -j E6/E4 gives t q'(t)/q = r := E4/E6, and since E4 = F(1728t)^4
and E6 = E4^(3/2) (1-1728t)^(1/2) with F = 2F1(1/12, 5/12; 1; .) (Stiller,
"Classical automorphic forms and hypergeometric functions", J. Number
Theory 28, 1988), r * F(1728t)^2 = (1 - 1728t)^(-1/2).  By Clausen's
formula F(1728t)^2 = 3F2(1/6, 1/2, 5/6; 1, 1; 1728t) = sum B_k t^k with
the integers B_k = (6k)! / ((3k)! k!^3), so each r_d = C(2d,d) 432^d -
sum_{k=1..d} B_k r_{d-k} is an integer.  y = (t/q)^ell then satisfies
t y' = -ell (r - 1) y, that is y_0 = 1 and m y_m = -ell sum_{k=1..m} r_k y_{m-k}.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .comb import PartitionTerm, _require_prime, binomial, partitions
from .jfun import JTable
from .qseries import _exact_quotient

__all__ = ["CoeffRequest", "closed_row", "coeff_closed", "coeff_small_m", "hypergeometric_row",
           "partition_row", "term_weight"]


class CoeffRequest(NamedTuple("CoeffRequest", [("ell", int), ("m", int)])):
    """A validated (ell, m) pair addressing the coefficient a_{ell, ell-m}."""

    __slots__ = ()

    def __new__(cls, ell: int, m: int):
        _require_prime(ell)
        if not 0 <= m <= ell:
            raise ValueError("m must lie in [0, ell], got m=%r for ell=%d" % (m, ell))
        return super().__new__(cls, ell, m)

    _make = classmethod(lambda cls, iterable: cls(*iterable))  # so _replace validates too


def _row_bound(ell: int, m_max: int | None) -> int:
    """A row route's m_max, ell when None, validated with ell as a CoeffRequest."""
    return CoeffRequest(ell, ell if m_max is None else m_max).m


def _weight_numerator(ell: int, m: int, u: int) -> int:
    """u! * ell * C(ell-m+u, u): a term's weight times prod t_i!, up to the sign (-1)^u."""
    return math.factorial(u) * ell * binomial(ell - m + u, u)


def term_weight(ell: int, m: int, term: PartitionTerm) -> int:
    """Integer weight of one partition term in the a_{ell,ell-m} sum.

    Value: (-1)^u * (u! / prod t_i!) * ell * C(ell-m+u, u) where u is one
    less than the number of parts.  Checked on every call: the partition
    must have weight m, m must not exceed ell, and u! * ell * C(ell-m+u, u)
    must divide exactly by prod t_i!.
    """
    if term.weight() != m:
        raise ValueError("partition %r has weight %d, expected m=%d" % (term, term.weight(), m))
    if m > ell:
        raise ValueError("m=%d exceeds ell=%d" % (m, ell))
    value = _exact_quotient(_weight_numerator(ell, m, term.u()),
                            math.prod(map(math.factorial, term.t)),
                            "weight for ell=%d, m=%d, term=%r", ell, m, term)
    return -value if term.u() % 2 else value


def coeff_closed(req: CoeffRequest, j: JTable) -> int:
    """a_{ell, ell-m} by the partition sum, term by term: partition_row's walk at one m."""
    return _partition_sums(req.ell, j, req.m, req.m)[req.m] if req.m else -1


def partition_row(ell: int, j: JTable, m_max: int | None = None) -> list:
    """[a_{ell,ell-m} for m = 0..m_max] by the partition sum, every m in one walk.

    Same values, and on a remainder the same IntegralityError, as
    [coeff_closed(CoeffRequest(ell, m), j) for m in 0..m_max].
    """
    return _partition_sums(ell, j, 1, _row_bound(ell, m_max))


def _partition_sums(ell: int, j: JTable, lo: int, hi: int) -> list:
    """[-1, then a_{ell,ell-m} for lo <= m <= hi, 0 between], for 1 <= lo.

    The walk visits the multisets of parts >= 2 with sum s <= hi in the
    order of partitions, which is this walk one term at a time, carrying
    rest = hi - s, their count, prod c_{r-1}^t and prod t! down each branch.
    A node's term for m >= s in [lo, hi] has m - s ones: one divmod of
    (-1)^u u! ell C(ell-m+u, u) by prod t! (m-s)!, two products.
    A remainder at m raises what the per-m walks would: the m below it are
    walked one by one, then partitions(m) names its first term to fail.
    """
    j.require(hi)
    c = j.values  # c[i] holds c_{i-1}, so c_{r-1} is c[r]
    numerators = [[(-1) ** u * _weight_numerator(ell, m, u) for u in range(m)] if m >= lo else None
                  for m in range(hi + 1)]
    factorials = [math.factorial(t) for t in range(hi + 1)]
    ones = [c[1] ** t for t in range(hi + 1)]
    total = [-1] + [0] * hi
    top_numerators = numerators[hi]

    def fail(m, numerator, den):
        for smaller in range(lo, m):
            _partition_sums(ell, j, smaller, smaller)
        for term in partitions(m):
            term_weight(ell, m, term)
        _exact_quotient(numerator, den, "a term weight for ell=%d, m=%d", ell, m)

    def walk(rest, top, count, monomial, den):
        for r in range(min(top, rest), 1, -1):
            for t in range(rest // r, 0, -1):
                walk(rest - t * r, r - 1, count + t, monomial * c[r] ** t, den * factorials[t])
        if lo == hi:  # the loop below at its one m, kept apart for speed
            weight, rem = divmod(top_numerators[count + rest - 1], den * factorials[rest])
            if rem:
                fail(hi, top_numerators[count + rest - 1], den * factorials[rest])
            total[hi] += weight * monomial * ones[rest]
            return
        s = hi - rest
        for m in range(max(s, lo), hi + 1):
            k = m - s
            weight, rem = divmod(numerators[m][count + k - 1], den * factorials[k])
            if rem:
                fail(m, numerators[m][count + k - 1], den * factorials[k])
            total[m] += weight * monomial * ones[k]

    walk(hi, hi, 0, 1, 1)
    if lo <= ell <= hi:
        total[ell] -= (ell + 1) * c[1]
    return total


def closed_row(ell: int, j: JTable, m_max: int | None = None) -> list:
    """[a_{ell,ell-m} for m = 0..m_max] via the partition sum grouped by parts.

    Uses a_{ell,ell-m} = sum_k (-1)^{k-1} (ell/k) C(ell-m+k-1, k-1) [q^m] J^k
    with J = sum_{r>=1} c_{r-1} q^r (see the module docstring), building
    J, J^2, ..., J^{m_max} in one pass, each truncated above q^{m_max}.
    The powers of J use a list convolution, not qseries, so a fault in
    the power kernel, which closes each power of recurrence_row's chain
    and raises its u to ell, cannot reach both this row and recurrence_row;
    both read one j table, checked by JTable's pinned c_0, c_1 and the j
    oracle tests.  Every grouped term must divide exactly by k, checked
    by _exact_quotient; a remainder raises IntegralityError.  Same values as
    [coeff_closed(CoeffRequest(ell, m), j) for m in 0..m_max].
    """
    m_max = _row_bound(ell, m_max)
    j.require(m_max)
    J = [0] + list(j.values[1 : m_max + 1])  # J[r] = c_{r-1}
    row = [-1] + [0] * m_max
    power = J  # J^k, zero below q^k
    for k in range(1, m_max + 1):
        if k > 1:
            power = [0] * k + [
                sum(map(operator.mul, J[1 : d - k + 2], reversed(power[k - 1 : d])))
                for d in range(k, m_max + 1)
            ]
        for m in range(k, m_max + 1):
            term = _exact_quotient(ell * binomial(ell - m + k - 1, k - 1) * power[m], k,
                                   "grouped term for ell=%d, m=%d, k=%d", ell, m, k)
            row[m] += term if k % 2 else -term
    if m_max == ell:
        row[ell] -= (ell + 1) * J[1]
    return row


def _b_ratio(k: int) -> tuple:
    """(numerator, denominator) of B_k / B_{k-1}, where B_k = (6k)! / ((3k)! k!^3)."""
    return 24 * (6 * k - 5) * (6 * k - 1) * (2 * k - 1), k ** 3


def hypergeometric_row(ell: int, m_max: int | None = None) -> list:
    """[a_{ell,ell-m} for m = 0..m_max] from r = E4/E6 as a series in t = 1/j.

    Builds r from r * F(1728t)^2 = (1 - 1728t)^(-1/2) = sum C(2k,k) 432^k t^k,
    with F^2 = sum B_k t^k by Clausen's formula, in one convolution pass,
    then runs the recurrence for y = (t/q)^ell (see the module docstring):
    O(m_max^2) products of integers with no j table, IntSeries or comb
    arithmetic, so it shares no arithmetic with closed_row, recurrence_row
    or the solver beyond _exact_quotient's divmod, which checks every
    division, in B_k and in y_m; a remainder raises IntegralityError.
    """
    m_max = _row_bound(ell, m_max)
    n = m_max + 1
    B = [1]
    for k in range(1, n):
        num, den = _b_ratio(k)
        B.append(_exact_quotient(B[-1] * num, den, "B_%d of 3F2(1/6, 1/2, 5/6; 1, 1; 1728t)", k))
    r = []  # r_d = C(2d,d) 432^d - sum_{k=1..d} B_k r_{d-k}
    for d in range(n):
        r.append(math.comb(2 * d, d) * 432 ** d - sum(map(operator.mul, B[1 : d + 1], reversed(r))))
    y = [1]
    for m in range(1, n):
        total = -ell * sum(map(operator.mul, r[1 : m + 1], reversed(y)))
        y.append(_exact_quotient(total, m, "y_%d for ell=%d", m, ell))
    row = [-v for v in y]
    if m_max == ell:
        row[ell] -= 744 * (ell + 1)
    return row


def coeff_small_m(req: CoeffRequest, j: JTable) -> int:
    """a_{ell, ell-m} for 1 <= m <= 7 from the expanded per-m expressions.

    These are the partition sums written out monomial by monomial, kept as
    an independently typed-up form: they share no code with coeff_closed,
    and the tests read them as one more oracle for the first few m.  Each
    is summed in integers times its denominator (2 at m = 4, 6 at m = 6,
    else 1), then divided once by _exact_quotient, which checks it.
    """
    L, m = req
    if m < 1 or m > 7:
        raise ValueError("small-m path covers 1 <= m <= 7, got m=%d" % m)
    if m >= L:
        raise ValueError("small-m path needs m < ell, got m=%d, ell=%d" % (m, L))
    j.require(m)
    c0, c1, c2, c3, c4, c5, c6 = [j[i] for i in range(m)] + [0] * (7 - m)
    den = 1
    if m == 1:
        num = L * c0
    elif m == 2:
        num = L * c1 - binomial(L, 2) * c0 ** 2
    elif m == 3:
        num = L * c2 - L * (L - 2) * c0 * c1 + binomial(L, 3) * c0 ** 3
    elif m == 4:
        den = 2
        num = (
            2 * L * c3
            - L * (L - 3) * (c1 * c1 + 2 * c0 * c2)
            + 2 * L * binomial(L - 2, 2) * c0 ** 2 * c1
            - 2 * binomial(L, 4) * c0 ** 4
        )
    elif m == 5:
        num = (
            L * c4
            - L * (L - 4) * (c0 * c3 + c1 * c2)
            + L * binomial(L - 3, 2) * (c0 ** 2 * c2 + c0 * c1 ** 2)
            - L * binomial(L - 2, 3) * c0 ** 3 * c1
            + binomial(L, 5) * c0 ** 5
        )
    elif m == 6:
        den = 6
        num = (
            6 * L * c5
            - L * (L - 5) * (6 * c4 * c0 + 6 * c3 * c1 + 3 * c2 * c2)
            + L * binomial(L - 4, 2) * (6 * c3 * c0 ** 2 + 12 * c2 * c1 * c0 + 2 * c1 ** 3)
            - L * binomial(L - 3, 3) * (6 * c2 * c0 ** 3 + 9 * c1 ** 2 * c0 ** 2)
            + 6 * L * binomial(L - 2, 4) * c1 * c0 ** 4
            - 6 * binomial(L, 6) * c0 ** 6
        )
    else:
        num = (
            L * c6
            - L * (L - 6) * (c2 * c3 + c0 * c5 + c1 * c4)
            + L * binomial(L - 5, 2) * (c0 ** 2 * c4 + 2 * c0 * c1 * c3 + c1 ** 2 * c2 + c0 * c2 ** 2)
            - L * binomial(L - 4, 3) * (3 * c0 ** 2 * c1 * c2 + c0 ** 3 * c3 + c0 * c1 ** 3)
            + L * binomial(L - 3, 4) * (c0 ** 4 * c2 + 2 * c0 ** 3 * c1 ** 2)
            - L * binomial(L - 2, 5) * c0 ** 5 * c1
            + binomial(L, 7) * c0 ** 7
        )
    return _exact_quotient(num, den, "expanded form for m=%d", m)
