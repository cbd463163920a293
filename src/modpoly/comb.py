"""Combinatorial kernels: partitions, multinomials, Stirling numbers, primes."""

from __future__ import annotations

import math
import operator
from typing import Iterator, NamedTuple

__all__ = ["PartitionTerm", "binomial", "full_multinomial", "is_prime", "partitions",
           "primes_upto", "stirling_first", "stirling_second"]


class PartitionTerm(NamedTuple):
    """A partition written as distinct parts r with multiplicities t.

    r is strictly increasing and positive, t[i] >= 1 counts how many times
    r[i] occurs.  weight() is the partitioned integer, u() is one less than
    the total number of parts.
    """

    r: tuple
    t: tuple

    def weight(self) -> int:
        return sum(map(operator.mul, self.r, self.t))

    def u(self) -> int:
        return sum(self.t) - 1


def partitions(m: int) -> Iterator[PartitionTerm]:
    """All partitions of m, largest-part-first order, as PartitionTerm values.

    The order is deterministic: decreasing lexicographic on the parts
    sorted descending, so partitions(4) yields (4), (3,1), (2,2), (2,1,1),
    (1,1,1,1) in that sequence.  Terms are produced incrementally; the
    full list is never materialized.

    The partition is kept in multiplicity form, its distinct parts r
    (increasing) and their multiplicities t, and stepped in place: take
    one copy of the smallest part x > 1, and write it together with all
    the 1s as parts x - 1 and at most one smaller remainder part.  Each
    step is a fixed number of list operations at the front of r and t,
    so the enumeration costs O(1) amortized per partition, plus building
    the yielded tuples, one slot per distinct part (Zoghbi and
    Stojmenovic, "Fast algorithms for generating integer partitions",
    Int. J. Comput. Math. 70, 1998; Knuth, TAOCP 4A, 7.2.1.4).
    """
    if m < 1:
        raise ValueError("m must be positive")
    r = [m]
    t = [1]
    while True:
        yield PartitionTerm(tuple(r), tuple(t))
        ones = 0
        if r[0] == 1:
            ones = t[0]
            del r[0], t[0]
            if not r:
                return
        x = r[0]
        if t[0] == 1:
            del r[0], t[0]
        else:
            t[0] -= 1
        count, rest = divmod(x + ones, x - 1)
        if rest:
            r[:0] = (rest, x - 1)
            t[:0] = (1, count)
        else:
            r.insert(0, x - 1)
            t.insert(0, count)


def binomial(n: int, k: int) -> int:
    """C(n, k) with C(n, k) = 0 for k > n >= 0; negative arguments are errors."""
    if n < 0:
        raise ValueError("binomial needs n >= 0, got %d" % n)
    if k < 0:
        raise ValueError("binomial needs k >= 0, got %d" % k)
    return math.comb(n, k)


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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def _require_prime(ell) -> None:
    if not is_prime(ell):
        raise ValueError("ell must be prime, got %r" % (ell,))


def primes_upto(n: int) -> list:
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i, alive in enumerate(sieve) if alive]
