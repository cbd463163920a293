"""Combinatorial kernels: partitions, binomials, primality."""

from __future__ import annotations

import math
import operator
from typing import Iterator, NamedTuple

__all__ = ["PartitionTerm", "binomial", "is_prime", "partitions"]


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

