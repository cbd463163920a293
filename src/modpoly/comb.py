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

    This is closedform's walk, one term at a time: a partition is a
    multiset of parts >= 2 with sum s plus m - s ones.  Each distinct part
    is chosen from the largest down, its multiplicity from most to fewest,
    and a multiset's own partition follows those of all its extensions.
    """
    if m < 1:
        raise ValueError("m must be positive")

    def walk(rest, top, r, t):
        for part in range(min(top, rest), 1, -1):
            for count in range(rest // part, 0, -1):
                yield from walk(rest - count * part, part - 1, (part,) + r, (count,) + t)
        yield PartitionTerm((1,) + r, (rest,) + t) if rest else PartitionTerm(r, t)

    yield from walk(m, m, (), ())


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

