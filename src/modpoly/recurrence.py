"""Independent routes to modular polynomial coefficients.

Two mechanisms live here.  Both run on qseries' kernels and share only
the j-invariant table with closedform's partition sums (recurrence_row
borrows closedform's row request check, no arithmetic), and nothing with
hypergeometric_row, the top row the CLI serves.  Neither closedform row
shares a series kernel with them, so crosscheck still separates routes:

1. a power series in t = 1/j: with jhat = q*j = 1 + 744 q + ..., the
   top-row coefficients are

       a_{ell,ell-m} = -[t^m] u^ell - [m = ell] (ell+1) c_0,    u = t/q,

   where q is written as a series in t and [m = ell] is 1 at m = ell and
   0 below it.  Lagrange inversion (Knuth, TAOCP vol. 2, 4.7) reads u off
   the powers of jhat: u_0 = 1, u_1 = -c_0 and, for m >= 2,
   u_m = -[q^m] jhat^(m-1) / (m-1), a checked division.  _u_series reads
   each diagonal coefficient as one dot product of a baby power (by
   IntSeries.__mul__) and a giant power (by ``**``), never forming the
   powers between; the power kernel then raises u to ell.  u does not depend
   on ell, so one u per j table serves every level;

2. a full solver that determines every a_{m,n} at once from the defining
   identity Phi_ell(j(ell z), j(z)) = 0, by exact elimination on the
   principal part of the q-expansion.  It evaluates Phi_ell row by row,
   as the sum of j(ell z)^m * Q_m(j(z)) with Q_m(Y) = sum_n a_{m,n} Y^n,
   in plain coefficient lists; polynomial_residual checks a table by
   the same evaluation.  Only the powers j(z)^k are multiplied out, by
   qseries' product kernel, and they are the one O(ell^5) stage.  They
   do not depend on ell: the process holds one grow-only store of them
   (README gives its size), a solve or residual check reads slices, a
   higher level or longer j table forms only what the store lacks, and
   a table that disagrees with it starts it afresh.
"""

from __future__ import annotations

from math import isqrt
from operator import add, mul

from .closedform import _row_bound
from .comb import _require_prime
from .jfun import JTable
from .qseries import IntSeries, _exact_quotient, _product

__all__ = ["InconsistentSystemError", "ModularPolynomial", "coeff_recurrence",
           "polynomial_residual", "recurrence_row", "solve_full_polynomial"]


class InconsistentSystemError(ArithmeticError):
    """The elimination met a nonzero residual it cannot cancel."""


class ModularPolynomial:
    """Symmetric coefficient table a_{m,n} of Phi_ell plus the monic terms.

    Entries are stored for 0 <= n <= m <= ell; lookups symmetrize.  Pairs
    not supplied to the constructor default to 0.  The corner entry
    a_{ell,ell} must be -1.
    """

    __slots__ = ("ell", "_entries")

    def __init__(self, ell: int, entries):
        _require_prime(ell)
        table = {}
        for (m, n), v in dict(entries).items():
            if not (0 <= n <= ell and 0 <= m <= ell):
                raise ValueError("index (%r, %r) outside [0, %d]^2" % (m, n, ell))
            if not isinstance(v, int):
                raise TypeError("coefficient at (%d, %d) must be an integer" % (m, n))
            key = (m, n) if m >= n else (n, m)
            if key in table and table[key] != v:
                raise ValueError("conflicting values for symmetric pair %r" % (key,))
            table[key] = v
        for m in range(ell + 1):
            for n in range(m + 1):
                table.setdefault((m, n), 0)
        if table[(ell, ell)] != -1:
            raise ValueError("a_{ell,ell} must be -1, got %d" % table[(ell, ell)])
        self.ell = ell
        self._entries = table

    def get(self, m: int, n: int) -> int:
        key = (m, n) if m >= n else (n, m)
        return self._entries[key]

    def items(self):
        """(m, n, value) triples for 0 <= n <= m <= ell, m then n descending."""
        for m in range(self.ell, -1, -1):
            for n in range(m, -1, -1):
                yield m, n, self._entries[(m, n)]

    def top_row(self) -> list:
        """[a_{ell, ell-m} for m = 0..ell]."""
        return [self.get(self.ell, self.ell - m) for m in range(self.ell + 1)]

    def __eq__(self, other):
        if not isinstance(other, ModularPolynomial):
            return NotImplemented
        return self.ell == other.ell and self._entries == other._entries

    def __repr__(self):
        return "ModularPolynomial(ell=%d, %d entries)" % (self.ell, len(self._entries))


def _u_series(j: JTable, count: int, u) -> list:
    """u = t/q in t = 1/j, extended from its prefix u to u_0 .. u_{count-1}.

    u_0 = 1, u_1 = -c_0 and u_m = -[q^m] jhat^(m-1) / (m-1) for m >= 2
    (Lagrange inversion of t = q / jhat), each division checked, read by
    baby-step giant-step (Paterson-Stockmeyer; Brent-Kung 1978): with
    g = isqrt(count) and m-1 = a*g + b, [q^m] jhat^(m-1) is one dot
    product of the giant jhat^(a*g), by ``**`` to q^((a+1)g+1) or q^count,
    with the reversed baby jhat^b, by IntSeries.__mul__ to q^count.  Only
    the giants the new m need are built; u = (1,) starts the series.
    """
    if len(u) >= count:
        return u
    u = list(u)
    jhat = j.hat_series(count)
    if len(u) == 1:
        u.append(-jhat.coeffs[1])
    g = isqrt(count)
    babies = [IntSeries.one(count), jhat]
    while len(babies) < g:
        babies.append(babies[-1] * jhat)
    giant = None
    for m in range(len(u), count):
        a, b = divmod(m - 1, g)
        if b == 0 or giant is None:
            giant = IntSeries(0, jhat.coeffs, min((a + 1) * g + 1, count)) ** (a * g)
        diagonal = sum(map(mul, giant.coeffs[: m + 1], babies[b].coeffs[m::-1]))
        u.append(-_exact_quotient(diagonal, m - 1, "u_%d = -[q^%d] jhat^%d / %d", m, m, m - 1, m - 1))
    return u


_MEMO = [None] * 3  # the last j table, its u, rows by ell


def recurrence_row(ell: int, j: JTable, m_max: int | None = None) -> list:
    """[a_{ell,ell-m} for m = 0..m_max] as -[t^m] u^ell, u = t/q, t = 1/j.

    u is truncated at t^m_max (_u_series) and raised to ell by ``**``,
    whose steps are checked divisions; m = ell also takes -(ell+1) c_0.
    One memo holds the last j table, its u and its rows by level: a row
    is a slice of a longer one at its level, u is extended from its
    prefix when a row needs more of it, and another table starts the
    memo afresh.  The memo changes only once a row is complete, so a
    raised step leaves it as it was.
    """
    m_max = _row_bound(ell, m_max)
    j.require(m_max)
    table, u, rows = _MEMO  # one read: a commit in another thread cannot split it
    if table != j:
        u, rows = (1,), {}
    cached = rows.get(ell)
    if cached is not None and len(cached) > m_max:
        return cached[: m_max + 1]
    u = _u_series(j, m_max + 1, u)
    row = [-c for c in (IntSeries(0, u[: m_max + 1]) ** ell).coeffs]
    if m_max == ell:
        row[ell] -= (ell + 1) * j[0]
    rows[ell] = row
    _MEMO[:] = j, u, rows
    return row[:]


def coeff_recurrence(ell: int, m: int, j: JTable) -> int:
    """a_{ell, ell-m} from the recurrence row; rows are memoized per level."""
    return recurrence_row(ell, j, m)[m]


def solver_precision(ell: int) -> int:
    """j coefficients the full solver needs at level ell: ell^2 + ell + 2."""
    return ell * ell + ell + 2


def _axpy(dst: list, offset: int, c: int, src) -> None:
    """dst[offset + i] += c * src[i], for every i that dst reaches."""
    end = offset + len(src)
    dst[offset:end] = map(add, dst[offset:end], map(c.__mul__, src))


_POWERS = [(), ()]  # the longest j values seen, and j^1 .. j^K to their length


def _power_table(ell: int, j: JTable) -> tuple:
    """(j(z)^0, ..., j(z)^(ell+1)) as coefficient tuples, j(z)^k from q^-k on.

    j(z)^1 .. j(z)^ell are sliced from one store held for the process:
    j^1 .. j^K to the length of the longest j table seen that agrees with
    j on their common prefix.  A longer table extends each held power by
    its new coefficients only, lowest k first; a higher level appends
    powers; a table that disagrees starts the store afresh.  The store
    changes once its powers are complete.  j(z)^(ell+1), which _expand
    reads only below q^tail, is formed per call, only that far.
    """
    v = j.values
    held, powers = _POWERS  # one read: a commit in another thread cannot split it
    if held[: len(v)] != v[: len(held)]:
        held, powers = (), ()
    if len(v) > len(held):
        grown = [v]
        for p in powers[1:]:
            grown.append(p + tuple(_product(v, grown[-1], len(held), len(v))))
        held, powers = v, grown
    powers = list(powers)
    while len(powers) < ell:
        powers.append(tuple(_product(held, powers[-1], 0, len(held))))
    _POWERS[:] = held, tuple(powers)
    T = [(1,) + (0,) * (j.count - 1)] + [p[: len(v)] for p in powers[:ell]]
    T.append(tuple(_product(v, T[ell], 0, j.count - ell * ell + 2)))  # to q^tail
    return tuple(T)


def _expand(ell: int, j: JTable, coefficient) -> IntSeries:
    """Phi_ell(j(ell z), j(z)) below q^tail, taking a_{m,n} = coefficient(m, n, c).

    With X = j(ell z) and Y = j(z), Phi_ell is X^(ell+1) + Y^(ell+1) plus
    the sum over rows m of X^m Q_m(Y), Q_m(Y) = sum_n a_{m,n} Y^n.  T[k]
    holds j(z)^k from q^-k on, sliced from _power_table's store and only
    read here.  X^m is T[m] with each exponent times ell, never formed.
    tail = j.count - ell^2 - ell + 1 is the precision of X^ell Y^ell,
    which every table holds (a_{ell,ell} = -1), so nothing past it is
    read: Y^(ell+1) is built only below q^tail, and each Q_m only below
    q^(tail + ell*m).  acc holds [q^e] at acc[e + ell(ell+1)].

    Pairs are visited in decreasing pole order, ell*m + n for
    0 <= n <= m <= ell.  Each a_{m,n} joins Q_m and, for n != m, Q_n;
    once row m is complete, X^m Q_m is folded into acc.  c is the
    expansion's coefficient at the pair's pivot exponent e = -(ell*m + n)
    with every pair visited so far: acc's plus [q^e] of X^m Q_m and, at
    n = 0 only, of X^(m-1) Q_(m-1).  The pivot, the pair's own [q^e], must
    be 1: it is T[m][0] * T[n][0], leading coefficients of j(z)^m and j(z)^n.
    """
    j.require(solver_precision(ell))
    tail = j.count - ell * ell - ell + 1
    T = _power_table(ell, j)
    top = ell * (ell + 1)
    acc = [0] * (top + tail)
    acc[::ell] = T[ell + 1][: len(acc[::ell])]
    _axpy(acc, ell * ell - 1, 1, T[ell + 1])
    Q = [[0] * (tail + ell * (m + 1)) for m in range(ell + 1)]  # Q_m from q^-ell
    for m in range(ell, -1, -1):
        for n in range(m, -1, -1):
            e = -(ell * m + n)
            pivot = T[m][0] * T[n][0]
            if pivot != 1:
                raise InconsistentSystemError("pivot at pair (%d, %d) is %d, not 1" % (m, n, pivot))
            c = acc[top + e] + sum(map(mul, T[m], Q[m][ell - n :: -ell]))
            if n == 0 and m > 0:
                c += T[m - 1][0] * Q[m - 1][0]
            a = coefficient(m, n, c)
            _axpy(Q[m], ell - n, a, T[n])
            if n != m:
                _axpy(Q[n], ell - m, a, T[m])
        for offset, x in zip(range(ell * (ell - m), top + tail, ell), T[m]):
            _axpy(acc, offset, x, Q[m])
        Q[m] = None
    return IntSeries(-top, acc, tail)


def solve_full_polynomial(ell: int, j: JTable) -> ModularPolynomial:
    """Determine every a_{m,n} from the vanishing of Phi_ell(j(ell z), j(z)).

    Substituting the q-expansions turns the defining identity into a
    triangular linear system: the basis element for the pair (m, n),
    X^m Y^n + X^n Y^m at X = j(ell z), Y = j(z), has pole order
    ell*m + n, those orders are pairwise distinct over 0 <= n <= m <= ell,
    and each pivot coefficient is 1.  Unknowns are eliminated in
    decreasing pole order, row by row (see _expand): a_{m,n} is minus the
    expansion's coefficient at q^-(ell*m + n) with every earlier pair
    solved.  No later pair reaches a lower exponent, so one check after
    the last unknown covers every exponent: the whole expansion,
    including exponents that correspond to no pair, must vanish up to
    the working precision.  Raises InconsistentSystemError otherwise,
    naming the lowest surviving exponent, and PrecisionError when the
    table is shorter than ell^2 + ell + 2 coefficients.
    """
    _require_prime(ell)
    entries = {}
    residual = _expand(ell, j, lambda m, n, c: entries.setdefault((m, n), -c))
    if not residual.is_zero():
        raise InconsistentSystemError(
            "residual %d survives at q^%d after eliminating all pairs"
            % (residual.coeffs[0], residual.base_exponent)
        )
    return ModularPolynomial(ell, entries)


def polynomial_residual(poly: ModularPolynomial, j: JTable) -> IntSeries:
    """q-expansion of Phi_ell(j(ell z), j(z)) for a given coefficient table.

    Evaluated row by row as in the solver (see _expand).  Identically
    zero, to the table's precision, exactly when poly really is the
    level-ell modular polynomial; PrecisionError below ell^2+ell+2.
    """
    return _expand(poly.ell, j, lambda m, n, c: poly.get(m, n))
