"""Independent routes to modular polynomial coefficients.

Two mechanisms live here, both sharing only the j-invariant table with
closedform's partition sums (recurrence_row borrows closedform's row
request check, no arithmetic), and not even that with
closedform.hypergeometric_row, the top row the CLI serves.  That is what
makes them usable as cross-checks:

1. a power-series recurrence: letting jhat = q*j = 1 + 744 q + ..., the
   top-row coefficients satisfy, for 0 < m <= ell,

       a_{ell,ell-m} = - sum_{n=0}^{m-1} a_{ell,ell-n} * [q^{m-n}] jhat^{ell-n}
                       - [m = ell] (ell+1) c_0

   with a_{ell,ell} = -1 starting the recursion, and [m = ell] is 1 at
   m = ell and 0 below it.  recurrence_row builds the powers jhat^k it
   reads upward, each from jhat^(k-1) with one big-int product per
   coefficient, and closes each with one checked step of the Miller
   recurrence behind the series power kernel;

2. a full solver that determines every a_{m,n} at once from the defining
   identity Phi_ell(j(ell z), j(z)) = 0, by exact elimination on the
   principal part of the q-expansion.  It evaluates Phi_ell row by row,
   as the sum of j(ell z)^m * Q_m(j(z)) with Q_m(Y) = sum_n a_{m,n} Y^n,
   in plain coefficient lists; polynomial_residual checks a table by
   the same evaluation.  Only the powers j(z)^k are multiplied out, by
   IntSeries products, and they are the one O(ell^5) stage.  They are
   built once per (ell, j table) and shared: a solve and a later residual
   check on an equal j table read the same tuple of powers.  The last
   table built is held for the life of the process (README gives its
   size), and building another replaces it.
"""

from __future__ import annotations

import functools
from operator import add, mul

from .closedform import _row_bound
from .comb import _require_prime
from .jfun import JTable
from .qseries import IntSeries, _miller_next

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


_ROW_CACHE: dict = {}


def recurrence_row(ell: int, j: JTable, m_max: int | None = None) -> list:
    """[a_{ell,ell-m} for m = 0..m_max] via the power-series recurrence.

    The recurrence reads jhat^k only below q^(k - k0 + 2), where
    k0 = ell - m_max + 1: a triangle, built as an upward product chain.
    jhat^k0 is raised by ``**`` to its 2 coefficients.  Each next jhat^k
    takes every coefficient but its last as one dot product of jhat^(k-1)
    with jhat, and the last from one step of Miller's recurrence, whose
    division is checked; so a power costs one big-int product per
    coefficient.  The row sum indexes the powers as plain tuples, so a
    power built one coefficient short raises IndexError.  Rows are
    memoized per (ell, j-prefix).
    """
    m_max = _row_bound(ell, m_max)
    j.require(m_max)
    key = (ell, j.values[: ell + 1])
    cached = _ROW_CACHE.get(key)
    if cached is not None and len(cached) > m_max:
        return list(cached[: m_max + 1])

    f = j.hat_series(m_max + 1).coeffs
    terms = tuple(enumerate(f))  # the Miller step's (s, f_s), once per row
    k0 = ell - m_max + 1
    powers = []  # jhat^k0, jhat^(k0+1), ..., jhat^ell
    if m_max:
        powers.append((j.hat_series(2) ** k0).coeffs)
    for k in range(k0 + 1, ell + 1):
        prev = powers[-1]
        power = [sum(map(mul, f, prev[d::-1])) for d in range(len(prev))]
        power.append(_miller_next(terms, power, k))
        powers.append(tuple(power))
    powers.reverse()  # powers[n] is jhat^(ell-n)
    row = [-1]
    for m in range(1, m_max + 1):
        row.append(-sum(row[n] * powers[n][m - n] for n in range(m)))
    if m_max == ell:
        row[ell] -= (ell + 1) * j[0]
    _ROW_CACHE[key] = list(row)
    return row


def coeff_recurrence(ell: int, m: int, j: JTable) -> int:
    """a_{ell, ell-m} from the recurrence; intermediate row values are memoized."""
    return recurrence_row(ell, j, m)[m]


def solver_precision(ell: int) -> int:
    """j coefficients the full solver needs at level ell: ell^2 + ell + 2."""
    return ell * ell + ell + 2


def _axpy(dst: list, offset: int, c: int, src) -> None:
    """dst[offset + i] += c * src[i], for every i that dst reaches."""
    end = offset + len(src)
    dst[offset:end] = map(add, dst[offset:end], map(c.__mul__, src))


@functools.lru_cache(maxsize=1)
def _power_table(ell: int, j: JTable) -> tuple:
    """(j(z)^0, ..., j(z)^(ell+1)) as coefficient tuples, j(z)^k from q^-k on.

    An upward chain of IntSeries products, to the j table's precision,
    except j(z)^(ell+1), which _expand reads only below q^tail and which
    is built only that far.  JTable hashes and compares by its values, so
    equal tables share one entry; the cache holds the last (ell, j) only.
    The caller checks j's length first.
    """
    tail = j.count - ell * ell - ell + 1
    T = [IntSeries.one(j.count), j.series()]
    for _ in range(ell - 1):
        T.append(T[-1] * T[1])
    T.append(IntSeries(-1, j.values, tail + ell) * T[-1])
    return tuple(t.coeffs for t in T)


def _expand(ell: int, j: JTable, coefficient) -> IntSeries:
    """Phi_ell(j(ell z), j(z)) below q^tail, taking a_{m,n} = coefficient(m, n, c).

    With X = j(ell z) and Y = j(z), Phi_ell is X^(ell+1) + Y^(ell+1) plus
    the sum over rows m of X^m Q_m(Y), Q_m(Y) = sum_n a_{m,n} Y^n.  T[k]
    holds j(z)^k from q^-k on, from _power_table: built once per
    (ell, j table), shared by every expansion on an equal table, and only
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
