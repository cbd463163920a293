"""Truncated Laurent series with unbounded integer coefficients.

An IntSeries stores a dense block of coefficients starting at
``base_exponent`` together with an explicit ``precision``: the coefficient
of q^e is known exactly for every e < precision and is unknown at or past
it.  Reading an unknown coefficient raises PrecisionError rather than
returning 0, so a precision bug surfaces at the point of use instead of
propagating silently.

Arithmetic tracks precision pessimistically:

* add: result precision is the minimum of the operand precisions;
* mul: result precision is min(a.precision + b.base_exponent,
  b.precision + a.base_exponent), the first exponent at which an unknown
  coefficient of either factor could contribute; each result coefficient
  is one dot product of a block of one factor with the reversed block of
  the other;
* pow: series ** n has base n * base_exponent and keeps the input's
  relative precision, precision - base_exponent, as n - 1 products would;
* invert: requires a unit leading coefficient (+1 or -1) so the inverse
  stays integral.

``**`` and ``invert`` share one kernel, Miller's power recurrence.  Each
call lists the nonzero terms (s, f_s) of the input once, and each step
sums over those with s <= i only, so a sparse input such as the
pentagonal Euler product (about 2*sqrt(2N/3) nonzero terms below q^N)
costs O(sqrt N) products per coefficient instead of O(N).  The single
step, _miller_next, also ends each power of the upward product chain in
recurrence.recurrence_row.

Every provably exact division in the library, the Miller step's among
them, goes through _exact_quotient, which raises IntegralityError on a
remainder.

Values are immutable.  Instances with equal base, coefficient block and
precision compare equal, and normalization trims leading zeros (raising
the base) so equal series have a unique representation.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import mul


class PrecisionError(ValueError):
    """A coefficient beyond the stated precision was requested."""


class IntegralityError(ArithmeticError):
    """A division that the mathematics makes exact left a remainder."""


def _exact_quotient(num: int, den: int, what: str, *args) -> int:
    """num / den, or IntegralityError naming ``what % args`` on a remainder."""
    quotient, rem = divmod(num, den)
    if rem:
        raise IntegralityError("integrality violation: %s is not an integer (remainder %d mod %d)"
                               % (what % args, rem, den))
    return quotient


class IntSeries:
    __slots__ = ("base_exponent", "coeffs", "precision")

    def __init__(self, base_exponent: int, coeffs, precision: int | None = None):
        block = list(coeffs)
        for c in block:
            if not isinstance(c, int):
                raise TypeError("coefficients must be plain integers, got %r" % type(c).__name__)
        if precision is None:
            precision = base_exponent + len(block)
        want = precision - base_exponent
        if want < 0:
            block = []
        elif len(block) > want:
            del block[want:]
        else:
            block.extend([0] * (want - len(block)))
        # normal form: leading stored coefficient nonzero, zero series collapses
        # to an empty block with base_exponent == precision
        drop = 0
        while drop < len(block) and block[drop] == 0:
            drop += 1
        object.__setattr__(self, "base_exponent", base_exponent + drop if drop < len(block) else precision)
        object.__setattr__(self, "coeffs", tuple(block[drop:]))
        object.__setattr__(self, "precision", precision)

    def __setattr__(self, name, value):
        raise AttributeError("IntSeries is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, precision: int) -> "IntSeries":
        return cls(precision, (), precision)

    @classmethod
    def one(cls, precision: int) -> "IntSeries":
        return cls(0, (1,), precision)

    # -- queries -------------------------------------------------------

    def coefficient(self, k: int) -> int:
        """Exact coefficient of q^k; raises PrecisionError if k >= precision."""
        if k >= self.precision:
            raise PrecisionError(
                "coefficient of q^%d requested but series is only known below q^%d"
                % (k, self.precision)
            )
        if k < self.base_exponent:
            return 0
        return self.coeffs[k - self.base_exponent]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, IntSeries):
            return NotImplemented
        return (
            self.base_exponent == other.base_exponent
            and self.precision == other.precision
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.base_exponent, self.coeffs, self.precision))

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs[:6]):
            if c == 0:
                continue
            e = self.base_exponent + i
            if e == 0:
                terms.append("%d" % c)
            else:
                terms.append("%d*q^%d" % (c, e))
        if len(self.coeffs) > 6:
            terms.append("...")
        body = " + ".join(terms) if terms else "0"
        return "IntSeries(%s + O(q^%d))" % (body, self.precision)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, IntSeries):
            return NotImplemented
        prec = min(self.precision, other.precision)
        base = min(self.base_exponent, other.base_exponent, prec)
        out = [0] * (prec - base)
        for s in (self, other):
            off = s.base_exponent - base
            for i, c in enumerate(s.coeffs):
                if off + i >= len(out):
                    break
                out[off + i] += c
        return IntSeries(base, out, prec)

    def __neg__(self):
        return IntSeries(self.base_exponent, tuple(-c for c in self.coeffs), self.precision)

    def __sub__(self, other):
        if not isinstance(other, IntSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntSeries(
                self.base_exponent, tuple(c * other for c in self.coeffs), self.precision
            )
        if not isinstance(other, IntSeries):
            return NotImplemented
        base = self.base_exponent + other.base_exponent
        prec = min(
            self.precision + other.base_exponent,
            other.precision + self.base_exponent,
        )
        a, b = self.coeffs, other.coeffs
        # a block runs from base to precision, so prec - base is
        # min(len(a), len(b)) and [q^(base+d)] pairs every a[i], i <= d,
        # with b[d-i]
        out = [sum(map(mul, a[: d + 1], b[d::-1])) for d in range(prec - base)]
        return IntSeries(base, out, prec)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("exponent must be nonnegative")
        # n = 0 gives 1 at this series' precision shifted to base 0
        b, rel = self.base_exponent, self.precision - self.base_exponent
        return IntSeries(n * b, self._power_coeffs(n, rel), n * b + rel)

    def shift(self, k: int) -> "IntSeries":
        """Exact multiplication by the monomial q^k."""
        return IntSeries(self.base_exponent + k, self.coeffs, self.precision + k)

    def invert(self, out_precision: int) -> "IntSeries":
        """Multiplicative inverse, known below q^out_precision.

        The leading coefficient must be +1 or -1 (a unit over the
        integers), and the input must carry enough coefficients:
        precision - 2 * base_exponent >= out_precision.
        """
        if not self.coeffs:
            raise ValueError("cannot invert the zero series")
        unit = self.coeffs[0]
        if unit not in (1, -1):
            raise ValueError(
                "leading coefficient must be +1 or -1 to invert over the integers, got %d" % unit
            )
        b = self.base_exponent
        count = out_precision + b  # inverse coefficients at exponents -b .. out_precision-1
        if count > self.precision - b:
            raise PrecisionError(
                "inverting to precision %d needs input precision %d, have %d"
                % (out_precision, out_precision + 2 * b, self.precision)
            )
        if count <= 0:
            return IntSeries.zero(out_precision)
        return IntSeries(-b, self._power_coeffs(-1, count), out_precision)

    def _power_coeffs(self, alpha: int, count: int) -> list:
        """First count coefficients of f^alpha, for f = self / q^base_exponent.

        One step of Miller's recurrence per coefficient (_miller_next), for
        alpha >= -1; alpha = -1 needs a unit f_0.  The nonzero terms of f
        below q^count are listed once, here, and every step reads only them.
        """
        f = self.coeffs
        terms = tuple((s, c) for s, c in enumerate(f[:count]) if c)
        g = [f[0] ** abs(alpha)] if count > 0 else []
        for _ in range(1, count):
            g.append(_miller_next(terms, g, alpha))
        return g


def _miller_next(terms, g, alpha: int) -> int:
    """g_i for i = len(g) >= 1, where g holds the first i coefficients of f^alpha.

    terms lists pairs (s, f_s) by ascending s, starting with (0, f_0) for a
    nonzero f_0; it must hold every nonzero f_s with s <= i, and may hold
    zero ones.  J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7):
    i f_0 g_i = sum_{s=1..i} ((alpha+1) s - i) f_s g_{i-s}, summed over the
    listed s only.  The division is checked; a remainder raises
    IntegralityError.
    """
    i = len(g)
    step = alpha + 1
    acc = 0
    for s, c in terms[1 : bisect_left(terms, (i + 1,))]:  # (i+1,) sorts before (i+1, c)
        acc += (step * s - i) * c * g[i - s]
    return _exact_quotient(acc, i * terms[0][1], "coefficient %d of a series power", i)
