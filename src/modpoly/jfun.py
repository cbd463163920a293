"""q-expansions feeding the modular polynomial computations.

Everything is derived from three classical series:

* the Euler product prod_{n>=1} (1 - q^n), expanded sparsely via the
  pentagonal number theorem;
* the discriminant form Delta = q * prod_{n>=1} (1 - q^n)^24 =
  sum tau(n) q^n, the Euler product raised to the 24th power by the
  series power kernel, which reads only its nonzero (pentagonal) terms;
* the Eisenstein series E_k = 1 + factor * sum sigma_{k-1}(n) q^n, from
  one divisor sieve: E4 (factor 240) and 691 E12 - 690 (factor 65520).

The j-invariant is the quotient E4^3 / Delta = 1/q + 744 + 196884 q + ...
j_coefficients builds it without a series inverse and without a series
product.  E4^3 comes from Ramanujan's identity
691 E4^3 = 691 E12 + 432000 Delta (the weight-12 forms are spanned by E12
and Delta), one checked division by 691 per coefficient; then
j * Delta = E4^3 is solved for j term by term.
Its coefficients c_i (i >= -1) are what the closed coefficient formulas
consume, packaged in a JTable indexed from -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .qseries import IntSeries, PrecisionError, _exact_quotient


def euler_factor_series(precision: int) -> IntSeries:
    """prod_{n>=1} (1 - q^n) truncated below q^precision."""
    if precision < 1:
        raise ValueError("precision must be at least 1")
    coeffs = [0] * precision
    coeffs[0] = 1
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 >= precision and g2 >= precision:
            break
        sign = -1 if k % 2 else 1
        if g1 < precision:
            coeffs[g1] = sign
        if g2 < precision:
            coeffs[g2] = sign
        k += 1
    return IntSeries(0, coeffs, precision)


def delta_series(precision: int) -> IntSeries:
    """Discriminant form q * prod (1 - q^n)^24 = sum tau(n) q^n, tau(1) = 1.

    The pentagonal Euler product ** 24: the power kernel's steps read only
    its nonzero terms, about 2*sqrt(2 * precision / 3) of them.
    """
    if precision < 2:
        raise ValueError("precision must be at least 2")
    eta24 = euler_factor_series(precision - 1) ** 24
    return eta24.shift(1)


def _eisenstein_series(precision: int, weight: int, factor: int) -> IntSeries:
    """1 + factor * sum sigma_{weight-1}(n) q^n, by a divisor sieve."""
    if precision < 1:
        raise ValueError("precision must be at least 1")
    coeffs = [1] + [0] * (precision - 1)
    for d in range(1, precision):
        term = factor * d ** (weight - 1)
        for n in range(d, precision, d):
            coeffs[n] += term
    return IntSeries(0, coeffs, precision)


def e4_series(precision: int) -> IntSeries:
    """Eisenstein series of weight 4: constant term 1, then 240*sigma_3(n)."""
    return _eisenstein_series(precision, 4, 240)


def _e4_cubed(delta: IntSeries, precision: int) -> list:
    """[q^n] E4^3 for n < precision, from tau(n) = [q^n] delta and a sigma_11 sieve.

    Ramanujan: 691 E4^3 = 691 E12 + 432000 Delta, with
    691 E12 = 691 + 65520 sum sigma_11(n) q^n, so for n >= 1
    [q^n] E4^3 = (65520 sigma_11(n) + 432000 tau(n)) / 691.  The division
    is exact because tau(n) = sigma_11(n) (mod 691); it is checked, and a
    remainder, which a wrong tau or sigma_11 leaves, raises IntegralityError.
    """
    sigma = _eisenstein_series(precision, 12, 65520).coeffs
    return [1] + [_exact_quotient(sigma[n] + 432000 * delta.coefficient(n), 691,
                                  "[q^%d] E4^3 from sigma_11 and tau", n)
                  for n in range(1, precision)]


@dataclass(frozen=True)
class JTable:
    """Coefficients c_{-1}, c_0, ..., c_{count-1} of the j-invariant.

    ``values[i]`` holds c_{i-1}; indexing with [] uses the natural offset,
    so table[-1] == 1 and table[0] == 744.  Construction validates the
    pinned leading coefficients, which guards against passing a table
    built from the wrong series.
    """

    values: tuple

    def __post_init__(self):
        v = self.values
        if not isinstance(v, tuple) or len(v) < 1:
            raise ValueError("need at least the coefficient c_{-1}")
        if v[0] != 1:
            raise ValueError("c_{-1} must be 1, got %r" % (v[0],))
        if len(v) >= 2 and v[1] != 744:
            raise ValueError("c_0 must be 744, got %r" % (v[1],))
        if len(v) >= 3 and v[2] != 196884:
            raise ValueError("c_1 must be 196884, got %r" % (v[2],))

    @property
    def count(self) -> int:
        """Number of coefficients available at index 0 and beyond."""
        return len(self.values) - 1

    def __getitem__(self, i: int) -> int:
        if i < -1 or i >= self.count:
            raise IndexError("coefficient index %d outside [-1, %d)" % (i, self.count))
        return self.values[i + 1]

    def require(self, count: int) -> None:
        """Raise PrecisionError unless c_0 .. c_{count-1} are all in the table.

        This is the one length check on a j table; PrecisionError is a
        ValueError.
        """
        if self.count < count:
            raise PrecisionError(
                "need j coefficients c_0..c_%d but table stops at c_%d" % (count - 1, self.count - 1)
            )

    def series(self) -> IntSeries:
        """The j-invariant itself as an IntSeries with base exponent -1."""
        return IntSeries(-1, self.values, self.count)

    def hat_series(self, precision: int) -> IntSeries:
        """q * j = sum_{i>=0} c_{i-1} q^i, the constant-1-leading variant."""
        if precision < 1:
            raise ValueError("precision must be at least 1")
        self.require(precision - 1)
        return IntSeries(0, self.values[:precision], precision)


def j_coefficients(count: int) -> JTable:
    """Compute c_{-1} .. c_{count-1} exactly from j * Delta = E4^3.

    E4^3 is read off Delta and a sigma_11 sieve (_e4_cubed), with no series
    product.  With Delta = q * sum a_k q^k and a_0 = 1, the coefficient of
    q^i reads c_{i-1} = [q^i] E4^3 - sum_{k=1..i} a_k c_{i-1-k}.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    delta = delta_series(count + 2)
    cube = _e4_cubed(delta, count + 1)
    a = delta.coeffs
    values = []
    for i in range(count + 1):
        values.append(cube[i] - sum(map(mul, a[1 : i + 1], reversed(values))))
    return JTable(tuple(values))
