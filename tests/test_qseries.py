"""Series arithmetic: exactness, precision tracking, loud failure."""

import functools

import pytest
from conftest import truncated
from hypothesis import given, strategies as st

from modpoly import IntSeries, IntegralityError, PrecisionError, euler_factor_series


def series_strategy(min_base=-3, max_base=3, max_len=6, unit_leading=False):
    def build(base, coeffs, pad):
        if unit_leading:
            lead = coeffs[0] if coeffs else 1
            coeffs = [1 if lead >= 0 else -1] + coeffs[1:]
        return IntSeries(base, coeffs, base + len(coeffs) + pad)

    return st.builds(
        build,
        st.integers(min_base, max_base),
        st.lists(st.integers(-50, 50), min_size=0 if not unit_leading else 1, max_size=max_len),
        st.integers(0, 2),
    )


def schoolbook_mul(x: IntSeries, y) -> IntSeries:
    """x * y by the double loop IntSeries.__mul__ ran before its dot products."""
    if isinstance(y, int):
        return IntSeries(x.base_exponent, tuple(c * y for c in x.coeffs), x.precision)
    base = x.base_exponent + y.base_exponent
    prec = min(x.precision + y.base_exponent, y.precision + x.base_exponent)
    out = [0] * (prec - base)
    n = len(out)
    bco = y.coeffs
    for i, a in enumerate(x.coeffs):
        if a:
            top = min(len(bco), n - i)
            for j in range(top):
                b = bco[j]
                if b:
                    out[i + j] += a * b
    return IntSeries(base, out, prec)


# Mostly-zero blocks of unequal lengths, negative bases, big coefficients
# and precisions cut below the block (down to below the base), plus the
# zero series.
sparse_series = st.one_of(
    st.builds(
        lambda base, coeffs, pad: IntSeries(base, coeffs, base + len(coeffs) + pad),
        st.integers(-6, 4),
        st.lists(st.one_of(st.just(0), st.integers(-(2**70), 2**70)), max_size=14),
        st.integers(-3, 5),
    ),
    st.builds(IntSeries.zero, st.integers(-6, 8)),
)


def kernel_series(unit_leading):
    """Inputs for the power kernel: a nonzero leading coefficient (+1 or -1
    when the series is to be inverted) over a mostly-zero or a dense block
    of signed coefficients, zero-padded up to two places past the block."""
    lead = st.sampled_from([1, -1]) if unit_leading else st.integers(-9, 9).filter(bool)
    block = st.one_of(
        st.lists(st.sampled_from([0, 0, 0, 0, 0, 1, -1, 7, -30]), max_size=14),
        st.lists(st.integers(-50, 50).filter(bool), max_size=14),
    )
    return st.builds(
        lambda base, f0, rest, pad: IntSeries(base, [f0] + rest, base + 1 + len(rest) + pad),
        st.integers(-3, 3),
        lead,
        block,
        st.integers(0, 2),
    )


def inverse_by_products(a: IntSeries, out_precision: int) -> IntSeries:
    """a^-1 below q^out_precision as u * sum_k h^k, the geometric series in
    h = 1 - u * a / q^b for a's base b and unit leading coefficient u, with
    every power of h a schoolbook product."""
    b, u = a.base_exponent, a.coeffs[0]
    count = out_precision + b
    h = IntSeries(0, [0] + [-u * c for c in a.coeffs[1:count]], count)
    total = term = IntSeries.one(count)
    for _ in range(1, count):
        term = schoolbook_mul(term, h)
        total = total + term
    return IntSeries(-b, (total * u).coeffs, out_precision)


def agree_below(a: IntSeries, b: IntSeries) -> bool:
    prec = min(a.precision, b.precision)
    return truncated(a, prec) == truncated(b, prec)


class TestConstruction:
    def test_normal_form_trims_leading_zeros(self):
        s = IntSeries(0, [0, 0, 5, 7])
        assert s.base_exponent == 2
        assert s.coeffs == (5, 7)
        assert s.precision == 4

    def test_zero_series_collapses(self):
        s = IntSeries(1, [0, 0, 0])
        assert s.is_zero()
        assert s.base_exponent == s.precision == 4

    def test_explicit_precision_pads(self):
        s = IntSeries(0, [1, -1], precision=5)
        assert s.coeffs == (1, -1, 0, 0, 0)
        assert s == IntSeries(0, [1, -1, 0, 0, 0])

    def test_precision_equals_base_plus_length(self):
        s = IntSeries(-2, [3, 0, 1], precision=6)
        assert s.precision == s.base_exponent + len(s.coeffs)

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(TypeError):
            IntSeries(0, [1.5])

    def test_immutable(self):
        s = IntSeries(0, [1])
        with pytest.raises(AttributeError):
            s.precision = 10


class TestCoefficient:
    def test_below_base_is_zero(self):
        s = IntSeries(2, [9], precision=5)
        assert s.coefficient(-3) == 0
        assert s.coefficient(2) == 9
        assert s.coefficient(4) == 0

    def test_at_or_past_precision_raises(self):
        s = IntSeries(0, [1, 2], precision=2)
        with pytest.raises(PrecisionError):
            s.coefficient(2)
        with pytest.raises(PrecisionError):
            s.coefficient(100)

    def test_zero_series_still_guards_precision(self):
        z = IntSeries.zero(3)
        assert z.coefficient(2) == 0
        with pytest.raises(PrecisionError):
            z.coefficient(3)


class TestAdd:
    def test_cancellation_keeps_precision(self):
        a = IntSeries(0, [1, -1], precision=2)   # 1 - q
        b = IntSeries(1, [1], precision=2)       # q
        assert a + b == IntSeries(0, [1], precision=2)

    def test_precision_is_min(self):
        a = IntSeries(0, [1] * 8)
        b = IntSeries(0, [1] * 3)
        assert (a + b).precision == 3

    def test_mixed_bases(self):
        a = IntSeries(-2, [1, 0, 3], precision=4)
        b = IntSeries(1, [5], precision=4)
        c = a + b
        assert c.coefficient(-2) == 1
        assert c.coefficient(0) == 3
        assert c.coefficient(1) == 5


class TestMul:
    def test_known_square(self):
        s = IntSeries(0, [1, 744], precision=3)
        sq = s * s
        assert sq.coefficient(0) == 1
        assert sq.coefficient(1) == 1488
        assert sq.coefficient(2) == 553536

    def test_telescoping_product(self):
        n = 7
        a = IntSeries(0, [1, -1], precision=n + 2)
        b = IntSeries(0, [1] * (n + 1), precision=n + 2)
        prod = a * b
        assert prod.coefficient(0) == 1
        for k in range(1, n + 1):
            assert prod.coefficient(k) == 0
        assert prod.coefficient(n + 1) == -1

    def test_precision_rule_blocks_unknowable_terms(self):
        a = IntSeries(0, [1], precision=1)
        b = IntSeries(0, [1, 1], precision=2)
        prod = a * b
        assert prod.precision == 1
        with pytest.raises(PrecisionError):
            prod.coefficient(1)

    def test_laurent_bases_add(self):
        a = IntSeries(-1, [1], precision=2)
        b = IntSeries(-2, [3], precision=2)
        prod = a * b
        assert prod.base_exponent == -3
        assert prod.coefficient(-3) == 3

    def test_scalar_multiplication(self):
        s = IntSeries(-1, [1, 2], precision=3)
        assert (3 * s).coefficient(-1) == 3
        assert (s * -1) == -s
        assert (s * 0).is_zero()
        assert (s * 0).precision == s.precision


    @given(sparse_series, st.one_of(sparse_series, st.integers(-(2**40), 2**40)))
    def test_mul_matches_schoolbook_oracle(self, a, b):
        want = schoolbook_mul(a, b)
        for got in (a * b, b * a):
            assert (got.base_exponent, got.coeffs, got.precision) == (
                want.base_exponent,
                want.coeffs,
                want.precision,
            )


class TestPow:
    def test_power_zero_is_one_rebased(self):
        s = IntSeries(1, [1, 24], precision=5)
        one = s ** 0
        assert one.coefficient(0) == 1
        assert one.precision == 4  # window shifts with the lost base
        for n, prec in ((0, 0), (1, 5), (3, 15)):
            power = IntSeries.zero(5) ** n
            assert power.is_zero() and power.precision == prec
        laurent = IntSeries(-2, [3, -1, 4], precision=1) ** 2
        assert laurent == IntSeries(-4, [9, -6, 25], precision=-1)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            IntSeries(0, [1]) ** -1

    @given(series_strategy(), st.integers(1, 12))
    def test_pow_equals_mul_fold(self, s, n):
        folded = functools.reduce(lambda x, y: x * y, [s] * n)
        assert s ** n == folded


    @given(kernel_series(unit_leading=False), st.integers(1, 24))
    def test_pow_matches_schoolbook_products(self, s, n):
        assert s ** n == functools.reduce(schoolbook_mul, [s] * n)


class TestInvert:
    def test_geometric_series(self):
        a = IntSeries(0, [1, -1], precision=10)
        inv = a.invert(10)
        for k in range(10):
            assert inv.coefficient(k) == 1

    def test_negative_base_exponent(self):
        a = IntSeries(1, [1, -24], precision=12)
        inv = a.invert(8)
        assert inv.base_exponent == -1
        assert agree_below(a * inv, IntSeries.one(8))

    def test_non_unit_leading_coefficient_rejected(self):
        with pytest.raises(ValueError):
            IntSeries(0, [2, 1], precision=5).invert(3)

    def test_kernel_checks_every_division(self):
        # invert refuses 2 + q before the kernel runs; called directly, the
        # kernel's own integrality guard catches the first non-integral term
        with pytest.raises(IntegralityError, match="coefficient 2 .* is not an integer"):
            IntSeries(0, [2, 1], precision=5)._power_coeffs(-1, 3)

    def test_zero_series_rejected(self):
        with pytest.raises(ValueError):
            IntSeries.zero(5).invert(3)

    def test_insufficient_input_precision_rejected(self):
        a = IntSeries(1, [1, 5], precision=3)
        with pytest.raises(PrecisionError):
            a.invert(4)

    @given(series_strategy(min_base=-2, max_base=2, unit_leading=True), st.integers(1, 8))
    def test_two_sided_inverse(self, a, out_prec):
        try:
            inv = a.invert(out_prec)
        except PrecisionError:
            return
        assert agree_below(a * inv, IntSeries.one(out_prec))
        assert agree_below(inv * a, IntSeries.one(out_prec))


    @given(kernel_series(unit_leading=True), st.integers(1, 16))
    def test_invert_matches_schoolbook_geometric_series(self, a, count):
        # count coefficients of the inverse, as many as a carries at most
        count = min(count, a.precision - a.base_exponent)
        out_precision = count - a.base_exponent
        assert a.invert(out_precision) == inverse_by_products(a, out_precision)

    def test_inverse_euler_product_counts_partitions(self):
        p = [1] + [0] * 100  # p(n) by adding one part size at a time
        for part in range(1, 101):
            for n in range(part, 101):
                p[n] += p[n - part]
        inv = euler_factor_series(101).invert(101)
        assert inv.coeffs == tuple(p)
        assert inv.coefficient(100) == 190569292


class TestRingAxioms:
    @given(series_strategy(), series_strategy())
    def test_add_commutes(self, a, b):
        assert a + b == b + a

    @given(series_strategy(), series_strategy())
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(series_strategy(), series_strategy(), series_strategy())
    def test_add_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(series_strategy(), series_strategy(), series_strategy())
    def test_mul_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(series_strategy(), series_strategy(), series_strategy())
    def test_mul_distributes(self, a, b, c):
        assert agree_below(a * (b + c), a * b + a * c)

    @given(series_strategy(), series_strategy())
    def test_sub_adds_the_negation(self, a, b):
        assert a - b == a + (-b)
        assert (a - a).is_zero()
        with pytest.raises(TypeError):
            a - 3


def test_shift_is_exact_monomial_multiplication():
    s = IntSeries(0, [1, 2, 3], precision=4)
    assert s.shift(2).coefficient(2) == 1
    assert s.shift(2).precision == 6
    assert s.shift(-1).base_exponent == -1
