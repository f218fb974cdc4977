"""Core truncated-series arithmetic, checked against hand-counted values."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevencores.series import Mismatch, TruncSeries

# partition numbers p(0)..p(10), counted by listing partitions
PARTS = (1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42)

# 1 - q - q^2 + q^5 + q^7 - q^12 - ..., exponents k(3k -/+ 1)/2
PENT = (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)


def euler(order):
    out = [0] * (order + 1)
    k = 0
    while True:
        for e, s in ((k * (3 * k - 1) // 2, (-1) ** k), (k * (3 * k + 1) // 2, (-1) ** k)):
            if e <= order:
                out[e] = s
        if k * (3 * k - 1) // 2 > order:
            break
        k += 1
    out[0] = 1
    return TruncSeries(order, out)


def test_constructor_pads_and_validates():
    s = TruncSeries(4, (1, 2))
    assert s.coeffs == (1, 2, 0, 0, 0)
    assert s.order == 4
    with pytest.raises(ValueError):
        TruncSeries(-1)
    with pytest.raises(ValueError):
        TruncSeries(1, (1, 2, 3))
    with pytest.raises(TypeError):
        TruncSeries(2, (1.5, 0))


def test_bool_is_not_a_coefficient():
    with pytest.raises(TypeError):
        TruncSeries(3, [True])
    with pytest.raises(TypeError):
        TruncSeries(3, (1, False))
    with pytest.raises(TypeError):
        TruncSeries.one(3).scale(True)
    assert TruncSeries(3, [1]).scale(2).coeffs == (2, 0, 0, 0)


def test_immutable():
    s = TruncSeries(3, (1,))
    with pytest.raises(AttributeError):
        s.order = 5


def test_indexing_bounds():
    s = TruncSeries(2, (4, 5, 6))
    assert s[0] == 4 and s[2] == 6
    with pytest.raises(IndexError):
        s[3]
    with pytest.raises(IndexError):
        s[-1]


def test_constructors():
    assert TruncSeries.one(3).coeffs == (1, 0, 0, 0)
    assert TruncSeries.zero(2).coeffs == (0, 0, 0)
    assert TruncSeries.constant(7, 1).coeffs == (7, 0)
    assert TruncSeries.monomial(3, 2, 4).coeffs == (0, 0, 3, 0, 0)
    # monomial beyond the order truncates to nothing
    assert TruncSeries.monomial(3, 9, 4).is_zero()


def test_partition_numbers_from_inversion():
    # 1/((q;q)_oo) generates p(n); p(10) = 42
    inv = euler(10).invert()
    assert inv.coeffs == PARTS


def test_pentagonal_head():
    assert euler(12).coeffs == PENT


def test_first_negative():
    assert euler(12).first_negative() == 1
    assert TruncSeries(5, (0, 0, 1)).first_negative() is None
    assert TruncSeries(3, (1, 0, -2)).first_negative() == 2


def test_compare_reports_first_divergence():
    a = TruncSeries(6, (1, 2, 3, 4))
    b = TruncSeries(9, (1, 2, 7, 4))
    m = a.compare(b)
    assert m == Mismatch(exponent=2, lhs=3, rhs=7)
    assert a.compare(a) is None


def test_invert_requires_unit_constant():
    with pytest.raises(ValueError):
        TruncSeries(3, (2, 1)).invert()
    with pytest.raises(ValueError):
        TruncSeries(3, (0, 1)).invert()


def test_div_by_negative_unit():
    one = TruncSeries.one(8)
    d = one / TruncSeries(8, (-1, 1))
    assert d.coeffs == (-1, -1, -1, -1, -1, -1, -1, -1, -1)


def test_shift_drops_top():
    s = TruncSeries(4, (1, 2, 3, 4, 5))
    assert s.shift(2).coeffs == (0, 0, 1, 2, 3)
    assert s.shift(0) == s
    with pytest.raises(ValueError):
        s.shift(-1)


def test_compose_power_spreads_exponents():
    s = TruncSeries(3, (1, 2, 3, 4))
    assert s.compose_power(2).coeffs == (1, 0, 2, 0)
    assert s.compose_power(1) == s
    with pytest.raises(ValueError):
        s.compose_power(0)


def test_parity_splits():
    s = TruncSeries(5, (1, 2, 3, 4, 5, 6))
    assert s.even_part().coeffs == (1, 0, 3, 0, 5, 0)
    assert s.odd_part().coeffs == (0, 2, 0, 4, 0, 6)
    assert s.alternate().coeffs == (1, -2, 3, -4, 5, -6)


def test_operator_sugar():
    s = TruncSeries(3, (1, 1))
    assert (2 * s).coeffs == (2, 2, 0, 0)
    assert (s * 2) == (2 * s)
    assert (s - s).is_zero()
    assert (-s).coeffs == (-1, -1, 0, 0)
    assert (s ** 2).coeffs == (1, 2, 1, 0)


coeffs_st = st.lists(st.integers(min_value=-9, max_value=9), max_size=15)


@st.composite
def series_st(draw, max_order=14):
    order = draw(st.integers(min_value=0, max_value=max_order))
    return TruncSeries(order, tuple(draw(coeffs_st))[: order + 1])


@st.composite
def series_trio(draw):
    """Three series sharing one order, so ring laws are exact."""
    order = draw(st.integers(min_value=0, max_value=12))
    out = []
    for _ in range(3):
        out.append(TruncSeries(order, tuple(draw(coeffs_st))[: order + 1]))
    return tuple(out)


@given(series_trio())
def test_ring_laws(abc):
    a, b, c = abc
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(series_st())
def test_additive_inverse(a):
    assert (a - a).is_zero()
    assert -(-a) == a


@given(series_st(), st.integers(min_value=1, max_value=4))
def test_pow_is_repeated_mul(a, e):
    by_mul = TruncSeries.one(a.order)
    for _ in range(e):
        by_mul = by_mul * a
    assert a ** e == by_mul


@st.composite
def unit_series(draw):
    order = draw(st.integers(min_value=0, max_value=12))
    tail = tuple(draw(coeffs_st))[:order]
    return TruncSeries(order, (draw(st.sampled_from((1, -1))),) + tail)


@given(unit_series())
def test_invert_is_reciprocal(u):
    assert u * u.invert() == TruncSeries.one(u.order)


@given(series_st(), unit_series())
def test_div_matches_mul_by_inverse(a, u):
    assert a / u == a * u.invert()


@given(series_st())
def test_alternate_involution(a):
    assert a.alternate().alternate() == a


@given(series_st())
def test_parity_parts_sum(a):
    assert a.even_part() + a.odd_part() == a


@given(series_st(), st.integers(min_value=1, max_value=5))
def test_compose_power_multiplicative(a, k):
    b = TruncSeries(a.order, tuple(reversed(a.coeffs)))
    assert (a * b).compose_power(k) == a.compose_power(k) * b.compose_power(k)


@given(series_st(), st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
def test_shift_adds(a, i, j):
    assert a.shift(i).shift(j) == a.shift(i + j)


@settings(max_examples=60)
@given(series_st())
def test_hash_consistent_with_eq(a):
    b = TruncSeries(a.order, a.coeffs)
    assert a == b and hash(a) == hash(b)
