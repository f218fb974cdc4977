"""Core truncated-series arithmetic, checked against hand-counted values.

The schoolbook double loop below is the oracle for both product kernels
in ``series``: the pair loop and the Kronecker big-int multiply.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevencores.exprlang import evaluate
from sevencores.forms import FFF7, W, CoreSplit, core_split
from sevencores.partitions import _flip_layers
from sevencores.series import (
    Mismatch,
    TruncSeries,
    _kronecker,
    _pair_product,
    prefix_cached,
)
from sevencores.theta import euler_E, omega_at, sigma_at

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


def schoolbook_mul(x: TruncSeries, y: TruncSeries) -> TruncSeries:
    """Product by the double loop over the sparser factor's nonzero terms."""
    n = min(x.order, y.order)
    a, b = x.coeffs, y.coeffs
    if sum(1 for c in b[: n + 1] if c) < sum(1 for c in a[: n + 1] if c):
        a, b = b, a
    out = [0] * (n + 1)
    for i in range(n + 1):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(n + 1 - i):
            bj = b[j]
            if bj:
                out[i + j] += ai * bj
    return TruncSeries(n, out)


def test_bool_is_not_a_coefficient():
    with pytest.raises(TypeError):
        TruncSeries(3, [True])
    with pytest.raises(TypeError):
        TruncSeries(3, (1, False))
    with pytest.raises(TypeError):
        TruncSeries.one(3).scale(True)
    assert TruncSeries(3, [1]).scale(2).coeffs == (2, 0, 0, 0)


@pytest.mark.parametrize("bad", [True, False, 1.0, "2", None])
def test_int_arguments_refuse_bool_and_non_int(bad):
    s = TruncSeries(3, [1, 1])
    with pytest.raises(TypeError):
        s.pow(bad)
    with pytest.raises(TypeError):
        s.shift(bad)
    with pytest.raises(TypeError):
        s.compose_power(bad)
    with pytest.raises(TypeError):
        TruncSeries(bad, [1])
    with pytest.raises(TypeError):
        TruncSeries.monomial(1, bad, 4)
    with pytest.raises(TypeError):
        s.truncate(bad)


def test_int_arguments_out_of_range():
    s = TruncSeries(3, [1, 1])
    with pytest.raises(ValueError):
        s.pow(-1)
    with pytest.raises(ValueError):
        s.shift(-1)
    with pytest.raises(ValueError):
        s.compose_power(0)
    with pytest.raises(ValueError):
        TruncSeries(-1)
    with pytest.raises(ValueError):
        TruncSeries.monomial(1, -1, 4)
    with pytest.raises(ValueError):
        s.truncate(-1)
    with pytest.raises(ValueError):
        s.truncate(4)
    assert s.pow(0) == TruncSeries.one(3)
    assert TruncSeries(0).coeffs == (0,)


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


# -- product kernels against the schoolbook oracle ------------------------

big_coeffs_st = st.lists(
    st.one_of(
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-(2**200), max_value=2**200),
    ),
    max_size=40,
)


@st.composite
def signed_series(draw, max_order=39):
    """Signed series with coefficients up to 2^200 and trailing zeros."""
    order = draw(st.integers(min_value=0, max_value=max_order))
    head = draw(big_coeffs_st)[: order + 1]
    zeros = draw(st.integers(min_value=0, max_value=order + 1))
    return TruncSeries(order, head[: order + 1 - zeros])


def kernels_agree(x, y):
    """Assert that mul and both kernels give the schoolbook product."""
    want = schoolbook_mul(x, y)
    n = want.order
    a, b = x.coeffs[: n + 1], y.coeffs[: n + 1]
    assert x * y == want
    for kernel in (_kronecker, _pair_product):
        assert TruncSeries(n, kernel(a, b, n)) == want, kernel.__name__
    return want


@settings(max_examples=300, deadline=None)
@given(signed_series(), signed_series())
def test_kernels_match_schoolbook(x, y):
    kernels_agree(x, y)


@pytest.mark.parametrize("order", [0, 1, 7])
def test_kernels_on_zero_operands(order):
    zero = TruncSeries.zero(order)
    s = TruncSeries(order, [-3, 2**100][: order + 1])
    for x, y in ((zero, s), (s, zero), (zero, zero)):
        assert kernels_agree(x, y) == zero


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=12),
    st.booleans(),
    st.sampled_from((1, -1)),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=30),
)
def test_kernels_at_the_slot_boundary(width, over, sign, lead, tail):
    """The bound sits exactly at 2^(8w-1) - 1 (fits w bytes) or at
    2^(8w-1) (needs w + 1): a = sign*(t//2, t - t//2) and b = (1, 1)
    give |c| = t = bound at one exponent, behind lead zeros."""
    t = 2 ** (8 * width - 1) - (0 if over else 1)
    order = lead + 2 + tail
    x = TruncSeries(order, [0] * lead + [sign * (t // 2), sign * (t - t // 2)])
    y = TruncSeries(order, [1, 1])
    assert abs(kernels_agree(x, y)[lead + 1]) == t
    kernels_agree(y, x)


def test_kernels_at_order_6000():
    """Two scan products: sigma(q^4)*fff7, and W*omega(q^2), where W has
    126-bit coefficients and the product's fit in 12 bits."""
    kernels_agree(sigma_at(4, 6000), evaluate(FFF7, 6000))
    w = evaluate(W, 6000)
    assert max(map(abs, w.coeffs)).bit_length() == 126
    product = kernels_agree(w, omega_at(2, 6000))
    assert max(map(abs, product.coeffs)).bit_length() <= 12


# -- the prefix cache ---------------------------------------------------


def test_truncate_keeps_the_prefix():
    s = TruncSeries(4, (1, -2, 3, 0, 5))
    assert s.truncate(2) == TruncSeries(2, (1, -2, 3))
    assert s.truncate(0) == TruncSeries(0, (1,))
    assert s.truncate(4) is s


def inverse_euler(step, order):
    """1/E(q^step), built from scratch every time."""
    return TruncSeries.one(order).div(euler(order).compose_power(step))


def counting_builder():
    """A fresh prefix_cached inverse_euler and the log of what it built."""
    builds = []

    @prefix_cached
    def build(step, order):
        builds.append((step, order))
        return inverse_euler(step, order)

    return build, builds


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(1, 3), st.integers(0, 200)),
        min_size=1,
        max_size=8,
    )
)
def test_prefix_cache_matches_fresh_builds(calls):
    build, builds = counting_builder()
    top, expected = {}, []
    for step, order in calls:
        assert build(step, order) == inverse_euler(step, order)
        if order > top.get(step, -1):
            top[step] = order
            expected.append((step, order))
    # Only an order above the highest one built so far builds again.
    assert builds == expected
    info = build.cache_info()
    assert (info.hits, info.misses) == (len(calls) - len(expected), len(expected))
    assert info.currsize == len(top)


def test_prefix_cache_rebuilds_above_and_truncates_below():
    build, builds = counting_builder()
    low = build(2, 10)
    assert build(2, 10) is low
    high = build(2, 30)
    assert builds == [(2, 10), (2, 30)]
    assert build(2, 30) is high
    assert build(2, 10) == low and build(2, 10) is not low
    assert build(2, 0) == TruncSeries.one(0)
    assert builds == [(2, 10), (2, 30)]
    info = build.cache_info()
    assert (info.hits, info.misses, info.currsize) == (5, 2, 1)


def test_prefix_cache_truncates_every_field():
    cached_split = prefix_cached(core_split)
    assert cached_split(90).a7.order == 90
    split = cached_split(37)
    assert type(split) is CoreSplit
    assert split == core_split(37)
    assert {field.order for field in split} == {37}
    assert _flip_layers(5, 60)[0].order == 60
    layers = _flip_layers(5, 23)
    assert type(layers) is tuple and len(layers) == 6
    assert layers == _flip_layers.__wrapped__(5, 23)
    assert {layer.order for layer in layers} == {23}


def test_prefix_cache_stores_nothing_when_the_build_raises():
    before = euler_E.cache_info()
    for _ in range(2):
        with pytest.raises(ValueError):
            euler_E(0, 40)
    after = euler_E.cache_info()
    assert after.currsize == before.currsize
    assert (after.hits, after.misses) == (before.hits, before.misses + 2)
    assert euler_E(1, 12).coeffs == PENT
