"""Core truncated-series arithmetic, checked against hand-counted values.

The schoolbook double loop below is the oracle for the three ways of a
product in ``series``: the pair loop, and on the Kronecker packing the
sum of shifts and the big-int multiply.  The
coefficient-by-coefficient recurrence is the oracle for the blocked
division, and the gcd over every exponent for ``stride``.
"""

from itertools import compress
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevencores import series
from sevencores.exprlang import evaluate
from sevencores.forms import FFF7, G, W
from sevencores.partitions import _flip_layers, lattice_rank_sum, lattice_sum
from sevencores.series import (
    BLOCK,
    Mismatch,
    TruncSeries,
    _divide,
    _kronecker,
    _pair_product,
    dilate,
    hecke_T2,
    prefix_cached,
    stride,
)
from sevencores.theta import (
    ThetaArgs,
    chi_neg,
    euler_E,
    eta_quotient,
    jacobi_cube,
    omega_at,
    phi,
    psi,
    sigma_at,
    theta_f,
)

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
    with pytest.raises(TypeError):
        TruncSeries(3, [1, 2.0])


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
        TruncSeries(2, [True])
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
    inv = TruncSeries.one(10).div(euler(10))
    assert inv.coeffs == PARTS


def test_pentagonal_head():
    assert euler(12).coeffs == PENT


def test_compare_reports_first_divergence():
    a = TruncSeries(6, (1, 2, 3, 4))
    b = TruncSeries(9, (1, 2, 7, 4))
    m = a.compare(b)
    assert m == Mismatch(exponent=2, lhs=3, rhs=7)
    assert a.compare(a) is None


@pytest.mark.parametrize(
    "x, y, want",
    [
        ((1, 2, 3), (1, 2, 3), None),
        ((1, 2, 3), (1, 2, 3, 9, 9), None),
        ((1, 2, 3, 9, 9), (1, 2, 3), None),
        ((4, 2, 3), (1, 2, 3, 9), Mismatch(0, 4, 1)),
        ((1, 2, 3), (1, 2, 5, 9), Mismatch(2, 3, 5)),
        ((1, 2, 3, 7), (1, 2, 3), None),
        ((1, 2, 3, 7), (1, 2, 3, 8), Mismatch(3, 7, 8)),
    ],
    ids=["equal", "longer-right", "longer-left", "first", "last-common",
         "past-the-common-order", "last"],
)
def test_compare_settles_the_common_order(x, y, want):
    # Equal series, orders whose common prefix is equal, and a first
    # mismatch at index 0 and at the last common index.
    a, b = TruncSeries(len(x) - 1, x), TruncSeries(len(y) - 1, y)
    assert a.compare(b) == want
    flipped = None if want is None else Mismatch(want.exponent, want.rhs, want.lhs)
    assert b.compare(a) == flipped


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
    # dilate is the substitution q -> q^k, at the caller's order.
    s = TruncSeries(3, (1, 2, 3, 4))
    assert dilate(s.coeffs, 2, 3).coeffs == (1, 0, 2, 0)
    assert dilate(s.coeffs, 1, 3) == s


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


@given(series_st())
def test_pow_zero_is_one_and_pow_one_is_the_series(a):
    assert a.pow(0) == TruncSeries.one(a.order)
    assert a.pow(1) == a


@st.composite
def unit_series(draw):
    order = draw(st.integers(min_value=0, max_value=12))
    tail = tuple(draw(coeffs_st))[:order]
    return TruncSeries(order, (draw(st.sampled_from((1, -1))),) + tail)


@given(unit_series())
def test_invert_is_reciprocal(u):
    one = TruncSeries.one(u.order)
    assert u * one.div(u) == one


@given(series_st(), unit_series())
def test_div_matches_mul_by_inverse(a, u):
    assert a / u == a * TruncSeries.one(u.order).div(u)


@given(series_st())
def test_alternate_involution(a):
    assert a.alternate().alternate() == a


@given(series_st())
def test_parity_parts_sum(a):
    assert a.even_part() + a.odd_part() == a


@given(series_st(), st.integers(min_value=1, max_value=5))
def test_compose_power_multiplicative(a, k):
    b = TruncSeries(a.order, tuple(reversed(a.coeffs)))
    n = a.order
    assert dilate((a * b).coeffs, k, n) == dilate(a.coeffs, k, n) * dilate(b.coeffs, k, n)


@given(series_st(), st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4))
def test_shift_adds(a, i, j):
    assert a.shift(i).shift(j) == a.shift(i + j)


@settings(max_examples=60)
@given(series_st())
def test_hash_consistent_with_eq(a):
    b = TruncSeries(a.order, a.coeffs)
    assert a == b and hash(a) == hash(b)


# -- product kernels against the schoolbook oracle ------------------------

big_coeff_st = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.integers(min_value=-(2**200), max_value=2**200),
)
big_coeffs_st = st.lists(big_coeff_st, max_size=40)


@st.composite
def signed_series(draw, max_order=39):
    """Signed series with coefficients up to 2^200 and trailing zeros."""
    order = draw(st.integers(min_value=0, max_value=max_order))
    head = draw(big_coeffs_st)[: order + 1]
    zeros = draw(st.integers(min_value=0, max_value=order + 1))
    return TruncSeries(order, head[: order + 1 - zeros])


def kernels_agree(x, y):
    """Assert that mul and each of its three ways, forced, give the
    schoolbook product: the pair loop, and the sum of shifts and the
    big-int multiply on the Kronecker packing.  The sum of shifts runs
    with either operand as the one summed over."""
    want = schoolbook_mul(x, y)
    n = want.order
    a, b = x.coeffs[: n + 1], y.coeffs[: n + 1]
    assert x * y == want
    ways = {
        "pairs": _pair_product(a, b, n),
        "multiply": _kronecker(a, b, n, False),
        "shifts": _kronecker(a, b, n, True),
        "shifts over b": _kronecker(b, a, n, True),
    }
    for way, got in ways.items():
        assert TruncSeries(n, got) == want, way
    return want


@settings(max_examples=300, deadline=None)
@given(signed_series(), signed_series())
def test_kernels_match_schoolbook(x, y):
    kernels_agree(x, y)


@st.composite
def sparse_series(draw, max_order=300):
    """A series with a few terms of coefficient +1, -1, +2 or -2, as a
    theta or Euler series has, at an order up to max_order."""
    order = draw(st.integers(min_value=0, max_value=max_order))
    terms = draw(st.dictionaries(
        st.integers(min_value=0, max_value=order),
        st.sampled_from((1, -1, 2, -2)),
        max_size=12,
    ))
    cs = [0] * (order + 1)
    for k, c in terms.items():
        cs[k] = c
    return TruncSeries(order, cs)


@settings(max_examples=200, deadline=None)
@given(sparse_series(), st.lists(big_coeff_st, min_size=1, max_size=301),
       st.booleans())
def test_kernels_on_a_sparse_operand(x, dense, swap):
    y = TruncSeries(len(dense) - 1, dense)
    kernels_agree(*((y, x) if swap else (x, y)))


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


def test_both_packed_ways_agree_at_order_6000():
    """psi(q)*(phi(q)^2 - phi(q^7)^2) and E(q)*E(q)^2 are the same
    series by the sum of shifts and by the multiply, and E(q)*E(q)^2 is
    Jacobi's E(q)^3."""
    n = 6000
    e = euler_E(1, n)
    pairs = ((psi(1, n), phi(1, n).pow(2) - phi(7, n).pow(2)), (e, e.pow(2)))
    for x, y in pairs:
        shifts = _kronecker(x.coeffs, y.coeffs, n, True)
        assert shifts == _kronecker(x.coeffs, y.coeffs, n, False)
        assert tuple(shifts) == (x * y).coeffs
    assert e * e.pow(2) == jacobi_cube(n)


def test_products_at_order_6000_take_the_way_their_terms_pick(monkeypatch):
    """At order 6000, psi(q) (110 terms) times psi(q) sums pairs, psi(q)
    times the dense phi(q)^2 - phi(q^7)^2 sums shifts, and two dense
    series multiply."""
    n = 6000
    sparse = psi(1, n)
    dense = phi(1, n).pow(2) - phi(7, n).pow(2)
    ways = []
    pairs, kronecker = series._pair_product, series._kronecker
    monkeypatch.setattr(
        series, "_pair_product",
        lambda a, b, n: ways.append("pairs") or pairs(a, b, n),
    )
    monkeypatch.setattr(
        series, "_kronecker",
        lambda a, b, n, shifted: ways.append("shifts" if shifted else "multiply")
        or kronecker(a, b, n, shifted),
    )
    sparse * sparse, sparse * dense, dense * sparse, dense * dense
    assert ways == ["pairs", "shifts", "shifts", "multiply"]


# -- series in q^g ------------------------------------------------------


def test_stride_of_small_series():
    assert stride(()) == stride((0, 0)) == stride((5, 0, 0)) == 0
    assert stride((1, 1)) == 1
    assert stride((0, 0, 0, 0, 0, 0, 3, 0, 0, 0, -1)) == 2
    assert stride((1, 0, 0, 0, 0, 0, 0, 0, 0, 7)) == 9


@st.composite
def strided_series(draw, g, unit=False):
    """A signed series in q^g, its order 0..150 a multiple of g or not;
    a unit constant term (+1 or -1) when asked for one.  Orders below g
    give constants, and an empty draw gives zero."""
    order = draw(st.integers(min_value=0, max_value=150))
    head = draw(st.lists(big_coeff_st, max_size=order // g + 1))
    cs = [0] * (order + 1)
    cs[::g] = head + [0] * (order // g + 1 - len(head))
    if unit:
        cs[0] = draw(st.sampled_from((1, -1)))
    return TruncSeries(order, cs)


#: Pairs of strides: equal ones, ones with a gcd above 1, and one-sided
#: ones, whose products split by residue class (a stride of 1 is a
#: general series; (4, 14) reduces to (2, 7)).
STRIDE_PAIRS = [(g, g) for g in range(2, 8)] + [
    (4, 6), (6, 4), (2, 3), (3, 9), (7, 5), (1, 4), (7, 1), (4, 14), (1, 2),
]


@st.composite
def strided_pair(draw, unit=False):
    g, h = draw(st.sampled_from(STRIDE_PAIRS))
    return draw(strided_series(g)), draw(strided_series(h, unit))


@settings(max_examples=300, deadline=None)
@given(strided_pair())
def test_strided_mul_matches_schoolbook(xy):
    x, y = xy
    assert x * y == schoolbook_mul(x, y)
    assert y * x == schoolbook_mul(x, y)


def test_a_one_sided_product_runs_once_per_residue_class(monkeypatch):
    """A general series times one in q^7 is 7 products, the r-th at order
    (n - r) // 7; times one in q^14, after the gcd 2 of q^2 and q^14, it
    is 7 at half of that.  A quotient is never split."""
    x = TruncSeries(40, [(-1) ** k * (k % 5 + 1) for k in range(41)])
    y, z = euler_E(7, 40), euler_E(14, 40)
    x2 = TruncSeries(40, [c if k % 2 == 0 else 0 for k, c in enumerate(x.coeffs)])
    product, orders = series._product, []
    monkeypatch.setattr(
        series, "_product", lambda a, b, n: orders.append(n) or product(a, b, n)
    )
    assert x * y == schoolbook_mul(x, y)
    assert orders == [(40 - r) // 7 for r in range(7)]
    orders.clear()
    assert z * x2 == schoolbook_mul(z, x2)
    assert orders == [(20 - r) // 7 for r in range(7)]
    divided = []
    monkeypatch.setattr(series, "_divide", lambda a, b, n: divided.append(n) or [0] * (n + 1))
    x.div(y)
    assert divided == [40]


@settings(max_examples=300, deadline=None)
@given(strided_pair(unit=True))
def test_strided_div_times_divisor_is_the_dividend(xy):
    x, y = xy
    n = min(x.order, y.order)
    assert schoolbook_mul(x / y, y) == x.truncate(n)


@pytest.mark.parametrize("order", [0, 5, 6, 7, 150])
def test_strided_zero_and_constant_operands(order):
    zero = TruncSeries.zero(order)
    minus_one = TruncSeries.constant(-1, order)
    s = TruncSeries.constant(2**70, order) - TruncSeries.monomial(1, 6, order)
    for x, y in ((zero, s), (s, zero), (minus_one, s), (s, minus_one),
                 (zero, minus_one), (minus_one, minus_one)):
        assert x * y == schoolbook_mul(x, y)
    for x in (zero, minus_one, s):
        assert schoolbook_mul(x / minus_one, minus_one) == x
        assert x / minus_one == -x
    u = TruncSeries.one(order) - TruncSeries.monomial(1, 6, order)
    assert schoolbook_mul(s / u, u) == s
    assert schoolbook_mul(minus_one / u, u) == minus_one


def test_strided_div_refuses_a_non_unit_divisor():
    x = TruncSeries(12, [1, 0, 0, 0, 5])
    for b0 in (0, 2, -2):
        y = TruncSeries(12, [b0, 0, 0, 0, 1])
        with pytest.raises(
            ValueError,
            match=rf"^cannot divide by series with constant term {b0}; "
            r"only \+1 or -1 is supported$",
        ):
            x / y


# -- blocked division against the recurrence ---------------------------


def recurrence_divide(a: tuple, b: tuple, n: int) -> list:
    """Coefficients 0..n of a/b for b[0] in (1, -1), one coefficient at
    a time: out[m] = b[0] * (a[m] - sum of b[k]*out[m-k] over k >= 1)."""
    support = list(compress(range(1, n + 1), b[1 : n + 1]))
    out = [0] * (n + 1)
    for m in range(n + 1):
        acc = a[m]
        for k in support:
            if k > m:
                break
            acc -= b[k] * out[m - k]
        out[m] = b[0] * acc
    return out


def division_agrees(x, y):
    """Assert that div and _divide give the recurrence's quotient."""
    n = min(x.order, y.order)
    a, b = x.coeffs[: n + 1], y.coeffs[: n + 1]
    want = recurrence_divide(a, b, n)
    assert _divide(a, b, n) == want
    assert x.div(y) == TruncSeries(n, want)


division_coeff = st.one_of(
    st.sampled_from((1, -1)),
    st.integers(min_value=-9, max_value=9),
    st.sampled_from((2**100, -(2**100))),
)
# Exponents on either side of the first and the second block edge.
EDGES = (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1)


@st.composite
def division_operands(draw):
    """A dividend of order 0..300 and a unit divisor, both in q^g for a
    g of 1..7.  The divisor's terms sit at the block edges or anywhere,
    up to 40 exponents past the dividend's order."""
    g = draw(st.integers(min_value=1, max_value=7))
    order = draw(st.integers(min_value=0, max_value=300))
    longer = order + draw(st.integers(min_value=0, max_value=40))
    exponents = draw(st.lists(
        st.one_of(st.sampled_from(EDGES), st.integers(1, longer // g + 1)),
        max_size=12,
    ))
    b = [0] * (longer + 1)
    b[0] = draw(st.sampled_from((1, -1)))
    for k in exponents:
        if g * k <= longer:
            b[g * k] = draw(division_coeff)
    a = [0] * (order + 1)
    a[::g] = draw(st.lists(division_coeff, min_size=order // g + 1,
                           max_size=order // g + 1))
    return TruncSeries(order, a), TruncSeries(longer, b)


@settings(max_examples=300, deadline=None)
@given(division_operands())
def test_division_matches_the_recurrence(xy):
    division_agrees(*xy)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=300), st.sampled_from((1, -1)),
       st.sampled_from(EDGES), division_coeff)
def test_division_by_one_term_at_a_block_edge(order, b0, k, v):
    """b0 + v*q^k with k at a block edge, past the dividend's order or not."""
    x = TruncSeries(order, [(-1) ** m * (m + 1) for m in range(order + 1)])
    y = TruncSeries(max(order, k), [b0] + [0] * (k - 1) + [v])
    division_agrees(x, y)


def test_division_at_order_6000():
    """The scans' largest division, E(q^7)^7 / E(q), whose divisor terms
    are all +1 or -1."""
    numerator = euler_E(7, 6000).pow(7)
    divisor = euler_E(1, 6000)
    division_agrees(numerator, divisor)
    assert numerator.div(divisor) == evaluate(G, 6000)


def test_division_by_a_dense_divisor():
    """phi(q)^3 has a nonzero coefficient at every exponent but 4^a(8b+7),
    and none past the constant term is +1 or -1."""
    divisor = phi(1, 1600).pow(3)
    assert len(set(divisor.coeffs)) > 50
    division_agrees(TruncSeries.one(1600), divisor)
    division_agrees(euler_E(1, 1600), divisor)


def slow_stride(coeffs):
    return gcd(*compress(range(len(coeffs)), coeffs))


@given(st.integers(min_value=1, max_value=60), st.lists(big_coeff_st, max_size=80),
       st.integers(min_value=0, max_value=200))
def test_stride_matches_the_gcd(g, head, pad):
    """A series in q^g padded with zeros.  A head of zeros gives zero, a
    one-term head a constant, and the gcd may be a multiple of g."""
    cs = [0] * (g * len(head) + pad)
    cs[: g * len(head) : g] = head
    assert stride(tuple(cs)) == slow_stride(cs)


# -- the prefix cache ---------------------------------------------------


def test_truncate_keeps_the_prefix():
    s = TruncSeries(4, (1, -2, 3, 0, 5))
    assert s.truncate(2) == TruncSeries(2, (1, -2, 3))
    assert s.truncate(0) == TruncSeries(0, (1,))
    assert s.truncate(4) is s


def inverse_euler(step, order):
    """1/E(q^step), built from scratch every time."""
    return TruncSeries.one(order).div(dilate(euler(order).coeffs, step, order))


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
    """A tuple of series, the value of the one such builder, comes back
    a plain tuple with each series cut to the order asked for."""
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


# Per-coefficient definitions of the passes ``TruncSeries`` runs as
# slices and maps: each builds the coefficients one k at a time.
UNARY = {
    "neg": lambda cs: [-c for c in cs],
    "alternate": lambda cs: [-c if k & 1 else c for k, c in enumerate(cs)],
    "even_part": lambda cs: [0 if k & 1 else c for k, c in enumerate(cs)],
    "odd_part": lambda cs: [c if k & 1 else 0 for k, c in enumerate(cs)],
}


def slow_shift(cs, k):
    return [cs[m - k] if m >= k else 0 for m in range(len(cs))]


def slow_dilate(cs, k):
    return [0 if m % k else cs[m // k] for m in range(len(cs))]


def slow_hecke_T2(cs):
    n = (len(cs) - 1) // 2
    return [cs[2 * m] + (0 if m % 2 else 4 * cs[m // 2]) for m in range(n + 1)]


def slow_first(cs, pred):
    for k, c in enumerate(cs):
        if pred(k, c):
            return k
    return None


# Orders 0..60 with coefficients of every size, big ints included.
wide_series = st.integers(min_value=0, max_value=60).flatmap(
    lambda order: st.lists(
        st.one_of(st.integers(min_value=-3, max_value=3), st.integers()),
        max_size=order + 1,
    ).map(lambda cs: TruncSeries(order, cs))
)


@given(wide_series)
def test_unary_passes_match_their_definitions(a):
    for name, slow in UNARY.items():
        assert getattr(a, name)() == TruncSeries(a.order, slow(a.coeffs)), name
    assert hecke_T2(a) == TruncSeries(a.order // 2, slow_hecke_T2(a.coeffs))
    assert a.is_zero() == all(c == 0 for c in a.coeffs)


@given(wide_series, st.integers(), st.integers(min_value=0, max_value=70),
       st.integers(min_value=1, max_value=70))
def test_indexed_passes_match_their_definitions(a, factor, k, g):
    assert a.scale(factor) == TruncSeries(a.order, [factor * c for c in a.coeffs])
    assert a.shift(k) == TruncSeries(a.order, slow_shift(a.coeffs, k))
    assert dilate(a.coeffs, g, a.order) == TruncSeries(
        a.order, slow_dilate(a.coeffs, g)
    )


@given(wide_series, wide_series)
def test_binary_passes_match_their_definitions(a, b):
    n = min(a.order, b.order)
    x, y = a.coeffs[: n + 1], b.coeffs[: n + 1]
    assert a.add(b) == TruncSeries(n, [x[k] + y[k] for k in range(n + 1)])
    assert a.sub(b) == TruncSeries(n, [x[k] - y[k] for k in range(n + 1)])
    k = slow_first(x, lambda k, c: c != y[k])
    assert a.compare(b) == (None if k is None else Mismatch(k, x[k], y[k]))


@pytest.mark.parametrize("cs", [(5,), (-2,), (5, 7), (0, -7)])
def test_passes_at_orders_0_and_1(cs):
    a = TruncSeries(len(cs) - 1, cs)
    assert a.even_part().coeffs == (cs[0],) + (0,) * (len(cs) - 1)
    assert a.odd_part().coeffs == (0,) + cs[1:]
    assert a.alternate().coeffs == (cs[0],) + tuple(-c for c in cs[1:])
    assert hecke_T2(a).coeffs == (5 * cs[0],)
    assert dilate(a.coeffs, 2, a.order).coeffs == (cs[0],) + (0,) * (len(cs) - 1)
    assert a.shift(1).coeffs == (0,) + cs[:-1]


def test_a_spread_is_one_construction(monkeypatch):
    """A product of series in q^2 and a dilated eta quotient each build
    one series at the full order, through the engine's unchecked
    constructor ``TruncSeries._trusted``.  (A cached reduced quotient may
    also be truncated, at half the order.)"""
    a = TruncSeries(40, [1, 0, 3, 0, -2])
    b = euler_E(2, 40)
    factors = {14: 7, 2: -1}
    product, quotient = schoolbook_mul(a, b), eta_quotient(factors, 40)
    full = []
    trusted = TruncSeries._trusted

    def counting_trusted(order, coeffs):
        if order == 40:
            full.append(order)
        return trusted(order, coeffs)

    monkeypatch.setattr(TruncSeries, "_trusted", staticmethod(counting_trusted))
    assert a.mul(b) == product
    assert len(full) == 1
    assert eta_quotient(factors, 40) == quotient
    assert len(full) == 2


# -- the unchecked internal constructor ------------------------------------


def assert_sound(r):
    """r is what the checked public constructor would have built."""
    assert type(r.coeffs) is tuple
    assert len(r.coeffs) == r.order + 1
    assert all(type(c) is int for c in r.coeffs)
    assert TruncSeries(r.order, r.coeffs) == r


@settings(max_examples=150, deadline=None)
@given(
    signed_series(),
    signed_series(),
    strided_pair(unit=True),
    st.sampled_from((1, -1)),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=0, max_value=45),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=3),
)
def test_every_operation_builds_a_sound_series(a, b, pair, unit, factor, k, g, e):
    """Each public operation, its stride-reduced paths included, returns
    a series the public constructor accepts unchanged, although the
    engine builds it without checking its coefficients."""
    u = TruncSeries(b.order, (unit,) + b.coeffs[1:])
    x, y = pair
    for r in (
        a.add(b), a.sub(b), a.neg(), a.scale(factor), a.mul(b), a.div(u),
        x.mul(y), x.div(y), a.pow(e), a.shift(k),
        a.truncate(min(k, a.order)), a.alternate(),
        a.even_part(), a.odd_part(), hecke_T2(a), dilate(a.coeffs, g, a.order),
    ):
        assert_sound(r)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=1, max_value=6),
    st.sampled_from((1, -1)),
    st.sampled_from((1, -1)),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
)
def test_every_builder_builds_a_sound_series(order, step, sa, sb, r, s):
    args = ThetaArgs(sa, r, sb, s)
    for out in (
        theta_f(args, order), euler_E(step, order), phi(step, order),
        psi(step, order), chi_neg(step, order), sigma_at(step, order),
        omega_at(step, order), jacobi_cube(order),
        eta_quotient({step: r, 2 * step: -s}, order),
        lattice_sum(r + 1, order // 4), lattice_rank_sum(r - 2, order // 4),
        *_flip_layers(7, order // 4),
    ):
        assert_sound(out)
