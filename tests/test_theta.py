"""Theta building blocks: sums against their oracles, eta forms, frozen heads.

The Jacobi triple product, a second construction of f(a, b) from finite
q-products, lives here as an oracle of ``theta_f`` and ``chi_neg``, and
``plain_eta_quotient``, Euler powers multiplied and then divided by one
E(q^k) at a time, as the oracle of ``eta_quotient``'s sparse factors.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog_oracle import catalog_texts, children, eta, scan_texts

from sevencores.exprlang import _is_product, _plan, parse
from sevencores.series import TruncSeries, dilate
import sevencores.theta as theta_module
from sevencores.theta import (
    SPARSE_FACTORS,
    ThetaArgs,
    _eta_quotient,
    chi_neg,
    eta_quotient,
    eta_split,
    euler_E,
    jacobi_cube,
    omega_at,
    phi,
    psi,
    sigma_at,
    theta_f,
)


def test_euler_pentagonal_head():
    assert euler_E(1, 12).coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)


def test_euler_step_spreads():
    assert euler_E(3, 9) == dilate(euler_E(1, 9).coeffs, 3, 9)


def pochhammer(sign, start, step, order):
    """prod_{j>=0} (1 - sign * q^(start + j*step)) to q^order.  Only the
    factors whose exponent fits under the order contribute, so the
    product prefix is already exact at this truncation."""
    cs = [1] + [0] * order
    for e in range(start, order + 1, step):
        # Multiply in place by (1 - sign*q^e), highest index first.
        for m in range(order, e - 1, -1):
            cm = cs[m - e]
            if cm:
                cs[m] -= sign * cm
    return TruncSeries(order, cs)


def triple_product(args, order):
    """f(a, b) = (-a; ab) * (-b; ab) * (ab; ab), with a = sign_a*q^r
    and b = sign_b*q^s for r, s >= 1."""
    sa, r, sb, s = args.sign_a, args.r, args.sign_b, args.s
    m = r + s
    if sa * sb == 1:
        factors = ((-sa, r, m), (-sb, s, m), (1, m, m))
    else:
        # Base ab = -q^m alternates sign, so split each symbol into its
        # even-index and odd-index factors, both stepping by 2m.
        factors = (
            (-sa, r, 2 * m), (sa, r + m, 2 * m), (-sb, s, 2 * m),
            (sb, s + m, 2 * m), (-1, m, 2 * m), (1, 2 * m, 2 * m),
        )
    out = TruncSeries.one(order)
    for sign, start, step in factors:
        out = out.mul(pochhammer(sign, start, step, order))
    return out


def test_pochhammer_single_factor():
    # sign +1 encodes (q^a; q^m), factors (1 - q^...)
    assert pochhammer(1, 1, 10, 3).coeffs == (1, -1, 0, 0)
    assert pochhammer(-1, 1, 10, 3).coeffs == (1, 1, 0, 0)
    # (q; q) prefix is the Euler product
    assert pochhammer(1, 1, 1, 12) == euler_E(1, 12)
    # (-q; q) = 1 + q + q^2 + 2q^3 + 2q^4 + ...
    assert pochhammer(-1, 1, 1, 4).coeffs == (1, 1, 1, 2, 2)


def test_theta_args_validation():
    with pytest.raises(ValueError):
        ThetaArgs(2, 1, 1, 1)
    with pytest.raises(ValueError):
        ThetaArgs(1, -1, 1, 2)
    with pytest.raises(ValueError):
        ThetaArgs(1, 0, 1, 0)
    ThetaArgs(1, 0, 1, 1)  # one-sided is fine
    for bad in (1.5, 2.0, True, "1"):
        with pytest.raises(TypeError, match="exponent r must be an int"):
            ThetaArgs(1, bad, 1, 2)
        with pytest.raises(TypeError, match="exponent s must be an int"):
            ThetaArgs(1, 2, 1, bad)


def test_phi_is_square_sum():
    # 1 + 2q + 2q^4 + 2q^9 + ...
    want = [0] * 13
    want[0] = 1
    for k in (1, 2, 3):
        want[k * k] = 2
    assert phi(1, 12).coeffs == tuple(want)
    assert phi(1, 12) == theta_f(ThetaArgs(1, 1, 1, 1), 12)


def test_psi_is_triangular_sum():
    want = [0] * 13
    for k in range(5):
        e = k * (k + 1) // 2
        if e <= 12:
            want[e] = 1
    assert psi(1, 12).coeffs == tuple(want)
    assert psi(1, 12) == theta_f(ThetaArgs(1, 1, 1, 3), 12)


# The sums that built E, phi and psi before each became the bilateral
# theta f(a, b) at fixed arguments, kept as oracles.


def pentagonal(step, order):
    """E(q^step) by the pentagonal-number theorem."""
    cs = [0] * (order + 1)
    cs[0] = 1
    k = 1
    while step * k * (3 * k - 1) // 2 <= order:
        sign = -1 if k & 1 else 1
        cs[step * k * (3 * k - 1) // 2] += sign
        if step * k * (3 * k + 1) // 2 <= order:
            cs[step * k * (3 * k + 1) // 2] += sign
        k += 1
    return TruncSeries(order, cs)


def square_sum(step, order):
    """phi(q^step) = 1 + 2 * sum_{n>=1} q^(step*n^2)."""
    cs = [0] * (order + 1)
    cs[0] = 1
    n = 1
    while step * n * n <= order:
        cs[step * n * n] += 2
        n += 1
    return TruncSeries(order, cs)


def triangular_sum(step, order):
    """psi(q^step) = sum_{n>=0} q^(step*n(n+1)/2)."""
    cs = [0] * (order + 1)
    n = 0
    while step * n * (n + 1) // 2 <= order:
        cs[step * n * (n + 1) // 2] += 1
        n += 1
    return TruncSeries(order, cs)


SUMS = ((euler_E, pentagonal), (phi, square_sum), (psi, triangular_sum))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=200))
def test_theta_atoms_match_their_sums(step, order):
    # __wrapped__ is the builder without its cache.
    for atom, oracle in SUMS:
        want = oracle(step, order)
        assert atom.__wrapped__(step, order) == want
        assert atom(step, order) == want


@pytest.mark.parametrize("step", (1, 2, 3, 7, 14))
def test_theta_atoms_match_their_sums_at_6000(step):
    for atom, oracle in SUMS:
        assert atom.__wrapped__(step, 6000) == oracle(step, 6000)


@pytest.mark.parametrize("atom", (euler_E, phi, psi, chi_neg, sigma_at, omega_at))
def test_step_must_be_positive(atom):
    for step in (0, -2):
        with pytest.raises(ValueError, match="step must be a positive int"):
            atom(step, 10)
    # A step equal to a cached int step, as True and 2.0 are, is refused
    # too: it never reads that step's cache entry.
    atom(1, 10)
    atom(2, 10)
    for step in (True, 2.0, "a"):
        with pytest.raises(TypeError, match="step must be an int"):
            atom(step, 10)


def test_eta_quotient_checks_every_step_and_exponent():
    # After the int steps 1 and 2 are cached, a step of True or 2.0 is
    # refused as the atoms refuse it, and so is a zero exponent of the
    # wrong type, which the quotient would otherwise skip.
    eta_quotient({1: 1, 2: -1}, 10)
    for factors in ({True: 1}, {2.0: 1}, {1: 1, 2.0: -1}, {"a": 1}):
        with pytest.raises(TypeError, match="step must be an int"):
            eta_quotient(factors, 10)
    for factors in ({1: 1.0}, {1: True}, {2: 0.0}):
        with pytest.raises(TypeError, match="exponent must be an int"):
            eta_quotient(factors, 10)
    for factors in ({0: 1}, {-2: 0}):
        with pytest.raises(ValueError, match="step must be a positive int"):
            eta_quotient(factors, 10)


def test_phi_psi_eta_forms():
    assert phi(1, 40) == eta_quotient({2: 5, 4: -2, 1: -2}, 40)
    assert psi(1, 40) == eta_quotient({2: 2, 1: -1}, 40)
    assert phi(3, 40) == eta_quotient({6: 5, 12: -2, 3: -2}, 40)


def test_chi_is_odd_pochhammer():
    # E(q^m)/E(q^2m) telescopes to the odd-spaced product (q^m; q^2m)
    for m in range(1, 13):
        for order in (0, 1, 2 * m, 60, 399, 400):
            assert chi_neg(m, order) == pochhammer(1, m, 2 * m, order)
    assert chi_neg(1, 6000) == pochhammer(1, 1, 2, 6000)


def test_sigma_omega_heads():
    assert sigma_at(1, 6).coeffs == (1, 2, 4, 0, 6, 0, 0)
    assert omega_at(1, 6).coeffs == (1, 0, 0, 1, 1, 2, 0)


def test_jacobi_cube_matches_cube():
    assert jacobi_cube(80) == euler_E(1, 80) ** 3


def test_jacobi_cube_head():
    assert jacobi_cube(7).coeffs == (1, -3, 0, 5, 0, 0, -7, 0)


def test_eta_quotient_zero_power_ignored():
    assert eta_quotient({1: 0, 2: 1}, 10) == euler_E(2, 10)


def test_eta_quotient_empty_is_one():
    assert eta_quotient({}, 5) == TruncSeries.one(5)


BUILDERS = {
    "euler_E": lambda n: euler_E(1, n),
    "theta_f": lambda n: theta_f(ThetaArgs(1, 1, 1, 1), n),
    "phi": lambda n: phi(1, n),
    "psi": lambda n: psi(1, n),
    "chi_neg": lambda n: chi_neg(1, n),
    "eta_quotient": lambda n: eta_quotient({7: 7, 1: -1}, n),
    "sigma_at": lambda n: sigma_at(1, n),
    "omega_at": lambda n: omega_at(1, n),
    "jacobi_cube": jacobi_cube,
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
def test_negative_order_is_a_value_error(build):
    with pytest.raises(ValueError):
        build(-3)


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
def test_an_order_that_is_not_an_int_is_a_type_error(build):
    # The builders make their series unchecked, so the order is checked
    # on the way in, before and after the builder has cached a value.
    for _ in range(2):
        for order in (True, 3.0):
            with pytest.raises(TypeError, match="order must be an int"):
                build(order)
        build(5)


@pytest.mark.parametrize("sign", [1.0, -1.0, True])
def test_a_sign_that_is_not_an_int_is_refused(sign):
    with pytest.raises(ValueError, match="signs must be"):
        ThetaArgs(sign, 1, 1, 1)
    with pytest.raises(ValueError, match="signs must be"):
        ThetaArgs(1, 1, sign, 1)


def folded_factors(text):
    """The factor dict of each product, quotient or power in text that
    the evaluator folds into one eta_quotient call."""
    found, stack = [], [parse(text)]
    while stack:
        node = stack.pop()
        folded = _plan(node).fold if _is_product(node) else None
        if folded is None:
            stack.extend(children(node))
        else:
            found.append(folded.factors)
    return found


# Every factor dict that the catalog and scan texts fold into, once.
CATALOG_FACTORS = tuple({
    str(factors): factors
    for text in catalog_texts() + scan_texts()
    for factors in folded_factors(text)
}.values())


def test_catalog_factors_found():
    assert len(CATALOG_FACTORS) >= 12
    assert {7: 7, 1: -1} in CATALOG_FACTORS
    assert {28: 3, 14: 2, 4: 3, 2: -2} in CATALOG_FACTORS


#: The catalog's factor dicts, and one whose step is past every order.
FACTORS = CATALOG_FACTORS + ({99999999: 1},)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FACTORS), st.integers(min_value=0, max_value=200))
def test_eta_quotient_matches_one_division(factors, order):
    assert eta_quotient(factors, order) == eta(factors, order)


@pytest.mark.parametrize("factors", FACTORS, ids=str)
def test_eta_quotient_matches_one_division_at_2000(factors):
    assert eta_quotient(factors, 2000) == eta(factors, 2000)


def test_dilated_eta_quotient_reads_the_undilated_entry():
    """E(q^14)^7/E(q^2) at order 3000 is E(q^7)^7/E(q) at order 1500
    with q -> q^2: a truncation of the entry built at 6000."""
    eta_quotient({7: 7, 1: -1}, 6000)
    misses = _eta_quotient.cache_info().misses
    dilated = eta_quotient({14: 7, 2: -1}, 3000)
    assert _eta_quotient.cache_info().misses == misses
    assert dilated == eta({14: 7, 2: -1}, 3000)


def plain_eta_quotient(factors, order):
    """Product of E(q^step)^exp over {step: exp}, by the route without
    sparse factors: the positive powers multiplied, then one division by
    E(q^step) per unit of each negative exponent."""
    out = TruncSeries.one(order)
    for step, exp in sorted(factors.items()):
        if exp > 0:
            out = out.mul(euler_E(step, order).pow(exp))
    for step, exp in sorted(factors.items()):
        for _ in range(-exp):
            out = out.div(euler_E(step, order))
    return out


eta_maps = st.dictionaries(
    st.sampled_from((1, 2, 3, 4, 7, 8, 14, 28)),
    st.integers(min_value=-4, max_value=7),
    max_size=5,
)


@settings(max_examples=150, deadline=None)
@given(eta_maps, st.integers(min_value=0, max_value=400))
def test_eta_quotient_matches_the_plain_route(factors, order):
    # __wrapped__ builds without the cache, so every draw takes the
    # sparse factors afresh.
    pairs = tuple(sorted((k, v) for k, v in factors.items() if v))
    assert _eta_quotient.__wrapped__(pairs, order) == plain_eta_quotient(factors, order)
    assert eta_quotient(factors, order) == plain_eta_quotient(factors, order)


@settings(max_examples=150, deadline=None)
@given(eta_maps)
def test_the_split_spends_every_exponent_once(factors):
    # The atoms' eta forms, the powers and the divisors add up to the
    # map, and no division left could still be absorbed.
    atoms, powers, divisors = eta_split(factors)
    total = dict(powers)
    for step, count in divisors.items():
        total[step] = total.get(step, 0) - count
    rows = {build: form for form, build in SPARSE_FACTORS}
    for build, k in atoms:
        for m, e in rows[build].items():
            total[k * m] = total.get(k * m, 0) + e
    assert {k: v for k, v in total.items() if v} == {k: v for k, v in factors.items() if v}
    assert all(v > 0 for v in powers.values())
    assert all(v > 0 for v in divisors.values())
    for step in divisors:
        assert powers.get(2 * step, 0) < 2
        assert step % 2 or powers.get(step // 2, 0) < 2


@pytest.mark.parametrize("k", (1, 2, 3, 7, 14))
@pytest.mark.parametrize("row", range(len(SPARSE_FACTORS)))
def test_each_sparse_factor_is_its_eta_form_at_2000(row, k):
    form, build = SPARSE_FACTORS[row]
    want = plain_eta_quotient({k * m: e for m, e in form.items()}, 2000)
    assert build(k, 2000) == want
    assert build(k, 2000 - k) == want.truncate(2000 - k)


def test_each_sparse_factor_is_taken_and_divides_nothing(monkeypatch):
    # Each row's eta form alone is that one factor at q, and a quotient
    # whose one divisor phi(-q^4) absorbs, beside a cube E(q)^3 and two
    # Euler factors left over, is built without a division.
    taken = [eta_split(form)[0] for form, _ in SPARSE_FACTORS]
    assert taken == [[(build, 1)] for _, build in SPARSE_FACTORS]
    divisions = []
    monkeypatch.setattr(TruncSeries, "div", lambda *args: divisions.append(args))
    pairs = ((1, 3), (2, 1), (4, 2), (7, 1), (8, -1))
    assert eta_split(pairs)[1:] == ({2: 1, 7: 1}, {})
    _eta_quotient.__wrapped__(pairs, 300)
    assert divisions == []


def test_a_wrong_eta_form_is_caught(monkeypatch):
    """The mutant psi(q^k) = E(q^2k)/E(q^k), exponent 1 for 2, builds
    psi(q) * E(q^2) for psi(q): the differential oracle sees it."""
    form, build = SPARSE_FACTORS[0]
    assert form == {1: -1, 2: 2}
    mutant = (({1: -1, 2: 1}, build),) + SPARSE_FACTORS[1:]
    monkeypatch.setattr(theta_module, "SPARSE_FACTORS", mutant)
    factors = {1: -1, 2: 2}
    built = _eta_quotient.__wrapped__(tuple(factors.items()), 200)
    assert built != plain_eta_quotient(factors, 200)
    assert built == psi(1, 200).mul(euler_E(2, 200))


args_st = st.builds(
    ThetaArgs,
    st.sampled_from((1, -1)),
    st.integers(min_value=1, max_value=8),
    st.sampled_from((1, -1)),
    st.integers(min_value=1, max_value=8),
)


@settings(max_examples=40, deadline=None)
@given(args_st)
def test_triple_product_equals_bilateral_sum(args):
    assert triple_product(args, 60) == theta_f(args, 60)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6))
def test_theta_one_sided_collapses_to_psi_shape(r):
    # with s = 0 the exponent walk hits each triangular number twice
    lhs = theta_f(ThetaArgs(1, r, 1, 0), 48)
    assert lhs == 2 * psi(r, 48)
