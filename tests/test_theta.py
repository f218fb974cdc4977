"""Theta building blocks: products against sums, eta forms, frozen heads."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog_oracle import catalog_texts, children, eta

from sevencores.exprlang import _fold, _is_product, parse
from sevencores.inequalities import SERIES
from sevencores.series import TruncSeries
from sevencores.theta import (
    ThetaArgs,
    chi_neg,
    eta_quotient,
    euler_E,
    jacobi_cube,
    omega,
    omega_at,
    phi,
    pochhammer,
    psi,
    sigma,
    sigma_at,
    theta_f,
    triple_product,
)


def test_euler_pentagonal_head():
    assert euler_E(1, 12).coeffs == (1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1)


def test_euler_step_spreads():
    assert euler_E(3, 9) == euler_E(1, 9).compose_power(3)


def test_pochhammer_single_factor():
    # sign +1 encodes (q^a; q^m), factors (1 - q^...)
    assert pochhammer(1, 1, 10, 3).coeffs == (1, -1, 0, 0)
    assert pochhammer(-1, 1, 10, 3).coeffs == (1, 1, 0, 0)
    # (q; q) prefix is the Euler product
    assert pochhammer(1, 1, 1, 12) == euler_E(1, 12)
    # (-q; q) = 1 + q + q^2 + 2q^3 + 2q^4 + ...
    assert pochhammer(-1, 1, 1, 4).coeffs == (1, 1, 1, 2, 2)


def test_pochhammer_validation():
    with pytest.raises(ValueError):
        pochhammer(2, 1, 1, 5)
    with pytest.raises(ValueError):
        pochhammer(1, 0, 1, 5)
    with pytest.raises(ValueError):
        pochhammer(1, 1, 0, 5)


def test_theta_args_validation():
    with pytest.raises(ValueError):
        ThetaArgs(2, 1, 1, 1)
    with pytest.raises(ValueError):
        ThetaArgs(1, -1, 1, 2)
    with pytest.raises(ValueError):
        ThetaArgs(1, 0, 1, 0)
    ThetaArgs(1, 0, 1, 1)  # one-sided is fine


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


def test_phi_psi_eta_forms():
    assert phi(1, 40) == eta_quotient({2: 5, 4: -2, 1: -2}, 40)
    assert psi(1, 40) == eta_quotient({2: 2, 1: -1}, 40)
    assert phi(3, 40) == eta_quotient({6: 5, 12: -2, 3: -2}, 40)


def test_chi_is_odd_pochhammer():
    # E(q^m)/E(q^2m) telescopes to the odd-spaced product (q^m; q^2m)
    for m in (1, 2, 7):
        assert chi_neg(m, 60) == pochhammer(1, m, 2 * m, 60)


def test_sigma_omega_heads():
    assert sigma(6).coeffs == (1, 2, 4, 0, 6, 0, 0)
    assert omega(6).coeffs == (1, 0, 0, 1, 1, 2, 0)


def test_jacobi_cube_matches_cube():
    assert jacobi_cube(80) == euler_E(1, 80) ** 3


def test_jacobi_cube_head():
    assert jacobi_cube(7).coeffs == (1, -3, 0, 5, 0, 0, -7, 0)


def test_eta_quotient_zero_power_ignored():
    assert eta_quotient({1: 0, 2: 1}, 10) == euler_E(2, 10)


def test_eta_quotient_empty_is_one():
    assert eta_quotient({}, 5) == TruncSeries.one(5)


@pytest.mark.parametrize(
    "build",
    [
        lambda n: euler_E(1, n),
        lambda n: pochhammer(1, 1, 1, n),
        lambda n: theta_f(ThetaArgs(1, 1, 1, 1), n),
        lambda n: triple_product(ThetaArgs(1, 1, 1, 1), n),
        lambda n: phi(1, n),
        lambda n: psi(1, n),
        lambda n: chi_neg(1, n),
        lambda n: eta_quotient({7: 7, 1: -1}, n),
        lambda n: sigma_at(1, n),
        lambda n: omega_at(1, n),
        jacobi_cube,
    ],
    ids=["euler_E", "pochhammer", "theta_f", "triple_product", "phi", "psi",
         "chi_neg", "eta_quotient", "sigma_at", "omega_at", "jacobi_cube"],
)
def test_negative_order_is_a_value_error(build):
    with pytest.raises(ValueError):
        build(-3)


def folded_factors(text):
    """The factor dict of each product, quotient or power in text that
    the evaluator folds into one eta_quotient call."""
    found, stack = [], [parse(text)]
    while stack:
        node = stack.pop()
        folded = _fold(node) if _is_product(node) else None
        if folded is None:
            stack.extend(children(node))
        else:
            found.append(folded.factors)
    return found


# Every factor dict that the catalog and SERIES texts fold into, once.
CATALOG_FACTORS = tuple({
    str(factors): factors
    for text in catalog_texts() + list(SERIES.values())
    for factors in folded_factors(text)
}.values())


def test_catalog_factors_found():
    assert len(CATALOG_FACTORS) >= 12
    assert {7: 7, 1: -1} in CATALOG_FACTORS
    assert {28: 3, 14: 2, 4: 3, 2: -2} in CATALOG_FACTORS


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(CATALOG_FACTORS), st.integers(min_value=0, max_value=120)
)
def test_eta_quotient_matches_one_division(factors, order):
    assert eta_quotient(factors, order) == eta(factors, order)


@pytest.mark.parametrize("factors", CATALOG_FACTORS, ids=str)
def test_eta_quotient_matches_one_division_at_2000(factors):
    assert eta_quotient(factors, 2000) == eta(factors, 2000)


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
