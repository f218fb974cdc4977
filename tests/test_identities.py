"""Identity catalog plumbing and the weight-3 Hecke-style slice operator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catalog_oracle import theta_args_used

from sevencores.identities import (
    REGISTRY,
    IdentityRecord,
    get_record,
    registry_ids,
    verify,
    verify_all,
)
from sevencores.series import TruncSeries, hecke_T2
from sevencores.theta import ThetaArgs


def test_t2_on_constants_and_monomials():
    one = TruncSeries.one(20)
    assert hecke_T2(one) == TruncSeries.constant(5, 10)
    q = TruncSeries.monomial(1, 1, 20)
    assert hecke_T2(q) == TruncSeries.monomial(4, 2, 10)
    q4 = TruncSeries.monomial(1, 4, 20)
    # picks up both the index-doubling and the index-halving term
    assert hecke_T2(q4) == TruncSeries.monomial(1, 2, 10) + TruncSeries.monomial(4, 8, 10)


def test_t2_halves_order():
    assert hecke_T2(TruncSeries.zero(41)).order == 20


def test_t2_fixes_cube_product():
    # E(q)^3 * E(q^7)^3 is a T2 eigenform with eigenvalue zero off the
    # even part it reproduces; the catalog identity pins the exact form.
    r = verify("eq-3.28", 100)
    assert r.status == "pass"


coeff_lists = st.lists(st.integers(min_value=-8, max_value=8), max_size=30)


@given(coeff_lists, coeff_lists, st.integers(min_value=-5, max_value=5))
def test_t2_is_linear(xs, ys, c):
    a = TruncSeries(30, tuple(xs)[:31])
    b = TruncSeries(30, tuple(ys)[:31])
    assert hecke_T2(a + b) == hecke_T2(a) + hecke_T2(b)
    assert hecke_T2(a.scale(c)) == hecke_T2(a).scale(c)


def test_registry_well_formed():
    assert len(REGISTRY) == 46
    ids = registry_ids()
    assert len(set(ids)) == len(ids)
    for rec in REGISTRY:
        assert rec.lhs_text and rec.rhs_text and rec.note


def test_theta_args_in_use_support_product_form():
    used = theta_args_used()
    assert used == {
        ThetaArgs(1, 1, 1, 13), ThetaArgs(1, 3, 1, 11), ThetaArgs(1, 5, 1, 9),
        ThetaArgs(1, 2, 1, 12), ThetaArgs(1, 4, 1, 10), ThetaArgs(1, 6, 1, 8),
        ThetaArgs(1, 1, 1, 6), ThetaArgs(1, 2, 1, 5), ThetaArgs(1, 3, 1, 4),
        ThetaArgs(1, 4, 1, 24), ThetaArgs(1, 12, 1, 16),
        ThetaArgs(1, 10, 1, 18), ThetaArgs(1, 2, 1, 26),
        ThetaArgs(-1, 1, -1, 1), ThetaArgs(-1, 2, -1, 2),
        ThetaArgs(-1, 7, -1, 7), ThetaArgs(-1, 14, -1, 14),
        ThetaArgs(-1, 1, -1, 3), ThetaArgs(-1, 7, -1, 21),
    }
    for args in used:
        assert args.r >= 1 and args.s >= 1


def test_get_record_unknown_id():
    with pytest.raises(KeyError):
        get_record("eq-0.0")


def test_verify_single_pass():
    r = verify("eq-1.34", 100)
    assert r.status == "pass"
    assert r.order == 100
    assert r.mismatch_exponent is None
    assert r.millis >= 0


def test_verify_accepts_record_object():
    rec = get_record("eq-3.24")
    assert verify(rec, 200).status == "pass"


def test_verify_reports_first_mismatch():
    broken = IdentityRecord(
        id="broken-slot",
        note="constant bumped on one side",
        lhs_text="E(q)",
        rhs_text="E(q) + 1",
    )
    r = verify(broken, 50)
    assert r.status == "fail"
    assert r.mismatch_exponent == 0
    assert (r.lhs_coeff, r.rhs_coeff) == (1, 2)


def test_verify_mismatch_past_the_head():
    broken = IdentityRecord(
        id="broken-tail",
        note="cube with a wrong high coefficient",
        lhs_text="E(q)^3",
        rhs_text="E(q)^3 + q^3",
    )
    r = verify(broken, 50)
    assert (r.status, r.mismatch_exponent) == ("fail", 3)


def test_verify_all_order_and_status():
    reports = verify_all(60)
    assert [r.id for r in reports] == list(registry_ids())
    assert all(r.status == "pass" for r in reports)


def test_verify_all_degenerate_order():
    # order 0 only compares constant terms, but nothing should crash
    assert all(r.status == "pass" for r in verify_all(0))


def test_verify_all_custom_subset():
    subset = [get_record("eq-5.1"), get_record("eq-1.20")]
    reports = verify_all(40, records=subset)
    assert [r.id for r in reports] == ["eq-5.1", "eq-1.20"]


def test_verify_all_empty():
    assert verify_all(40, records=[]) == []
