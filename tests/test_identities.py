"""Identity catalog plumbing, the one row runner against
``TruncSeries.compare``, and the weight-3 Hecke-style slice operator."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from catalog_oracle import theta_args_used

from sevencores import exprlang, identities
from sevencores.exprlang import ExprEvalError, check_bounds
from sevencores.identities import (
    REGISTRY,
    SAMPLE_COUNT,
    LinearClaim,
    get_record,
    identity,
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
    assert r.status == "holds"


coeff_lists = st.lists(st.integers(min_value=-8, max_value=8), max_size=30)


@given(coeff_lists, coeff_lists, st.integers(min_value=-5, max_value=5))
def test_t2_is_linear(xs, ys, c):
    a = TruncSeries(30, tuple(xs)[:31])
    b = TruncSeries(30, tuple(ys)[:31])
    assert hecke_T2(a + b) == hecke_T2(a) + hecke_T2(b)
    assert hecke_T2(a.scale(c)) == hecke_T2(a).scale(c)


def test_a_record_parses_each_side_once(monkeypatch):
    parsed = []
    parse = exprlang.parse
    monkeypatch.setattr(exprlang, "parse", lambda text: parsed.append(text) or parse(text))
    # Texts no other test evaluates, so the root cache holds neither.
    lhs, rhs = "psi(q)^2 - q^11", "phi(q)*psi(q^2) - q^11"
    rec = identity("twice", "evaluated twice", lhs, rhs)
    for order in (30, 60):
        assert rec.lhs(order) == rec.rhs(order)
    assert sorted(parsed) == sorted([lhs, rhs])


def test_a_record_builds_by_keyword():
    rec = identity(id="kw", note="by keyword", lhs_text="q", rhs_text="q^1")
    assert rec == LinearClaim(
        "kw", "identity", "by keyword", ((1, "q", 1, 0),), ((1, "q^1", 1, 0),), "eq"
    )
    assert (rec.note, rec.lhs_text, rec.rhs_text) == ("by keyword", "q", "q^1")
    assert verify(rec, 10).status == "holds"


def test_only_an_identity_row_has_two_sides():
    from sevencores.inequalities import _CLAIMS_BY_ID

    claim = _CLAIMS_BY_ID["ineq-1.12"].runner
    empty_lhs = LinearClaim("x", "theorem", "n", (), ((1, "q", 1, 0),))
    for row in (claim, empty_lhs):
        for read in (
            lambda r: r.lhs_text, lambda r: r.rhs_text,
            lambda r: r.lhs(5), lambda r: r.rhs(5),
        ):
            with pytest.raises(ValueError, match=f"{row.id} is a {row.kind} row"):
                read(row)
    assert claim(50).status == "holds"


def test_registry_well_formed():
    assert len(REGISTRY) == 46
    ids = [rec.id for rec in REGISTRY]
    assert len(set(ids)) == len(ids)
    for rec in REGISTRY:
        assert rec.lhs_text and rec.rhs_text and rec.note
        assert rec == identity(rec.id, rec.note, rec.lhs_text, rec.rhs_text)


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
    assert r.status == "holds"
    assert r.order == 100
    assert r.violation is None
    assert r.millis >= 0


def test_verify_accepts_record_object():
    rec = get_record("eq-3.24")
    assert verify(rec, 200).status == "holds"


def test_verify_reports_first_mismatch():
    broken = identity(
        id="broken-slot",
        note="constant bumped on one side",
        lhs_text="E(q)",
        rhs_text="E(q) + 1",
    )
    r = verify(broken, 50)
    assert r.status == "violated"
    assert r.violation == (0, 1, 2)


def test_verify_mismatch_past_the_head():
    broken = identity(
        id="broken-tail",
        note="cube with a wrong high coefficient",
        lhs_text="E(q)^3",
        rhs_text="E(q)^3 + q^3",
    )
    r = verify(broken, 50)
    assert (r.status, r.violation[0]) == ("violated", 3)


def test_the_runner_matches_compare_on_every_catalog_row():
    """Every catalog row, and one mutant per row whose right side gains
    q^k, gets from the one runner the range, status, violation and
    samples that TruncSeries.compare gives on its two evaluated sides;
    a violation equals compare's Mismatch."""
    for order in (0, 1, 50, 400):
        for i, rec in enumerate(REGISTRY):
            k = i % (order + 1)
            mutant = identity(rec.id, rec.note, rec.lhs_text, f"({rec.rhs_text}) + q^{k}")
            for row in (rec, mutant):
                lhs, rhs = row.lhs(order), row.rhs(order)
                first = lhs.compare(rhs)
                shown = SAMPLE_COUNT if first is None else first.exponent + 1
                assert tuple(row(order)[4:8]) == (
                    (0, order),
                    "holds" if first is None else "violated",
                    first,
                    tuple(zip(range(min(shown, SAMPLE_COUNT)), lhs.coeffs, rhs.coeffs)),
                ), (row.id, order)
            n, lhs, rhs = mutant(order).violation
            assert (n, rhs - lhs) == (k, 1)


def test_verify_all_order_and_status():
    reports = verify_all(60)
    assert [r.id for r in reports] == [rec.id for rec in REGISTRY]
    assert all(r.status == "holds" for r in reports)


def test_verify_all_degenerate_order():
    # order 0 only compares constant terms, but nothing should crash
    assert all(r.status == "holds" for r in verify_all(0))


def test_a_warm_verify_all_checks_each_side_by_one_comparison(monkeypatch):
    """Each side goes through check_bounds once, which for a checked text
    is one cache lookup and one comparison."""
    verify_all(60)
    calls = []
    monkeypatch.setattr(
        identities, "check_bounds", lambda *args: calls.append(args) or check_bounds(*args)
    )
    assert all(r.status == "holds" for r in verify_all(60))
    sides = [text for rec in REGISTRY for text in (rec.lhs_text, rec.rhs_text)]
    assert calls == [(text, 60) for text in sides]
    # One past a side's largest order, check_bounds refuses it before any
    # record is built.
    calls.clear()
    built = []
    monkeypatch.setattr(identities, "verify", lambda *args: built.append(args))
    with pytest.raises(ExprEvalError, match=r"'lattice\(5\)': it would be counted at order 12801"):
        verify_all(12801)
    assert calls[-1] == ("lattice(5)", 12801)
    assert calls == [(text, 12801) for text in sides[: len(calls)]]
    assert built == []
    for bad, error in ((1.5, TypeError), (True, TypeError), (-1, ValueError)):
        with pytest.raises(error, match="order must be"):
            verify_all(bad)
    assert built == []


# Counts the series divisions of a cold verify --all in a fresh
# interpreter, where every cache starts empty.
COUNT_DIVISIONS = """
from sevencores import series
from sevencores.identities import verify_all
divide, calls = series._divide, []
series._divide = lambda *args: calls.append(1) or divide(*args)
assert all(r.status == "holds" for r in verify_all(400))
print(len(calls))
"""


def test_a_cold_catalog_pass_divides_15_times():
    """Q = E(q^28)E(q^14)^3E(q^4)/E(q^2) multiplies a non-folding operand
    in eq-1.17, eq-5.1, eq-5.3 and eq-5.5; each such node multiplies by
    the one cached quotient instead of dividing by E(q^2) itself, which
    took 23 divisions.  Of the 19 left, the sparse theta factors absorb
    four: E(q^2)^2/E(q) is psi(q) whole; psi(q^2) takes one E(q^2) of the
    rank -1 quotient; phi(-q^7) the E(q^14) of the chi quotient; and
    phi(-q^14) the E(q^28) of W in W*omega(q^2), which divides by E(q^4)
    last.  Where W's text is spliced into a longer product, its two
    divisors fold on their own, with no numerator, and both divide last."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", COUNT_DIVISIONS],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert out == "15\n"


# Counts, in a fresh interpreter, the fold steps and the node hashes of a
# warm verify --all, after a cold one has compiled every tree.
COUNT_WARM_WALKS = """
from sevencores import exprlang
from sevencores.identities import verify_all
assert all(r.status == "holds" for r in verify_all(400))
fold, folds, hashes = exprlang._fold, [], []
exprlang._fold = lambda *args: folds.append(1) or fold(*args)
for cls in exprlang.Node.__subclasses__():
    cls.__hash__ = lambda self, real=cls.__hash__: hashes.append(1) or real(self)
assert all(r.status == "holds" for r in verify_all(400))
print(len(folds), len(hashes))
"""


def test_a_warm_catalog_pass_folds_and_hashes_no_node():
    """Each catalog text keeps its compiled plan, and each non-folding
    product's cache key is fixed when it is compiled, so a warm pass
    neither folds a node nor hashes one (folding on every evaluation
    took 754 fold steps and 1326 node hashes per pass)."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", COUNT_WARM_WALKS],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert out == "0 0\n"
