"""Scan layer: claim registry shape, sample capture, violation reporting.

``oracle_scan`` is the per-n scan the table rows used to run: one
comprehension per column and one loop step per instance.  The rows now
take each column as a slice of the series, and a differential test
checks them against it.  A report's ``millis`` is wall time, so the
comparisons leave it out (``outcome``).
"""

import os
import subprocess
import sys
from itertools import repeat
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catalog_oracle import catalog_texts, scan_texts

from sevencores import cli, exprlang, forms, identities
from sevencores.exprlang import ExprSyntaxError
from sevencores.forms import CUBE_PAIR, G
from sevencores.identities import (
    REGISTRY,
    SAMPLE_COUNT,
    LinearClaim,
    Report,
    get_record,
)
from sevencores.inequalities import CLAIMS, core_split, run_all, run_claim
from sevencores.series import TruncSeries


def outcome(report: Report) -> Report:
    """The report without its wall time."""
    return report._replace(millis=None)


def oracle_scan(claim: LinearClaim, order: int) -> Report:
    """The report of ``claim`` at this order, one n at a time, without
    its wall time."""
    terms = claim.lhs_terms + claim.rhs_terms
    hi = min((order - b) // a for _, _, a, b in terms)
    texts = {text for _, text, _, _ in terms}
    coeffs = {text: identities.evaluate(text, order).coeffs for text in texts}
    ns = [
        n for n in range(claim.n0, hi + 1)
        if not claim.mod7 or n % 7 in claim.mod7
    ]

    def side(terms):
        columns = [
            [c * coeffs[text][a * n + b] for n in ns]
            for c, text, a, b in terms
        ]
        return map(sum, zip(*columns)) if columns else repeat(0)

    samples = []
    violation = None
    for n, lhs, rhs in zip(ns, side(claim.lhs_terms), side(claim.rhs_terms)):
        if len(samples) < SAMPLE_COUNT:
            samples.append((n, lhs, rhs))
        ok = lhs >= rhs if claim.relation == "ge" else lhs == rhs
        if not ok:
            violation = (n, lhs, rhs)
            break
    return Report(
        id=claim.id,
        kind=claim.kind,
        note=claim.note,
        order=order,
        n_range=(claim.n0, hi),
        status="violated" if violation else "holds" if samples else "empty",
        violation=violation,
        samples=tuple(samples),
        millis=None,
    )


def test_core_split_heads():
    cs = core_split(10)
    assert cs.a7.coeffs[:9] == (1, 1, 2, 3, 5, 7, 11, 8, 15)
    # alternating-sign companion: 1 - 3q + 5q^3 - 7q^6 + 9q^8 - ...
    assert cs.b.coeffs == (1, -3, 0, 5, 0, 0, -7, -3, 9, 0, -6)


def test_rank_columns_add_up():
    cs = core_split(24)
    total = cs.a7_m1 + cs.a7_0 + cs.a7_1 + cs.a7_2
    assert total == cs.a7


def test_registry_partition():
    kinds = {c.kind for c in CLAIMS}
    assert kinds == {"theorem", "conjecture"}
    assert len(CLAIMS) == 29
    assert sum(c.kind == "theorem" for c in CLAIMS) == 19
    assert sum(c.kind == "conjecture" for c in CLAIMS) == 10


def test_identity_and_claim_ids_are_one_id_space():
    identity_ids = [rec.id for rec in REGISTRY]
    claim_ids = [c.id for c in CLAIMS]
    assert len(set(identity_ids)) == len(identity_ids) == 46
    assert len(set(claim_ids)) == len(claim_ids) == 29
    assert not set(identity_ids) & set(claim_ids)


def test_run_claim_unknown():
    with pytest.raises(KeyError):
        run_claim("no-such-claim", 50)


def test_doubling_bound_holds():
    r = run_claim("ineq-1.11", 400)
    assert r.status == "holds"
    assert r.violation is None
    assert len(r.samples) == SAMPLE_COUNT
    # a7(2n+2) vs 2*a7(n) at n=0: 2 >= 2, tight
    assert r.samples[0] == (0, 2, 2)


def test_progression_sample_instance():
    r = run_claim("prog-1.15-r1", 600)
    assert r.status == "holds"
    assert r.samples[0] == (0, 5, 5)


def test_boundary_of_mixed_sign_bound():
    r = run_claim("cor-4.1", 300)
    assert r.status == "holds"
    assert r.n_range == (1, 300)
    # 3*a7(0) + b(1) = 3 - 3 = 0 sits exactly on the bound
    assert r.samples[0] == (1, 0, 0)


def test_b_vanishing_residues():
    cs = core_split(60)
    for n in range(61):
        if n % 7 in (2, 4, 5):
            assert cs.b[n] == 0
    # negative control: residues that do carry mass
    assert cs.b[1] == -3
    assert cs.b[6] == -7
    r = run_claim("vanish-b", 500)
    assert r.status == "holds"


#: The ten headline claims: four growth bounds, six index progressions.
THEOREM_1_1 = (
    "ineq-1.11", "ineq-1.12", "ineq-1.13", "ineq-1.14",
    "prog-1.15-r1", "prog-1.15-r2", "prog-1.15-r6",
    "prog-1.16-r2", "prog-1.16-r4", "prog-1.16-r5",
)


def test_theorem_bundle():
    reports = [run_claim(i, 600) for i in THEOREM_1_1]
    assert len(reports) == 10
    assert all(r.status == "holds" for r in reports)


def test_referee_progressions_need_depth():
    reports = [run_claim(f"prog-ext-r{r}", 1000) for r in (10, 17, 45)]
    assert {r.id for r in reports} == {"prog-ext-r10", "prog-ext-r17", "prog-ext-r45"}
    assert all(r.status == "holds" for r in reports)


#: The row 1*E(q)[n] >= 0, over a series no claim scans.
EULER_POSITIVITY = LinearClaim(
    "synthetic-negative", "theorem", "euler product coefficients",
    ((1, "E(q)", 1, 0),),
)


def test_positivity_violation_reports_witness():
    # Euler product itself goes negative at q^1
    r = EULER_POSITIVITY(50)
    assert r.status == "violated"
    assert r.violation == (1, -1, 0)
    assert r.id == "synthetic-negative"


def test_conj_6_1_first_fails_at_15198():
    # Past the bench depth of 6000: psi(q)^3 and psi(q)psi(q^7)^2 read
    # 114 and 133 at q^15198, and nothing earlier breaks the row.
    assert run_claim("conj-6.1", 15197).status == "holds"
    r = run_claim("conj-6.1", 15200)
    assert (r.status, r.violation) == ("violated", (15198, -19, 0))


def test_violation_stops_sampling_early():
    r = EULER_POSITIVITY(50)
    # only exponent 0 passes before the failure at exponent 1
    assert len(r.samples) <= SAMPLE_COUNT
    assert r.samples == ((0, 1, 0), (1, -1, 0))


def test_a_second_scan_parses_nothing(monkeypatch):
    run_all(100)
    parsed = []
    parse = exprlang.parse
    monkeypatch.setattr(exprlang, "parse", lambda text: parsed.append(text) or parse(text))
    run_all(100)
    assert parsed == []


# Counts the parses of the 7-core text G in a fresh interpreter, where
# the root cache starts empty: core_split, a claim over G and the
# identity catalog each evaluate it at two orders.
PARSES_OF_G = """
from sevencores import exprlang
from sevencores.forms import G
from sevencores.identities import get_record
from sevencores.inequalities import core_split, run_claim
parse, parsed = exprlang.parse, []
exprlang.parse = lambda text: parsed.append(text) or parse(text)
for order in (40, 80):
    core_split(order)
    run_claim("ineq-1.11", order)
    get_record("eq-1.3-t7").rhs(order)
print(parsed.count(G))
"""


def test_one_text_is_parsed_once_per_process():
    ineq_1_11 = CLAIMS[0].runner
    assert ineq_1_11.id == "ineq-1.11"
    assert {text for _, text, _, _ in ineq_1_11.lhs_terms + ineq_1_11.rhs_terms} == {G}
    assert get_record("eq-1.3-t7").rhs_text == G
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", PARSES_OF_G],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert out == "1\n"


# Counts the series divisions of a cold scan --theorems and a cold scan
# --conjectures at depth 6000, in a fresh interpreter.
COUNT_SCAN_DIVISIONS = """
import contextlib, io
from sevencores import cli, series
divide, calls = series._divide, []
series._divide = lambda *args: calls.append(1) or divide(*args)
with contextlib.redirect_stdout(io.StringIO()):
    exits = [cli.main(["scan", kind, "--order", "6000"])
             for kind in ("--theorems", "--conjectures")]
print(len(calls), exits)
"""


def test_a_cold_scan_at_depth_6000_divides_3_times():
    """G = E(q^7)^7/E(q) divides by E(q) once; G2 and the rank 2 layer
    are G dilated.  The rank -1 quotient divides by one E(q^2), where
    psi(q^2) absorbs the other, and W*omega(q^2) by E(q^4) last, where
    phi(-q^14) absorbs E(q^28).  That took 5 divisions before the sparse
    theta factors."""
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", COUNT_SCAN_DIVISIONS],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    # One conjecture fails at this depth (exit 3).
    assert out == "3 [0, 3]\n"


def test_run_all_kinds():
    reports = run_all(200, "conjecture")
    assert len(reports) == 10
    assert all(r.kind == "conjecture" for r in reports)
    assert all(r.status == "holds" for r in reports)
    everything = run_all(150)
    assert len(everything) == 29


def test_default_depth_constant():
    assert cli.DEFAULT_DEPTH == 2000


def test_empty_range_is_not_holds():
    r = run_claim("ineq-1.12", 3)  # needs a7(6), past order 3
    assert r.status == "empty"
    assert r.n_range == (0, -1)
    assert r.violation is None and r.samples == ()
    # the range is not empty, but no n in 0..1 has residue 2, 4 or 5
    assert run_claim("vanish-b", 1).status == "empty"
    assert run_claim("vanish-b", 2).status == "holds"


def test_table_row_derives_its_range():
    # a7(n) >= a7(n+1) needs a7 up to n+1, so n stops at order-1
    claim = LinearClaim(
        "zz-decreasing", "conjecture", "a7(n) >= a7(n+1)",
        ((1, G, 1, 0),), ((1, G, 1, 1),),
    )
    r = claim(50)
    assert r.n_range == (0, 49)
    assert r.status == "violated"
    assert r.violation == (1, 1, 2)
    assert r.samples == ((0, 1, 1), (1, 1, 2))


# (order, claim, n_range, status, first sample); no claim is violated at
# these orders.  Taken from the hand-written runners the table replaced,
# with the sample-less "holds" rows turned into "empty".
GOLDEN = (
    (3, "ineq-1.11", (0, 0), "holds", (0, 2, 2)),
    (3, "ineq-1.12", (0, -1), "empty", None),
    (3, "ineq-1.13", (0, 3), "holds", (0, 1, 0)),
    (3, "ineq-1.14", (0, 3), "holds", (0, 0, 0)),
    (3, "prog-1.15-r1", (0, -1), "empty", None),
    (3, "prog-1.15-r2", (0, -1), "empty", None),
    (3, "prog-1.15-r6", (0, -1), "empty", None),
    (3, "prog-1.16-r2", (0, -1), "empty", None),
    (3, "prog-1.16-r4", (0, -1), "empty", None),
    (3, "prog-1.16-r5", (0, -1), "empty", None),
    (3, "cor-4.1", (1, 3), "holds", (1, 0, 0)),
    (3, "vanish-b", (0, 3), "holds", (2, 0, 0)),
    (3, "pos-1.23-1", (0, 3), "holds", (0, 1, 0)),
    (3, "pos-1.23-2", (0, 3), "holds", (0, 0, 0)),
    (3, "pos-1.23-3", (0, 3), "holds", (0, 0, 0)),
    (3, "pos-1.23-4", (0, 3), "holds", (0, 0, 0)),
    (3, "pos-4.6", (0, 3), "holds", (0, 1, 0)),
    (3, "pos-4.7", (0, 3), "holds", (0, 1, 0)),
    (3, "pos-4.12", (0, 3), "holds", (0, 0, 0)),
    (3, "conj-6.1", (0, 3), "holds", (0, 0, 0)),
    (3, "conj-6.2", (0, 3), "holds", (0, 0, 0)),
    (3, "conj-6.3", (0, 3), "holds", (0, 0, 0)),
    (3, "conj-6.4", (0, 3), "holds", (0, 0, 0)),
    (3, "conj-sharp-double", (1, 0), "empty", None),
    (3, "conj-sharp-quad15", (1, -1), "empty", None),
    (3, "conj-sharp-quad11", (0, -1), "empty", None),
    (3, "prog-ext-r10", (0, -1), "empty", None),
    (3, "prog-ext-r17", (0, -1), "empty", None),
    (3, "prog-ext-r45", (0, -1), "empty", None),
    (300, "ineq-1.11", (0, 149), "holds", (0, 2, 2)),
    (300, "ineq-1.12", (0, 73), "holds", (0, 11, 10)),
    (300, "ineq-1.13", (0, 300), "holds", (0, 1, 0)),
    (300, "ineq-1.14", (0, 300), "holds", (0, 0, 0)),
    (300, "prog-1.15-r1", (0, 10), "holds", (0, 5, 5)),
    (300, "prog-1.15-r2", (0, 10), "holds", (0, 15, 15)),
    (300, "prog-1.15-r6", (0, 9), "holds", (0, 105, 105)),
    (300, "prog-1.16-r2", (0, 10), "holds", (0, 25, 25)),
    (300, "prog-1.16-r4", (0, 10), "holds", (0, 75, 75)),
    (300, "prog-1.16-r5", (0, 9), "holds", (0, 105, 105)),
    (300, "cor-4.1", (1, 300), "holds", (1, 0, 0)),
    (300, "vanish-b", (0, 300), "holds", (2, 0, 0)),
    (300, "pos-1.23-1", (0, 300), "holds", (0, 1, 0)),
    (300, "pos-1.23-2", (0, 300), "holds", (0, 0, 0)),
    (300, "pos-1.23-3", (0, 300), "holds", (0, 0, 0)),
    (300, "pos-1.23-4", (0, 300), "holds", (0, 0, 0)),
    (300, "pos-4.6", (0, 300), "holds", (0, 1, 0)),
    (300, "pos-4.7", (0, 300), "holds", (0, 1, 0)),
    (300, "pos-4.12", (0, 300), "holds", (0, 0, 0)),
    (300, "conj-6.1", (0, 300), "holds", (0, 0, 0)),
    (300, "conj-6.2", (0, 300), "holds", (0, 0, 0)),
    (300, "conj-6.3", (0, 300), "holds", (0, 0, 0)),
    (300, "conj-6.4", (0, 300), "holds", (0, 0, 0)),
    (300, "conj-sharp-double", (1, 149), "holds", (1, 5, 3)),
    (300, "conj-sharp-quad15", (1, 73), "holds", (1, 21, 15)),
    (300, "conj-sharp-quad11", (0, 73), "holds", (0, 11, 11)),
    (300, "prog-ext-r10", (0, 1), "holds", (0, 245, 245)),
    (300, "prog-ext-r17", (0, 1), "holds", (0, 735, 735)),
    (300, "prog-ext-r45", (0, 0), "holds", (0, 5145, 5145)),
)


def test_golden_reports():
    got = []
    for order, claim, _, _, _ in GOLDEN:
        r = run_claim(claim, order)
        assert r.violation is None, claim
        got.append(
            (order, claim, r.n_range, r.status, r.samples[0] if r.samples else None)
        )
    assert got == list(GOLDEN)


def test_table_rows_match_the_oracle():
    for order in (6000, *range(120)):
        for record in CLAIMS:
            assert outcome(record.runner(order)) == oracle_scan(record.runner, order), (
                record.id, order,
            )


#: Stand-in texts: the random rows evaluate each to a drawn series.
TEXTS = ("s0", "s1", "s2")


@st.composite
def scan_cases(draw):
    """The fields of a valid random row over the texts s0..s2, the
    series they stand for and an order; small orders and large offsets
    give empty ranges, and one row in four has the identity shape."""
    order = draw(st.integers(min_value=0, max_value=300))
    low, high = draw(st.sampled_from(((-3, 3), (-1, 20), (0, 9))))
    values = st.integers(min_value=low, max_value=high)
    series = {}
    for text in TEXTS:
        cs = draw(st.lists(values, min_size=order + 1, max_size=order + 1))
        # Only every gap-th coefficient may be nonzero.
        gap = draw(st.sampled_from((1, 1, 2, 5, 13)))
        series[text] = TruncSeries(
            order, [c if k % gap == 0 else 0 for k, c in enumerate(cs)]
        )
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        # An identity-shaped row: one term 1*S[n] a side, n0 0, no mod7,
        # "eq".  s1 is then s0, equal or with one coefficient changed.
        cs = list(series["s0"].coeffs)
        if draw(st.booleans()):
            k = draw(st.integers(min_value=0, max_value=order))
            cs[k] += draw(st.sampled_from((1, -1)))
        series["s1"] = TruncSeries(order, cs)
        pairs = (("s0", "s1"), ("s1", "s0"), ("s0", "s0"), ("s0", "s2"))
        left, right = draw(st.sampled_from(pairs))
        fields = (((1, left, 1, 0),), ((1, right, 1, 0),), "eq", 0, ())
        return fields, series, order
    n0 = draw(st.integers(min_value=0, max_value=5))

    @st.composite
    def term(draw):
        coef = draw(st.integers(min_value=1, max_value=15))
        coef *= draw(st.sampled_from((1, -1)))
        top = draw(st.sampled_from((3, 30)))  # small steps give long ranges
        a = draw(st.integers(min_value=1, max_value=top))
        b = draw(st.integers(min_value=-a * n0, max_value=40))
        return (coef, draw(st.sampled_from(TEXTS)), a, b)

    lhs = tuple(draw(st.lists(term(), min_size=1, max_size=3)))
    # A mirrored rhs sums to the lhs, so the row holds unless one more
    # term breaks it, often late in the range.
    rhs = draw(st.sampled_from((
        tuple(draw(st.lists(term(), min_size=0, max_size=3))),
        lhs[::-1],
        lhs[::-1] + (draw(term()),),
    )))
    fields = (
        lhs, rhs, draw(st.sampled_from(("ge", "eq"))), n0,
        tuple(sorted(draw(st.sets(st.integers(min_value=0, max_value=6))))),
    )
    return fields, series, order


@settings(deadline=None)
@given(scan_cases())
def test_random_rows_match_the_oracle(case):
    fields, series, order = case
    with mock.patch.object(
        identities, "evaluate", lambda text, n: series[text].truncate(n)
    ):
        claim = LinearClaim("random", "conjecture", "a random row", *fields)
        assert outcome(claim(order)) == oracle_scan(claim, order)


def row(*terms, **fields):
    return LinearClaim("bad", "theorem", "a bad row", terms, **fields)


def test_rows_are_validated_when_built():
    # a7[-1] would read the top coefficient of a7.
    with pytest.raises(ValueError, match="a\\*n0 \\+ b >= 0"):
        row((1, G, 1, -1))
    with pytest.raises(ValueError, match="a >= 1"):
        row((1, G, 0, 3))
    with pytest.raises(ValueError, match="a >= 1"):
        row((1, G, -2, 3))
    with pytest.raises(ValueError, match="n0 = 1"):
        row((1, G, 2, 2), (1, CUBE_PAIR, 3, -4), n0=1)
    with pytest.raises(ValueError, match="relation"):
        row((1, G, 1, 0), relation="le")
    with pytest.raises(ValueError, match="mod7"):
        row((1, G, 1, 0), mod7=(0, 7))
    with pytest.raises(ValueError, match="mod7"):
        row((1, G, 1, 0), mod7=(-1,))
    with pytest.raises(ValueError, match="at least one term"):
        row()


def test_valid_edge_rows_are_accepted():
    # cor-4.1 reads a7(n - 1) from n0 = 1, so its first index is 0.
    assert row((3, G, 1, -1), n0=1)(10).samples[0] == (1, 3, 0)
    b_row = row((1, CUBE_PAIR, 1, 0), relation="eq", mod7=tuple(range(7)))
    assert b_row(0).status == "violated"
    assert row(rhs_terms=((1, G, 1, 0),))(5).violation == (0, 0, 1)


def test_a_bad_text_fails_when_scanned():
    claim = row((1, "E(q^7", 1, 0))
    with pytest.raises(ExprSyntaxError):
        claim(10)


def test_shared_texts_are_forms_constants():
    # A whole text that the catalog and the claims both evaluate is one
    # closed form, so it is written once, in forms.
    constants = {
        v for k, v in vars(forms).items() if k.isupper() and isinstance(v, str)
    }
    shared = set(catalog_texts()) & set(scan_texts())
    assert {G, forms.RANK_0, forms.RANK_1, forms.W_OMEGA} <= shared
    assert shared <= constants
