"""Scan layer: claim registry shape, sample capture, violation reporting."""

import pytest

from sevencores.inequalities import (
    CLAIMS,
    DEFAULT_DEPTH,
    SAMPLE_COUNT,
    SERIES,
    LinearClaim,
    check_theorem_1_1,
    claim_ids,
    core_split,
    run_all,
    run_claim,
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
    assert len(claim_ids("theorem")) == 19
    assert len(claim_ids("conjecture")) == 10
    assert set(claim_ids()) == set(claim_ids("theorem")) | set(claim_ids("conjecture"))


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


def test_theorem_bundle():
    reports = check_theorem_1_1(600)
    assert len(reports) == 10
    assert all(r.status == "holds" for r in reports)


def test_referee_progressions_need_depth():
    reports = [run_claim(f"prog-ext-r{r}", 1000) for r in (10, 17, 45)]
    assert {r.claim for r in reports} == {"prog-ext-r10", "prog-ext-r17", "prog-ext-r45"}
    assert all(r.status == "holds" for r in reports)


def euler_positivity(monkeypatch):
    """The row 1*E(q)[n] >= 0, over a series no claim names."""
    monkeypatch.setitem(SERIES, "E(q)", "E(q)")
    return LinearClaim(
        "synthetic-negative", "theorem", "euler product coefficients",
        ((1, "E(q)", 1, 0),),
    )


def test_positivity_violation_reports_witness(monkeypatch):
    # Euler product itself goes negative at q^1
    r = euler_positivity(monkeypatch)(50)
    assert r.status == "violated"
    assert r.violation == (1, -1, 0)
    assert r.claim == "synthetic-negative"


def test_violation_stops_sampling_early(monkeypatch):
    r = euler_positivity(monkeypatch)(50)
    # only exponent 0 passes before the failure at exponent 1
    assert len(r.samples) <= SAMPLE_COUNT
    assert r.samples == ((0, 1, 0), (1, -1, 0))


def test_run_all_kinds():
    reports = run_all(200, "conjecture")
    assert len(reports) == 10
    assert all(r.kind == "conjecture" for r in reports)
    assert all(r.status == "holds" for r in reports)
    everything = run_all(150)
    assert len(everything) == 29


def test_default_depth_constant():
    assert DEFAULT_DEPTH == 2000


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
        ((1, "a7", 1, 0),), ((1, "a7", 1, 1),),
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
