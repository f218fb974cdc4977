"""End-to-end acceptance run.

Each criterion below is one test that prints a single summary line, so a
verbose run reads as a checklist.  Everything here goes through public
entry points only.
"""

import random
import time

from catalog_oracle import ORACLE, theta_args_used

import sevencores.cli as cli
from sevencores.exprlang import (
    Binary,
    ChiAtom,
    Const,
    EulerAtom,
    Lattice7Atom,
    LatticeAtom,
    OmegaAtom,
    PhiAtom,
    Power,
    PsiAtom,
    QPow,
    SigmaAtom,
    ThetaAtom,
    Unary,
    evaluate,
    parse,
    to_text,
)
from sevencores.identities import REGISTRY, verify, verify_all
from sevencores.inequalities import (
    check_theorem_1_1,
    core_split,
    run_all,
    run_claim,
)
from sevencores.partitions import (
    core_rank_census,
    lattice_rank_sum,
    lattice_sum,
)
from sevencores.theta import phi, psi, theta_f, triple_product

RANKS = (-1, 0, 1, 2)


def test_criterion_1_full_catalog_fast_and_stable(capsys):
    t0 = time.perf_counter()
    at_200 = verify_all(200)
    elapsed = time.perf_counter() - t0
    assert all(r.status == "pass" for r in at_200)
    assert elapsed < 60.0
    assert cli.main(["verify", "--all", "--order", "200"]) == 0
    capsys.readouterr()
    at_400 = verify_all(400)
    verdicts_200 = {r.id: r.status for r in at_200}
    verdicts_400 = {r.id: r.status for r in at_400}
    assert verdicts_200 == verdicts_400
    print(
        f"criterion 1: pass ({len(at_200)}/{len(at_200)} identities at order 200 "
        f"in {elapsed:.2f}s, verdicts unchanged at order 400)"
    )


def test_criterion_2_brute_force_oracle_agreement():
    top = 40
    census = core_rank_census(top, 7)
    quotient = evaluate("E(q^7)^7/E(q)", top)
    lattice_total = lattice_sum(7, top)
    by_rank = {j: lattice_rank_sum(j, top) for j in RANKS}
    cs = core_split(top)
    closed = {-1: cs.a7_m1, 0: cs.a7_0, 1: cs.a7_1, 2: cs.a7_2}
    for n in range(top + 1):
        counted = census[n]
        total = sum(counted.values())
        assert quotient[n] == total
        assert lattice_total[n] == total
        assert cs.a7[n] == total
        for j in RANKS:
            assert by_rank[j][n] == counted.get(j, 0)
            assert closed[j][n] == counted.get(j, 0)
    assert cs.a7[6] == 11 and cs.a7[7] == 8
    assert cs.a7_2[6] == 1 and cs.a7_m1[3] == 1
    print(
        f"criterion 2: pass (enumeration, quotient, lattice, and closed forms "
        f"agree on all rows n <= {top})"
    )


def test_criterion_3_multiplicative_recursions_to_depth():
    reports = check_theorem_1_1(2000)
    assert len(reports) == 10
    assert all(r.status == "holds" for r in reports)
    for r in reports:
        for n, lhs, rhs in r.samples:
            if r.claim.startswith("prog-"):
                assert lhs == rhs  # progressions are equalities, not bounds
    first_prog = next(r for r in reports if r.claim == "prog-1.15-r1")
    assert first_prog.samples[0] == (0, 5, 5)  # a7(4) = 5*a7(1) = 5
    print(
        "criterion 3: pass (10/10 claims hold to depth 2000, "
        "sample instance a7(4) = 5*a7(1) = 5 in report)"
    )


def test_criterion_4_theta_toolkit_checks():
    theta_args = theta_args_used()
    for args in theta_args:
        assert triple_product(args, 200) == theta_f(args, 200)
    assert psi(1, 200) ** 2 == psi(2, 200) * phi(1, 200)
    assert phi(1, 200) == phi(4, 200) + 2 * psi(8, 200).shift(1)
    assert verify("eq-5.4", 200).status == "pass"
    for j, parity in ((-1, 1), (0, 0), (1, 1), (2, 0)):
        series = lattice_rank_sum(j, 41)
        for n in range(42):
            if n % 2 != parity:
                assert series[n] == 0
    census = core_rank_census(40, 7)
    seen = set()
    for row in census:
        seen |= set(row)
    assert seen == set(RANKS)
    print(
        f"criterion 4: pass (product form agrees for {len(theta_args)} "
        f"theta arguments at order 200, parity supports and rank window exact)"
    )


def test_criterion_5_alternating_companion_constraints():
    vanish = run_claim("vanish-b", 2000)
    assert vanish.status == "holds"
    cs = core_split(2000)
    for n in range(2001):
        if n % 7 in (2, 4, 5):
            assert cs.b[n] == 0
    bound = run_claim("cor-4.1", 2000)
    assert bound.status == "holds"
    assert bound.n_range == (1, 2000)
    assert bound.samples[0] == (1, 0, 0)  # 3*a7(0) + b(1) = 0 exactly
    print(
        "criterion 5: pass (forbidden residues vanish and the mixed-sign "
        "bound holds for 0 < n <= 2000, boundary case on record)"
    )


def test_criterion_6_conjecture_scans_clean():
    reports = run_all(2000, "conjecture")
    assert len(reports) == 10
    bad = [r for r in reports if r.status != "holds"]
    assert not bad, f"counterexamples found: {[(r.claim, r.violation) for r in bad]}"
    print("criterion 6: pass (10/10 conjecture scans clean to depth 2000)")


def _random_tree(rng, depth):
    leaves = (
        lambda: Const(rng.randrange(100)),
        lambda: QPow(rng.randrange(1, 20)),
        lambda: EulerAtom(rng.randrange(1, 30)),
        lambda: PhiAtom(rng.randrange(1, 30)),
        lambda: PsiAtom(rng.randrange(1, 30)),
        lambda: ChiAtom(rng.randrange(1, 30)),
        lambda: SigmaAtom(rng.randrange(1, 30)),
        lambda: OmegaAtom(rng.randrange(1, 30)),
        lambda: ThetaAtom(
            rng.choice((1, -1)), rng.randrange(1, 20),
            rng.choice((1, -1)), rng.randrange(1, 20),
        ),
        lambda: LatticeAtom(rng.choice((2, 3, 5, 7))),
        lambda: Lattice7Atom(rng.choice(RANKS)),
    )
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice(leaves)()
    shape = rng.randrange(3)
    if shape == 0:
        op = rng.choice(("neg", "even", "odd", "altq", "T2"))
        return Unary(op, _random_tree(rng, depth - 1))
    if shape == 1:
        return Power(_random_tree(rng, depth - 1), rng.randrange(9))
    op = rng.choice(("+", "-", "*", "/"))
    return Binary(op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def test_criterion_7_expression_fidelity():
    # The catalog's texts against independent builder closures that live
    # with the tests (catalog_oracle.py), one pair per record.
    assert len(ORACLE) == 46
    assert list(ORACLE) == [rec.id for rec in REGISTRY]
    for rec in REGISTRY:
        lhs, rhs = ORACLE[rec.id]
        for text, builder in ((rec.lhs_text, lhs), (rec.rhs_text, rhs)):
            direct = builder(200)
            reread = evaluate(text, 200)
            assert reread.coeffs == direct.coeffs, rec.id
    rng = random.Random(73_2026)
    for _ in range(200):
        ast = _random_tree(rng, 4)
        assert parse(to_text(ast)) == ast
    print(
        f"criterion 7: pass ({2 * len(REGISTRY)} catalog sides re-evaluated "
        f"bit-identical at order 200, 200 random structural round-trips)"
    )
