"""Parser, printer, and evaluator for the expression mini-language.

The round-trip property is structural: print an AST, reparse, and demand
the identical tree, not merely equal series.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevencores.exprlang import (
    Binary,
    ChiAtom,
    Const,
    EtaFold,
    EulerAtom,
    ExprEvalError,
    MAX_DEPTH,
    MAX_EXPONENT,
    ExprSyntaxError,
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
    _eval_product,
    _fold,
    eval_ast,
    evaluate,
    parse,
    to_text,
)
from sevencores.partitions import lattice_rank_sum, lattice_sum
from sevencores.series import MAX_ORDER, TruncSeries
from sevencores.theta import chi_neg, euler_E, psi, sigma


def test_parse_quotient_power():
    ast = parse("E(q^7)^7 / E(q)")
    assert ast == Binary("/", Power(EulerAtom(7), 7), EulerAtom(1))


def test_parse_respects_precedence():
    ast = parse("1 + 2*3")
    assert ast == Binary("+", Const(1), Binary("*", Const(2), Const(3)))
    assert evaluate("1 + 2*3", 0).coeffs == (7,)


def test_neg_binds_tighter_than_mul():
    assert parse("-2*3") == Binary("*", Unary("neg", Const(2)), Const(3))


def test_parse_theta_and_named_atoms():
    ast = parse("f(q, q^13)*phi(q^7)")
    assert ast == Binary("*", ThetaAtom(1, 1, 1, 13), PhiAtom(7))
    assert parse("f(-q^2, -q^5)") == ThetaAtom(-1, 2, -1, 5)
    assert parse("chi(-q^3)") == ChiAtom(3)
    assert parse("sigma(q)") == SigmaAtom(1)
    assert parse("omega(q^2)") == OmegaAtom(2)
    assert parse("lattice(7)") == LatticeAtom(7)
    assert parse("lattice7(-1)") == Lattice7Atom(-1)


def test_syntax_error_offset_is_one_based():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("E(q^7")
    assert exc.value.offset == 6
    assert exc.value.expected == ")"
    assert "offset 6" in str(exc.value)


def test_unknown_atom_lists_known_names():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("foo(q)")
    msg = str(exc.value)
    assert "foo" in msg and "psi" in msg and "lattice7" in msg


def test_chi_requires_negated_argument():
    with pytest.raises(ExprSyntaxError):
        parse("chi(q)")


def test_atom_exponents_are_one_based():
    with pytest.raises(ExprSyntaxError):
        parse("E(q^0)")


def test_lattice_dimension_whitelist():
    with pytest.raises(ExprSyntaxError):
        parse("lattice(4)")
    with pytest.raises(ExprSyntaxError):
        parse("lattice7(3)")


def test_trailing_input_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("E(q) E(q)")


def test_empty_input_rejected():
    with pytest.raises(ExprSyntaxError):
        parse("   ")


@pytest.mark.parametrize(
    "text",
    [
        "(" * 2000 + "q" + ")" * 2000,
        "-" * 5000 + "1",
        "even(" * 300 + "q" + ")" * 300,
        " + ".join(["q"] * 2000),
        "(q)" + "^1" * 2000,
    ],
    ids=["parentheses", "unary-minus", "unary-atoms", "sum-chain", "power-chain"],
)
def test_deep_nesting_is_a_syntax_error(text):
    with pytest.raises(ExprSyntaxError, match="nests deeper than"):
        parse(text)


def test_nesting_up_to_the_bound_parses():
    depth = MAX_DEPTH - 1
    assert evaluate("(" * depth + "q" + ")" * depth, 3) == evaluate("q", 3)
    assert evaluate("-" * depth + "1", 2).coeffs == ((-1) ** depth, 0, 0)


LONG = "7" * 5000


@pytest.mark.parametrize(
    "text, offset",
    [
        (LONG, 1),
        ("2*" + LONG, 3),
        ("q^" + LONG, 3),
        ("E(q^" + LONG + ")", 5),
        ("E(q)^" + LONG, 6),
        ("lattice(" + LONG + ")", 9),
        ("lattice7(-" + LONG + ")", 11),
        ("q^\u00b2", 3),
    ],
    ids=["const", "product", "qpow", "atom", "power", "lattice", "lattice7",
         "superscript"],
)
def test_unreadable_integer_is_a_syntax_error(text, offset):
    with pytest.raises(ExprSyntaxError, match="cannot read the integer") as exc:
        parse(text)
    assert exc.value.offset == offset


def test_exponent_bound():
    assert parse(f"E(q)^{MAX_EXPONENT}") == Power(EulerAtom(1), MAX_EXPONENT)
    for text in (f"E(q)^{MAX_EXPONENT + 1}", "(q)^2^" + "1" + "0" * 30):
        with pytest.raises(ExprSyntaxError, match="above the limit"):
            parse(text)


def test_exponents_multiply_along_a_path():
    assert evaluate("(E(q)^10)^10", 2) == euler_E(1, 2).pow(100)
    assert evaluate("E(q)^100 * E(q)^100", 1).coeffs == (1, -200)
    # An exponent 0 counts as 1: the base under it is still evaluated.
    for text, product in (("E(q)^100^100", 10000), ("(psi(q)^11)^10", 110),
                          ("((E(q)^0)^2)^51", 102), ("-(q + E(q)^3^34)", 102)):
        with pytest.raises(ExprEvalError, match=f"multiply to {product}"):
            evaluate(text, 2)
    # parse alone keeps accepting them, so printed trees still reparse
    assert to_text(parse("E(q)^100^100")) == "E(q)^100^100"


def test_nested_t2_stops_before_building_past_twice_max_order():
    assert evaluate("T2(q)", MAX_ORDER) == TruncSeries(MAX_ORDER, (0, 0, 4))
    assert evaluate("T2(T2(q^4))", MAX_ORDER // 2).coeffs[:2] == (0, 1)
    for text, order in (("T2(q)", MAX_ORDER + 1),
                        ("T2(T2(q))", MAX_ORDER // 2 + 1)):
        with pytest.raises(ExprEvalError, match="T2 would evaluate"):
            evaluate(text, order)
    # Nested 40 deep at order 200, the eighth T2 would pass 2 * MAX_ORDER;
    # the check runs before any argument is evaluated.
    with pytest.raises(ExprEvalError, match="T2 would evaluate"):
        evaluate("T2(" * 40 + "E(q)" + ")" * 40, 200)


def test_eval_core_quotient():
    got = evaluate("E(q^7)^7 / E(q)", 8)
    assert got.coeffs == (1, 1, 2, 3, 5, 7, 11, 8, 15)


def test_eval_sigma_definition():
    text = "phi(q)*phi(q^7) + 4*q^2*psi(q^2)*psi(q^14)"
    assert evaluate(text, 60) == sigma(60)


def test_eval_sigma_self_similarity():
    # sigma carries its own q -> q^2 refinement with a psi cross term
    left = "sigma(q) - sigma(q^2) - 2*q*psi(q)*psi(q^7)"
    assert evaluate(left, 100).is_zero()


def test_eval_lattice_atoms():
    assert evaluate("lattice(7)", 20) == lattice_sum(7, 20)
    assert evaluate("lattice7(2)", 20) == lattice_rank_sum(2, 20)


def test_eval_bare_q():
    assert evaluate("q", 5).coeffs == (0, 1, 0, 0, 0, 0)
    assert evaluate("q^3", 5).coeffs == (0, 0, 0, 1, 0, 0)


def test_eval_unary_slices():
    e = euler_E(1, 30)
    assert evaluate("even(E(q))", 30) == e.even_part()
    assert evaluate("odd(E(q))", 30) == e.odd_part()
    assert evaluate("altq(E(q))", 30) == e.alternate()
    assert evaluate("-E(q)", 30) == -e


def test_eval_t2_doubles_working_order():
    # the slice operator needs coefficients out to 2N to fill order N
    got = evaluate("T2(E(q^7)^7 / E(q))", 15)
    assert got.order == 15
    want = evaluate("5*q*(E(q^7)^7/E(q)) + 4*(E(q^14)^7/E(q^2))", 15)
    assert got.even_part() == (want + evaluate("E(q)^3 * E(q^7)^3", 15)).even_part()


def test_eval_division_by_nonunit():
    with pytest.raises(ExprEvalError) as exc:
        evaluate("1/(1 - 1)", 10)
    assert exc.value.expression == "1 - 1"
    assert "division needs constant term" in str(exc.value)


def test_fold_collects_one_eta_quotient():
    assert _fold(parse("q^3*E(q^28)^3/E(q^2)^2")) == EtaFold({28: 3, 2: -2}, 3, 1)
    assert _fold(parse("2*chi(-q)^2")) == EtaFold({1: 2, 2: -2}, 0, 2)
    assert _fold(parse("E(q)/(1*E(q))^3")) == EtaFold({1: -2}, 0, 1)
    assert _fold(parse("(q*E(q))^0")) == EtaFold({}, 0, 1)
    # not a unit divisor, or a leaf that is not an eta factor
    for text in ("E(q)/q", "E(q)/(2*E(q^2))", "E(q)*psi(q)", "E(q)*(1 + q)"):
        assert _fold(parse(text)) is None


def unfolded(node, order):
    """Every operand evaluated on its own, as before folding: the oracle
    for products, quotients and powers of E, chi, q^s and constants."""
    if isinstance(node, Const):
        return TruncSeries.constant(node.value, order)
    if isinstance(node, QPow):
        return TruncSeries.monomial(1, node.k, order)
    if isinstance(node, EulerAtom):
        return euler_E(node.k, order)
    if isinstance(node, ChiAtom):
        return chi_neg(node.k, order)
    if isinstance(node, Power):
        return unfolded(node.base, order).pow(node.exponent)
    left, right = unfolded(node.left, order), unfolded(node.right, order)
    if node.op == "*":
        return left.mul(right)
    if right.coeffs[0] not in (1, -1):
        raise ExprEvalError(
            to_text(node.right),
            f"division needs constant term +1 or -1, got {right.coeffs[0]}",
        )
    return left.div(right)


eta_trees = st.recursive(
    st.one_of(
        st.builds(EulerAtom, st.integers(min_value=1, max_value=6)),
        st.builds(ChiAtom, st.integers(min_value=1, max_value=6)),
        st.builds(QPow, st.integers(min_value=0, max_value=3)),
        st.builds(Const, st.integers(min_value=0, max_value=3)),
    ),
    lambda children: st.one_of(
        st.builds(Power, children, st.integers(min_value=0, max_value=3)),
        st.builds(Binary, st.sampled_from(("*", "/")), children, children),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(eta_trees, st.integers(min_value=0, max_value=150))
def test_folding_matches_the_unfolded_walk(node, order):
    # A tree of these leaves folds whole unless some divisor is not a
    # unit, and then it raises, so it never adds to the node cache.
    cached = _eval_product.cache_info().currsize
    try:
        want = unfolded(node, order)
    except ExprEvalError as exc:
        with pytest.raises(ExprEvalError) as got:
            eval_ast(node, order)
        assert got.value.expression == exc.expression
        assert str(got.value) == str(exc)
    else:
        assert eval_ast(node, order) == want
    assert _eval_product.cache_info().currsize == cached


@pytest.mark.parametrize(
    "text, divisor, constant",
    [
        ("E(q)/q", "q", 0),
        ("E(q^7)^7/(q^2*E(q))", "q^2*E(q)", 0),
        ("E(q)/2", "2", 2),
        ("chi(-q)/(3*E(q^2))^2", "(3*E(q^2))^2", 9),
        ("E(q)*(E(q)/(0*E(q)))", "0*E(q)", 0),
    ],
)
def test_non_unit_divisor_still_raises(text, divisor, constant):
    with pytest.raises(ExprEvalError) as exc:
        evaluate(text, 30)
    assert exc.value.expression == divisor
    assert f"constant term +1 or -1, got {constant}" in str(exc.value)


def test_failed_evaluation_caches_nothing():
    before = _eval_product.cache_info()
    for _ in range(2):
        with pytest.raises(ExprEvalError):
            evaluate("psi(q)*(psi(q^3)/q)", 20)
    after = _eval_product.cache_info()
    assert after.currsize == before.currsize
    assert (after.hits, after.misses) == (before.hits, before.misses + 4)


def test_equal_subtrees_share_one_cache_entry():
    before = _eval_product.cache_info()
    got = evaluate("psi(q^5)^3 - (psi(q^5))^3 + psi(q^5)^3", 40)
    assert got == psi(5, 40).pow(3)
    after = _eval_product.cache_info()
    # three lookups of one node: at most one build, the others are hits
    assert after.hits + after.misses == before.hits + before.misses + 3
    assert after.misses <= before.misses + 1
    assert after.currsize <= before.currsize + 1


def test_eval_accepts_parsed_node():
    node = parse("psi(q)^2")
    assert evaluate(node, 12) == evaluate("psi(q)^2", 12)


def test_to_text_spacing_conventions():
    assert to_text(parse("1 + 2 * 3")) == "1 + 2*3"
    assert to_text(parse("E(q^7)^7 / E(q)")) == "E(q^7)^7/E(q)"
    assert to_text(parse("f(-q,-q^2)")) == "f(-q,-q^2)"


def test_to_text_protects_reassociation():
    ast = Binary("-", Const(1), Binary("-", Const(2), Const(3)))
    assert to_text(ast) == "1 - (2 - 3)"
    assert parse(to_text(ast)) == ast


def test_to_text_protects_power_of_bare_q():
    ast = Power(QPow(1), 3)
    assert to_text(ast) == "(q)^3"
    assert parse(to_text(ast)) == ast


one_based = st.integers(min_value=1, max_value=30)
pm = st.sampled_from((1, -1))

atoms = st.one_of(
    st.builds(Const, st.integers(min_value=0, max_value=99)),
    st.builds(QPow, one_based),
    st.builds(EulerAtom, one_based),
    st.builds(PhiAtom, one_based),
    st.builds(PsiAtom, one_based),
    st.builds(ChiAtom, one_based),
    st.builds(SigmaAtom, one_based),
    st.builds(OmegaAtom, one_based),
    st.builds(ThetaAtom, pm, one_based, pm, one_based),
    st.builds(LatticeAtom, st.sampled_from((2, 3, 5, 7))),
    st.builds(Lattice7Atom, st.sampled_from((-1, 0, 1, 2))),
)


def _extend(children):
    return st.one_of(
        st.builds(Unary, st.sampled_from(("neg", "even", "odd", "altq", "T2")), children),
        st.builds(Power, children, st.integers(min_value=0, max_value=9)),
        st.builds(
            Binary, st.sampled_from(("+", "-", "*", "/")), children, children
        ),
    )


expr_trees = st.recursive(atoms, _extend, max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(expr_trees)
def test_print_parse_round_trip(ast):
    assert parse(to_text(ast)) == ast
