"""Parser, printer, and evaluator for the expression mini-language.

The round-trip property is structural: print an AST, reparse, and demand
the identical tree, not merely equal series.
"""

import ast as pyast
import copy
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import parser_oracle
from catalog_oracle import catalog_texts, scan_texts, subtrees

from sevencores.exprlang import (
    Binary,
    Const,
    EtaFold,
    ExprEvalError,
    KAtom,
    MAX_COST,
    MAX_DEGREE,
    MAX_DEPTH,
    MAX_EXPONENT,
    MAX_LATTICE_ORDER,
    ExprSyntaxError,
    LatticeAtom,
    Power,
    QPow,
    ThetaAtom,
    Unary,
    _K_ATOMS,
    _bounds,
    _kept,
    _plan,
    _refuse,
    _root,
    check_bounds,
    evaluate,
    parse,
    to_text,
)
from sevencores import exprlang, partitions, theta
from sevencores.identities import REGISTRY
from sevencores.partitions import lattice_rank_sum, lattice_sum
from sevencores.series import MAX_ORDER, TruncSeries, hecke_T2
from sevencores.theta import (
    ThetaArgs,
    chi_neg,
    divide_by_euler,
    eta_quotient,
    eta_split,
    euler_E,
    omega_at,
    psi,
    sigma_at,
)


def test_parse_quotient_power():
    ast = parse("E(q^7)^7 / E(q)")
    assert ast == Binary("/", Power(KAtom("E", 7), 7), KAtom("E", 1))


def test_parse_respects_precedence():
    ast = parse("1 + 2*3")
    assert ast == Binary("+", Const(1), Binary("*", Const(2), Const(3)))
    assert evaluate("1 + 2*3", 0).coeffs == (7,)


def test_neg_binds_tighter_than_mul():
    assert parse("-2*3") == Binary("*", Unary("neg", Const(2)), Const(3))


def test_parse_theta_and_named_atoms():
    ast = parse("f(q, q^13)*phi(q^7)")
    assert ast == Binary("*", ThetaAtom(1, 1, 1, 13), KAtom("phi", 7))
    assert parse("f(-q^2, -q^5)") == ThetaAtom(-1, 2, -1, 5)
    assert parse("chi(-q^3)") == KAtom("chi", 3)
    assert parse("sigma(q)") == KAtom("sigma", 1)
    assert parse("omega(q^2)") == KAtom("omega", 2)
    assert parse("lattice(7)") == LatticeAtom(7)
    assert parse("lattice7(-1)") == LatticeAtom(7, -1)


def test_nodes_compare_by_type_and_fields_without_their_span():
    assert QPow(3) != Const(3) and Const(3) != QPow(3)
    assert Unary("even", QPow(1)) != Unary("odd", QPow(1))
    tight, spaced = parse("E(q^7)^7/E(q)"), parse("  E( q^7 ) ^ 7 /  E(q) ")
    assert tight.span != spaced.span
    assert tight == spaced and hash(tight) == hash(spaced)
    assert repr(KAtom("E", 7)) == "KAtom(name='E', k=7)"
    copies = copy.copy(spaced), copy.deepcopy(spaced), pickle.loads(pickle.dumps(spaced))
    for again in copies:
        assert again == spaced and again.span == spaced.span


@pytest.mark.parametrize(
    "kind, fields",
    [
        (Const, (3,)), (QPow, (2,)), (KAtom, ("E", 7)), (ThetaAtom, (1, 1, -1, 2)),
        (LatticeAtom, (7, 1)), (Unary, ("neg", Const(1))),
        (Binary, ("+", Const(1), QPow(1))), (Power, (QPow(1), 2)),
    ],
)
def test_a_node_refuses_too_few_or_too_many_fields(kind, fields):
    assert kind(*fields)._key == fields
    fewest = 1 if kind is LatticeAtom else len(fields)  # j defaults to None
    for wrong in (fields[: fewest - 1], fields + (0,)):
        with pytest.raises(TypeError):
            kind(*wrong)


@pytest.mark.parametrize("field", ["k", "span", "other"])
def test_a_node_cannot_change(field):
    node = parse("q^2")
    with pytest.raises(AttributeError):
        setattr(node, field, 3)
    with pytest.raises(AttributeError):
        delattr(node, field)
    assert node == QPow(2) and node.span == (0, 3)


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


@pytest.mark.parametrize(
    "text, offset, detail",
    [
        ("E(q^\u0663)", None, None),
        ("q^\u00b2", 3, "cannot read the integer literal"),
        ("E(q)\u00a0", 5, "unexpected character"),
        ("\u00e9", 1, "unknown atom name"),
    ],
    ids=["arabic-indic-three", "superscript-two", "no-break-space", "e-acute"],
)
def test_the_tokenizer_reads_unicode_as_python_does(text, offset, detail):
    """Digits, letters and whitespace are str.isdigit, str.isalpha and
    str.isalnum, and the four ASCII blanks, not ASCII classes: an
    Arabic-Indic digit is a number, a superscript digit a literal int()
    cannot read, a no-break space no blank, and a letter with an accent a
    name."""
    if detail is None:
        assert parse(text) == parse("E(q^3)") == KAtom("E", 3)
        return
    with pytest.raises(ExprSyntaxError, match=detail) as exc:
        parse(text)
    assert exc.value.offset == offset


def test_exponent_bound():
    assert parse(f"E(q)^{MAX_EXPONENT}") == Power(KAtom("E", 1), MAX_EXPONENT)
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
    # Of two offending paths, the rightmost is reported.
    with pytest.raises(ExprEvalError, match="multiply to 150") as exc:
        evaluate("E(q)^100^2 + psi(q)^50^3", 2)
    assert exc.value.expression == "psi(q)^50^3"


def test_degree_adds_across_products_and_multiplies_across_powers():
    assert _bounds(parse("psi(q)*(phi(q)^2 - q^3) + T2(E(q)^0)"))[0] == 3
    assert _bounds(parse("-(E(q)/psi(q))^3"))[0] == 6
    assert _bounds(parse("E(q)^100 * E(q)^100"))[0] == MAX_DEGREE
    for text in ("E(q)^100 * E(q)^100 * q", "1 + psi(q)^50*phi(q)^51*(q + E(q)^100)"):
        with pytest.raises(
            ExprEvalError, match=f"degree 201 is above the limit {MAX_DEGREE}"
        ) as exc:
            evaluate(text, 2)
        assert exc.value.expression == to_text(parse(text))


def test_cost_is_degree_times_evaluation_order():
    # Accepted at the limit, one past it refused before anything is built.
    assert evaluate("E(q)^100 * E(q)^100", 2000).order == 2000
    for text, order, cost in (("E(q)^100 * E(q)^100", MAX_ORDER, 4000000),
                              ("E(q)^100 * E(q)^100", 2001, 400200),
                              ("sigma(q)^20 + q", MAX_ORDER + 1, 400020),
                              ("T2(E(q)^100)", 2001, 400200),
                              ("T2(T2(E(q)^10*E(q^2)^10))", 5001, 400080)):
        with pytest.raises(
            ExprEvalError, match=f"order is {cost}, above the limit {MAX_COST}$"
        ) as exc:
            evaluate(text, order)
        assert exc.value.expression == to_text(parse(text))
    # Past the inner T2's cap, MAX_ORDER // 2, the cap refuses the order
    # before its cost, 40 * 10001, is weighed.
    with pytest.raises(ExprEvalError, match="T2 would evaluate"):
        evaluate("T2(T2(E(q)^5*E(q^2)^5))", MAX_ORDER // 2 + 1)


@pytest.fixture
def fresh_roots():
    """An empty root cache for the test, emptied again after it: a Root
    built through a stubbed ``_root`` is kept under its text, and would
    otherwise serve every later evaluation of that text."""
    clear = exprlang._root.cache_clear
    clear()
    yield
    clear()


def test_every_catalog_and_scan_text_passes_the_cost_bound(monkeypatch, fresh_roots):
    """evaluate at MAX_ORDER, or at the largest order its caps admit,
    with every root's run replaced by one that builds nothing, so
    every bound is checked on each text's degrees and no text is built."""
    texts = [t for rec in REGISTRY for t in (rec.lhs_text, rec.rhs_text)]
    texts += scan_texts()
    reached = []
    root = exprlang._root
    monkeypatch.setattr(exprlang, "_root", lambda expr: root(expr)._replace(
        run=lambda order: reached.append((expr, order))))
    orders = []
    for text in texts:
        limit = (root(text).cap or (MAX_ORDER,))[0]
        if limit < MAX_ORDER:
            with pytest.raises(ExprEvalError, match="it would be counted at order"):
                evaluate(text, MAX_ORDER)
        orders.append(min(MAX_ORDER, limit))
        evaluate(text, orders[-1])
    assert reached == list(zip(texts, orders))
    # No lattice atom sits under a T2, so lattice(7)'s cap is the least.
    assert min(orders) == MAX_LATTICE_ORDER[7] == 6400
    # The largest is eq-3.28's T2(q^2*G): degree 9 at order 2 * MAX_ORDER.
    assert max(root(text).doubled for text in texts) * MAX_ORDER == 360000


_BOUNDED = [
    "E(q)", "E(q)^10", "E(q)^11", "E(q)^11 + T2(E(q)^6)", "T2(T2(q))",
    "E(q)^100*E(q)^100", "lattice(7)", "T2(lattice7(2))",
    "lattice(3)*E(q)^40", "T2(lattice(5))^3",
]


class StandIn:
    """A series stand-in: every operation on it returns it, and its
    constant term is 1, so any plan runs through it building nothing."""

    coeffs = (1,)

    def __getattr__(self, name):
        return lambda *args: self


@pytest.fixture
def stand_in_plans(monkeypatch, fresh_roots):
    """Plans compiled afresh whose leaves, eta quotients and T2 actions
    build nothing and return one StandIn, with nothing kept.  The list
    yielded records each leaf's node, or eta quotient's factors, with
    the order it is asked for."""
    stand_in, reached = StandIn(), []
    compile_ = exprlang._compile

    def plan(node):
        compiled = compile_(node)
        if type(node) in exprlang._OPERANDS:
            return compiled
        return compiled._replace(
            run=lambda order: reached.append((node, order)) or stand_in)

    monkeypatch.setattr(exprlang, "_plan", plan)
    monkeypatch.setattr(exprlang, "_kept", lambda build, order: build(order))
    monkeypatch.setattr(exprlang, "hecke_T2", lambda series: series)
    monkeypatch.setattr(exprlang, "divide_by_euler", lambda series, below: series)
    monkeypatch.setattr(exprlang, "eta_quotient", lambda factors, order:
                        reached.append((factors, order)) or stand_in)
    yield reached


@pytest.mark.parametrize("text", sorted(
    {t for rec in REGISTRY for t in (rec.lhs_text, rec.rhs_text)}
    | set(scan_texts()) | set(_BOUNDED)
))
def test_most_is_the_largest_order_the_bounds_accept(text, stand_in_plans):
    root = _root(parse(text))
    _refuse(root, root.most)
    with pytest.raises(ExprEvalError):
        _refuse(root, root.most + 1)
    assert check_bounds(text, root.most) is root
    # Its plan runs at most with no refusal, and builds no leaf past
    # 2 * MAX_ORDER under a T2, nor a lattice leaf past its cap.
    assert type(evaluate(text, root.most)) is StandIn
    assert stand_in_plans
    for leaf, order in stand_in_plans:
        assert order <= max(root.most, 2 * MAX_ORDER)
        if isinstance(leaf, LatticeAtom):
            assert order <= MAX_LATTICE_ORDER[leaf.t]


def refusal(check, text, order):
    """The ExprEvalError text of check(text, order), or None."""
    try:
        check(text, order)
    except ExprEvalError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("depth", range(1, 9))
def test_check_bounds_accepts_exactly_the_t2_orders_evaluate_completes(depth):
    """Each T2 caps the order, as a lattice leaf does: T2 nested depth
    deep is refused by check_bounds, before anything is built, exactly
    where evaluate would otherwise build past 2 * MAX_ORDER."""
    nested = "T2(" * depth + "E(q)" + ")" * depth
    caps = [MAX_ORDER >> above for above in range(depth)]
    for text in (nested, "psi(q)^9 + " + nested):
        for order in sorted({cap + step for cap in caps for step in (0, 1)}):
            want = refusal(check_bounds, text, order)
            assert refusal(evaluate, text, order) == want
            assert (want is None) == (order <= caps[-1])


def test_a_t2_refusal_builds_nothing():
    """A T2 past its cap is refused before psi(q)^9, on its left, is
    built or looked up."""
    before = theta.psi.cache_info(), _kept.cache_info()
    with pytest.raises(ExprEvalError, match="T2 would evaluate") as exc:
        evaluate("psi(q)^9 + T2(T2(E(q)))", 15000)
    assert exc.value.expression == "T2(E(q))"
    assert (theta.psi.cache_info(), _kept.cache_info()) == before


def sum_chain(height):
    """1 + 1 + ... + 1, a bare tree height levels tall."""
    node = Const(1)
    for _ in range(height - 1):
        node = Binary("+", node, Const(1))
    return node


@pytest.mark.parametrize("height", [MAX_DEPTH + 1, 150, 3000])
def test_a_bare_tree_is_held_to_the_height_limit(height):
    """A tree built without parsing is refused past MAX_DEPTH as its
    printed text is, not evaluated or left to overflow the stack."""
    for check in (check_bounds, evaluate):
        with pytest.raises(ExprSyntaxError, match=f"deeper than {MAX_DEPTH} levels"):
            check(sum_chain(height), 3)
    assert evaluate(sum_chain(MAX_DEPTH), 3).coeffs == (MAX_DEPTH, 0, 0, 0)


@pytest.mark.parametrize("height", [150, 600])
def test_a_bare_tree_too_tall_is_refused_for_its_height_first(height):
    """Exponents that multiply past MAX_EXPONENT near the root do not hide
    a height past MAX_DEPTH below them, nor does an atom no text writes:
    the tree is refused for its height, however tall, as its text is."""
    chain = sum_chain(height)
    tall = (Power(Power(chain, 100), 100), Binary("+", chain, KAtom("zeta", 1)))
    for tree in tall:
        for check in (check_bounds, evaluate):
            with pytest.raises(ExprSyntaxError, match=f"deeper than {MAX_DEPTH} levels"):
                check(tree, 3)


def test_an_operand_that_is_not_a_node_is_no_level():
    """A tree at the height limit whose last node's operand is not a node
    is refused for that operand; one level taller, for its height."""
    tree = Unary("T2", 5)
    for _ in range(MAX_DEPTH - 1):
        tree = Unary("neg", tree)
    for check in (check_bounds, evaluate):
        with pytest.raises(ExprEvalError, match="Unary.child must be an expression node"):
            check(tree, 3)
        with pytest.raises(ExprSyntaxError, match=f"deeper than {MAX_DEPTH} levels"):
            check(Unary("neg", tree), 3)


@pytest.mark.parametrize(
    "node, order, detail",
    [
        (LatticeAtom(5, 1), 10, "a rank class is a layer of t = 7, got t = 5"),
        (LatticeAtom(2, 1), 40000, "a rank class is a layer of t = 7, got t = 2"),
        (LatticeAtom(7, 5), 10, "rank class must be -1, 0, 1, or 2, got 5"),
        (LatticeAtom(11), 10, "lattice dimension must be 2, 3, 5, or 7, got 11"),
        (KAtom("zeta", 1), 10, "one-argument atom name must be E, phi, psi, chi,"
                               " sigma, or omega, got 'zeta'"),
        (KAtom("E", 0), 10, "atom exponents are one-based, got q^0"),
        (ThetaAtom(1, 0, 1, 1), 10, "atom exponents are one-based, got q^0"),
        (ThetaAtom(2, 1, 1, 1), 10, "theta signs must be +1 or -1, got 2 and 1"),
        (QPow(-1), 10, "exponents must be nonnegative, got -1"),
        (Power(KAtom("E", 1), -1), 5, "exponents must be nonnegative, got -1"),
        (Power(KAtom("psi", 1), -1), 5, "exponents must be nonnegative, got -1"),
        (Const(1.5), 10, "Const.value must be an int, got 1.5"),
        (Const(True), 10, "Const.value must be an int, got True"),
        (QPow(1.5), 10, "QPow.k must be an int, got 1.5"),
        (KAtom("E", 2.0), 10, "KAtom.k must be an int, got 2.0"),
        (Power(KAtom("E", 1), 2.0), 10, "Power.exponent must be an int, got 2.0"),
        (LatticeAtom(7.0), 10, "LatticeAtom.t must be an int, got 7.0"),
        (LatticeAtom(7, 2.0), 10, "LatticeAtom.j must be an int, got 2.0"),
        (ThetaAtom(1, 1.0, 1, 1), 10, "ThetaAtom.r must be an int, got 1.0"),
        (Unary("T2", 5), 5, "Unary.child must be an expression node, got 5"),
        (Binary("*", KAtom("E", 1), "x"), 5,
         "Binary.right must be an expression node, got 'x'"),
        (Power(3, 2), 5, "Power.base must be an expression node, got 3"),
    ],
    ids=["rank-of-t5", "rank-of-t2-past-its-cap", "rank-5", "t11", "zeta",
         "euler-at-q0", "theta-at-q0", "theta-sign-2", "q-to-minus-1",
         "euler-inverse", "psi-inverse", "float-const", "bool-const",
         "float-q-exponent", "float-step", "float-exponent", "float-t",
         "float-rank", "float-theta-exponent", "int-child", "str-right",
         "int-base"],
)
def test_a_bare_atom_no_text_writes_is_refused(node, order, detail, monkeypatch, fresh_roots):
    """An atom or power that parse would refuse, or never build, or a
    node with an operand that is not a node, is refused by the bounds,
    as a leaf of a larger tree too, before anything is compiled or
    built.  A node with an operand that is not a node has no text, and
    is quoted by its repr.  The root cache starts empty: a tree equals
    the tree of int fields that it spells (KAtom("E", 2.0) ==
    KAtom("E", 2)), whose checked root it would be served."""
    monkeypatch.setattr(exprlang, "_plan", None)  # compiling would fail
    try:
        quote = to_text(node)
    except TypeError:  # "not an expression node"
        quote = repr(node)
    before = _kept.cache_info(), partitions._flip_layers.cache_info()
    for tree in (node, Binary("+", QPow(1), Power(node, 2))):
        for check in (check_bounds, evaluate):
            with pytest.raises(ExprEvalError) as exc:
                check(tree, order)
            assert str(exc.value) == f"cannot evaluate '{quote}': {detail}"
    assert (_kept.cache_info(), partitions._flip_layers.cache_info()) == before


def test_a_bare_tree_keeps_its_degrees(monkeypatch):
    """A parsed tree evaluated again, even as an equal fresh tree, walks
    no degree: they are kept with its root plan.  A refused tree keeps
    nothing and is refused again with the same message."""
    text = "psi(q)^3*E(q^2) + T2(phi(q)^2)"
    evaluate(parse(text), 30)
    walks = []
    bounds = exprlang._bounds
    monkeypatch.setattr(
        exprlang, "_bounds", lambda *args, **kw: walks.append(1) or bounds(*args, **kw)
    )
    for order in (30, 50, 20):
        assert evaluate(parse(text), order) == plain_walk(parse(text), order)
        assert evaluate(text, order) == plain_walk(parse(text), order)
    assert walks == []
    for bad in ("E(q)^100^100", "E(q)^100*E(q)^100*E(q)^100"):
        refusals = []
        for _ in range(2):
            with pytest.raises(ExprEvalError) as exc:
                evaluate(parse(bad), 10)
            refusals.append(str(exc.value))
        assert refusals[0] == refusals[1]
    assert walks


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


@pytest.mark.parametrize("name", _K_ATOMS)
def test_each_atom_row_parses_prints_and_evaluates(name):
    text = f"{name}(-q^3)" if name == "chi" else f"{name}(q^3)"
    node = parse(text)
    assert type(node) is KAtom and node == KAtom(name, 3)
    assert to_text(node) == text
    assert evaluate(text, 60) == getattr(theta, _K_ATOMS[name])(3, 60)
    # The rows share one node type, and still no two compare equal.
    assert [KAtom(other, 3) == node for other in _K_ATOMS].count(True) == 1


def test_no_class_subclasses_the_atom_node():
    assert KAtom.__subclasses__() == []


def test_atoms_are_built_through_the_theta_module(monkeypatch):
    """Builders are looked up on ``theta`` at each evaluation, and a lone
    atom's value is not kept above its builder's own cache, so a function
    rebound there, such as a tracer's wrapper, sees every evaluation."""
    calls = []
    real = theta.phi

    def counted(step, order):
        calls.append((step, order))
        return real(step, order)

    monkeypatch.setattr(theta, "phi", counted)
    assert evaluate("phi(q^3)", 20) == real(3, 20)
    assert evaluate(parse("phi(q^3)"), 20) == real(3, 20)
    assert evaluate("phi(q^3)", 10) == real(3, 10)
    assert calls == [(3, 20), (3, 20), (3, 10)]


def test_eval_core_quotient():
    got = evaluate("E(q^7)^7 / E(q)", 8)
    assert got.coeffs == (1, 1, 2, 3, 5, 7, 11, 8, 15)


def test_eval_sigma_definition():
    text = "phi(q)*phi(q^7) + 4*q^2*psi(q^2)*psi(q^14)"
    assert evaluate(text, 60) == sigma_at(1, 60)


def test_eval_sigma_self_similarity():
    # sigma carries its own q -> q^2 refinement with a psi cross term
    left = "sigma(q) - sigma(q^2) - 2*q*psi(q)*psi(q^7)"
    assert evaluate(left, 100).is_zero()


def test_eval_lattice_atoms():
    assert evaluate("lattice(7)", 20) == lattice_sum(7, 20)
    assert evaluate("lattice7(2)", 20) == lattice_rank_sum(2, 20)


@pytest.mark.parametrize(
    "text, limit, leaf",
    [("lattice(7)", 6400, "lattice(7)"), ("lattice7(-1)", 6400, "lattice7(-1)"),
     ("lattice(5)", 12800, "lattice(5)"), ("T2(lattice(3))", MAX_ORDER, None),
     ("T2(lattice7(2))", 3200, "lattice7(2)"),
     ("T2(T2(lattice(5)))", 3200, "lattice(5)"),
     ("lattice(5) + E(q)*T2(lattice7(1))", 3200, "lattice7(1)"),
     ("T2(lattice(2)) - lattice(5)", 12800, "lattice(5)")],
)
def test_a_lattice_atom_is_refused_past_its_order_cap(monkeypatch, text, limit, leaf):
    assert check_bounds(text, limit).run is _root(parse(text)).run
    if leaf is None:
        return
    built = []
    monkeypatch.setattr(exprlang, "lattice_sum", lambda *args: built.append(args))
    monkeypatch.setattr(exprlang, "lattice_rank_sum", lambda *args: built.append(args))
    with pytest.raises(ExprEvalError) as exc:
        evaluate(text, limit + 1)
    assert exc.value.expression == leaf
    t = 7 if leaf.startswith("lattice7") else int(leaf[8])
    scale = MAX_LATTICE_ORDER[t] // limit
    assert f"counted at order {scale * (limit + 1)}, above the limit" in str(exc.value)
    assert f"{MAX_LATTICE_ORDER[t]} for t = {t}" in str(exc.value)
    assert built == []


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
    assert _plan(parse("q^3*E(q^28)^3/E(q^2)^2")).fold == EtaFold({28: 3, 2: -2}, 3, 1)
    assert _plan(parse("2*chi(-q)^2")).fold == EtaFold({1: 2, 2: -2}, 0, 2)
    assert _plan(parse("E(q)/(1*E(q))^3")).fold == EtaFold({1: -2}, 0, 1)
    assert _plan(parse("(q*E(q))^0")).fold == EtaFold({}, 0, 1)
    # not a unit divisor, or a leaf that is not an eta factor
    for text in ("E(q)/q", "E(q)/(2*E(q^2))", "E(q)*psi(q)", "E(q)*(1 + q)"):
        assert _plan(parse(text)).fold is None


def run(node, order):
    """node evaluated by its plan, past evaluate's size and cost bounds."""
    return _plan(node).run(order)


def _uncached(builder):
    """builder past its own prefix_cached wrapper, if it has one."""
    return getattr(builder, "__wrapped__", builder)


#: The TruncSeries method of each unary slice, written out again here.
SLICE_METHODS = {"neg": TruncSeries.neg, "even": TruncSeries.even_part,
                 "odd": TruncSeries.odd_part, "altq": TruncSeries.alternate}


def plain_walk(node, order):
    """The evaluator's oracle: every node taken as it is written, with no
    plan, no fold and no cache of the evaluator's.  Products, quotients
    and powers are mul, div and pow on their evaluated operands, and
    chi(-q^k) is E(q^k)/E(q^2k) by div, not an eta quotient.  Each atom
    is its theta or partitions builder, called past the builder's own
    cache where it has one."""
    if isinstance(node, Const):
        return TruncSeries.constant(node.value, order)
    if isinstance(node, QPow):
        return TruncSeries.monomial(1, node.k, order)
    if isinstance(node, KAtom) and node.name == "chi":
        e = _uncached(euler_E)
        return e(node.k, order).div(e(2 * node.k, order))
    if isinstance(node, KAtom):
        return _uncached(getattr(theta, _K_ATOMS[node.name]))(node.k, order)
    if isinstance(node, ThetaAtom):
        args = ThetaArgs(node.sign_a, node.r, node.sign_b, node.s)
        return _uncached(theta.theta_f)(args, order)
    if isinstance(node, LatticeAtom):
        if node.j is None:
            return lattice_sum(node.t, order)
        return lattice_rank_sum(node.j, order)
    if isinstance(node, Unary) and node.op == "T2":
        if order > MAX_ORDER:
            raise ExprEvalError(
                to_text(node),
                f"T2 would evaluate its argument past order {2 * MAX_ORDER}",
            )
        return hecke_T2(plain_walk(node.child, 2 * order))
    if isinstance(node, Unary):
        return SLICE_METHODS[node.op](plain_walk(node.child, order))
    if isinstance(node, Power):
        return plain_walk(node.base, order).pow(node.exponent)
    left, right = plain_walk(node.left, order), plain_walk(node.right, order)
    if node.op == "+":
        return left.add(right)
    if node.op == "-":
        return left.sub(right)
    if node.op == "*":
        return left.mul(right)
    if right.coeffs[0] not in (1, -1):
        raise ExprEvalError(
            to_text(node.right),
            f"division needs constant term +1 or -1, got {right.coeffs[0]}",
        )
    return left.div(right)


def outcome(evaluator, node, order):
    """The series, or the quoted expression and text of the ExprEvalError."""
    try:
        return evaluator(node, order)
    except ExprEvalError as exc:
        return exc.expression, str(exc)


def random_tree(rng, depth):
    """A tree of any node kind, at most depth levels above its leaves,
    drawn as test_acceptance's _random_tree draws them, with smaller
    arguments."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice((
            lambda: Const(rng.randint(-2, 3)),
            lambda: QPow(rng.randint(0, 3)),
            lambda: KAtom(rng.choice(sorted(_K_ATOMS)), rng.randint(1, 4)),
            lambda: ThetaAtom(rng.choice((1, -1)), rng.randint(1, 5),
                              rng.choice((1, -1)), rng.randint(1, 5)),
            lambda: LatticeAtom(rng.choice((2, 3, 5, 7))),
            lambda: LatticeAtom(7, rng.choice((-1, 0, 1, 2))),
        ))()
    shape = rng.randrange(3)
    if shape == 0:
        op = rng.choice(("T2",) + tuple(SLICE_METHODS))
        return Unary(op, random_tree(rng, depth - 1))
    if shape == 1:
        return Power(random_tree(rng, depth - 1), rng.randint(0, 3))
    op = rng.choice("+-*/")
    return Binary(op, random_tree(rng, depth - 1), random_tree(rng, depth - 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0), st.integers(min_value=0, max_value=60),
       st.integers(min_value=0, max_value=60))
def test_the_evaluator_matches_its_uncompiled_uncached_oracle(seed, order, other):
    """evaluate, with its plans, folds and caches, against plain_walk: the
    same series, or the same error quoting the same expression.  The
    second order runs the plan kept from the first, and is served by
    truncation where a cache already holds a higher order."""
    node = random_tree(random.Random(seed), 4)
    try:
        assume(_bounds(node)[0] <= MAX_DEGREE)
    except ExprEvalError:  # exponents multiply past MAX_EXPONENT
        assume(False)
    for n in (order, other):
        assert outcome(evaluate, node, n) == outcome(plain_walk, node, n)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0))
def test_a_kept_root_matches_the_oracle_at_falling_and_rising_orders(seed):
    """A root's kept value serves a lower order by truncation and is
    rebuilt for a higher one: each order agrees with plain_walk."""
    node = random_tree(random.Random(seed), 4)
    try:
        assume(_bounds(node)[0] <= MAX_DEGREE)
    except ExprEvalError:  # exponents multiply past MAX_EXPONENT
        assume(False)
    for n in (60, 20, 90, 45):
        assert outcome(evaluate, node, n) == outcome(plain_walk, node, n)


@pytest.mark.parametrize("text, order", [
    ("psi(q)*(psi(q^3)/q)", 20),
    ("1 + psi(q)*(psi(q^3)/q)", 20),
    ("T2(T2(E(q)))", MAX_ORDER // 2 + 1),
    ("T2(T2(E(q))) + q", MAX_ORDER // 2 + 1),
])
def test_a_root_that_raises_raises_again_and_keeps_nothing(text, order):
    want = outcome(plain_walk, parse(text), order)
    assert isinstance(want, tuple)  # the quoted expression and error text
    before = _kept.cache_info().currsize
    for _ in range(2):
        assert outcome(evaluate, text, order) == want
    assert _kept.cache_info().currsize == before


def test_a_tree_is_compiled_once():
    node = parse("psi(q^5)^3 - T2(phi(q)*E(q)^2)")
    plan = _plan(node)
    assert _plan(parse(to_text(node))) is plan
    assert evaluate(node, 30) == plain_walk(node, 30)
    assert evaluate(node, 10) == plain_walk(node, 10)
    assert _plan(node) is plan


eta_trees = st.recursive(
    st.one_of(
        st.builds(KAtom, st.just("E"), st.integers(min_value=1, max_value=6)),
        st.builds(KAtom, st.just("chi"), st.integers(min_value=1, max_value=6)),
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
    cached = _kept.cache_info().currsize
    try:
        want = plain_walk(node, order)
    except ExprEvalError as exc:
        with pytest.raises(ExprEvalError) as got:
            run(node, order)
        assert got.value.expression == exc.expression
        assert str(got.value) == str(exc)
    else:
        assert run(node, order) == want
    assert _kept.cache_info().currsize == cached


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


# Eta factors, q^s and constants, which fold, mixed with theta leaves,
# which do not.
mixed_trees = st.recursive(
    st.one_of(
        st.builds(KAtom, st.just("E"), st.integers(min_value=1, max_value=6)),
        st.builds(KAtom, st.just("chi"), st.integers(min_value=1, max_value=6)),
        st.builds(QPow, st.integers(min_value=0, max_value=3)),
        st.builds(Const, st.integers(min_value=-2, max_value=3)),
        st.builds(KAtom, st.just("psi"), st.integers(min_value=1, max_value=4)),
        st.builds(KAtom, st.just("phi"), st.integers(min_value=1, max_value=4)),
        st.builds(KAtom, st.just("omega"), st.integers(min_value=1, max_value=2)),
    ),
    lambda children: st.one_of(
        st.builds(Power, children, st.integers(min_value=0, max_value=3)),
        st.builds(Binary, st.sampled_from(("*", "/")), children, children),
    ),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(mixed_trees, st.integers(min_value=0, max_value=150))
def test_divide_last_matches_the_plain_walk(node, order):
    try:
        want = plain_walk(node, order)
    except ExprEvalError as exc:
        with pytest.raises(ExprEvalError) as got:
            run(node, order)
        assert got.value.expression == exc.expression
        assert str(got.value) == str(exc)
    else:
        assert run(node, order) == want


@pytest.mark.parametrize(
    "text, divisor, constant",
    [
        ("psi(q)/(2*E(q))", "2*E(q)", 2),
        ("omega(q)*E(q)/(q*chi(-q))", "q*chi(-q)", 0),
        ("phi(q)/(3*E(q^2))^2", "(3*E(q^2))^2", 9),
        ("E(q)^2*(psi(q)/q^2)", "q^2", 0),
        ("psi(q)/(0*E(q)/E(q^2))", "0*E(q)/E(q^2)", 0),
    ],
)
def test_mixed_non_unit_divisor_raises_as_before(text, divisor, constant):
    with pytest.raises(ExprEvalError) as exc:
        evaluate(text, 30)
    assert exc.value.expression == divisor
    assert str(exc.value) == (
        f"cannot evaluate '{divisor}': division needs constant term"
        f" +1 or -1, got {constant}"
    )


def test_a_divisor_that_folds_is_divided_factor_by_factor(monkeypatch):
    """W * omega(q^3) never builds W: phi(-q^14) = E(q^14)^2/E(q^28)
    absorbs one divisor into its numerator, which divides nothing, and
    the product divides by the one Euler factor left, E(q^4), last.
    psi(q^3)/(E(q^4)*E(q^28)) has no numerator to absorb into, and
    divides by each Euler factor, not by their dense product.  (Nodes no
    other test evaluates, so the node cache holds neither.)"""
    built, divided = [], []

    def logged(factors, order):
        built.append(dict(factors))
        return eta_quotient(factors, order)

    def divide(series, divisors):
        divided.append(dict(divisors))
        return divide_by_euler(series, divisors)

    monkeypatch.setattr(exprlang, "eta_quotient", logged)
    monkeypatch.setattr(exprlang, "divide_by_euler", divide)
    got = evaluate("(E(q^14)^4/(E(q^4)*E(q^28)))*omega(q^3)", 60)
    assert got == eta_quotient({14: 4, 4: -1, 28: -1}, 60).mul(omega_at(3, 60))
    got = evaluate("psi(q^3)/(E(q^4)*E(q^28))", 60)
    assert got == psi(3, 60).div(euler_E(4, 60)).div(euler_E(28, 60))
    assert built == [{14: 4, 28: -1}]
    assert divided == [{4: 1}, {4: 1, 28: 1}]
    assert eta_split({14: 4, 28: -1})[2] == {}


def test_failed_evaluation_caches_nothing():
    """Neither a failing product nor the kept root of a sum above it
    stores a series, so each evaluation misses them all again."""
    before = _kept.cache_info()
    for text in ("psi(q)*(psi(q^3)/q)", "1 + psi(q)*(psi(q^3)/q)"):
        for _ in range(2):
            with pytest.raises(ExprEvalError):
                evaluate(text, 20)
    after = _kept.cache_info()
    assert after.currsize == before.currsize
    # each evaluation misses both products, and the sum also its root
    assert (after.hits, after.misses) == (before.hits, before.misses + 2 * 2 + 2 * 3)


def test_equal_subtrees_share_one_cache_entry():
    text = "psi(q^5)^3 - (psi(q^5))^3 + psi(q^5)^3"
    before = _kept.cache_info()
    got = evaluate(text, 40)
    assert got == psi(5, 40).pow(3)
    after = _kept.cache_info()
    # the root and three lookups of one node: at most two builds, one
    # per distinct kept subtree, and the others are hits
    assert after.hits + after.misses == before.hits + before.misses + 4
    assert after.misses <= before.misses + 2
    assert after.currsize <= before.currsize + 2
    # Evaluated again, the tree is one lookup of its kept root.
    assert evaluate(text, 30) == got.truncate(30)
    again = _kept.cache_info()
    assert (again.hits, again.misses) == (after.hits + 1, after.misses)
    assert _root(parse(text)).run is not _plan(parse(text)).run


def test_each_tree_is_walked_for_its_height_once(monkeypatch, fresh_roots):
    """parse walks a text's tree for its height, and _root makes no
    height walk of its own: _bounds checks the height as it walks, so a
    tree a caller builds is walked once too."""
    text = "psi(q^3)^2 - 5*q^13"
    tree, walks = parse(text), []
    height = exprlang._check_height
    monkeypatch.setattr(
        exprlang, "_check_height", lambda node: walks.append(node) or height(node)
    )
    for order in (20, 30):
        evaluate(text, order)
    assert walks == [tree]
    walks.clear()
    for order in (20, 30):
        evaluate(Binary("+", QPow(1), Const(1)), order)
    assert walks == []


@pytest.mark.parametrize("value", [5, None, ("q",)])
def test_a_value_that_is_not_a_node_is_refused(value):
    with pytest.raises(TypeError, match="not an expression node"):
        evaluate(value, 3)


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
    st.builds(KAtom, st.just("E"), one_based),
    st.builds(KAtom, st.just("phi"), one_based),
    st.builds(KAtom, st.just("psi"), one_based),
    st.builds(KAtom, st.just("chi"), one_based),
    st.builds(KAtom, st.just("sigma"), one_based),
    st.builds(KAtom, st.just("omega"), one_based),
    st.builds(ThetaAtom, pm, one_based, pm, one_based),
    st.builds(LatticeAtom, st.sampled_from((2, 3, 5, 7))),
    st.builds(LatticeAtom, st.just(7), st.sampled_from((-1, 0, 1, 2))),
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


def test_a_negative_constant_prints_as_its_value():
    """-3^2 would reparse as -(3^2): before a caret, a negative constant
    prints in parentheses, with the precedence of unary minus."""
    tree = Power(Const(-3), 2)
    assert to_text(tree) == "(-3)^2"
    assert evaluate(to_text(tree), 4) == evaluate(tree, 4) == TruncSeries.constant(9, 4)
    assert to_text(Binary("*", Const(2), Const(-3))) == "2*-3"


negative_constants = st.builds(Const, st.integers(min_value=-99, max_value=-1))
signed_atoms = st.one_of(atoms, negative_constants)
signed_trees = st.recursive(signed_atoms, _extend, max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(signed_trees)
def test_a_printed_tree_keeps_its_value(ast):
    """A tree parse cannot produce, such as one with a negative Const,
    reprints to a tree of equal value: equal series at order 12, or the
    same ExprEvalError."""
    assert outcome(evaluate, parse(to_text(ast)), 12) == outcome(evaluate, ast, 12)


# -- the parser against its oracle ----------------------------------------


def parsed(parse_text, text):
    """The tree and every node's span, or the syntax error's offset,
    expected kind and message."""
    try:
        tree = parse_text(text)
    except ExprSyntaxError as exc:
        return exc.offset, exc.expected, str(exc)
    return tree, [node.span for node in subtrees(tree)]


def demo_strings():
    """Every string literal in the demos, expression or not."""
    return sorted({
        node.value
        for path in sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
        for node in pyast.walk(pyast.parse(path.read_text()))
        if isinstance(node, pyast.Constant) and isinstance(node.value, str)
    })


def test_every_catalog_claim_and_demo_text_parses_as_under_the_oracle():
    texts = catalog_texts() + scan_texts() + demo_strings()
    assert "phi(q)*phi(q^7) + 4*q^2*psi(q^2)*psi(q^14)" in texts
    for text in texts:
        assert parsed(parse, text) == parsed(parser_oracle.parse, text), text


@settings(max_examples=300, deadline=None)
@given(st.one_of(expr_trees, signed_trees))
def test_a_printed_tree_parses_as_under_the_oracle(ast):
    text = to_text(ast)
    assert parsed(parse, text) == parsed(parser_oracle.parse, text)


#: Pieces of hostile input: each token kind, atom names, whitespace of
#: each kind, Unicode digits and letters, an overlong literal, and runs
#: that pass MAX_DEPTH in each way a text nests: parentheses, unary
#: minus, function arguments, and sum, product and power chains.
HOSTILE = (
    "(", ")", "-", "+", "*", "/", "^", ",", "q", "q^", " psi ", "E(", "f(",
    "chi(", "psi(", "lattice(", "lattice7(", "even(", "T2(", "0", "1", "7",
    "12", "E(q^7)", "f(-q,q^2)", "lattice7(-1)", "chi(-q)",
    " ", "\t", "\r\n", "\u00b2", "\u0663", "\u00e9", "_", "\u00a0",
    "7" * 5000,
    "(" * 120, ")" * 120, "-" * 120, "T2(" * 120, "even(" * 60,
    " + q" * 120, "*q" * 120, "^1" * 120,
)


@st.composite
def hostile_texts(draw):
    """A run of hostile pieces, or a catalog or claim text with a piece
    put in at some place, in place of up to three characters."""
    pieces = st.sampled_from(HOSTILE)
    if draw(st.booleans()):
        return "".join(draw(st.lists(pieces, max_size=12)))
    text = draw(st.sampled_from(catalog_texts() + scan_texts()))
    at = draw(st.integers(min_value=0, max_value=len(text)))
    cut = draw(st.integers(min_value=0, max_value=3))
    return text[:at] + draw(pieces) + text[at + cut:]


@settings(max_examples=500, deadline=None)
@given(hostile_texts())
def test_a_hostile_text_parses_as_under_the_oracle(text):
    assert parsed(parse, text) == parsed(parser_oracle.parse, text)
