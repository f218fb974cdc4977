"""A small expression language over the q-series atoms.

Grammar, with whitespace insignificant and offsets reported one-based:

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := primary ('^' INT)*      with INT <= MAX_EXPONENT
    primary := INT | '(' expr ')' | 'q' ['^' INT] | atom
    atom    := E|phi|psi|sigma|omega '(' qarg ')'
             | chi '(' '-' qarg ')'
             | f '(' ['+'|'-'] qarg ',' ['+'|'-'] qarg ')'
             | even|odd|T2|altq '(' expr ')'
             | lattice '(' INT ')' | lattice7 '(' ['-'] INT ')'
    qarg    := 'q' ['^' INT]        with INT >= 1

Precedence is ^ above unary minus above * and / above + and -, all
binaries left-associative.  ``to_text`` inverts ``parse``: printing any
AST and reparsing reconstructs the identical tree, so parentheses are
emitted exactly where reparsing would otherwise regroup.  A bare caret
on q folds into the q^k atom itself.

Input may nest at most MAX_DEPTH levels deep, counting parentheses,
unary minus signs and function arguments while parsing, and operator
chains in the finished tree.  Deeper input is a syntax error rather than
a stack overflow in the parser, the printer or the evaluator.  So is an
integer literal too long for ``int`` (Python refuses more than 4300
digits) and a ``^`` exponent above MAX_EXPONENT.  ``evaluate`` also
refuses, before it builds anything, a tree whose exponents multiply past
MAX_EXPONENT along one root-to-leaf path, such as E(q)^100^100.  Each T2
doubles the order its argument is evaluated at; past 2 * MAX_ORDER that
is an evaluation error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .partitions import lattice_rank_sum, lattice_sum
from .series import MAX_ORDER, TruncSeries, hecke_T2, prefix_cached
from .theta import (
    ThetaArgs,
    chi_neg,
    eta_quotient,
    euler_E,
    omega_at,
    phi,
    psi,
    sigma_at,
    theta_f,
)


class ExprSyntaxError(ValueError):
    """Parse failure; offset is the one-based character position."""

    def __init__(self, offset: int, detail: str, expected=None):
        self.offset = offset
        self.expected = expected
        super().__init__(f"syntax error at offset {offset}, {detail}")


class ExprEvalError(ValueError):
    """Evaluation failure; quotes the offending sub-expression."""

    def __init__(self, expression: str, detail: str):
        self.expression = expression
        super().__init__(f"cannot evaluate '{expression}': {detail}")


# -- AST ----------------------------------------------------------------

@dataclass(frozen=True)
class Node:
    span: tuple = field(default=(0, 0), compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class Const(Node):
    value: int


@dataclass(frozen=True)
class QPow(Node):
    k: int


@dataclass(frozen=True)
class EulerAtom(Node):
    k: int


@dataclass(frozen=True)
class PhiAtom(Node):
    k: int


@dataclass(frozen=True)
class PsiAtom(Node):
    k: int


@dataclass(frozen=True)
class ChiAtom(Node):
    # chi(-q^k): the sign in the argument is part of the atom.
    k: int


@dataclass(frozen=True)
class SigmaAtom(Node):
    k: int


@dataclass(frozen=True)
class OmegaAtom(Node):
    k: int


@dataclass(frozen=True)
class ThetaAtom(Node):
    sign_a: int
    r: int
    sign_b: int
    s: int


@dataclass(frozen=True)
class LatticeAtom(Node):
    t: int


@dataclass(frozen=True)
class Lattice7Atom(Node):
    j: int


@dataclass(frozen=True)
class Unary(Node):
    op: str  # "neg" | "even" | "odd" | "T2" | "altq"
    child: Node


@dataclass(frozen=True)
class Binary(Node):
    op: str  # "+" | "-" | "*" | "/"
    left: Node
    right: Node


@dataclass(frozen=True)
class Power(Node):
    base: Node
    exponent: int


# -- tokenizer ----------------------------------------------------------

class Token(NamedTuple):
    kind: str
    text: str
    pos: int


_PUNCT = set("+-*/^(),")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("NAME", text[i:j], i))
            i = j
            continue
        if c in _PUNCT:
            tokens.append(Token(c, c, i))
            i += 1
            continue
        raise ExprSyntaxError(i + 1, f"unexpected character {c!r}")
    tokens.append(Token("END", "", n))
    return tokens


# -- parser -------------------------------------------------------------

_UNARY_NAMES = ("even", "odd", "T2", "altq")
_KARG_ATOMS = {
    "E": EulerAtom,
    "phi": PhiAtom,
    "psi": PsiAtom,
    "sigma": SigmaAtom,
    "omega": OmegaAtom,
}
_KNOWN_NAMES = (
    "q", "E", "phi", "psi", "chi", "f", "sigma", "omega",
    "even", "odd", "T2", "altq", "lattice", "lattice7",
)


MAX_DEPTH = 100

#: Largest exponent after ``^``, and largest product of the exponents on
#: one root-to-leaf path.  The catalog's largest is 7.  The cost of a
#: power grows with its exponent: on a 2-core Xeon, E(q)^100 at order
#: MAX_ORDER takes ~5 s, and E(q)^1000000 at order 2000 ran over a minute.
MAX_EXPONENT = 100


def _too_deep(offset: int) -> ExprSyntaxError:
    return ExprSyntaxError(
        offset, f"expression nests deeper than {MAX_DEPTH} levels"
    )


def _check_height(root: Node) -> None:
    """Reject trees taller than MAX_DEPTH, which printing and evaluation
    would otherwise recurse through; walked without recursion."""
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise _too_deep(node.span[0] + 1)
        if isinstance(node, Unary):
            stack.append((node.child, depth + 1))
        elif isinstance(node, Binary):
            stack += ((node.left, depth + 1), (node.right, depth + 1))
        elif isinstance(node, Power):
            stack.append((node.base, depth + 1))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0

    def nested(self, tok: Token, parse_child) -> Node:
        """Parse one level below tok, refusing more than MAX_DEPTH levels."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _too_deep(tok.pos + 1)
        node = parse_child()
        self.depth -= 1
        return node

    def peek(self) -> Token:
        return self.toks[self.i]

    def advance(self) -> Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def integer(self, shown: str):
        """The next token as an INT, with its value."""
        tok = self.expect("INT", shown)
        try:
            return tok, int(tok.text)
        except ValueError:  # over 4300 digits, or digits int() does not read
            raise ExprSyntaxError(
                tok.pos + 1,
                f"cannot read the integer literal ({len(tok.text)} characters)",
            ) from None

    def expect(self, kind: str, shown=None) -> Token:
        tok = self.toks[self.i]
        if tok.kind != kind:
            shown = shown or f'"{kind}"'
            got = "end of input" if tok.kind == "END" else repr(tok.text)
            raise ExprSyntaxError(
                tok.pos + 1, f"expected {shown}, got {got}", expected=kind
            )
        self.i += 1
        return tok

    def parse(self) -> Node:
        node = self.parse_expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ExprSyntaxError(
                tok.pos + 1, f"unexpected trailing input {tok.text!r}"
            )
        _check_height(node)
        return node

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.parse_term()
            node = Binary(op, node, rhs, span=(node.span[0], rhs.span[1]))
        return node

    def parse_term(self) -> Node:
        node = self.parse_factor()
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.parse_factor()
            node = Binary(op, node, rhs, span=(node.span[0], rhs.span[1]))
        return node

    def parse_factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            child = self.nested(tok, self.parse_factor)
            return Unary("neg", child, span=(tok.pos, child.span[1]))
        return self.parse_power()

    def parse_power(self) -> Node:
        node = self.parse_primary()
        while self.peek().kind == "^":
            self.advance()
            tok, exponent = self.integer("an integer exponent")
            if exponent > MAX_EXPONENT:
                raise ExprSyntaxError(
                    tok.pos + 1,
                    f"exponent {exponent} is above the limit {MAX_EXPONENT}",
                )
            node = Power(
                node, exponent, span=(node.span[0], tok.pos + len(tok.text))
            )
        return node

    def parse_primary(self) -> Node:
        tok = self.peek()
        if tok.kind == "INT":
            tok, value = self.integer("an integer")
            return Const(value, span=(tok.pos, tok.pos + len(tok.text)))
        if tok.kind == "(":
            self.advance()
            node = self.nested(tok, self.parse_expr)
            self.expect(")")
            return node
        if tok.kind == "NAME":
            return self.parse_name()
        got = "end of input" if tok.kind == "END" else repr(tok.text)
        raise ExprSyntaxError(tok.pos + 1, f"expected an expression, got {got}")

    def parse_name(self) -> Node:
        tok = self.advance()
        name = tok.text
        start = tok.pos
        if name == "q":
            # q^k is one atom; the first caret after bare q belongs to it.
            if self.peek().kind == "^":
                self.advance()
                e, k = self.integer("an integer exponent")
                return QPow(k, span=(start, e.pos + len(e.text)))
            return QPow(1, span=(start, start + 1))
        if name in _KARG_ATOMS:
            self.expect("(")
            k = self.parse_qarg()
            end = self.expect(")").pos + 1
            return _KARG_ATOMS[name](k, span=(start, end))
        if name == "chi":
            self.expect("(")
            self.expect("-", 'the "-" of chi(-q^k)')
            k = self.parse_qarg()
            end = self.expect(")").pos + 1
            return ChiAtom(k, span=(start, end))
        if name == "f":
            self.expect("(")
            sa, r = self.parse_signed_qarg()
            self.expect(",")
            sb, s = self.parse_signed_qarg()
            end = self.expect(")").pos + 1
            return ThetaAtom(sa, r, sb, s, span=(start, end))
        if name in _UNARY_NAMES:
            self.expect("(")
            child = self.nested(tok, self.parse_expr)
            end = self.expect(")").pos + 1
            return Unary(name, child, span=(start, end))
        if name == "lattice":
            self.expect("(")
            it, t = self.integer("a lattice dimension")
            if t not in (2, 3, 5, 7):
                raise ExprSyntaxError(
                    it.pos + 1, f"lattice dimension must be 2, 3, 5, or 7, got {t}"
                )
            end = self.expect(")").pos + 1
            return LatticeAtom(t, span=(start, end))
        if name == "lattice7":
            self.expect("(")
            sign = 1
            if self.peek().kind == "-":
                self.advance()
                sign = -1
            it, j = self.integer("a rank class")
            j *= sign
            if j not in (-1, 0, 1, 2):
                raise ExprSyntaxError(
                    it.pos + 1, f"rank class must be -1, 0, 1, or 2, got {j}"
                )
            end = self.expect(")").pos + 1
            return Lattice7Atom(j, span=(start, end))
        raise ExprSyntaxError(
            tok.pos + 1,
            f"unknown atom name {name!r}; known names: "
            + ", ".join(_KNOWN_NAMES),
        )

    def parse_qarg(self) -> int:
        tok = self.expect("NAME", '"q"')
        if tok.text != "q":
            raise ExprSyntaxError(
                tok.pos + 1, f'expected "q", got {tok.text!r}'
            )
        if self.peek().kind == "^":
            self.advance()
            e, k = self.integer("an integer exponent")
            if k < 1:
                raise ExprSyntaxError(
                    e.pos + 1, "atom exponents are one-based; q^0 is not allowed"
                )
            return k
        return 1

    def parse_signed_qarg(self):
        sign = 1
        if self.peek().kind in ("+", "-"):
            sign = -1 if self.advance().kind == "-" else 1
        return sign, self.parse_qarg()


def parse(text: str) -> Node:
    """Parse an expression, or raise ExprSyntaxError."""
    return _Parser(text).parse()


# -- printer ------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 10, 20, 30, 40, 50


def _prec(node: Node) -> int:
    if isinstance(node, Binary):
        return _PREC_ADD if node.op in ("+", "-") else _PREC_MUL
    if isinstance(node, Unary):
        return _PREC_NEG if node.op == "neg" else _PREC_ATOM
    if isinstance(node, Power):
        return _PREC_POW
    return _PREC_ATOM


def _qtxt(k: int) -> str:
    return "q" if k == 1 else f"q^{k}"


def to_text(node: Node) -> str:
    """Print an AST so that parsing the text rebuilds the identical tree."""
    if isinstance(node, Const):
        return str(node.value)
    if isinstance(node, QPow):
        return _qtxt(node.k)
    if isinstance(node, EulerAtom):
        return f"E({_qtxt(node.k)})"
    if isinstance(node, PhiAtom):
        return f"phi({_qtxt(node.k)})"
    if isinstance(node, PsiAtom):
        return f"psi({_qtxt(node.k)})"
    if isinstance(node, ChiAtom):
        return f"chi(-{_qtxt(node.k)})"
    if isinstance(node, SigmaAtom):
        return f"sigma({_qtxt(node.k)})"
    if isinstance(node, OmegaAtom):
        return f"omega({_qtxt(node.k)})"
    if isinstance(node, ThetaAtom):
        a = ("-" if node.sign_a < 0 else "") + _qtxt(node.r)
        b = ("-" if node.sign_b < 0 else "") + _qtxt(node.s)
        return f"f({a},{b})"
    if isinstance(node, LatticeAtom):
        return f"lattice({node.t})"
    if isinstance(node, Lattice7Atom):
        return f"lattice7({node.j})"
    if isinstance(node, Unary):
        if node.op == "neg":
            inner = to_text(node.child)
            if _prec(node.child) < _PREC_NEG:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{node.op}({to_text(node.child)})"
    if isinstance(node, Binary):
        mine = _prec(node)
        left = to_text(node.left)
        if _prec(node.left) < mine:
            left = f"({left})"
        right = to_text(node.right)
        # Equal precedence on the right would reassociate when reparsed.
        if _prec(node.right) <= mine:
            right = f"({right})"
        sep = f" {node.op} " if node.op in ("+", "-") else node.op
        return f"{left}{sep}{right}"
    if isinstance(node, Power):
        base = to_text(node.base)
        if _prec(node.base) < _PREC_POW or (
            isinstance(node.base, QPow) and node.base.k == 1
        ):
            # A bare q before ^ would fold into the q^k atom when reparsed.
            base = f"({base})"
        return f"{base}^{node.exponent}"
    raise TypeError(f"not an expression node: {node!r}")


# -- evaluator ----------------------------------------------------------

class EtaFold(NamedTuple):
    """const * q^shift * the eta quotient of factors ({step: exponent})."""

    factors: dict
    shift: int
    const: int


def _is_product(node: Node) -> bool:
    return isinstance(node, Power) or (
        isinstance(node, Binary) and node.op in ("*", "/")
    )


def _fold(node: Node) -> Optional[EtaFold]:
    """node as one EtaFold, or None.  It folds when its leaves are only
    E(q^k), chi(-q^k) = E(q^k)/E(q^2k), q^s and integer constants, joined
    by *, / and ^, and when every divisor is a unit: a divisor with a
    factor q^s or a constant other than +1 or -1 is left to eval_ast,
    which reports it."""
    if isinstance(node, EulerAtom):
        return EtaFold({node.k: 1}, 0, 1)
    if isinstance(node, ChiAtom):
        return EtaFold({node.k: 1, 2 * node.k: -1}, 0, 1)
    if isinstance(node, QPow):
        return EtaFold({}, node.k, 1)
    if isinstance(node, Const):
        return EtaFold({}, 0, node.value)
    if isinstance(node, Power):
        base = _fold(node.base)
        if base is None:
            return None
        e = node.exponent
        factors = {k: v * e for k, v in base.factors.items()} if e else {}
        return EtaFold(factors, base.shift * e, base.const**e)
    if not _is_product(node):
        return None
    left, right = _fold(node.left), _fold(node.right)
    if left is None or right is None:
        return None
    sign = 1
    if node.op == "/":
        if right.shift or right.const not in (1, -1):
            return None
        sign = -1
    factors = dict(left.factors)
    for k, v in right.factors.items():
        factors[k] = factors.get(k, 0) + sign * v
    return EtaFold(
        {k: v for k, v in factors.items() if v},
        left.shift + right.shift,
        left.const * right.const,
    )


@prefix_cached
def _eval_product(node: Node, order: int) -> TruncSeries:
    """A product, quotient or power that does not fold, from its operands."""
    if isinstance(node, Power):
        return eval_ast(node.base, order).pow(node.exponent)
    left = eval_ast(node.left, order)
    right = eval_ast(node.right, order)
    if node.op == "*":
        return left.mul(right)
    if right.coeffs[0] not in (1, -1):
        raise ExprEvalError(
            to_text(node.right),
            f"division needs constant term +1 or -1, got {right.coeffs[0]}",
        )
    return left.div(right)


def eval_ast(node: Node, order: int) -> TruncSeries:
    """Evaluate an AST to a TruncSeries of the given order.

    A product, quotient or power that folds (see ``_fold``) is one
    ``eta_quotient`` call, which caches it.  Any other product, quotient
    or power is cached under its node, so equal subtrees share one
    entry.  Leaves are cached atoms; sums, differences and the unary
    operations cost one pass over the coefficients and are not cached.
    """
    if _is_product(node):
        folded = _fold(node)
        if folded is None:
            return _eval_product(node, order)
        out = eta_quotient(folded.factors, order)
        if folded.shift:
            out = out.shift(folded.shift)
        return out if folded.const == 1 else out.scale(folded.const)
    if isinstance(node, Const):
        return TruncSeries.constant(node.value, order)
    if isinstance(node, QPow):
        return TruncSeries.monomial(1, node.k, order)
    if isinstance(node, EulerAtom):
        return euler_E(node.k, order)
    if isinstance(node, PhiAtom):
        return phi(node.k, order)
    if isinstance(node, PsiAtom):
        return psi(node.k, order)
    if isinstance(node, ChiAtom):
        return chi_neg(node.k, order)
    if isinstance(node, SigmaAtom):
        return sigma_at(node.k, order)
    if isinstance(node, OmegaAtom):
        return omega_at(node.k, order)
    if isinstance(node, ThetaAtom):
        return theta_f(ThetaArgs(node.sign_a, node.r, node.sign_b, node.s), order)
    if isinstance(node, LatticeAtom):
        return lattice_sum(node.t, order)
    if isinstance(node, Lattice7Atom):
        return lattice_rank_sum(node.j, order)
    if isinstance(node, Unary):
        if node.op == "T2":
            # The halving action reads coefficients up to twice the order.
            if order > MAX_ORDER:
                raise ExprEvalError(
                    to_text(node),
                    f"T2 would evaluate its argument past order {2 * MAX_ORDER}",
                )
            return hecke_T2(eval_ast(node.child, 2 * order))
        child = eval_ast(node.child, order)
        if node.op == "neg":
            return child.neg()
        if node.op == "even":
            return child.even_part()
        if node.op == "odd":
            return child.odd_part()
        if node.op == "altq":
            return child.alternate()
        raise ExprEvalError(to_text(node), f"unknown unary operation {node.op!r}")
    if isinstance(node, Binary):
        left = eval_ast(node.left, order)
        right = eval_ast(node.right, order)
        if node.op == "+":
            return left.add(right)
        if node.op == "-":
            return left.sub(right)
        raise ExprEvalError(to_text(node), f"unknown operation {node.op!r}")
    raise TypeError(f"not an expression node: {node!r}")


def _check_exponents(root: Node) -> None:
    """Refuse a tree whose ^ exponents multiply past MAX_EXPONENT on some
    root-to-leaf path.  An exponent 0 counts as 1 here, because the
    base under it is still evaluated.  Walked without recursion."""
    stack = [(root, 1, None)]
    while stack:
        node, product, outer = stack.pop()
        if isinstance(node, Power):
            product *= max(node.exponent, 1)
            outer = node if outer is None else outer
            if product > MAX_EXPONENT:
                raise ExprEvalError(
                    to_text(outer),
                    f"its exponents multiply to {product} on one path,"
                    f" above the limit {MAX_EXPONENT}",
                )
            stack.append((node.base, product, outer))
        elif isinstance(node, Unary):
            stack.append((node.child, product, outer))
        elif isinstance(node, Binary):
            stack += ((node.left, product, outer), (node.right, product, outer))


def evaluate(expr, order: int) -> TruncSeries:
    """Parse (if given text), check the exponent bound, and evaluate to a
    TruncSeries."""
    node = parse(expr) if isinstance(expr, str) else expr
    _check_exponents(node)
    return eval_ast(node, order)
