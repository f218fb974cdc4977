"""The expression parser as it was before the one-pass front end: a
tokenizer that builds one ``Token`` per token, and a recursive descent
with one method per grammar level (expr, term, factor, power, primary).

``tests/test_exprlang.py`` runs ``sevencores.exprlang.parse`` against
``parse`` here on printed trees, on every catalog, claim and demo text
and on hostile strings: both must give equal trees with equal spans at
every node, or the same ``ExprSyntaxError``.  The node types, the
limits, the name tables and the height walk are the engine's own.
"""

from typing import NamedTuple

from sevencores.exprlang import (
    MAX_DEPTH,
    MAX_EXPONENT,
    MAX_LATTICE_ORDER,
    _K_ATOMS,
    _KNOWN_NAMES,
    _UNARY_NAMES,
    Binary,
    Const,
    ExprSyntaxError,
    KAtom,
    LatticeAtom,
    Node,
    Power,
    QPow,
    ThetaAtom,
    Unary,
    _check_height,
    _not_one_of,
    _too_deep,
)
from sevencores.partitions import _RANK_FLIPS


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

    def parse_chain(self, ops, parse_operand) -> Node:
        """Operands joined by the binary operators ops, left-associative."""
        node = parse_operand()
        while self.peek().kind in ops:
            op = self.advance().kind
            rhs = parse_operand()
            node = Binary(op, node, rhs, span=(node.span[0], rhs.span[1]))
        return node

    def parse_expr(self) -> Node:
        return self.parse_chain(("+", "-"), self.parse_term)

    def parse_term(self) -> Node:
        return self.parse_chain(("*", "/"), self.parse_factor)

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
        if name in _K_ATOMS:
            self.expect("(")
            if name == "chi":
                self.expect("-", 'the "-" of chi(-q^k)')
            k = self.parse_qarg()
            end = self.expect(")").pos + 1
            return KAtom(name, k, span=(start, end))
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
            if t not in MAX_LATTICE_ORDER:
                raise ExprSyntaxError(
                    it.pos + 1, _not_one_of("lattice dimension", MAX_LATTICE_ORDER, t)
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
            if j not in _RANK_FLIPS:
                raise ExprSyntaxError(
                    it.pos + 1, _not_one_of("rank class", sorted(_RANK_FLIPS), j)
                )
            end = self.expect(")").pos + 1
            return LatticeAtom(7, j, span=(start, end))
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
