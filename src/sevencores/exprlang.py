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
binaries left-associative.  ``parse`` makes one pass over three flat
token lists, and one precedence-climbing loop joins binary chains.  A
tree ``parse`` can produce prints (``to_text``) to a text that parses
back to the identical tree, parenthesised exactly where reparsing would
otherwise regroup; any other tree, such as a negative ``Const``, prints
to a text of equal value.  A bare caret on q folds into the q^k atom.

The six one-argument atoms (E, phi, psi, chi, sigma, omega) are one
node, ``KAtom(name, k)``, and one table, ``_K_ATOMS``, which gives each
name its builder in ``theta``; parsing, printing and evaluation all read
that table.  The slices neg, even, odd and altq are rows of ``_SLICES``.
``lattice(t)`` and ``lattice7(j)`` are one node, ``LatticeAtom(t, j)``.
``Node`` is the one constructor of every node type.

Input may nest at most MAX_DEPTH levels deep, counting parentheses,
unary minus signs and function arguments while parsing, and operator
chains in the finished tree: deeper input is a syntax error, not a stack
overflow.  So is an integer literal too long for ``int`` (over 4300
digits) and a ``^`` exponent above MAX_EXPONENT.  ``evaluate`` also
refuses, before it builds anything, a tree whose exponents multiply past
MAX_EXPONENT along one root-to-leaf path (E(q)^100^100) or whose degree
passes MAX_DEGREE (three E(q)^100 factors), and an order past a cap: a
T2 evaluates its argument at twice the order, and caps that at
2 * MAX_ORDER, and a lattice atom caps its order at MAX_LATTICE_ORDER.
Within the caps, the degree times the order, each T2 doubling both,
must stay within MAX_COST.  A tree built without parsing is held to
MAX_DEPTH as well, and refused when it holds a node that no text
writes (``_unwritten``), such as E(q^0), E(q)^-1 or E(q^2.0), unless
an equal tree (E(q^2)) was checked first.  ``check_bounds`` is that
refusal alone, and the one place an order is refused.

Each distinct tree is compiled once, on its first evaluation, into a
plan (``_compile``): a tree of closures of the order in which every
fold, every divide-last choice and every product's cache key is fixed.
A run does series work and the checks that need a series only.  The
checked, compiled whole tree is its ``Root``, kept by ``_root`` under
the tree and under each text that parses to it, so a text is parsed and
its bounds walked once per process.  A whole tree that is a sum,
difference, slice, T2 or fold keeps its value, so evaluating it again
at its order or below is a lookup.
"""

from __future__ import annotations

from functools import cache, partial
from operator import add, itemgetter, methodcaller
from typing import Callable, NamedTuple, Optional

from . import theta
from .partitions import _RANK_FLIPS, lattice_rank_sum, lattice_sum
from .series import MAX_ORDER, TruncSeries, check_order, hecke_T2, prefix_cached
from .theta import ThetaArgs, divide_by_euler, eta_quotient, eta_split, theta_f


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

_set = object.__setattr__


class Node:
    """An expression tree node: its type and ``_key``, the tuple of its
    fields, whose names a node type declares once (``class Const(Node,
    fields=("value",))``), each read as an attribute.  Nodes of one type
    with equal fields are equal and hash equal; ``span``, the node's
    (start, end) in its text, takes no part."""

    __slots__ = ("_key", "span")

    def __init_subclass__(cls, fields):
        cls._fields = fields
        for i, name in enumerate(fields):
            setattr(cls, name, property(lambda node, i=i: node._key[i]))

    def __init__(self, *fields, span=(0, 0)):
        if len(fields) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__} takes the fields"
                f" ({', '.join(self._fields)}); {len(fields)} given"
            )
        _set(self, "_key", fields)
        _set(self, "span", span)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__}.{name} cannot change")

    __delattr__ = __setattr__

    def __reduce__(self):  # copy and pickle build the node again
        return partial(type(self), span=self.span), self._key

    def __repr__(self):
        fields = map("{}={!r}".format, self._fields, self._key)
        return f"{type(self).__name__}({', '.join(fields)})"


class Const(Node, fields=("value",)):
    __slots__ = ()


class QPow(Node, fields=("k",)):
    __slots__ = ()


class KAtom(Node, fields=("name", "k")):
    """The one-argument atom name (a key of _K_ATOMS) at q^k; for chi
    the argument is -q^k, its sign part of the atom."""

    __slots__ = ()


class ThetaAtom(Node, fields=("sign_a", "r", "sign_b", "s")):
    __slots__ = ()


class LatticeAtom(Node, fields=("t", "j")):
    """The t-core series ``lattice(t)``, or with a rank class j the
    7-core layer ``lattice7(j)`` (t = 7)."""

    __slots__ = ()

    def __init__(self, t: int, j: Optional[int] = None, *, span=(0, 0)):
        super().__init__(t, j, span=span)


class Unary(Node, fields=("op", "child")):  # op: "T2" or a key of _SLICES
    __slots__ = ()


class Binary(Node, fields=("op", "left", "right")):  # op: "+" | "-" | "*" | "/"
    __slots__ = ()


class Power(Node, fields=("base", "exponent")):
    __slots__ = ()


# -- tokenizer ----------------------------------------------------------

_PUNCT = frozenset("+-*/^(),")


def _tokenize(text: str):
    """The kinds, texts and offsets of text's tokens, three parallel lists
    closed by END at len(text); a kind is INT, NAME, END or the punctuation
    itself.  An object per token would cost more than the scan."""
    kinds, texts, offsets = [], [], []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in _PUNCT:
            kinds.append(c)
            texts.append(c)
            offsets.append(i)
            i += 1
            continue
        if c in " \t\r\n":
            i += 1
            continue
        j = i + 1
        if c.isdigit():
            while j < n and text[j].isdigit():
                j += 1
            kinds.append("INT")
        elif c.isalpha() or c == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            kinds.append("NAME")
        else:
            raise ExprSyntaxError(i + 1, f"unexpected character {c!r}")
        texts.append(text[i:j])
        offsets.append(i)
        i = j
    kinds.append("END")
    texts.append("")
    offsets.append(n)
    return kinds, texts, offsets


# -- parser -------------------------------------------------------------

_UNARY_NAMES = ("even", "odd", "T2", "altq")
#: Name -> builder in ``theta`` of each one-argument atom.  Builders are
#: looked up by name at each call, so a rebound one is seen.
_K_ATOMS = {"E": "euler_E", "phi": "phi", "psi": "psi", "chi": "chi_neg",
            "sigma": "sigma_at", "omega": "omega_at"}
#: The ``TruncSeries`` method of each unary operation but T2.
_SLICES = {"neg": "neg", "even": "even_part", "odd": "odd_part", "altq": "alternate"}
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

#: Largest degree of an evaluated tree (``_bounds``): two factors at the
#: exponent limit, such as E(q)^100 * E(q)^100.  The catalog's largest
#: is 12.  Unbounded, thirty factors E(q)^100 at order 2000 ran ~9 s on
#: a 2-core Xeon, and twenty factors psi(q)^100 ~30 s.
MAX_DEGREE = 2 * MAX_EXPONENT

#: Largest degree times evaluation order (``evaluate``): MAX_DEGREE at order
#: 2000.  On a 2-core Xeon, sigma(q)^20 at order 20000 takes 4.6 s; unbounded,
#: psi(q)^100*phi(q)^100 at 20000 ran 49 s.
MAX_COST = MAX_DEGREE * 2000

#: Largest order at which a lattice atom is counted, by its dimension t
#: (``lattice7`` counts t = 7): an order cap, as a T2's is (``_bounds``),
#: and a T2 above the atom doubles its order.  ``partitions._flip_layers``
#: grows faster than its order: on a 2-core Xeon, t = 3 at order 40000
#: took 2.0 s, t = 5 at 12800 1.9 s and t = 7 at 6400 1.5 s (3.4 s at
#: 9600).  t = 2 took 0.01 s at 40000, so t = 2 and t = 3 are capped at
#: 2 * MAX_ORDER, the most a T2 lets a leaf reach.
MAX_LATTICE_ORDER = {2: 2 * MAX_ORDER, 3: 2 * MAX_ORDER, 5: 12800, 7: 6400}


def _not_one_of(what: str, allowed, got) -> str:
    """The detail refusing got, which is none of allowed."""
    *most, last = allowed
    return f"{what} must be {', '.join(map(str, most))}, or {last}, got {got}"


def _too_deep(offset: int) -> ExprSyntaxError:
    return ExprSyntaxError(offset, f"expression nests deeper than {MAX_DEPTH} levels")


#: The fields of each node type that hold its operands.
_OPERANDS = {Unary: ("child",), Binary: ("left", "right"), Power: ("base",)}


def _check_height(root: Node) -> None:
    """Reject trees taller than MAX_DEPTH, which hashing, printing and
    evaluation would otherwise recurse through; walked without recursion,
    right operands first (as ``_bounds`` walks a tree it checks).  An
    operand that is not a node, which ``_bounds`` refuses, is no level."""
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH and isinstance(node, Node):
            raise _too_deep(node.span[0] + 1)
        for c in _OPERANDS.get(type(node), ()):
            stack.append((getattr(node, c), depth + 1))


#: The binding power of each binary operator, all left-associative.
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2}


class _Parser:
    """One parse of a text: i indexes its next token, and depth counts the
    parentheses, unary minus signs and function arguments open."""

    def __init__(self, text: str):
        self.kinds, self.texts, self.offsets = _tokenize(text)
        self.i = 0
        self.depth = 0

    def nest(self, offset: int) -> None:
        """Open a level at offset, refusing more than MAX_DEPTH."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _too_deep(offset + 1)

    def expect(self, kind: str, shown=None) -> int:
        """Take the next token, of kind; its index."""
        i = self.i
        if self.kinds[i] != kind:
            shown = shown or f'"{kind}"'
            got = "end of input" if self.kinds[i] == "END" else repr(self.texts[i])
            raise ExprSyntaxError(
                self.offsets[i] + 1, f"expected {shown}, got {got}", expected=kind
            )
        self.i = i + 1
        return i

    def integer(self, shown: str) -> tuple:
        """Take the next token, an INT: its start and end and its value."""
        i = self.expect("INT", shown)
        text, start = self.texts[i], self.offsets[i]
        try:
            return start, start + len(text), int(text)
        except ValueError:  # over 4300 digits, or digits int() does not read
            raise ExprSyntaxError(
                start + 1, f"cannot read the integer literal ({len(text)} characters)"
            ) from None

    def parse(self) -> Node:
        node = self.expr(1)
        i = self.i
        if self.kinds[i] != "END":
            raise ExprSyntaxError(
                self.offsets[i] + 1, f"unexpected trailing input {self.texts[i]!r}"
            )
        _check_height(node)
        return node

    def expr(self, least: int) -> Node:
        """Operands joined by binary operators binding at least as tightly
        as least, left-associative (precedence climbing)."""
        node = self.operand()
        kinds = self.kinds
        while True:
            op = kinds[self.i]
            binding = _BINDING.get(op, 0)
            if binding < least:
                return node
            self.i += 1
            right = self.expr(binding + 1)
            node = Binary(op, node, right, span=(node.span[0], right.span[1]))

    def operand(self) -> Node:
        """A unary minus and its operand, or a primary and its ^ exponents."""
        kinds, offsets, i = self.kinds, self.offsets, self.i
        kind = kinds[i]
        if kind == "-":
            self.i = i + 1
            self.nest(offsets[i])
            child = self.operand()
            self.depth -= 1
            return Unary("neg", child, span=(offsets[i], child.span[1]))
        if kind == "NAME":
            node = self.name()
        elif kind == "INT":
            start, end, value = self.integer("an integer")
            node = Const(value, span=(start, end))
        elif kind == "(":
            self.i = i + 1
            self.nest(offsets[i])
            node = self.expr(1)
            self.depth -= 1
            self.expect(")")
        else:
            got = "end of input" if kind == "END" else repr(self.texts[i])
            raise ExprSyntaxError(offsets[i] + 1, f"expected an expression, got {got}")
        while kinds[self.i] == "^":
            self.i += 1
            start, end, exponent = self.integer("an integer exponent")
            if exponent > MAX_EXPONENT:
                raise ExprSyntaxError(
                    start + 1, f"exponent {exponent} is above the limit {MAX_EXPONENT}"
                )
            node = Power(node, exponent, span=(node.span[0], end))
        return node

    def name(self) -> Node:
        i = self.i
        name, start = self.texts[i], self.offsets[i]
        self.i = i + 1
        if name == "q":
            # q^k is one atom; the first caret after bare q belongs to it.
            if self.kinds[i + 1] != "^":
                return QPow(1, span=(start, start + 1))
            self.i = i + 2
            _, end, k = self.integer("an integer exponent")
            return QPow(k, span=(start, end))
        if name not in _KNOWN_NAMES:
            raise ExprSyntaxError(
                start + 1,
                f"unknown atom name {name!r}; known names: " + ", ".join(_KNOWN_NAMES),
            )
        self.expect("(")
        if name in _K_ATOMS:
            if name == "chi":
                self.expect("-", 'the "-" of chi(-q^k)')
            node, fields = KAtom, (name, self.qarg())
        elif name == "f":
            sign_a, r = self.signed_qarg()
            self.expect(",")
            node, fields = ThetaAtom, (sign_a, r, *self.signed_qarg())
        elif name in _UNARY_NAMES:
            self.nest(start)
            node, fields = Unary, (name, self.expr(1))
            self.depth -= 1
        elif name == "lattice":
            at, _, t = self.integer("a lattice dimension")
            if t not in MAX_LATTICE_ORDER:
                raise ExprSyntaxError(
                    at + 1, _not_one_of("lattice dimension", MAX_LATTICE_ORDER, t)
                )
            node, fields = LatticeAtom, (t,)
        else:  # lattice7
            sign = 1
            if self.kinds[self.i] == "-":
                self.i += 1
                sign = -1
            at, _, j = self.integer("a rank class")
            j *= sign
            if j not in _RANK_FLIPS:
                raise ExprSyntaxError(
                    at + 1, _not_one_of("rank class", sorted(_RANK_FLIPS), j)
                )
            node, fields = LatticeAtom, (7, j)
        end = self.offsets[self.expect(")")] + 1
        return node(*fields, span=(start, end))

    def qarg(self) -> int:
        i = self.expect("NAME", '"q"')
        if self.texts[i] != "q":
            raise ExprSyntaxError(
                self.offsets[i] + 1, f'expected "q", got {self.texts[i]!r}'
            )
        if self.kinds[i + 1] != "^":
            return 1
        self.i = i + 2
        start, _, k = self.integer("an integer exponent")
        if k < 1:
            raise ExprSyntaxError(
                start + 1, "atom exponents are one-based; q^0 is not allowed"
            )
        return k

    def signed_qarg(self) -> tuple:
        kind = self.kinds[self.i]
        if kind not in ("+", "-"):
            return 1, self.qarg()
        self.i += 1
        return (-1 if kind == "-" else 1), self.qarg()


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
    if isinstance(node, Const) and node.value < 0:
        return _PREC_NEG
    return _PREC_ATOM


def _qtxt(k: int) -> str:
    return "q" if k == 1 else f"q^{k}"


def to_text(node: Node) -> str:
    """Print an AST so that parsing the text rebuilds the identical tree."""
    if isinstance(node, Const):
        return str(node.value)
    if isinstance(node, QPow):
        return _qtxt(node.k)
    if isinstance(node, KAtom):
        sign = "-" if node.name == "chi" else ""
        return f"{node.name}({sign}{_qtxt(node.k)})"
    if isinstance(node, ThetaAtom):
        a = ("-" if node.sign_a < 0 else "") + _qtxt(node.r)
        b = ("-" if node.sign_b < 0 else "") + _qtxt(node.s)
        return f"f({a},{b})"
    if isinstance(node, LatticeAtom):
        return f"lattice({node.t})" if node.j is None else f"lattice7({node.j})"
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


class Plan(NamedTuple):
    """A compiled tree: run(order) evaluates it; fold is ``_fold``'s."""

    run: Callable[[int], TruncSeries]
    fold: Optional[EtaFold]


class Root(NamedTuple):
    """A whole tree, checked and compiled (``_root``): run(order)
    evaluates it; doubled and cap are ``_bounds``'s; most is the largest
    order ``check_bounds`` accepts."""

    run: Callable[[int], TruncSeries]
    node: Node
    doubled: int
    cap: Optional[tuple]
    most: int


def _is_product(node: Node) -> bool:
    return isinstance(node, Power) or (
        isinstance(node, Binary) and node.op in ("*", "/")
    )


def _fold(node: Node, operands: list) -> Optional[EtaFold]:
    """node as one EtaFold, from its operands' plans, or None.  It folds
    when its leaves are only E(q^k), chi(-q^k) = E(q^k)/E(q^2k), q^s and
    integer constants, joined by *, / and ^, and when every divisor is a
    unit: a divisor with a factor q^s or a constant other than +1 or -1
    is left to the plain quotient, which reports it."""
    if isinstance(node, KAtom) and node.name == "E":
        return EtaFold({node.k: 1}, 0, 1)
    if isinstance(node, KAtom) and node.name == "chi":
        return EtaFold({node.k: 1, 2 * node.k: -1}, 0, 1)
    if isinstance(node, QPow):
        return EtaFold({}, node.k, 1)
    if isinstance(node, Const):
        return EtaFold({}, 0, node.value)
    folds = [plan.fold for plan in operands]
    if not _is_product(node) or None in folds:
        return None
    if isinstance(node, Power):
        (base,), e = folds, node.exponent
        factors = {k: v * e for k, v in base.factors.items()} if e else {}
        return EtaFold(factors, base.shift * e, base.const**e)
    return _join(node.op, *folds)


def _join(op: str, left: EtaFold, right: EtaFold) -> Optional[EtaFold]:
    """left * right or left / right as one EtaFold, or None for a divisor
    with a factor q^s or a constant other than +1 or -1."""
    sign = 1
    if op == "/":
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


def _shift_scale(out: TruncSeries, fold: EtaFold) -> TruncSeries:
    """out times the fold's q^shift and constant."""
    if fold.shift:
        out = out.shift(fold.shift)
    return out if fold.const == 1 else out.scale(fold.const)


@prefix_cached
def _kept(build, order: int) -> TruncSeries:
    """build(order), cached under build: that of a product that does not
    fold, which equal subtrees share (``_plan``), or a root's (``_root``).
    A lookup hashes no node."""
    return build(order)


def _compile(node: Node) -> Plan:
    """node's plan, from its operands' plans: the one walk that folds each
    node and decides how it is evaluated.  A run does the series work and
    the one check that needs a series, a divisor's constant term.
    Builders are looked up on ``theta`` and this module at each run."""
    operands = [_plan(getattr(node, c)) for c in _OPERANDS.get(type(node), ())]
    fold = _fold(node, operands)
    if _is_product(node):
        if fold is not None:
            factors = fold.factors
            return Plan(
                lambda order: _shift_scale(eta_quotient(factors, order), fold), fold
            )
        return Plan(partial(_kept, _build_product(node, *operands)), None)
    if isinstance(node, Const):
        return Plan(partial(TruncSeries.constant, node.value), fold)
    if isinstance(node, QPow):
        return Plan(partial(TruncSeries.monomial, 1, node.k), fold)
    if isinstance(node, KAtom):
        builder, k = _K_ATOMS[node.name], node.k
        return Plan(lambda order: getattr(theta, builder)(k, order), fold)
    if isinstance(node, ThetaAtom):
        args = ThetaArgs(node.sign_a, node.r, node.sign_b, node.s)
        return Plan(lambda order: theta_f(args, order), None)
    if isinstance(node, LatticeAtom):
        if node.j is None:
            return Plan(lambda order: lattice_sum(node.t, order), None)
        return Plan(lambda order: lattice_rank_sum(node.j, order), None)
    if isinstance(node, Unary) and node.op == "T2":
        # The halving action reads coefficients up to twice the order.
        child = operands[0].run
        return Plan(lambda order: hecke_T2(child(2 * order)), None)
    if isinstance(node, Unary) and node.op in _SLICES:
        child, method = operands[0].run, methodcaller(_SLICES[node.op])
        return Plan(lambda order: method(child(order)), None)
    if isinstance(node, Binary) and node.op in ("+", "-"):
        left, right = operands[0].run, operands[1].run
        if node.op == "+":
            return Plan(lambda order: left(order).add(right(order)), None)
        return Plan(lambda order: left(order).sub(right(order)), None)
    if isinstance(node, (Unary, Binary)):
        raise ExprEvalError(to_text(node), f"unknown operation {node.op!r}")
    raise TypeError(f"not an expression node: {node!r}")


#: node -> its plan, compiled on first use and kept under the node, so
#: equal subtrees share one plan and one ``_kept`` entry.
_plan = cache(_compile)


@cache
def _root(expr) -> Root:
    """expr, a text or a tree, as a whole checked tree: its bounds and a
    run that keeps its value (``_kept``) when it is a sum, difference,
    slice, T2 or fold, whose run builds a series or normalises the fold's
    factors again.  Atoms and the products that do not fold are cached
    already.  A text is parsed and walked
    once, and its Root is its tree's, the same object; a tree never
    equals a text, so the two kinds of key never collide.

    Refuses what ``_bounds`` refuses as it walks, and a degree past
    MAX_DEGREE.  A tree too tall is refused for its height
    whatever else is wrong with it, as ``parse`` refuses its text: when
    ``_bounds`` breaks off at another fault, the height is walked first.
    An order passes the bounds (``_refuse``) up to the least cap and up
    to MAX_COST // doubled."""
    if isinstance(expr, str):
        return _root(parse(expr))
    try:
        degree, doubled, cap = _bounds(expr)
    except ExprEvalError:
        _check_height(expr)
        raise
    if degree > MAX_DEGREE:
        raise ExprEvalError(
            to_text(expr), f"its degree {degree} is above the limit {MAX_DEGREE}"
        )
    plan = _plan(expr)
    if _is_product(expr):
        keep = plan.fold is not None
    else:
        keep = isinstance(expr, (Unary, Binary))
    run = partial(_kept, plan.run) if keep else plan.run
    most = MAX_COST // doubled if cap is None else min(MAX_COST // doubled, cap[0])
    return Root(run, expr, doubled, cap, most)


def _bounds(
    node: Node,
    product: int = 1,
    outer: Optional[Power] = None,
    scale: int = 1,
    depth: int = 1,
) -> tuple:
    """(degree, doubled, cap) of node, in one walk.

    degree is 1 per leaf, added across * and /, times max(e, 1) across
    ^ e, and the largest operand's across +, - and the unary operations:
    at most this many atom factors are multiplied into any one term.
    doubled is the same with each T2 doubling its argument's, as it
    doubles the order it is built at.  cap is (limit, node, scale), the
    least order cap under node: a T2 reached at scale s (2 per T2 above
    it) caps node's order at MAX_ORDER // s, and a lattice leaf at
    MAX_LATTICE_ORDER[t] // s.  Of equal limits the leftmost is kept, and
    a cap below a T2 before the T2's own; None when node has neither.

    product is that of the exponents on the path down to node, and outer
    the topmost ^ on it; past MAX_EXPONENT the walk raises, quoting
    outer.  An exponent 0 counts as 1, because its base is still
    evaluated.

    depth is node's level, 1 at the root; past MAX_DEPTH the walk raises
    as ``_check_height`` does.  It also refuses a node that no text
    writes (``_unwritten``), such as E(q^0), q^-1, E(q)^-1 or a field
    that is not an int.  Right operands go first, as in
    ``_check_height``: of two faults, the first met is reported, but
    ``_root`` puts a height past MAX_DEPTH first."""
    if depth > MAX_DEPTH:
        raise _too_deep(node.span[0] + 1)
    depth += 1
    detail = _unwritten(node)
    if detail is not None:
        # A node with an operand that is not a node has no text to quote.
        operands = (getattr(node, c) for c in _OPERANDS.get(type(node), ()))
        whole = all(isinstance(operand, Node) for operand in operands)
        raise ExprEvalError(to_text(node) if whole else repr(node), detail)
    if isinstance(node, LatticeAtom):
        return 1, 1, (MAX_LATTICE_ORDER[node.t] // scale, node, scale)
    if isinstance(node, Unary) and node.op == "T2":
        degree, doubled, cap = _bounds(node.child, product, outer, 2 * scale, depth)
        return degree, 2 * doubled, _least(cap, (MAX_ORDER // scale, node, scale))
    if isinstance(node, Power):
        e = max(node.exponent, 1)
        product *= e
        outer = node if outer is None else outer
        if product > MAX_EXPONENT:
            raise ExprEvalError(
                to_text(outer),
                f"its exponents multiply to {product} on one path,"
                f" above the limit {MAX_EXPONENT}",
            )
        degree, doubled, cap = _bounds(node.base, product, outer, scale, depth)
        return degree * e, doubled * e, cap
    if isinstance(node, Unary):
        return _bounds(node.child, product, outer, scale, depth)
    if isinstance(node, Binary):
        right = _bounds(node.right, product, outer, scale, depth)
        left = _bounds(node.left, product, outer, scale, depth)
        join = add if node.op in ("*", "/") else max
        cap = _least(left[2], right[2])
        return join(left[0], right[0]), join(left[1], right[1]), cap
    return 1, 1, None


#: The int fields of each node type; a rank class j may also be None.
_INTS = {Const: ("value",), QPow: ("k",), KAtom: ("k",), Power: ("exponent",),
         ThetaAtom: ("sign_a", "r", "sign_b", "s"), LatticeAtom: ("t", "j")}


def _unwritten(node: Node) -> Optional[str]:
    """Why no text writes node itself (not its operands), or None: every
    operand is a node, every number a text writes is an int, a q^k or ^
    exponent is at least 0 and an atom's q^k at least 1, a theta sign is
    +1 or -1, and an atom is one that ``parse`` builds."""
    for field in _OPERANDS.get(type(node), ()):
        value = getattr(node, field)
        if not isinstance(value, Node):
            kind = type(node).__name__
            return f"{kind}.{field} must be an expression node, got {value!r}"
    for field in _INTS.get(type(node), ()):
        value = getattr(node, field)
        if type(value) is not int and (field, value) != ("j", None):
            return f"{type(node).__name__}.{field} must be an int, got {value!r}"
    if isinstance(node, LatticeAtom) and node.t not in MAX_LATTICE_ORDER:
        return _not_one_of("lattice dimension", MAX_LATTICE_ORDER, node.t)
    if isinstance(node, LatticeAtom) and node.j is not None:
        if node.t != 7:
            return f"a rank class is a layer of t = 7, got t = {node.t}"
        if node.j not in _RANK_FLIPS:
            return _not_one_of("rank class", sorted(_RANK_FLIPS), node.j)
    if isinstance(node, KAtom) and node.name not in _K_ATOMS:
        return _not_one_of("one-argument atom name", _K_ATOMS, repr(node.name))
    if isinstance(node, (KAtom, ThetaAtom)):
        step = node.k if isinstance(node, KAtom) else min(node.r, node.s)
        if step < 1:
            return f"atom exponents are one-based, got q^{step}"
    if isinstance(node, ThetaAtom) and not {node.sign_a, node.sign_b} <= {1, -1}:
        return f"theta signs must be +1 or -1, got {node.sign_a} and {node.sign_b}"
    if isinstance(node, (QPow, Power)):
        e = node.k if isinstance(node, QPow) else node.exponent
        if e < 0:
            return f"exponents must be nonnegative, got {e}"


def _least(*caps) -> Optional[tuple]:
    """The cap of least limit, the first of equal ones; None for none."""
    return min(filter(None, caps), key=itemgetter(0), default=None)


def _build_product(node: Node, left: Plan, right: Optional[Plan] = None):
    """The build of a product, quotient or power that does not fold.  When
    exactly one operand folds and is not the dividend, the node divides
    last: the other operand times the fold's numerator, divided by each
    Euler factor left below it (``divide_by_euler``).  The numerator is
    the fold less the divisors that ``eta_split`` leaves, so a psi or a
    phi(-q^k) absorbs a division into one sparse multiply, and its cached
    ``eta_quotient`` divides nothing.  The fold's quotient alone can have
    far wider coefficients than the whole product.  A fold with a
    positive part over a single E(q^k) is the exception: its cached
    ``eta_quotient`` is one multiply, shared by every node it is in."""
    if isinstance(node, Power):
        base, e = left.run, node.exponent
        return lambda order: base(order).pow(e)
    other = fold = None
    if left.fold is not None and right.fold is None and node.op == "*":
        other, fold = right.run, left.fold
    elif left.fold is None and right.fold is not None:
        other, fold = left.run, _join(node.op, EtaFold({}, 0, 1), right.fold)
    if fold is not None:
        factors = fold.factors
        _, _, below = eta_split(factors)
        if len(factors) > 1 and [v for v in factors.values() if v < 0] == [-1]:
            below = {}
        numerator = {k: v + below.get(k, 0) for k, v in factors.items()}
        numerator = {k: v for k, v in numerator.items() if v}

        def divide_last(order):
            out = other(order)
            if numerator:
                out = out.mul(eta_quotient(numerator, order))
            return _shift_scale(divide_by_euler(out, below), fold)

        return divide_last
    a, b = left.run, right.run
    if node.op == "*":
        return lambda order: a(order).mul(b(order))

    def quotient(order):
        top, bottom = a(order), b(order)
        if bottom.coeffs[0] not in (1, -1):
            raise ExprEvalError(
                to_text(node.right),
                f"division needs constant term +1 or -1, got {bottom.coeffs[0]}",
            )
        return top.div(bottom)

    return quotient


def _refuse(root: Root, order: int) -> None:
    """Raise the refusal of order past root's bounds: a broken cap first,
    quoting its lattice leaf or T2, then a cost, doubled * order, past
    MAX_COST.  Within the caps a leaf under a T2 is built at most at
    2 * MAX_ORDER, so the cost counts no order that is not built."""
    if root.cap is not None and order > root.cap[0]:
        _, node, scale = root.cap
        if isinstance(node, LatticeAtom):
            raise ExprEvalError(
                to_text(node),
                f"it would be counted at order {order * scale},"
                f" above the limit {MAX_LATTICE_ORDER[node.t]} for t = {node.t}",
            )
        raise ExprEvalError(
            to_text(node), f"T2 would evaluate its argument past order {2 * MAX_ORDER}"
        )
    cost = root.doubled * order
    if cost > MAX_COST:
        raise ExprEvalError(
            to_text(root.node),
            f"its degree times evaluation order is {cost}, above the limit {MAX_COST}",
        )


def check_bounds(expr, order: int) -> Root:
    """Check the height, exponent, degree, cap and cost bounds of expr, a
    text or a tree, at order, and return its ``Root``; build nothing.
    This is the only place an order is refused.  Once ``_root`` has
    checked it, an order is one cache lookup and one comparison with
    ``Root.most``, and ``_refuse`` words a refusal."""
    try:
        root = _root(expr)
    except RecursionError:  # the cache hashes a tree too tall to reach _root's check
        _check_height(expr)
        raise
    check_order(order)
    if order > root.most:
        _refuse(root, order)
    return root


def evaluate(expr, order: int) -> TruncSeries:
    """Check expr's bounds at order (``check_bounds``) and run its plan to
    a TruncSeries."""
    return check_bounds(expr, order).run(order)
