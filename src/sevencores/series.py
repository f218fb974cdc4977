"""Truncated formal power series in q with exact integer coefficients.

A ``TruncSeries`` of order N stores the coefficients of q^0 .. q^N as
Python ints, so every operation is exact.  Binary operations truncate to
the smaller order of the two operands.  Instances are immutable.

Coefficients are checked at the boundary only.  The public constructor
``TruncSeries(...)`` refuses a negative order, too many coefficients
and any coefficient that is not an int, bools and floats included.
Every series the engine builds itself holds ints by construction, so
it goes through ``TruncSeries._trusted``, which makes no pass over the
coefficients; the builders in ``theta`` and ``partitions`` check their
order (``check_order``) and signs on the way in.  The linear passes
(``add``, ``sub``, ``neg``, ``scale``, ``shift``, ``alternate``,
``even_part``, ``odd_part``, ``hecke_T2``) and the
queries (``compare``, ``is_zero``) are slices of
the coefficient tuple and ``map`` over ``operator`` functions, with no
Python-level loop over single coefficients.

Multiplication has one entry point, ``TruncSeries.mul``, which takes
one of three ways (``_product``).  A product with few pairs of nonzero
terms, at most PAIRS_PER_SLOT per output coefficient, such as that of
two theta series, sums those pairs directly.  Any other product works on
the Kronecker packing (``_kronecker``): the denser operand is packed into
a single int with one byte-aligned slot per coefficient, wide enough for
a proven bound on the product's coefficients.  When the sparser operand
has at most SHIFTS_PER_SLOT * (n + 1)^0.585 nonzero terms, the packed
product is the sum of one shifted copy of the packed int per term, each
a linear pass; otherwise the sparser operand is packed too and the two
ints are multiplied once, which CPython does by Karatsuba in about
(n + 1)^1.585 digit steps.  Both give the same integer.

Division has one kernel, ``_divide``, a recurrence over
the divisor's nonzero terms that builds the quotient BLOCK coefficients
at a time.  The divisor terms at k >= BLOCK with coefficient +1 or -1,
all but a few of an Euler product's, reach only earlier blocks, so they
enter a block as column sums of slices of the quotient so far; the
Python-level recurrence runs over the other terms only.  So dividing by
a sparse Euler product costs a few Python steps per coefficient, and a
dense divisor about what the plain recurrence does.

Both ``mul`` and ``div`` first find g, the gcd of their operands'
strides (``stride``).  When g > 1 both operands are series in q^g, and
so is the result: it is computed as a series in q at order n // g from
every g-th coefficient, then spread back by ``dilate``, the
substitution q -> q^g.  The rewrite is exact and skips the zero slots
between the terms.  A product with one operand in q^s, s > 1, and the
other not, after that, is s products at order about n / s, one per
residue class mod s of the other operand's exponents (``_in_stride``).
``prefix_cached`` is the one memoization rule of the package, for every
builder whose prefix does not depend on the order.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left, bisect_right
from functools import wraps
from itertools import compress, count, islice, repeat
from math import gcd, isqrt
from operator import add, mul, ne, neg, sub
from types import SimpleNamespace
from typing import Iterable, NamedTuple, Optional

#: Largest accepted --order, SEVENCORES_ORDER or table --max, and half
#: the largest order a T2 in an expression may evaluate its argument at.
#: It leaves room above the deepest scan the benchmark runs (6000) and
#: stops a mistyped value from asking for gigabytes.
MAX_ORDER = 20000

#: A product whose nonzero pairs number at most this many per output
#: coefficient is summed pair by pair; any denser one works on the
#: Kronecker packing (see SHIFTS_PER_SLOT).
PAIRS_PER_SLOT = 8

#: A product on the Kronecker packing whose sparser operand has at most
#: this many times (n + 1)^0.585 nonzero terms sums one shifted copy of
#: the denser operand's packed int per term; any other multiplies the two
#: packed ints.  A shift and an add cost about n digit steps each and
#: Karatsuba about n^1.585, so the sum wins below some multiple of
#: n^0.585.  For random sparse operands times E(q)^5 at orders 400,
#: 1500 and 6000 (2-core Xeon, CPython 3.11), the sum took 0.3 to 0.9
#: of the multiply's time up to twice n^0.585 and broke even near 2.5
#: times it; 1.5 keeps a margin below that.
SHIFTS_PER_SLOT = 1.5

#: Division builds its quotient this many coefficients at a time (see
#: ``_divide``).  Per-call timings of the scan divisions at order 6000
#: were lowest at 32 of 16, 24, 32, 48 and 64, and the catalog's
#: divisions at order 400 were flat from 24 to 64.
BLOCK = 32

#: Signed array typecode for each slot width in bytes, widths ascending.
_TYPECODES = {array(code).itemsize: code for code in "bhilq"}


def _pair_product(a: tuple, b: tuple, n: int) -> list:
    """Coefficients 0..n of a*b, summed over the pairs of nonzero terms."""
    ia = list(compress(range(n + 1), a))
    ib = list(compress(range(n + 1), b))
    if len(ia) > len(ib):
        # The outer loop pays a bisect per term: run it over the sparser.
        a, b, ia, ib = b, a, ib, ia
    out = [0] * (n + 1)
    for i in ia:
        ai = a[i]
        for j in ib[: bisect_right(ib, n - i)]:
            out[i + j] += ai * b[j]
    return out


def _kronecker(a: tuple, b: tuple, n: int, shifted: bool) -> list:
    """Coefficients 0..n of a*b on the Kronecker packing, for a the
    sparser operand.

    b is packed into one int, coefficient k in the k-th slot of
    ``width`` bytes, so the packed product holds the coefficients of the
    series product slot by slot.  When ``shifted``, that product is the
    sum of a[i] times the packed b shifted up by i slots, over the
    nonzero terms of a, and a is never packed; otherwise a is packed the
    same way and the two ints are multiplied once.  The width comes from
    the bound |c_k| <= sum|a| * max|b|, for both ways, plus a sign bit,
    so every c_k and every packed coefficient lies in [-h, h) with
    h = 2^(8*width - 1).  The sum runs over a's nonzero terms, and max|b|
    is max(b) or -min(b), so b takes no abs pass.  Adding h to every slot
    makes each one a nonnegative digit below 2^(8*width), so no slot
    borrows from the next; XOR with h moves between that biased digit
    and the slot's two's complement, which is the form ``array`` and
    ``to_bytes`` read and write.  A width of at most 8 bytes is rounded
    up to the next ``array`` itemsize (1, 2, 4 or 8), which packs and
    unpacks at C speed; only wider slots take ``to_bytes`` coefficient
    by coefficient.
    """
    bound = sum(map(abs, compress(a, a))) * max(max(b), -min(b))
    if not bound:
        return [0] * (n + 1)
    width = (bound.bit_length() + 8) // 8
    width = next((w for w in _TYPECODES if w >= width), width)
    size = width * (n + 1)
    bias = int.from_bytes(
        (1 << (8 * width - 1)).to_bytes(width, "little") * (n + 1), "little"
    )
    code = _TYPECODES.get(width)

    def pack(cs):
        if code:
            slots = array(code, cs)
            if sys.byteorder == "big":
                slots.byteswap()
            raw = slots.tobytes()
        else:
            raw = b"".join(c.to_bytes(width, "little", signed=True) for c in cs)
        return (int.from_bytes(raw, "little") ^ bias) - bias

    packed = pack(b)
    if shifted:
        # Most terms of a theta or Euler series are +1 or -1, and adding
        # or subtracting the shifted int spares a multiply by one.
        product, slot = 0, 8 * width
        for i in compress(range(n + 1), a):
            if a[i] == 1:
                product += packed << slot * i
            elif a[i] == -1:
                product -= packed << slot * i
            else:
                product += a[i] * (packed << slot * i)
    else:
        product = pack(a) * packed
    # Bits past slot n hold the truncated terms; the mask drops them.
    digits = (product + bias) & ((1 << (8 * size)) - 1)
    raw = (digits ^ bias).to_bytes(size, "little")
    if code:
        slots = array(code, raw)
        if sys.byteorder == "big":
            slots.byteswap()
        return slots.tolist()
    return [
        int.from_bytes(raw[k : k + width], "little", signed=True)
        for k in range(0, size, width)
    ]


def _divide(a: tuple, b: tuple, n: int) -> list:
    """Coefficients 0..n of a/b for b[0] in (1, -1), from the recurrence
    out[m] = b[0] * (a[m] - sum of b[k]*out[m-k] over k >= 1).

    The quotient is built BLOCK coefficients at a time.  A divisor term
    with k >= BLOCK reads only earlier blocks, so its share of a block is
    a slice of the quotient so far.  The slices of the terms with b[k] =
    -1 are added column by column to the slice of a, and those with
    b[k] = +1 subtracted, all at C speed.  The Python-level recurrence
    runs over the other terms only: those below BLOCK, and those with
    any other coefficient, where scaling each slice costs as much as the
    recurrence does.
    """
    b0 = b[0]
    plus, minus, rest = [], [], []
    for k in compress(range(1, n + 1), b[1 : n + 1]):
        if k < BLOCK or b[k] not in (1, -1):
            rest.append((k, b[k]))
        else:
            (plus if b[k] == 1 else minus).append(k)
    out = [0] * (n + 1)

    def rows(ks, s, e):
        # A term with s < k < e reaches the block part way through.
        return [
            out[s - k : e - k] if k <= s else [0] * (k - s) + out[: e - k]
            for k in ks[: bisect_left(ks, e)]
        ]

    for s in range(0, n + 1, BLOCK):
        e = min(s + BLOCK, n + 1)
        acc = map(sum, zip(a[s:e], *rows(minus, s, e)))
        subtract = rows(plus, s, e)
        if subtract:
            acc = map(sub, acc, map(sum, zip(*subtract)))
        for m, c in zip(range(s, e), acc):
            for k, v in rest:
                if k > m:
                    break
                c -= v * out[m - k]
            out[m] = b0 * c
    return out


def _product(a: tuple, b: tuple, n: int) -> list:
    """Coefficients 0..n of a*b: pair by pair when the nonzero pairs
    number at most PAIRS_PER_SLOT per output coefficient, else on the
    Kronecker packing, by a sum of shifts when the sparser operand has
    at most SHIFTS_PER_SLOT * (n + 1)^0.585 nonzero terms and by one
    big-int multiply otherwise."""
    terms_a, terms_b = n + 1 - a.count(0), n + 1 - b.count(0)
    if terms_a * terms_b <= PAIRS_PER_SLOT * (n + 1):
        return _pair_product(a, b, n)
    if terms_b < terms_a:
        a, b, terms_a = b, a, terms_b
    return _kronecker(a, b, n, terms_a <= SHIFTS_PER_SLOT * (n + 1) ** 0.585)


def stride(coeffs: tuple) -> int:
    """gcd of the exponents >= 1 with a nonzero coefficient; 0 for a
    constant.  A series of stride g > 1 is a series in q^g.

    g divides the first such exponent k, so it is the largest divisor d
    of k for which every d-th coefficient holds all the nonzero ones:
    each test is a slice and a count, with no pass over every exponent.
    """
    k = next(compress(count(1), islice(coeffs, 1, None)), 0)
    if k < 2:
        return k
    nonzero = len(coeffs) - coeffs.count(0)
    small = [d for d in range(1, isqrt(k) + 1) if k % d == 0]
    # Largest divisor first; the last, d = 1, always holds.
    return next(
        d
        for d in [k // d for d in small] + small[::-1]
        if (len(coeffs) - 1) // d + 1 - coeffs[::d].count(0) == nonzero
    )


def dilate(coeffs, g: int, order: int) -> "TruncSeries":
    """sum of coeffs[k] * q^(g*k) cut at the order, for the int
    coefficients of a series: the substitution q -> q^g, built unchecked."""
    out = [0] * (order + 1)
    out[::g] = coeffs[: order // g + 1]
    return TruncSeries._trusted(order, tuple(out))


def _in_stride(kernel, a: tuple, b: tuple, n: int) -> "TruncSeries":
    """kernel(a, b, n), for kernel ``_product`` or ``_divide`` and
    coefficient tuples a, b of length n + 1.

    When both are series in q^g with g > 1, the work runs on every g-th
    coefficient at order n // g and the result is spread back.  After
    that, a product with one operand in q^s for some s > 1 and the other
    not is split by residue class: the coefficients r, r + s, r + 2s, ...
    of a*b are the product of the other operand's coefficients r, r + s,
    ... and every s-th one of the first, each read as a series in q, at
    order (n - r) // s.  So s products at order about n / s stand for
    one at order n.  A quotient is never split so.
    """
    sa, sb = stride(a), stride(b)
    g = gcd(sa, sb)
    m = n
    if g > 1:
        a, b, m, sa, sb = a[::g], b[::g], n // g, sa // g, sb // g
    if kernel is _product and max(sa, sb) > 1:
        if sa > sb:
            a, b, sa, sb = b, a, sb, sa
        out, each = [0] * (m + 1), b[::sb]
        for r in range(min(sb, m + 1)):
            k = (m - r) // sb
            out[r::sb] = _product(a[r::sb], each[: k + 1], k)
    else:
        out = kernel(a, b, m)
    if g > 1:
        return dilate(out, g, n)
    return TruncSeries._trusted(n, tuple(out))


def _check_int(what: str, value) -> None:
    # bool is an int subclass, but True as an order or exponent is a bug.
    if type(value) is not int:
        raise TypeError(f"{what} must be an int, got {value!r}")


def check_order(order) -> None:
    """The order check of every builder that makes a series itself."""
    _check_int("order", order)
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")


class Mismatch(NamedTuple):
    """First exponent where two series disagree, with both coefficients."""

    exponent: int
    lhs: int
    rhs: int


class TruncSeries:
    """Formal power series truncated at a fixed order.

    coeffs[k] is the coefficient of q^k for 0 <= k <= order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[int] = ()) -> None:
        check_order(order)
        cs = list(coeffs)
        if len(cs) > order + 1:
            raise ValueError(
                f"got {len(cs)} coefficients for order {order} "
                f"(at most {order + 1} allowed)"
            )
        for c in cs:
            if type(c) is not int:
                raise TypeError(f"coefficients must be ints, got {c!r}")
        cs.extend([0] * (order + 1 - len(cs)))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _trusted(cls, order: int, coeffs: tuple) -> "TruncSeries":
        """The series with this tuple of order + 1 ints, unchecked: the
        engine's own results, whose coefficients are ints by construction."""
        new = object.__new__(cls)
        object.__setattr__(new, "order", order)
        object.__setattr__(new, "coeffs", coeffs)
        return new

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(order: int) -> "TruncSeries":
        return TruncSeries(order)

    @staticmethod
    def one(order: int) -> "TruncSeries":
        return TruncSeries(order, (1,))

    @staticmethod
    def constant(value: int, order: int) -> "TruncSeries":
        return TruncSeries(order, (value,))

    @staticmethod
    def monomial(coeff: int, exponent: int, order: int) -> "TruncSeries":
        """coeff * q^exponent, truncated to the given order."""
        _check_int("exponent", exponent)
        if exponent < 0:
            raise ValueError(f"exponent must be nonnegative, got {exponent}")
        if exponent > order:
            return TruncSeries(order)
        return TruncSeries(order, [0] * exponent + [coeff])

    # -- basic queries -------------------------------------------------

    def __getitem__(self, exponent: int) -> int:
        if not 0 <= exponent <= self.order:
            raise IndexError(
                f"exponent {exponent} outside stored range 0..{self.order}"
            )
        return self.coeffs[exponent]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"TruncSeries(order={self.order}, [{shown}{tail}])"

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def truncate(self, order: int) -> "TruncSeries":
        """The same series cut at a lower order (itself at its own)."""
        _check_int("order", order)
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order {self.order} to {order}")
        cut = self.coeffs[: order + 1]
        return self if order == self.order else TruncSeries._trusted(order, cut)

    def compare(self, other: "TruncSeries") -> Optional[Mismatch]:
        """First disagreement over the common order, or None if equal.
        One tuple ``==`` settles equal common prefixes; only a mismatch
        is scanned for its index."""
        a, b = self.coeffs, other.coeffs
        if len(a) != len(b):
            n = min(len(a), len(b))
            a, b = a[:n], b[:n]
        if a == b:
            return None
        k = next(compress(count(), map(ne, a, b)))
        return Mismatch(k, a[k], b[k])

    # -- ring operations -----------------------------------------------

    # map over two tuples stops at the shorter, which truncates the
    # result to the smaller order.

    def add(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        return TruncSeries._trusted(n, tuple(map(add, self.coeffs, other.coeffs)))

    def sub(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        return TruncSeries._trusted(n, tuple(map(sub, self.coeffs, other.coeffs)))

    def neg(self) -> "TruncSeries":
        return TruncSeries._trusted(self.order, tuple(map(neg, self.coeffs)))

    def scale(self, factor: int) -> "TruncSeries":
        _check_int("scale factor", factor)
        cs = tuple(map(mul, repeat(factor), self.coeffs))
        return TruncSeries._trusted(self.order, cs)

    def mul(self, other: "TruncSeries") -> "TruncSeries":
        """Product, truncated to the smaller order.

        ``_product`` takes one of three ways, each exact: a product
        with at most PAIRS_PER_SLOT nonzero pairs per coefficient loops
        over those pairs; any other packs the denser operand into one
        int (Kronecker substitution, see ``_kronecker``) and either
        sums one shifted copy of it per nonzero term of the sparser
        operand, when those number at most SHIFTS_PER_SLOT times
        (n + 1)^0.585, or packs both and multiplies them once.  A shift
        costs about n digit steps and CPython's Karatsuba multiply
        about n^1.585.  Operands in q^g with g > 1 are multiplied at
        order n // g, and an operand in q^s with s > 1 beside one that
        is not splits the product by residue class mod s, into s
        products at order about n / s (``_in_stride``).
        """
        n = min(self.order, other.order)
        a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
        return _in_stride(_product, a, b, n)

    def div(self, other: "TruncSeries") -> "TruncSeries":
        """Quotient self / other; the divisor needs constant term +1 or -1.

        Computed by the blocked recurrence of ``_divide``, which skips
        the zero terms of a sparse divisor.  Operands in q^g with g > 1
        are divided at order n // g (``_in_stride``).
        """
        b0 = other.coeffs[0]
        if b0 not in (1, -1):
            raise ValueError(
                f"cannot divide by series with constant term {b0}; "
                "only +1 or -1 is supported"
            )
        n = min(self.order, other.order)
        a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
        return _in_stride(_divide, a, b, n)

    def pow(self, exponent: int) -> "TruncSeries":
        """Nonnegative integer power by binary exponentiation, starting
        from the lowest power of two it takes rather than from 1."""
        _check_int("exponent", exponent)
        if exponent < 0:
            raise ValueError(f"exponent must be nonnegative, got {exponent}")
        if not exponent:
            return TruncSeries.one(self.order)
        result = None
        base = self
        e = exponent
        while True:
            if e & 1:
                result = base if result is None else result.mul(base)
            e >>= 1
            if not e:
                return result
            base = base.mul(base)

    # -- q-substitutions and dissections --------------------------------

    def alternate(self) -> "TruncSeries":
        """Substitute q -> -q, negating odd-exponent coefficients."""
        out = list(self.coeffs)
        out[1::2] = map(neg, self.coeffs[1::2])
        return TruncSeries._trusted(self.order, tuple(out))

    def even_part(self) -> "TruncSeries":
        """Keep even-exponent terms, zeroing the odd positions."""
        out = [0] * (self.order + 1)
        out[::2] = self.coeffs[::2]
        return TruncSeries._trusted(self.order, tuple(out))

    def odd_part(self) -> "TruncSeries":
        """Keep odd-exponent terms, zeroing the even positions."""
        out = [0] * (self.order + 1)
        out[1::2] = self.coeffs[1::2]
        return TruncSeries._trusted(self.order, tuple(out))

    def shift(self, k: int) -> "TruncSeries":
        """Multiply by q^k; the top k coefficients fall off the end."""
        _check_int("shift", k)
        if k < 0:
            raise ValueError(f"shift must be nonnegative, got {k}")
        n = self.order
        if k > n:
            return TruncSeries(n)
        return TruncSeries._trusted(n, (0,) * k + self.coeffs[: n + 1 - k])

    # -- operator sugar --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.add(other)

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.sub(other)

    def __neg__(self):
        return self.neg()

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.mul(other)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return self.div(other)

    def __pow__(self, exponent):
        return self.pow(exponent)


def prefix_cached(build):
    """Memoize build(*key, order), a prefix-stable series builder: each key
    keeps the value built at the highest order asked for so far, and serves
    a lower order by truncating it (each of a plain tuple of series).
    The key also holds the first argument's type, so a step of True or
    2.0 never reads the entry of 1 or 2: build checks its own arguments
    on a miss.  No builder here takes more than one argument before the
    order."""
    top = {}
    info = SimpleNamespace(hits=0, misses=0)

    @wraps(build)
    def cached(*args):
        key, order = (type(args[0]),) + args[:-1], args[-1]
        if key in top and top[key][0] >= order:
            info.hits += 1
            value = top[key][1]
            if isinstance(value, TruncSeries):
                return value.truncate(order)
            return tuple([v.truncate(order) for v in value])
        info.misses += 1
        top[key] = (order, build(*args))
        return top[key][1]

    cached.cache_info = lambda: SimpleNamespace(currsize=len(top), **vars(info))
    return cached


def hecke_T2(a: TruncSeries) -> TruncSeries:
    """Weight-2 style coefficient action: out[m] = a[2m] + 4*a[m/2].

    The second term contributes only at even m.  The result keeps half
    the input order, since a[2m] is needed up to the output order.
    """
    n = a.order // 2
    out = list(a.coeffs[::2])
    out[::2] = map(add, out[::2], map(mul, repeat(4), a.coeffs[: n // 2 + 1]))
    return TruncSeries._trusted(n, tuple(out))
