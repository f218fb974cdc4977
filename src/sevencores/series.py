"""Truncated formal power series in q with exact integer coefficients.

A ``TruncSeries`` of order N stores the coefficients of q^0 .. q^N as
Python ints, so every operation is exact.  Binary operations truncate to
the smaller order of the two operands.  Instances are immutable; every
operation returns a fresh series.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional


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
        if order < 0:
            raise ValueError(f"order must be nonnegative, got {order}")
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
        if exponent < 0:
            raise ValueError(f"exponent must be nonnegative, got {exponent}")
        if exponent > order:
            return TruncSeries(order)
        cs = [0] * (exponent + 1)
        cs[exponent] = coeff
        return TruncSeries(order, cs)

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
        return all(c == 0 for c in self.coeffs)

    def first_negative(self) -> Optional[int]:
        """Smallest exponent carrying a negative coefficient, or None."""
        for k, c in enumerate(self.coeffs):
            if c < 0:
                return k
        return None

    def compare(self, other: "TruncSeries") -> Optional[Mismatch]:
        """First disagreement over the common order, or None if equal."""
        n = min(self.order, other.order)
        for k in range(n + 1):
            if self.coeffs[k] != other.coeffs[k]:
                return Mismatch(k, self.coeffs[k], other.coeffs[k])
        return None

    # -- ring operations -----------------------------------------------

    def add(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        return TruncSeries(
            n, [self.coeffs[k] + other.coeffs[k] for k in range(n + 1)]
        )

    def sub(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        return TruncSeries(
            n, [self.coeffs[k] - other.coeffs[k] for k in range(n + 1)]
        )

    def neg(self) -> "TruncSeries":
        return TruncSeries(self.order, [-c for c in self.coeffs])

    def scale(self, factor: int) -> "TruncSeries":
        if type(factor) is not int:
            raise TypeError(f"scale factor must be an int, got {factor!r}")
        return TruncSeries(self.order, [factor * c for c in self.coeffs])

    def mul(self, other: "TruncSeries") -> "TruncSeries":
        """Schoolbook product, truncated to the smaller order.

        The loop runs over the nonzero terms of the sparser factor so that
        products against theta-style series stay cheap; the result is
        bit-identical to the dense double loop.
        """
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        # Iterate over the factor with fewer nonzero terms up front.
        a_nnz = sum(1 for c in a[: n + 1] if c)
        b_nnz = sum(1 for c in b[: n + 1] if c)
        if b_nnz < a_nnz:
            a, b = b, a
        out = [0] * (n + 1)
        for i in range(n + 1):
            ai = a[i]
            if ai == 0:
                continue
            for j in range(n + 1 - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        return TruncSeries(n, out)

    def invert(self) -> "TruncSeries":
        """Multiplicative inverse; requires constant term +1 or -1.

        Keeping the unit constraint means every inverse stays in integer
        coefficients, so no rational arithmetic ever appears.
        """
        a = self.coeffs
        a0 = a[0]
        if a0 not in (1, -1):
            raise ValueError(
                f"cannot invert series with constant term {a0}; "
                "only +1 or -1 is supported"
            )
        n = self.order
        out = [0] * (n + 1)
        out[0] = a0
        for m in range(1, n + 1):
            acc = 0
            for k in range(1, m + 1):
                ak = a[k]
                if ak:
                    acc += ak * out[m - k]
            out[m] = -a0 * acc
        return TruncSeries(n, out)

    def div(self, other: "TruncSeries") -> "TruncSeries":
        """Quotient self / other; the divisor needs constant term +1 or -1.

        Computed by direct recurrence on the quotient coefficients, which
        is bit-identical to mul(self, other.invert()) but skips the zero
        terms of a sparse divisor.
        """
        b = other.coeffs
        b0 = b[0]
        if b0 not in (1, -1):
            raise ValueError(
                f"cannot divide by series with constant term {b0}; "
                "only +1 or -1 is supported"
            )
        n = min(self.order, other.order)
        a = self.coeffs
        support = [k for k in range(1, n + 1) if b[k]]
        out = [0] * (n + 1)
        for m in range(n + 1):
            acc = a[m]
            for k in support:
                if k > m:
                    break
                acc -= b[k] * out[m - k]
            out[m] = b0 * acc
        return TruncSeries(n, out)

    def pow(self, exponent: int) -> "TruncSeries":
        """Nonnegative integer power by binary exponentiation."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError(
                f"exponent must be a nonnegative int, got {exponent!r}"
            )
        result = TruncSeries.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result.mul(base)
            base = base.mul(base) if e > 1 else base
            e >>= 1
        return result

    # -- q-substitutions and dissections --------------------------------

    def compose_power(self, k: int) -> "TruncSeries":
        """Substitute q -> q^k, keeping the caller's order."""
        if k < 1:
            raise ValueError(f"power must be a positive int, got {k}")
        n = self.order
        out = [0] * (n + 1)
        for i in range(n // k + 1):
            out[i * k] = self.coeffs[i]
        return TruncSeries(n, out)

    def alternate(self) -> "TruncSeries":
        """Substitute q -> -q, negating odd-exponent coefficients."""
        return TruncSeries(
            self.order,
            [-c if k & 1 else c for k, c in enumerate(self.coeffs)],
        )

    def even_part(self) -> "TruncSeries":
        """Keep even-exponent terms, zeroing the odd positions."""
        return TruncSeries(
            self.order,
            [0 if k & 1 else c for k, c in enumerate(self.coeffs)],
        )

    def odd_part(self) -> "TruncSeries":
        """Keep odd-exponent terms, zeroing the even positions."""
        return TruncSeries(
            self.order,
            [c if k & 1 else 0 for k, c in enumerate(self.coeffs)],
        )

    def shift(self, k: int) -> "TruncSeries":
        """Multiply by q^k; the top k coefficients fall off the end."""
        if k < 0:
            raise ValueError(f"shift must be nonnegative, got {k}")
        n = self.order
        if k > n:
            return TruncSeries(n)
        return TruncSeries(n, [0] * k + list(self.coeffs[: n + 1 - k]))

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


def hecke_T2(a: TruncSeries) -> TruncSeries:
    """Weight-2 style coefficient action: out[m] = a[2m] + 4*a[m/2].

    The second term contributes only at even m.  The result keeps half
    the input order, since a[2m] is needed up to the output order.
    """
    n = a.order // 2
    out = []
    for m in range(n + 1):
        c = a.coeffs[2 * m]
        if m % 2 == 0:
            c += 4 * a.coeffs[m // 2]
        out.append(c)
    return TruncSeries(n, out)
