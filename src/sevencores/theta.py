"""Classical theta-style building blocks as exact truncated series.

Everything here is a sparse sum or an infinite-product prefix over the
ring of integer q-series:

* ``euler_E(m, order)``      product (1 - q^(m*j)) for j >= 1, via the
  pentagonal-number expansion
* ``pochhammer(...)``        finite prefix of a general q-product
* ``theta_f(args, order)``   two-variable theta with arguments +-q^r, +-q^s
* ``phi`` / ``psi`` / ``chi_neg``   the standard one-variable specials
* ``sigma_at`` / ``omega_at``       two fixed bilinear combinations that
  recur throughout the identity catalog

Each atom keeps the highest order built so far and serves lower orders
by truncation (``prefix_cached``): every series here is prefix-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from .series import TruncSeries, prefix_cached


def _check_order(order: int) -> None:
    # A builder that writes cs[0] before making its TruncSeries would
    # otherwise fail with an IndexError on a negative order.
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")


@prefix_cached
def euler_E(step: int, order: int) -> TruncSeries:
    """Euler product E(q^step) = prod_{j>=1} (1 - q^(step*j)).

    Expanded by the pentagonal-number theorem, so building it costs
    O(sqrt(order)) nonzero terms rather than a long product.
    """
    if step < 1:
        raise ValueError(f"step must be a positive int, got {step}")
    cs = [0] * (order + 1)
    if order >= 0:
        cs[0] = 1
    k = 1
    while True:
        e1 = step * k * (3 * k - 1) // 2
        e2 = step * k * (3 * k + 1) // 2
        if e1 > order:
            break
        sign = -1 if k & 1 else 1
        cs[e1] += sign
        if e2 <= order:
            cs[e2] += sign
        k += 1
    return TruncSeries(order, cs)


def pochhammer(sign: int, start: int, step: int, order: int) -> TruncSeries:
    """Finite product prod_{j>=0} (1 - sign * q^(start + j*step)).

    Only factors whose exponent fits under the order contribute, so the
    product prefix is already exact at this truncation.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if start < 1:
        raise ValueError(f"start must be at least 1, got {start}")
    if step < 1:
        raise ValueError(f"step must be a positive int, got {step}")
    _check_order(order)
    cs = [0] * (order + 1)
    cs[0] = 1
    e = start
    while e <= order:
        # Multiply in place by (1 - sign*q^e), highest index first.
        for m in range(order, e - 1, -1):
            cm = cs[m - e]
            if cm:
                cs[m] -= sign * cm
        e += step
    return TruncSeries(order, cs)


@dataclass(frozen=True)
class ThetaArgs:
    """Arguments of the two-variable theta f(sign_a*q^r, sign_b*q^s)."""

    sign_a: int
    r: int
    sign_b: int
    s: int

    def __post_init__(self):
        if self.sign_a not in (1, -1) or self.sign_b not in (1, -1):
            raise ValueError("signs must be +1 or -1")
        if self.r < 0 or self.s < 0:
            raise ValueError("exponents must be nonnegative")
        if self.r + self.s < 1:
            raise ValueError("need r + s >= 1 for the sum to converge")


def _tri(n: int) -> int:
    return n * (n + 1) // 2


@prefix_cached
def theta_f(args: ThetaArgs, order: int) -> TruncSeries:
    """Bilateral sum sum_n a^(n(n+1)/2) * b^(n(n-1)/2) with a, b as in args.

    The term exponent is r*T(n) + s*T(n-1) with T the triangular numbers;
    for r + s >= 1 it grows strictly once |n| >= 1, so each direction of
    the sum stops at the first exponent past the order.
    """
    r, s = args.r, args.s
    sa, sb = args.sign_a, args.sign_b
    cs = [0] * (order + 1)

    def term(n: int) -> tuple[int, int]:
        e = r * _tri(n) + s * _tri(n - 1)
        sign = 1
        if sa == -1 and _tri(n) & 1:
            sign = -sign
        if sb == -1 and _tri(n - 1) & 1:
            sign = -sign
        return e, sign

    n = 0
    while True:
        e, sign = term(n)
        if e > order:
            break
        cs[e] += sign
        n += 1
    n = -1
    while True:
        e, sign = term(n)
        if e > order:
            break
        cs[e] += sign
        n -= 1
    return TruncSeries(order, cs)


def triple_product(args: ThetaArgs, order: int) -> TruncSeries:
    """Product form of theta_f, for r, s >= 1:

    f(a, b) = (-a; ab) * (-b; ab) * (ab; ab)

    with a = sign_a*q^r and b = sign_b*q^s.  Used as an independent
    cross-check of the sum form.
    """
    if args.r < 1 or args.s < 1:
        raise ValueError("product form needs r >= 1 and s >= 1")
    m = args.r + args.s
    if args.sign_a * args.sign_b == 1:
        p1 = pochhammer(-args.sign_a, args.r, m, order)
        p2 = pochhammer(-args.sign_b, args.s, m, order)
        p3 = pochhammer(args.sign_a * args.sign_b, m, m, order)
        return p1.mul(p2).mul(p3)
    # Base ab = -q^m alternates sign, so split each symbol into its
    # even-index and odd-index factors, both stepping by 2m.
    out = pochhammer(-args.sign_a, args.r, 2 * m, order)
    out = out.mul(pochhammer(args.sign_a, args.r + m, 2 * m, order))
    out = out.mul(pochhammer(-args.sign_b, args.s, 2 * m, order))
    out = out.mul(pochhammer(args.sign_b, args.s + m, 2 * m, order))
    out = out.mul(pochhammer(-1, m, 2 * m, order))
    return out.mul(pochhammer(1, 2 * m, 2 * m, order))


@prefix_cached
def phi(step: int, order: int) -> TruncSeries:
    """phi(q^step) = 1 + 2 * sum_{n>=1} q^(step*n^2)."""
    if step < 1:
        raise ValueError(f"step must be a positive int, got {step}")
    _check_order(order)
    cs = [0] * (order + 1)
    cs[0] = 1
    n = 1
    while step * n * n <= order:
        cs[step * n * n] += 2
        n += 1
    return TruncSeries(order, cs)


@prefix_cached
def psi(step: int, order: int) -> TruncSeries:
    """psi(q^step) = sum_{n>=0} q^(step*n(n+1)/2)."""
    if step < 1:
        raise ValueError(f"step must be a positive int, got {step}")
    cs = [0] * (order + 1)
    n = 0
    while step * _tri(n) <= order:
        cs[step * _tri(n)] += 1
        n += 1
    return TruncSeries(order, cs)


@prefix_cached
def chi_neg(step: int, order: int) -> TruncSeries:
    """chi(-q^step) = E(q^step) / E(q^(2*step))."""
    return euler_E(step, order).div(euler_E(2 * step, order))


def eta_quotient(factors, order: int) -> TruncSeries:
    """Product of euler_E(step)^exp over a {step: exp} mapping.

    Cached by ``prefix_cached`` under the sorted (step, exp) pairs with
    a nonzero exp, so equal mappings share one entry.
    """
    pairs = tuple(sorted((step, exp) for step, exp in factors.items() if exp))
    return _eta_quotient(pairs, order)


@prefix_cached
def _eta_quotient(pairs: tuple, order: int) -> TruncSeries:
    """Positive exponents are multiplied in first.  Then the product is
    divided by euler_E(step) once per unit of each negative exponent:
    division costs the divisor's nonzero terms times the order, and a
    single E(q^step) has about sqrt(order) of them, far fewer than a
    power or a product of several."""
    out = TruncSeries.one(order)
    for step, exp in pairs:
        if exp > 0:
            out = out.mul(euler_E(step, order).pow(exp))
    for step, exp in pairs:
        for _ in range(-exp):
            out = out.div(euler_E(step, order))
    return out


@prefix_cached
def sigma_at(step: int, order: int) -> TruncSeries:
    """sigma(q^step) where sigma(q) = phi(q)phi(q^7) + 4q^2 psi(q^2)psi(q^14)."""
    if step < 1:
        raise ValueError(f"step must be a positive int, got {step}")
    head = phi(step, order).mul(phi(7 * step, order))
    tail = psi(2 * step, order).mul(psi(14 * step, order))
    return head.add(tail.shift(2 * step).scale(4))


@prefix_cached
def omega_at(step: int, order: int) -> TruncSeries:
    """omega(q^step) where omega(q) = psi(q^4)phi(q^14) + q^3 psi(q^28)phi(q^2)."""
    if step < 1:
        raise ValueError(f"step must be a positive int, got {step}")
    head = psi(4 * step, order).mul(phi(14 * step, order))
    tail = psi(28 * step, order).mul(phi(2 * step, order))
    return head.add(tail.shift(3 * step))


def sigma(order: int) -> TruncSeries:
    return sigma_at(1, order)


def omega(order: int) -> TruncSeries:
    return omega_at(1, order)


@prefix_cached
def jacobi_cube(order: int) -> TruncSeries:
    """E(q)^3 expanded as sum_{k>=1} (-1)^(k-1) (2k-1) q^(k(k-1)/2)."""
    cs = [0] * (order + 1)
    k = 1
    while _tri(k - 1) <= order:
        cs[_tri(k - 1)] += (2 * k - 1) * (1 if k & 1 else -1)
        k += 1
    return TruncSeries(order, cs)
