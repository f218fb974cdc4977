"""Classical theta-style building blocks as exact truncated series.

Every sum here is Ramanujan's bilateral theta function

    f(a, b) = sum_{n in Z} a^(n(n+1)/2) * b^(n(n-1)/2)

with a = +-q^r and b = +-q^s, built by ``_theta_sum``.  The one-variable
atoms are f at fixed arguments (Berndt, Ramanujan's Notebooks III,
Entry 22):

* ``theta_f(args, order)``   f(+-q^r, +-q^s)
* ``euler_E(m, order)``      E(q^m) = prod (1 - q^(m*j)) = f(-q^m, -q^(2m))
* ``phi(m, order)``          f(q^m, q^m) = 1 + 2 * sum q^(m*n^2)
* ``psi(m, order)``          f(q^m, q^(3m)) = sum q^(m*n(n+1)/2)
* ``chi_neg`` = E(q^m)/E(q^(2m)), and ``sigma_at`` / ``omega_at``, two
  bilinear combinations of phi and psi that recur in the catalog

Each atom keeps the highest order built so far and serves lower orders
by truncation (``prefix_cached``): every series here is prefix-stable.
chi_neg is the ``eta_quotient`` {m: 1, 2m: -1} and shares its cache.

``eta_quotient`` builds a product of Euler powers E(q^k)^e.  Three of
the atoms are such products with few terms: psi(q^k) = E(q^2k)^2/E(q^k)
and phi(-q^k) = E(q^k)^2/E(q^2k) (Entry 22 again), and Jacobi's cube
E(q^k)^3 = sum_j (-1)^j (2j+1) q^(k*j(j+1)/2) (``jacobi_cube``).
``SPARSE_FACTORS`` gives each its eta form, and ``eta_split`` takes them
out of a quotient, so a division or a power becomes one sparse multiply.
"""

from __future__ import annotations

from math import gcd
from operator import itemgetter
from typing import NamedTuple

from .series import TruncSeries, _check_int, check_order, dilate, prefix_cached


def _check_step(step: int) -> int:
    _check_int("step", step)
    if step < 1:
        raise ValueError(f"step must be a positive int, got {step}")
    return step


class ThetaArgs(
    NamedTuple("ThetaArgs", [("sign_a", int), ("r", int), ("sign_b", int), ("s", int)])
):
    """Arguments of the two-variable theta f(sign_a*q^r, sign_b*q^s)."""

    __slots__ = ()

    def __new__(cls, sign_a: int, r: int, sign_b: int, s: int):
        if any(type(x) is not int or x not in (1, -1) for x in (sign_a, sign_b)):
            raise ValueError("signs must be +1 or -1")
        _check_int("exponent r", r)
        _check_int("exponent s", s)
        if r < 0 or s < 0:
            raise ValueError("exponents must be nonnegative")
        if r + s < 1:
            raise ValueError("need r + s >= 1 for the sum to converge")
        return super().__new__(cls, sign_a, r, sign_b, s)


def _tri(n: int) -> int:
    return n * (n + 1) // 2


def _theta_sum(sign_a: int, r: int, sign_b: int, s: int, order: int) -> TruncSeries:
    """f(sign_a*q^r, sign_b*q^s) = sum_n a^T(n) * b^T(n-1), T(n) = n(n+1)/2.

    T(-m) = T(m-1) and T(-m-1) = T(m), so the terms n = -1, -2, ... are
    the terms m = 1, 2, ... with a and b swapped.  For r + s >= 1 the
    exponent r*T(n) + s*T(n-1) grows strictly once |n| >= 1, so each
    direction stops at the first exponent past the order.
    """
    check_order(order)
    cs = [0] * (order + 1)
    for sa, a, sb, b, n in ((sign_a, r, sign_b, s, 0), (sign_b, s, sign_a, r, 1)):
        while True:
            ta, tb = _tri(n), _tri(n - 1)
            e = a * ta + b * tb
            if e > order:
                break
            cs[e] += (sa if ta & 1 else 1) * (sb if tb & 1 else 1)
            n += 1
    return TruncSeries._trusted(order, tuple(cs))


@prefix_cached
def theta_f(args: ThetaArgs, order: int) -> TruncSeries:
    """The two-variable theta f(a, b) with a, b as in args."""
    return _theta_sum(args.sign_a, args.r, args.sign_b, args.s, order)


@prefix_cached
def euler_E(step: int, order: int) -> TruncSeries:
    """E(q^step) = prod_{j>=1} (1 - q^(step*j)) = f(-q^step, -q^(2*step)),
    whose O(sqrt(order)) terms sit at the pentagonal numbers."""
    return _theta_sum(-1, _check_step(step), -1, 2 * step, order)


@prefix_cached
def phi(step: int, order: int) -> TruncSeries:
    """phi(q^step) = f(q^step, q^step) = 1 + 2 * sum_{n>=1} q^(step*n^2)."""
    return _theta_sum(1, _check_step(step), 1, step, order)


@prefix_cached
def psi(step: int, order: int) -> TruncSeries:
    """psi(q^step) = f(q^step, q^(3*step)) = sum_{n>=0} q^(step*n(n+1)/2)."""
    return _theta_sum(1, _check_step(step), 1, 3 * step, order)


def chi_neg(step: int, order: int) -> TruncSeries:
    """chi(-q^step) = E(q^step) / E(q^(2*step)), as an eta quotient."""
    return eta_quotient({_check_step(step): 1, 2 * step: -1}, order)


def eta_quotient(factors, order: int) -> TruncSeries:
    """Product of euler_E(step)^exp over a {step: exp} mapping.

    A quotient whose steps share a gcd g > 1 is a series in q^g: it is
    built with every step divided by g, at order // g, and spread back
    by q -> q^g.  So E(q^14)^7/E(q^2) is E(q^7)^7/E(q) at half the
    order.  Cached by ``prefix_cached`` under the sorted reduced
    (step, exp) pairs with a nonzero exp, so equal mappings, and
    mappings equal up to such a dilation, share one entry.  Every step
    and exponent is checked first, so a step of True or 2.0 raises the
    atoms' TypeError instead of reading the entry of 1 or 2.
    """
    check_order(order)
    for step, exp in factors.items():
        _check_step(step)
        _check_int("exponent", exp)
    pairs = sorted((step, exp) for step, exp in factors.items() if exp)
    g = gcd(*(step for step, _ in pairs)) or 1
    reduced = tuple((step // g, exp) for step, exp in pairs)
    out = _eta_quotient(reduced, order // g)
    return out if g == 1 else dilate(out.coeffs, g, order)


#: The eta form of each sparse factor at q^k, as {multiple of k: exp}
#: with an entry at 1, and its builder, in the order ``eta_split`` takes
#: them: the two that absorb a division first, then the cube.  The
#: builders look their atom up at each call.
SPARSE_FACTORS = (
    # psi(q^k) = E(q^2k)^2 / E(q^k)
    ({1: -1, 2: 2}, lambda k, order: psi(k, order)),
    # phi(-q^k) = f(-q^k, -q^k) = E(q^k)^2 / E(q^2k)
    ({1: 2, 2: -1}, lambda k, order: theta_f(ThetaArgs(-1, k, -1, k), order)),
    # E(q^k)^3, Jacobi's sum in q^k
    ({1: 3}, lambda k, order: dilate(jacobi_cube(order // k).coeffs, k, order)),
)


def eta_split(factors) -> tuple:
    """(atoms, powers, divisors) of the eta quotient over a {step: exp}
    mapping or its (step, exp) pairs, whose product it is.

    atoms lists (build, k), one per sparse factor build(k, order) taken
    from ``SPARSE_FACTORS``, greedily: each row as often as the exponents
    left allow, at every k, before the next row.  So the divisions that a
    psi or a phi(-q^k) absorbs go first, and the cubes come after.
    powers is {step: exp > 0}, the Euler powers left over, and divisors
    {step: count}, the E(q^step) left to divide by, each count times.
    """
    exps = dict(factors)
    atoms = []
    for form, build in SPARSE_FACTORS:
        for k in sorted(exps):
            times = min(exps.get(k * m, 0) // e for m, e in form.items())
            if times > 0:
                atoms += [(build, k)] * times
                for m, e in form.items():
                    exps[k * m] -= times * e
    powers = {step: exp for step, exp in exps.items() if exp > 0}
    divisors = {step: -exp for step, exp in exps.items() if exp < 0}
    return atoms, powers, divisors


@prefix_cached
def _eta_quotient(pairs: tuple, order: int) -> TruncSeries:
    """The product of ``eta_split``'s sparse atoms and Euler powers,
    largest step first, so the partial product stays a series in q^g for
    a large g (which ``mul`` works on at order // g) for longest; then
    ``divide_by_euler`` divides by the divisors left.  So E(q^2)^2/E(q)
    is psi(q) and divides nothing, and E(q^7)^7/E(q) is two cubes in q^7
    times E(q^7), divided once.  The product starts from its first
    factor, and from 1 when there is none."""
    atoms, powers, divisors = eta_split(pairs)
    factors = [(k, build(k, order)) for build, k in atoms]
    factors += [(k, euler_E(k, order).pow(exp)) for k, exp in powers.items()]
    out = None
    for _, factor in sorted(factors, key=itemgetter(0), reverse=True):
        out = factor if out is None else out.mul(factor)
    return divide_by_euler(TruncSeries.one(order) if out is None else out, divisors)


def divide_by_euler(out: TruncSeries, divisors) -> TruncSeries:
    """out divided by euler_E(step), count times, over the {step: count}
    divisors.  Division costs the divisor's nonzero terms times the
    order, and a single E(q^step) has about sqrt(order) of them, far
    fewer than a power or a product of several.  The largest step goes
    first, so the partial quotient stays a series in q^g for a large g
    (which ``div`` works on at order // g) for longest."""
    for step in sorted(divisors, reverse=True):
        for _ in range(divisors[step]):
            out = out.div(euler_E(step, out.order))
    return out


@prefix_cached
def sigma_at(step: int, order: int) -> TruncSeries:
    """sigma(q^step) where sigma(q) = phi(q)phi(q^7) + 4q^2 psi(q^2)psi(q^14)."""
    _check_step(step)
    head = phi(step, order).mul(phi(7 * step, order))
    tail = psi(2 * step, order).mul(psi(14 * step, order))
    return head.add(tail.shift(2 * step).scale(4))


@prefix_cached
def omega_at(step: int, order: int) -> TruncSeries:
    """omega(q^step) where omega(q) = psi(q^4)phi(q^14) + q^3 psi(q^28)phi(q^2)."""
    _check_step(step)
    head = psi(4 * step, order).mul(phi(14 * step, order))
    tail = psi(28 * step, order).mul(phi(2 * step, order))
    return head.add(tail.shift(3 * step))


@prefix_cached
def jacobi_cube(order: int) -> TruncSeries:
    """E(q)^3 expanded as sum_{k>=1} (-1)^(k-1) (2k-1) q^(k(k-1)/2)."""
    check_order(order)
    cs = [0] * (order + 1)
    k = 1
    while _tri(k - 1) <= order:
        cs[_tri(k - 1)] += (2 * k - 1) * (1 if k & 1 else -1)
        k += 1
    return TruncSeries._trusted(order, tuple(cs))
