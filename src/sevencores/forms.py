"""Closed forms shared by the identity catalog and the claim scans.

Each eta quotient and theta product that more than one module builds is
defined here once and memoized by ``prefix_cached``.  ``core_split``
bundles the 7-core series with its four rank layers and the alternating
companion b(n), all read off these closed forms.
"""

from __future__ import annotations

from typing import NamedTuple

from .series import TruncSeries, prefix_cached
from .theta import ThetaArgs, eta_quotient, phi, psi, theta_f


@prefix_cached
def G(n: int) -> TruncSeries:
    # E(q^7)^7 / E(q): counts 7-cores by size.
    return eta_quotient({7: 7, 1: -1}, n)


@prefix_cached
def G2(n: int) -> TruncSeries:
    # E(q^14)^7 / E(q^2)
    return eta_quotient({14: 7, 2: -1}, n)


@prefix_cached
def Q(n: int) -> TruncSeries:
    return eta_quotient({28: 1, 14: 3, 4: 1, 2: -1}, n)


@prefix_cached
def W(n: int) -> TruncSeries:
    return eta_quotient({14: 4, 4: -1, 28: -1}, n)


@prefix_cached
def cube_pair(n: int) -> TruncSeries:
    # E(q)^3 * E(q^7)^3
    return eta_quotient({1: 3, 7: 3}, n)


@prefix_cached
def rank_m1_quotient(n: int) -> TruncSeries:
    # E(q^28)^3 E(q^14)^2 E(q^4)^3 / E(q^2)^2
    return eta_quotient({28: 3, 14: 2, 4: 3, 2: -2}, n)


def rank_m1(n: int) -> TruncSeries:
    # The rank -1 layer: q^3 times rank_m1_quotient.
    return rank_m1_quotient(n).shift(3)


@prefix_cached
def rank_2(n: int) -> TruncSeries:
    # The rank 2 layer: q^6 E(q^28)^7 / E(q^4)
    return eta_quotient({28: 7, 4: -1}, n).shift(6)


def f(r: int, s: int, n: int, sa: int = 1, sb: int = 1) -> TruncSeries:
    return theta_f(ThetaArgs(sa, r, sb, s), n)


@prefix_cached
def fff7(n: int) -> TruncSeries:
    # f(q,q^13) f(q^3,q^11) f(q^5,q^9) phi(q^7)
    return f(1, 13, n).mul(f(3, 11, n)).mul(f(5, 9, n)).mul(phi(7, n))


@prefix_cached
def fff1(n: int) -> TruncSeries:
    # f(q,q^6) f(q^2,q^5) f(q^3,q^4)
    return f(1, 6, n).mul(f(2, 5, n)).mul(f(3, 4, n))


@prefix_cached
def psi2psi14(n: int) -> TruncSeries:
    return psi(2, n).mul(psi(14, n))


class CoreSplit(NamedTuple):
    """The 7-core series and its rank layers, all from closed forms."""

    a7: TruncSeries
    a7_m1: TruncSeries
    a7_0: TruncSeries
    a7_1: TruncSeries
    a7_2: TruncSeries
    b: TruncSeries


@prefix_cached
def core_split(order: int) -> CoreSplit:
    """Closed-form expansions used by every scanner at this order."""
    a7 = G(order)
    m1 = rank_m1(order)
    r2 = rank_2(order)
    return CoreSplit(
        a7=a7,
        a7_m1=m1,
        a7_0=a7.even_part().sub(r2),
        a7_1=a7.odd_part().sub(m1),
        a7_2=r2,
        b=cube_pair(order),
    )
