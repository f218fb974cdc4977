"""The identity catalog written a second time, as builder closures.

``sevencores.identities`` defines each identity once, as two expression
texts.  The closures below build the same sides from the series
primitives instead, and acceptance criterion 7 checks that both routes
give identical coefficients.  Their eta quotients multiply the
numerator and the denominator out and divide once, so they share no
code with the folded ``eta_quotient`` route or its cache.

The helpers at the end walk the parsed catalog texts.
"""

from sevencores.exprlang import Binary, Power, ThetaAtom, Unary, parse
from sevencores.identities import REGISTRY
from sevencores.partitions import lattice_rank_sum, lattice_sum
from sevencores.series import TruncSeries, hecke_T2
from sevencores.theta import (
    ThetaArgs,
    chi_neg,
    euler_E,
    omega_at,
    phi,
    psi,
    sigma_at,
    theta_f,
)


def eta(factors, order):
    """Product of E(q^step)^exp over {step: exp}: multiply the numerator
    and the denominator factors out, then divide once by the dense
    denominator."""
    num = TruncSeries.one(order)
    den = TruncSeries.one(order)
    for step in sorted(factors):
        exp = factors[step]
        if exp > 0:
            num = num.mul(euler_E(step, order).pow(exp))
        elif exp < 0:
            den = den.mul(euler_E(step, order).pow(-exp))
    return num.div(den)


def G(n):
    return eta({7: 7, 1: -1}, n)


def G2(n):
    return eta({14: 7, 2: -1}, n)


def Q(n):
    return eta({28: 1, 14: 3, 4: 1, 2: -1}, n)


def W(n):
    return eta({14: 4, 4: -1, 28: -1}, n)


def cube_pair(n):
    return eta({1: 3, 7: 3}, n)


def rank_m1_quotient(n):
    return eta({28: 3, 14: 2, 4: 3, 2: -2}, n)


def rank_m1(n):
    return rank_m1_quotient(n).shift(3)


def rank_2(n):
    return eta({28: 7, 4: -1}, n).shift(6)


def f(r, s, n, sa=1, sb=1):
    return theta_f(ThetaArgs(sa, r, sb, s), n)


def fff7(n):
    return f(1, 13, n).mul(f(3, 11, n)).mul(f(5, 9, n)).mul(phi(7, n))


def fff1(n):
    return f(1, 6, n).mul(f(2, 5, n)).mul(f(3, 4, n))


def psi2psi14(n):
    return psi(2, n).mul(psi(14, n))


#: id -> (lhs builder, rhs builder), in catalog order.
ORACLE = {
    "eq-1.3-t2": (
        lambda n: lattice_sum(2, n),
        lambda n: eta({2: 2, 1: -1}, n),
    ),
    "eq-1.3-t3": (
        lambda n: lattice_sum(3, n),
        lambda n: eta({3: 3, 1: -1}, n),
    ),
    "eq-1.3-t5": (
        lambda n: lattice_sum(5, n),
        lambda n: eta({5: 5, 1: -1}, n),
    ),
    "eq-1.3-t7": (
        lambda n: lattice_sum(7, n),
        G,
    ),
    "eq-1.17": (
        lambda n: G(n).odd_part().sub(rank_m1(n)),
        lambda n: Q(n)
        .mul(sigma_at(4, n).add(psi2psi14(n).shift(2)))
        .shift(1),
    ),
    "eq-1.18": (
        lambda n: G(n).even_part().sub(rank_2(n)),
        lambda n: omega_at(2, n)
        .mul(
            psi(4, n).pow(2).mul(phi(14, n).pow(2))
            .add(psi(28, n).pow(2).mul(phi(2, n).pow(2)).shift(6))
            .add(Q(n).shift(2))
        )
        .add(psi(4, n).mul(psi(14, n).pow(2)).mul(phi(14, n).pow(3)).shift(2))
        .add(psi(2, n).pow(3).mul(psi(14, n).pow(3)).shift(4).scale(2))
        .add(
            psi(14, n).pow(2).mul(psi(28, n).pow(3)).mul(phi(2, n))
            .shift(12).scale(4)
        ),
    ),
    "eq-1.20": (
        Q,
        lambda n: f(2, 12, n).mul(f(4, 10, n)).mul(f(6, 8, n)).mul(psi(14, n)),
    ),
    "eq-1.21": (
        G,
        lambda n: fff7(n).mul(sigma_at(2, n)).add(rank_2(n).scale(8)),
    ),
    "eq-1.22": (
        G,
        lambda n: fff1(n)
        .mul(psi(7, n))
        .mul(omega_at(1, n))
        .add(G2(n).shift(2)),
    ),
    "eq-1.23": (
        G,
        lambda n: sigma_at(4, n)
        .mul(fff7(n))
        .add(rank_m1(n).scale(2))
        .add(rank_2(n).scale(6))
        .add(G2(n).shift(2).scale(2)),
    ),
    "eq-1.24": (
        rank_m1_quotient,
        lambda n: f(2, 12, n)
        .mul(f(6, 8, n))
        .mul(f(4, 10, n))
        .mul(psi(2, n))
        .mul(psi(14, n).pow(2)),
    ),
    "eq-1.25": (
        fff7,
        lambda n: psi(1, n)
        .mul(psi(7, n))
        .mul(W(n)),
    ),
    "eq-1.31": (
        lambda n: lattice_rank_sum(-1, n),
        rank_m1,
    ),
    "eq-1.32": (
        lambda n: lattice_rank_sum(2, n),
        rank_2,
    ),
    "eq-1.34": (
        G,
        lambda n: lattice_rank_sum(-1, n)
        .add(lattice_rank_sum(0, n))
        .add(lattice_rank_sum(1, n))
        .add(lattice_rank_sum(2, n)),
    ),
    "eq-1.35": (
        lambda n: lattice_rank_sum(0, n),
        lambda n: G(n).even_part().sub(rank_2(n)),
    ),
    "eq-1.36": (
        lambda n: lattice_rank_sum(1, n),
        lambda n: G(n).odd_part().sub(rank_m1(n)),
    ),
    "eq-3.1": (
        lambda n: sigma_at(2, n),
        lambda n: phi(1, n)
        .mul(phi(7, n))
        .sub(
            f(1, 3, n, -1, -1).mul(f(7, 21, n, -1, -1)).shift(1).scale(2)
        ),
    ),
    "eq-3.2": (
        lambda n: sigma_at(1, n),
        lambda n: sigma_at(2, n).add(
            psi(1, n).mul(psi(7, n)).shift(1).scale(2)
        ),
    ),
    "eq-3.3": (
        lambda n: omega_at(1, n).pow(2),
        lambda n: psi(1, n)
        .mul(psi(7, n))
        .mul(sigma_at(2, n).sub(psi(1, n).mul(psi(7, n)).shift(1))),
    ),
    "eq-3.4": (
        lambda n: sigma_at(2, n).pow(2),
        lambda n: omega_at(1, n)
        .pow(2)
        .shift(1)
        .scale(4)
        .add(f(1, 1, n, -1, -1).pow(2).mul(f(7, 7, n, -1, -1).pow(2))),
    ),
    "eq-3.5": (
        lambda n: f(2, 2, n, -1, -1).mul(f(14, 14, n, -1, -1)),
        lambda n: f(1, 1, n, -1, -1)
        .mul(f(7, 7, n, -1, -1))
        .add(
            f(1, 3, n, -1, -1).mul(f(7, 21, n, -1, -1)).shift(1).scale(2)
        ),
    ),
    "eq-3.6": (
        lambda n: psi(1, n).mul(psi(7, n)),
        lambda n: psi(8, n)
        .mul(phi(28, n))
        .add(psi(56, n).mul(phi(4, n)).shift(6))
        .add(psi2psi14(n).shift(1)),
    ),
    "eq-3.7": (
        lambda n: psi(1, n).mul(psi(7, n)),
        lambda n: omega_at(2, n).add(psi2psi14(n).shift(1)),
    ),
    "eq-3.8": (
        lambda n: phi(1, n).mul(phi(7, n)),
        lambda n: sigma_at(4, n).add(omega_at(2, n).shift(1).scale(2)),
    ),
    "eq-3.14": (
        fff1,
        lambda n: psi(7, n).pow(3).shift(2).add(psi(1, n).mul(omega_at(1, n))),
    ),
    "eq-3.15": (
        fff1,
        lambda n: chi_neg(7, n).div(chi_neg(1, n)).mul(euler_E(7, n).pow(3)),
    ),
    "eq-3.16": (
        lambda n: chi_neg(14, n).div(chi_neg(2, n)).mul(euler_E(14, n).pow(3)),
        lambda n: psi(14, n)
        .pow(3)
        .shift(4)
        .add(
            psi(2, n).mul(
                psi(1, n).mul(psi(7, n)).sub(psi2psi14(n).shift(1))
            )
        ),
    ),
    "eq-3.22": (
        lambda n: eta({14: 1, 7: 3, 2: 1, 1: -1}, n),
        lambda n: psi(7, n)
        .pow(4)
        .shift(2)
        .add(psi(1, n).mul(psi(7, n)).mul(omega_at(1, n))),
    ),
    "eq-3.23": (
        G,
        lambda n: G2(n)
        .shift(2)
        .add(eta({14: 1, 7: 3, 2: 1, 1: -1}, n).mul(omega_at(1, n))),
    ),
    "eq-3.24": (
        lambda n: G(n).even_part(),
        lambda n: G2(n)
        .shift(2)
        .scale(5)
        .sub(rank_2(n).scale(4))
        .add(eta({2: 3, 14: 3}, n)),
    ),
    "eq-3.28": (
        lambda n: hecke_T2(G(2 * n).shift(2)),
        lambda n: G(n).shift(2).scale(5).add(cube_pair(n).shift(1)),
    ),
    "eq-4.4": (
        lambda n: G(n).sub(rank_2(n).scale(8)),
        lambda n: psi(1, n)
        .mul(psi(7, n))
        .mul(W(n))
        .mul(sigma_at(2, n)),
    ),
    "eq-4.5": (
        lambda n: G(n).even_part(),
        lambda n: G2(n)
        .shift(2)
        .scale(2)
        .add(rank_2(n).scale(6))
        .add(W(n).mul(omega_at(2, n)).mul(sigma_at(4, n))),
    ),
    "eq-4.8": (
        lambda n: W(n).mul(omega_at(2, n)),
        lambda n: f(4, 24, n)
        .mul(f(12, 16, n).pow(3))
        .add(f(10, 18, n).mul(f(2, 26, n).pow(3)).shift(6)),
    ),
    "eq-4.11": (
        lambda n: G(n).odd_part().sub(lattice_rank_sum(-1, n).scale(3)),
        lambda n: omega_at(2, n)
        .pow(2)
        .shift(1)
        .mul(W(n)),
    ),
    "eq-4.15": (
        lambda n: hecke_T2(G(2 * n))
        .sub(G2(n).scale(4))
        .even_part(),
        lambda n: G(n)
        .shift(1)
        .scale(5)
        .add(cube_pair(n))
        .even_part(),
    ),
    "eq-4.18": (
        lambda n: G(n).shift(1).scale(3).add(cube_pair(n)),
        lambda n: G2(n)
        .shift(3)
        .scale(10)
        .add(
            sigma_at(2, n)
            .mul(omega_at(1, n))
            .mul(euler_E(7, n).pow(4))
            .div(euler_E(2, n).mul(euler_E(14, n)))
        ),
    ),
    "eq-5.1": (
        lambda n: lattice_rank_sum(1, n),
        lambda n: Q(n)
        .mul(sigma_at(4, n).add(psi2psi14(n).shift(2)))
        .shift(1),
    ),
    "eq-5.2": (
        G,
        lambda n: G2(n)
        .shift(2)
        .add(psi(7, n).pow(4).mul(omega_at(1, n)).shift(2))
        .add(psi(1, n).mul(psi(7, n)).mul(omega_at(1, n).pow(2))),
    ),
    "eq-5.3": (
        G,
        lambda n: rank_2(n)
        .add(Q(n).mul(omega_at(2, n)).shift(2))
        .add(psi(7, n).pow(4).mul(omega_at(1, n)).shift(2))
        .add(psi(1, n).mul(psi(7, n)).mul(omega_at(1, n).pow(2))),
    ),
    "eq-5.4": (
        lambda n: psi(1, n).pow(4),
        lambda n: psi(2, n)
        .pow(2)
        .mul(phi(2, n).pow(2).add(psi(4, n).pow(2).shift(1).scale(4))),
    ),
    "eq-5.5": (
        lambda n: G(n).odd_part().sub(lattice_rank_sum(-1, n).scale(2)),
        lambda n: Q(n).mul(sigma_at(4, n)).shift(1),
    ),
    "eq-5.6": (
        G,
        lambda n: lattice_rank_sum(-1, n)
        .scale(2)
        .add(G2(n).shift(2).scale(2))
        .add(rank_2(n).scale(6))
        .add(sigma_at(4, n).mul(fff7(n))),
    ),
    "aux-psi-square": (
        lambda n: psi(1, n).pow(2),
        lambda n: psi(2, n).mul(phi(1, n)),
    ),
    "aux-phi-split": (
        lambda n: phi(1, n),
        lambda n: phi(4, n).add(psi(8, n).shift(1).scale(2)),
    ),
}


def children(node):
    """The operands of a parsed node, left to right."""
    if isinstance(node, Unary):
        return (node.child,)
    if isinstance(node, Binary):
        return (node.left, node.right)
    if isinstance(node, Power):
        return (node.base,)
    return ()


def subtrees(root):
    """Every node of a parsed tree, the root first."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def catalog_texts():
    """Both texts of every catalog record."""
    return [text for rec in REGISTRY for text in (rec.lhs_text, rec.rhs_text)]


def theta_args_used():
    """The arguments of every two-variable theta f(a, b) in the catalog."""
    return {
        ThetaArgs(node.sign_a, node.r, node.sign_b, node.s)
        for text in catalog_texts()
        for node in subtrees(parse(text))
        if isinstance(node, ThetaAtom)
    }
