"""Catalog of exact series identities and the machinery to verify them.

Each record pairs two independent builders for the same series, plus the
equivalent expression-language texts.  ``verify`` expands both sides to a
requested order and reports the first mismatching exponent, if any.

Identity ids follow a fixed external naming contract (eq-1.17, eq-3.2,
and so on) so that command-line invocations stay stable; the note on
each record says what the identity does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .forms import (
    G,
    G2,
    Q,
    W,
    cube_pair,
    f,
    fff1,
    fff7,
    psi2psi14,
    rank_2,
    rank_m1,
    rank_m1_quotient,
)
from .partitions import lattice_rank_sum, lattice_sum
from .series import TruncSeries, hecke_T2
from .theta import (
    ThetaArgs,
    chi_neg,
    eta_quotient,
    euler_E,
    omega_at,
    phi,
    psi,
    sigma_at,
)


@dataclass(frozen=True)
class IdentityRecord:
    """One catalog entry: two builders plus their expression texts."""

    id: str
    note: str
    lhs: Callable[[int], TruncSeries]
    rhs: Callable[[int], TruncSeries]
    lhs_text: str
    rhs_text: str


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of expanding both sides of one identity to a given order."""

    id: str
    note: str
    order: int
    status: str
    millis: float
    mismatch_exponent: Optional[int] = None
    lhs_coeff: Optional[int] = None
    rhs_coeff: Optional[int] = None


# Every two-variable theta argument pair that appears in a builder; the
# structural test suite replays the sum-vs-product equivalence on these.
THETA_ARGS_USED = (
    ThetaArgs(1, 1, 1, 13),
    ThetaArgs(1, 3, 1, 11),
    ThetaArgs(1, 5, 1, 9),
    ThetaArgs(1, 2, 1, 12),
    ThetaArgs(1, 4, 1, 10),
    ThetaArgs(1, 6, 1, 8),
    ThetaArgs(1, 1, 1, 6),
    ThetaArgs(1, 2, 1, 5),
    ThetaArgs(1, 3, 1, 4),
    ThetaArgs(1, 4, 1, 24),
    ThetaArgs(1, 12, 1, 16),
    ThetaArgs(1, 10, 1, 18),
    ThetaArgs(1, 2, 1, 26),
    ThetaArgs(-1, 1, -1, 1),
    ThetaArgs(-1, 2, -1, 2),
    ThetaArgs(-1, 7, -1, 7),
    ThetaArgs(-1, 14, -1, 14),
    ThetaArgs(-1, 1, -1, 3),
    ThetaArgs(-1, 7, -1, 21),
)

_G_TXT = "E(q^7)^7/E(q)"
_QUOT_TXT = "E(q^28)*E(q^14)^3*E(q^4)/E(q^2)"
_RM1_TXT = "q^3*E(q^28)^3*E(q^14)^2*E(q^4)^3/E(q^2)^2"
_R2_TXT = "q^6*E(q^28)^7/E(q^4)"
_FFF7_TXT = "f(q,q^13)*f(q^3,q^11)*f(q^5,q^9)*phi(q^7)"


REGISTRY: tuple = (
    IdentityRecord(
        "eq-1.3-t2",
        "2-core generating function: lattice sum vs eta quotient",
        lambda n: lattice_sum(2, n),
        lambda n: eta_quotient({2: 2, 1: -1}, n),
        "lattice(2)",
        "E(q^2)^2/E(q)",
    ),
    IdentityRecord(
        "eq-1.3-t3",
        "3-core generating function: lattice sum vs eta quotient",
        lambda n: lattice_sum(3, n),
        lambda n: eta_quotient({3: 3, 1: -1}, n),
        "lattice(3)",
        "E(q^3)^3/E(q)",
    ),
    IdentityRecord(
        "eq-1.3-t5",
        "5-core generating function: lattice sum vs eta quotient",
        lambda n: lattice_sum(5, n),
        lambda n: eta_quotient({5: 5, 1: -1}, n),
        "lattice(5)",
        "E(q^5)^5/E(q)",
    ),
    IdentityRecord(
        "eq-1.3-t7",
        "7-core generating function: lattice sum vs eta quotient",
        lambda n: lattice_sum(7, n),
        G,
        "lattice(7)",
        _G_TXT,
    ),
    IdentityRecord(
        "eq-1.17",
        "odd-index core counts minus the rank -1 layer, factored form",
        lambda n: G(n).odd_part().sub(rank_m1(n)),
        lambda n: Q(n)
        .mul(sigma_at(4, n).add(psi2psi14(n).shift(2)))
        .shift(1),
        f"odd({_G_TXT}) - {_RM1_TXT}",
        f"q*({_QUOT_TXT})*(sigma(q^4) + q^2*psi(q^2)*psi(q^14))",
    ),
    IdentityRecord(
        "eq-1.18",
        "even-index core counts minus the rank 2 layer, expanded form",
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
        f"even({_G_TXT}) - {_R2_TXT}",
        "omega(q^2)*(psi(q^4)^2*phi(q^14)^2 + q^6*psi(q^28)^2*phi(q^2)^2"
        f" + q^2*{_QUOT_TXT})"
        " + q^2*psi(q^4)*psi(q^14)^2*phi(q^14)^3"
        " + 2*q^4*psi(q^2)^3*psi(q^14)^3"
        " + 4*q^12*psi(q^14)^2*psi(q^28)^3*phi(q^2)",
    ),
    IdentityRecord(
        "eq-1.20",
        "four-factor eta quotient as a triple theta product times psi",
        Q,
        lambda n: f(2, 12, n).mul(f(4, 10, n)).mul(f(6, 8, n)).mul(psi(14, n)),
        _QUOT_TXT,
        "f(q^2,q^12)*f(q^4,q^10)*f(q^6,q^8)*psi(q^14)",
    ),
    IdentityRecord(
        "eq-1.21",
        "7-core series regrouped around sigma, with the rank 2 layer",
        G,
        lambda n: fff7(n).mul(sigma_at(2, n)).add(rank_2(n).scale(8)),
        _G_TXT,
        f"{_FFF7_TXT}*sigma(q^2) + 8*{_R2_TXT}",
    ),
    IdentityRecord(
        "eq-1.22",
        "7-core series regrouped around omega, with a q^2 eta piece",
        G,
        lambda n: fff1(n)
        .mul(psi(7, n))
        .mul(omega_at(1, n))
        .add(G2(n).shift(2)),
        _G_TXT,
        "f(q,q^6)*f(q^2,q^5)*f(q^3,q^4)*psi(q^7)*omega(q)"
        " + q^2*E(q^14)^7/E(q^2)",
    ),
    IdentityRecord(
        "eq-1.23",
        "7-core series as four summands with nonnegative coefficients",
        G,
        lambda n: sigma_at(4, n)
        .mul(fff7(n))
        .add(rank_m1(n).scale(2))
        .add(rank_2(n).scale(6))
        .add(G2(n).shift(2).scale(2)),
        _G_TXT,
        f"sigma(q^4)*{_FFF7_TXT}"
        f" + 2*{_RM1_TXT}"
        " + 6*q^6*E(q^28)^7/E(q^4)"
        " + 2*q^2*E(q^14)^7/E(q^2)",
    ),
    IdentityRecord(
        "eq-1.24",
        "rank -1 eta quotient as thetas times psi products",
        rank_m1_quotient,
        lambda n: f(2, 12, n)
        .mul(f(6, 8, n))
        .mul(f(4, 10, n))
        .mul(psi(2, n))
        .mul(psi(14, n).pow(2)),
        "E(q^28)^3*E(q^14)^2*E(q^4)^3/E(q^2)^2",
        "f(q^2,q^12)*f(q^6,q^8)*f(q^4,q^10)*psi(q^2)*psi(q^14)^2",
    ),
    IdentityRecord(
        "eq-1.25",
        "triple theta with phi vs psi pair times an eta quotient",
        fff7,
        lambda n: psi(1, n)
        .mul(psi(7, n))
        .mul(W(n)),
        _FFF7_TXT,
        "psi(q)*psi(q^7)*E(q^14)^4/(E(q^4)*E(q^28))",
    ),
    IdentityRecord(
        "eq-1.31",
        "rank -1 layer: lattice sum vs eta-quotient closed form",
        lambda n: lattice_rank_sum(-1, n),
        rank_m1,
        "lattice7(-1)",
        _RM1_TXT,
    ),
    IdentityRecord(
        "eq-1.32",
        "rank 2 layer: lattice sum vs eta-quotient closed form",
        lambda n: lattice_rank_sum(2, n),
        rank_2,
        "lattice7(2)",
        _R2_TXT,
    ),
    IdentityRecord(
        "eq-1.34",
        "7-core series equals the sum of its four rank layers",
        G,
        lambda n: lattice_rank_sum(-1, n)
        .add(lattice_rank_sum(0, n))
        .add(lattice_rank_sum(1, n))
        .add(lattice_rank_sum(2, n)),
        _G_TXT,
        "lattice7(-1) + lattice7(0) + lattice7(1) + lattice7(2)",
    ),
    IdentityRecord(
        "eq-1.35",
        "rank 0 layer isolated from the even part",
        lambda n: lattice_rank_sum(0, n),
        lambda n: G(n).even_part().sub(rank_2(n)),
        "lattice7(0)",
        f"even({_G_TXT}) - {_R2_TXT}",
    ),
    IdentityRecord(
        "eq-1.36",
        "rank 1 layer isolated from the odd part",
        lambda n: lattice_rank_sum(1, n),
        lambda n: G(n).odd_part().sub(rank_m1(n)),
        "lattice7(1)",
        f"odd({_G_TXT}) - {_RM1_TXT}",
    ),
    IdentityRecord(
        "eq-3.1",
        "sigma at q^2 via phi products and sign-flipped psi",
        lambda n: sigma_at(2, n),
        lambda n: phi(1, n)
        .mul(phi(7, n))
        .sub(
            f(1, 3, n, -1, -1).mul(f(7, 21, n, -1, -1)).shift(1).scale(2)
        ),
        "sigma(q^2)",
        "phi(q)*phi(q^7) - 2*q*f(-q,-q^3)*f(-q^7,-q^21)",
    ),
    IdentityRecord(
        "eq-3.2",
        "sigma halving relation",
        lambda n: sigma_at(1, n),
        lambda n: sigma_at(2, n).add(
            psi(1, n).mul(psi(7, n)).shift(1).scale(2)
        ),
        "sigma(q)",
        "sigma(q^2) + 2*q*psi(q)*psi(q^7)",
    ),
    IdentityRecord(
        "eq-3.3",
        "omega squared via psi products and sigma",
        lambda n: omega_at(1, n).pow(2),
        lambda n: psi(1, n)
        .mul(psi(7, n))
        .mul(sigma_at(2, n).sub(psi(1, n).mul(psi(7, n)).shift(1))),
        "omega(q)^2",
        "psi(q)*psi(q^7)*(sigma(q^2) - q*psi(q)*psi(q^7))",
    ),
    IdentityRecord(
        "eq-3.4",
        "sigma squared via omega squared and sign-flipped phi",
        lambda n: sigma_at(2, n).pow(2),
        lambda n: omega_at(1, n)
        .pow(2)
        .shift(1)
        .scale(4)
        .add(f(1, 1, n, -1, -1).pow(2).mul(f(7, 7, n, -1, -1).pow(2))),
        "sigma(q^2)^2",
        "4*q*omega(q)^2 + f(-q,-q)^2*f(-q^7,-q^7)^2",
    ),
    IdentityRecord(
        "eq-3.5",
        "sign-flipped phi product halving relation",
        lambda n: f(2, 2, n, -1, -1).mul(f(14, 14, n, -1, -1)),
        lambda n: f(1, 1, n, -1, -1)
        .mul(f(7, 7, n, -1, -1))
        .add(
            f(1, 3, n, -1, -1).mul(f(7, 21, n, -1, -1)).shift(1).scale(2)
        ),
        "f(-q^2,-q^2)*f(-q^14,-q^14)",
        "f(-q,-q)*f(-q^7,-q^7) + 2*q*f(-q,-q^3)*f(-q^7,-q^21)",
    ),
    IdentityRecord(
        "eq-3.6",
        "psi pair split into three pieces by index parity",
        lambda n: psi(1, n).mul(psi(7, n)),
        lambda n: psi(8, n)
        .mul(phi(28, n))
        .add(psi(56, n).mul(phi(4, n)).shift(6))
        .add(psi2psi14(n).shift(1)),
        "psi(q)*psi(q^7)",
        "psi(q^8)*phi(q^28) + q^6*psi(q^56)*phi(q^4)"
        " + q*psi(q^2)*psi(q^14)",
    ),
    IdentityRecord(
        "eq-3.7",
        "psi pair via omega at q^2",
        lambda n: psi(1, n).mul(psi(7, n)),
        lambda n: omega_at(2, n).add(psi2psi14(n).shift(1)),
        "psi(q)*psi(q^7)",
        "omega(q^2) + q*psi(q^2)*psi(q^14)",
    ),
    IdentityRecord(
        "eq-3.8",
        "phi pair via sigma at q^4 and omega at q^2",
        lambda n: phi(1, n).mul(phi(7, n)),
        lambda n: sigma_at(4, n).add(omega_at(2, n).shift(1).scale(2)),
        "phi(q)*phi(q^7)",
        "sigma(q^4) + 2*q*omega(q^2)",
    ),
    IdentityRecord(
        "eq-3.14",
        "odd theta triple via a psi cube and omega",
        fff1,
        lambda n: psi(7, n).pow(3).shift(2).add(psi(1, n).mul(omega_at(1, n))),
        "f(q,q^6)*f(q^2,q^5)*f(q^3,q^4)",
        "q^2*psi(q^7)^3 + psi(q)*omega(q)",
    ),
    IdentityRecord(
        "eq-3.15",
        "odd theta triple as a chi quotient times a cube",
        fff1,
        lambda n: chi_neg(7, n).div(chi_neg(1, n)).mul(euler_E(7, n).pow(3)),
        "f(q,q^6)*f(q^2,q^5)*f(q^3,q^4)",
        "(chi(-q^7)/chi(-q))*E(q^7)^3",
    ),
    IdentityRecord(
        "eq-3.16",
        "chi-quotient cube at q^2 expanded in psi products",
        lambda n: chi_neg(14, n).div(chi_neg(2, n)).mul(euler_E(14, n).pow(3)),
        lambda n: psi(14, n)
        .pow(3)
        .shift(4)
        .add(
            psi(2, n).mul(
                psi(1, n).mul(psi(7, n)).sub(psi2psi14(n).shift(1))
            )
        ),
        "(chi(-q^14)/chi(-q^2))*E(q^14)^3",
        "q^4*psi(q^14)^3 + psi(q^2)*(psi(q)*psi(q^7) - q*psi(q^2)*psi(q^14))",
    ),
    IdentityRecord(
        "eq-3.22",
        "five-factor eta quotient via a psi fourth power and omega",
        lambda n: eta_quotient({14: 1, 7: 3, 2: 1, 1: -1}, n),
        lambda n: psi(7, n)
        .pow(4)
        .shift(2)
        .add(psi(1, n).mul(psi(7, n)).mul(omega_at(1, n))),
        "E(q^14)*E(q^7)^3*E(q^2)/E(q)",
        "q^2*psi(q^7)^4 + psi(q)*psi(q^7)*omega(q)",
    ),
    IdentityRecord(
        "eq-3.23",
        "7-core series via its q^2 counterpart and omega",
        G,
        lambda n: G2(n)
        .shift(2)
        .add(eta_quotient({14: 1, 7: 3, 2: 1, 1: -1}, n).mul(omega_at(1, n))),
        _G_TXT,
        "q^2*E(q^14)^7/E(q^2)"
        " + (E(q^14)*E(q^7)^3*E(q^2)/E(q))*omega(q)",
    ),
    IdentityRecord(
        "eq-3.24",
        "even part of the 7-core series in eta quotients",
        lambda n: G(n).even_part(),
        lambda n: G2(n)
        .shift(2)
        .scale(5)
        .sub(rank_2(n).scale(4))
        .add(eta_quotient({2: 3, 14: 3}, n)),
        f"even({_G_TXT})",
        "5*q^2*E(q^14)^7/E(q^2) - 4*q^6*E(q^28)^7/E(q^4)"
        " + E(q^2)^3*E(q^14)^3",
    ),
    IdentityRecord(
        "eq-3.28",
        "coefficient-halving action on the shifted 7-core series",
        lambda n: hecke_T2(G(2 * n).shift(2)),
        lambda n: G(n).shift(2).scale(5).add(cube_pair(n).shift(1)),
        f"T2(q^2*{_G_TXT})",
        f"5*q^2*{_G_TXT} + q*E(q)^3*E(q^7)^3",
    ),
    IdentityRecord(
        "eq-4.4",
        "7-core series minus 8 rank-2 layers, factored with sigma",
        lambda n: G(n).sub(rank_2(n).scale(8)),
        lambda n: psi(1, n)
        .mul(psi(7, n))
        .mul(W(n))
        .mul(sigma_at(2, n)),
        f"{_G_TXT} - 8*{_R2_TXT}",
        "(psi(q)*psi(q^7)*E(q^14)^4/(E(q^4)*E(q^28)))*sigma(q^2)",
    ),
    IdentityRecord(
        "eq-4.5",
        "even part regrouped through the omega-sigma product",
        lambda n: G(n).even_part(),
        lambda n: G2(n)
        .shift(2)
        .scale(2)
        .add(rank_2(n).scale(6))
        .add(W(n).mul(omega_at(2, n)).mul(sigma_at(4, n))),
        f"even({_G_TXT})",
        "2*q^2*E(q^14)^7/E(q^2) + 6*q^6*E(q^28)^7/E(q^4)"
        " + (E(q^14)^4/(E(q^4)*E(q^28)))*omega(q^2)*sigma(q^4)",
    ),
    IdentityRecord(
        "eq-4.8",
        "omega-weighted eta quotient as two quadruple theta products",
        lambda n: W(n).mul(omega_at(2, n)),
        lambda n: f(4, 24, n)
        .mul(f(12, 16, n).pow(3))
        .add(f(10, 18, n).mul(f(2, 26, n).pow(3)).shift(6)),
        "(E(q^14)^4/(E(q^4)*E(q^28)))*omega(q^2)",
        "f(q^4,q^24)*f(q^12,q^16)^3 + q^6*f(q^10,q^18)*f(q^2,q^26)^3",
    ),
    IdentityRecord(
        "eq-4.11",
        "odd part minus three rank -1 layers, factored with omega^2",
        lambda n: G(n).odd_part().sub(lattice_rank_sum(-1, n).scale(3)),
        lambda n: omega_at(2, n)
        .pow(2)
        .shift(1)
        .mul(W(n)),
        f"odd({_G_TXT}) - 3*lattice7(-1)",
        "q*omega(q^2)^2*E(q^14)^4/(E(q^4)*E(q^28))",
    ),
    IdentityRecord(
        "eq-4.15",
        "even-index slice tying a(4n), a(2n-1), and cube coefficients",
        lambda n: hecke_T2(G(2 * n))
        .sub(G2(n).scale(4))
        .even_part(),
        lambda n: G(n)
        .shift(1)
        .scale(5)
        .add(cube_pair(n))
        .even_part(),
        f"even(T2({_G_TXT}) - 4*E(q^14)^7/E(q^2))",
        f"even(5*q*{_G_TXT} + E(q)^3*E(q^7)^3)",
    ),
    IdentityRecord(
        "eq-4.18",
        "nonnegativity witness combining the cube pair with sigma and omega",
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
        f"3*q*{_G_TXT} + E(q)^3*E(q^7)^3",
        "10*q^3*E(q^14)^7/E(q^2)"
        " + sigma(q^2)*omega(q)*E(q^7)^4/(E(q^2)*E(q^14))",
    ),
    IdentityRecord(
        "eq-5.1",
        "rank 1 layer directly against its factored closed form",
        lambda n: lattice_rank_sum(1, n),
        lambda n: Q(n)
        .mul(sigma_at(4, n).add(psi2psi14(n).shift(2)))
        .shift(1),
        "lattice7(1)",
        f"q*({_QUOT_TXT})*(sigma(q^4) + q^2*psi(q^2)*psi(q^14))",
    ),
    IdentityRecord(
        "eq-5.2",
        "7-core series via psi^4 omega and the psi pair times omega^2",
        G,
        lambda n: G2(n)
        .shift(2)
        .add(psi(7, n).pow(4).mul(omega_at(1, n)).shift(2))
        .add(psi(1, n).mul(psi(7, n)).mul(omega_at(1, n).pow(2))),
        _G_TXT,
        "q^2*E(q^14)^7/E(q^2) + q^2*psi(q^7)^4*omega(q)"
        " + psi(q)*psi(q^7)*omega(q)^2",
    ),
    IdentityRecord(
        "eq-5.3",
        "7-core series with the q^2 piece expanded one level deeper",
        G,
        lambda n: rank_2(n)
        .add(Q(n).mul(omega_at(2, n)).shift(2))
        .add(psi(7, n).pow(4).mul(omega_at(1, n)).shift(2))
        .add(psi(1, n).mul(psi(7, n)).mul(omega_at(1, n).pow(2))),
        _G_TXT,
        "q^6*E(q^28)^7/E(q^4)"
        f" + q^2*({_QUOT_TXT})*omega(q^2)"
        " + q^2*psi(q^7)^4*omega(q)"
        " + psi(q)*psi(q^7)*omega(q)^2",
    ),
    IdentityRecord(
        "eq-5.4",
        "psi fourth power split by exponent parity",
        lambda n: psi(1, n).pow(4),
        lambda n: psi(2, n)
        .pow(2)
        .mul(phi(2, n).pow(2).add(psi(4, n).pow(2).shift(1).scale(4))),
        "psi(q)^4",
        "psi(q^2)^2*(phi(q^2)^2 + 4*q*psi(q^4)^2)",
    ),
    IdentityRecord(
        "eq-5.5",
        "odd part minus two rank -1 layers, factored with sigma",
        lambda n: G(n).odd_part().sub(lattice_rank_sum(-1, n).scale(2)),
        lambda n: Q(n).mul(sigma_at(4, n)).shift(1),
        f"odd({_G_TXT}) - 2*lattice7(-1)",
        f"q*({_QUOT_TXT})*sigma(q^4)",
    ),
    IdentityRecord(
        "eq-5.6",
        "7-core series as rank layers plus nonnegative theta terms",
        G,
        lambda n: lattice_rank_sum(-1, n)
        .scale(2)
        .add(G2(n).shift(2).scale(2))
        .add(rank_2(n).scale(6))
        .add(sigma_at(4, n).mul(fff7(n))),
        _G_TXT,
        "2*lattice7(-1) + 2*q^2*E(q^14)^7/E(q^2)"
        " + 6*q^6*E(q^28)^7/E(q^4)"
        f" + sigma(q^4)*{_FFF7_TXT}",
    ),
    IdentityRecord(
        "aux-psi-square",
        "psi squared halving relation",
        lambda n: psi(1, n).pow(2),
        lambda n: psi(2, n).mul(phi(1, n)),
        "psi(q)^2",
        "psi(q^2)*phi(q)",
    ),
    IdentityRecord(
        "aux-phi-split",
        "phi split into even and odd exponent parts",
        lambda n: phi(1, n),
        lambda n: phi(4, n).add(psi(8, n).shift(1).scale(2)),
        "phi(q)",
        "phi(q^4) + 2*q*psi(q^8)",
    ),
)

_BY_ID = {rec.id: rec for rec in REGISTRY}
assert len(_BY_ID) == len(REGISTRY), "registry ids must be unique"


def registry_ids() -> tuple:
    return tuple(rec.id for rec in REGISTRY)


def get_record(identity_id: str) -> IdentityRecord:
    try:
        return _BY_ID[identity_id]
    except KeyError:
        raise KeyError(
            f"unknown identity id {identity_id!r}; "
            f"known ids: {', '.join(sorted(_BY_ID))}"
        ) from None


def verify(identity_id, order: int) -> VerificationReport:
    """Expand both sides of one identity to the given order and compare.

    Accepts an id string or an IdentityRecord.
    """
    rec = (
        identity_id
        if isinstance(identity_id, IdentityRecord)
        else get_record(identity_id)
    )
    start = time.perf_counter()
    lhs = rec.lhs(order)
    rhs = rec.rhs(order)
    mismatch = lhs.compare(rhs)
    millis = (time.perf_counter() - start) * 1000.0
    if mismatch is None:
        return VerificationReport(rec.id, rec.note, order, "pass", millis)
    return VerificationReport(
        rec.id,
        rec.note,
        order,
        "fail",
        millis,
        mismatch_exponent=mismatch.exponent,
        lhs_coeff=mismatch.lhs,
        rhs_coeff=mismatch.rhs,
    )


def verify_all(
    order: int, records: Optional[Iterable[IdentityRecord]] = None
) -> list:
    """Verify a collection of records (default: the whole catalog, in
    registry order) and return the reports in that same order."""
    recs: Sequence[IdentityRecord] = (
        tuple(records) if records is not None else REGISTRY
    )
    return [verify(rec, order) for rec in recs]
