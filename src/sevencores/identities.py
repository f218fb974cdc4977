"""Catalog of exact series identities and the machinery to verify them.

Each record holds the two sides of one identity as expression-language
texts, the catalog's only definition of them.  ``verify`` evaluates both
sides to a requested order and reports the first mismatching exponent,
if any.

Identity ids follow a fixed external naming contract (eq-1.17, eq-3.2,
and so on) so that command-line invocations stay stable; the note on
each record says what the identity does.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .exprlang import evaluate
from .forms import FFF1, FFF7, G, G2, Q, RANK_2, RANK_M1, RANK_M1_QUOTIENT, W
from .series import TruncSeries


@dataclass(frozen=True)
class IdentityRecord:
    """One catalog entry: the expression texts of its two sides."""

    id: str
    note: str
    lhs_text: str
    rhs_text: str

    def lhs(self, order: int) -> TruncSeries:
        return evaluate(self.lhs_text, order)

    def rhs(self, order: int) -> TruncSeries:
        return evaluate(self.rhs_text, order)


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


REGISTRY: tuple = (
    IdentityRecord(
        "eq-1.3-t2",
        "2-core generating function: lattice sum vs eta quotient",
        "lattice(2)",
        "E(q^2)^2/E(q)",
    ),
    IdentityRecord(
        "eq-1.3-t3",
        "3-core generating function: lattice sum vs eta quotient",
        "lattice(3)",
        "E(q^3)^3/E(q)",
    ),
    IdentityRecord(
        "eq-1.3-t5",
        "5-core generating function: lattice sum vs eta quotient",
        "lattice(5)",
        "E(q^5)^5/E(q)",
    ),
    IdentityRecord(
        "eq-1.3-t7",
        "7-core generating function: lattice sum vs eta quotient",
        "lattice(7)",
        G,
    ),
    IdentityRecord(
        "eq-1.17",
        "odd-index core counts minus the rank -1 layer, factored form",
        f"odd({G}) - {RANK_M1}",
        f"q*({Q})*(sigma(q^4) + q^2*psi(q^2)*psi(q^14))",
    ),
    IdentityRecord(
        "eq-1.18",
        "even-index core counts minus the rank 2 layer, expanded form",
        f"even({G}) - {RANK_2}",
        "omega(q^2)*(psi(q^4)^2*phi(q^14)^2 + q^6*psi(q^28)^2*phi(q^2)^2"
        f" + q^2*{Q})"
        " + q^2*psi(q^4)*psi(q^14)^2*phi(q^14)^3"
        " + 2*q^4*psi(q^2)^3*psi(q^14)^3"
        " + 4*q^12*psi(q^14)^2*psi(q^28)^3*phi(q^2)",
    ),
    IdentityRecord(
        "eq-1.20",
        "four-factor eta quotient as a triple theta product times psi",
        Q,
        "f(q^2,q^12)*f(q^4,q^10)*f(q^6,q^8)*psi(q^14)",
    ),
    IdentityRecord(
        "eq-1.21",
        "7-core series regrouped around sigma, with the rank 2 layer",
        G,
        f"{FFF7}*sigma(q^2) + 8*{RANK_2}",
    ),
    IdentityRecord(
        "eq-1.22",
        "7-core series regrouped around omega, with a q^2 eta piece",
        G,
        f"{FFF1}*psi(q^7)*omega(q) + q^2*{G2}",
    ),
    IdentityRecord(
        "eq-1.23",
        "7-core series as four summands with nonnegative coefficients",
        G,
        f"sigma(q^4)*{FFF7} + 2*{RANK_M1} + 6*{RANK_2} + 2*q^2*{G2}",
    ),
    IdentityRecord(
        "eq-1.24",
        "rank -1 eta quotient as thetas times psi products",
        RANK_M1_QUOTIENT,
        "f(q^2,q^12)*f(q^6,q^8)*f(q^4,q^10)*psi(q^2)*psi(q^14)^2",
    ),
    IdentityRecord(
        "eq-1.25",
        "triple theta with phi vs psi pair times an eta quotient",
        FFF7,
        f"psi(q)*psi(q^7)*{W}",
    ),
    IdentityRecord(
        "eq-1.31",
        "rank -1 layer: lattice sum vs eta-quotient closed form",
        "lattice7(-1)",
        RANK_M1,
    ),
    IdentityRecord(
        "eq-1.32",
        "rank 2 layer: lattice sum vs eta-quotient closed form",
        "lattice7(2)",
        RANK_2,
    ),
    IdentityRecord(
        "eq-1.34",
        "7-core series equals the sum of its four rank layers",
        G,
        "lattice7(-1) + lattice7(0) + lattice7(1) + lattice7(2)",
    ),
    IdentityRecord(
        "eq-1.35",
        "rank 0 layer isolated from the even part",
        "lattice7(0)",
        f"even({G}) - {RANK_2}",
    ),
    IdentityRecord(
        "eq-1.36",
        "rank 1 layer isolated from the odd part",
        "lattice7(1)",
        f"odd({G}) - {RANK_M1}",
    ),
    IdentityRecord(
        "eq-3.1",
        "sigma at q^2 via phi products and sign-flipped psi",
        "sigma(q^2)",
        "phi(q)*phi(q^7) - 2*q*f(-q,-q^3)*f(-q^7,-q^21)",
    ),
    IdentityRecord(
        "eq-3.2",
        "sigma halving relation",
        "sigma(q)",
        "sigma(q^2) + 2*q*psi(q)*psi(q^7)",
    ),
    IdentityRecord(
        "eq-3.3",
        "omega squared via psi products and sigma",
        "omega(q)^2",
        "psi(q)*psi(q^7)*(sigma(q^2) - q*psi(q)*psi(q^7))",
    ),
    IdentityRecord(
        "eq-3.4",
        "sigma squared via omega squared and sign-flipped phi",
        "sigma(q^2)^2",
        "4*q*omega(q)^2 + f(-q,-q)^2*f(-q^7,-q^7)^2",
    ),
    IdentityRecord(
        "eq-3.5",
        "sign-flipped phi product halving relation",
        "f(-q^2,-q^2)*f(-q^14,-q^14)",
        "f(-q,-q)*f(-q^7,-q^7) + 2*q*f(-q,-q^3)*f(-q^7,-q^21)",
    ),
    IdentityRecord(
        "eq-3.6",
        "psi pair split into three pieces by index parity",
        "psi(q)*psi(q^7)",
        "psi(q^8)*phi(q^28) + q^6*psi(q^56)*phi(q^4)"
        " + q*psi(q^2)*psi(q^14)",
    ),
    IdentityRecord(
        "eq-3.7",
        "psi pair via omega at q^2",
        "psi(q)*psi(q^7)",
        "omega(q^2) + q*psi(q^2)*psi(q^14)",
    ),
    IdentityRecord(
        "eq-3.8",
        "phi pair via sigma at q^4 and omega at q^2",
        "phi(q)*phi(q^7)",
        "sigma(q^4) + 2*q*omega(q^2)",
    ),
    IdentityRecord(
        "eq-3.14",
        "odd theta triple via a psi cube and omega",
        FFF1,
        "q^2*psi(q^7)^3 + psi(q)*omega(q)",
    ),
    IdentityRecord(
        "eq-3.15",
        "odd theta triple as a chi quotient times a cube",
        FFF1,
        "(chi(-q^7)/chi(-q))*E(q^7)^3",
    ),
    IdentityRecord(
        "eq-3.16",
        "chi-quotient cube at q^2 expanded in psi products",
        "(chi(-q^14)/chi(-q^2))*E(q^14)^3",
        "q^4*psi(q^14)^3 + psi(q^2)*(psi(q)*psi(q^7) - q*psi(q^2)*psi(q^14))",
    ),
    IdentityRecord(
        "eq-3.22",
        "five-factor eta quotient via a psi fourth power and omega",
        "E(q^14)*E(q^7)^3*E(q^2)/E(q)",
        "q^2*psi(q^7)^4 + psi(q)*psi(q^7)*omega(q)",
    ),
    IdentityRecord(
        "eq-3.23",
        "7-core series via its q^2 counterpart and omega",
        G,
        f"q^2*{G2} + (E(q^14)*E(q^7)^3*E(q^2)/E(q))*omega(q)",
    ),
    IdentityRecord(
        "eq-3.24",
        "even part of the 7-core series in eta quotients",
        f"even({G})",
        f"5*q^2*{G2} - 4*{RANK_2} + E(q^2)^3*E(q^14)^3",
    ),
    IdentityRecord(
        "eq-3.28",
        "coefficient-halving action on the shifted 7-core series",
        f"T2(q^2*{G})",
        f"5*q^2*{G} + q*E(q)^3*E(q^7)^3",
    ),
    IdentityRecord(
        "eq-4.4",
        "7-core series minus 8 rank-2 layers, factored with sigma",
        f"{G} - 8*{RANK_2}",
        f"(psi(q)*psi(q^7)*{W})*sigma(q^2)",
    ),
    IdentityRecord(
        "eq-4.5",
        "even part regrouped through the omega-sigma product",
        f"even({G})",
        f"2*q^2*{G2} + 6*{RANK_2} + ({W})*omega(q^2)*sigma(q^4)",
    ),
    IdentityRecord(
        "eq-4.8",
        "omega-weighted eta quotient as two quadruple theta products",
        f"({W})*omega(q^2)",
        "f(q^4,q^24)*f(q^12,q^16)^3 + q^6*f(q^10,q^18)*f(q^2,q^26)^3",
    ),
    IdentityRecord(
        "eq-4.11",
        "odd part minus three rank -1 layers, factored with omega^2",
        f"odd({G}) - 3*lattice7(-1)",
        f"q*omega(q^2)^2*{W}",
    ),
    IdentityRecord(
        "eq-4.15",
        "even-index slice tying a(4n), a(2n-1), and cube coefficients",
        f"even(T2({G}) - 4*{G2})",
        f"even(5*q*{G} + E(q)^3*E(q^7)^3)",
    ),
    IdentityRecord(
        "eq-4.18",
        "nonnegativity witness combining the cube pair with sigma and omega",
        f"3*q*{G} + E(q)^3*E(q^7)^3",
        f"10*q^3*{G2} + sigma(q^2)*omega(q)*E(q^7)^4/(E(q^2)*E(q^14))",
    ),
    IdentityRecord(
        "eq-5.1",
        "rank 1 layer directly against its factored closed form",
        "lattice7(1)",
        f"q*({Q})*(sigma(q^4) + q^2*psi(q^2)*psi(q^14))",
    ),
    IdentityRecord(
        "eq-5.2",
        "7-core series via psi^4 omega and the psi pair times omega^2",
        G,
        f"q^2*{G2} + q^2*psi(q^7)^4*omega(q) + psi(q)*psi(q^7)*omega(q)^2",
    ),
    IdentityRecord(
        "eq-5.3",
        "7-core series with the q^2 piece expanded one level deeper",
        G,
        f"{RANK_2} + q^2*({Q})*omega(q^2)"
        " + q^2*psi(q^7)^4*omega(q) + psi(q)*psi(q^7)*omega(q)^2",
    ),
    IdentityRecord(
        "eq-5.4",
        "psi fourth power split by exponent parity",
        "psi(q)^4",
        "psi(q^2)^2*(phi(q^2)^2 + 4*q*psi(q^4)^2)",
    ),
    IdentityRecord(
        "eq-5.5",
        "odd part minus two rank -1 layers, factored with sigma",
        f"odd({G}) - 2*lattice7(-1)",
        f"q*({Q})*sigma(q^4)",
    ),
    IdentityRecord(
        "eq-5.6",
        "7-core series as rank layers plus nonnegative theta terms",
        G,
        f"2*lattice7(-1) + 2*q^2*{G2} + 6*{RANK_2} + sigma(q^4)*{FFF7}",
    ),
    IdentityRecord(
        "aux-psi-square",
        "psi squared halving relation",
        "psi(q)^2",
        "psi(q^2)*phi(q)",
    ),
    IdentityRecord(
        "aux-phi-split",
        "phi split into even and odd exponent parts",
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
