"""Coefficient inequalities, progressions, and conjecture scans.

Each claim is one ``identities.LinearClaim`` row, run by the row itself
into an ``identities.Report``; ``identities`` describes the row, its
range and its checks.  This module holds the 19 theorem rows and the 10
conjecture rows, and only ``scan`` loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .forms import CUBE_PAIR, FFF7, G, G2, RANK_0, RANK_1, RANK_2, RANK_M1, W_OMEGA
from .forms import core_split  # noqa: F401  (perfbench reads it here)
from .identities import LinearClaim, Report, lookup


def _positive(claim, kind, series, note=None):
    note = note or f"{series} has nonnegative coefficients"
    return LinearClaim(claim, kind, note, ((1, series, 1, 0),))


_TABLE = (
    LinearClaim("ineq-1.11", "theorem", "a7(2n+2) >= 2*a7(n)",
                ((1, G, 2, 2),), ((2, G, 1, 0),)),
    LinearClaim("ineq-1.12", "theorem", "a7(4n+6) >= 10*a7(n)",
                ((1, G, 4, 6),), ((10, G, 1, 0),)),
    LinearClaim("ineq-1.13", "theorem", "a7_0(n) >= 9*a7_2(n)",
                ((1, RANK_0, 1, 0),), ((9, RANK_2, 1, 0),)),
    LinearClaim("ineq-1.14", "theorem", "a7_1(n) >= 2*a7_m1(n)",
                ((1, RANK_1, 1, 0),), ((2, RANK_M1, 1, 0),)),
    *(
        LinearClaim(
            f"prog-1.15-r{r}", "theorem",
            f"a7(28n+{4 * r}) = 5*a7(14n+{2 * r - 1})",
            ((1, G, 28, 4 * r),), ((5, G, 14, 2 * r - 1),), "eq",
        )
        for r in (1, 2, 6)
    ),
    *(
        LinearClaim(
            f"prog-1.16-r{r}", "theorem",
            f"a7(28n+{4 * r + 2}) + 4*a7(7n+{r - 1}) = 5*a7(14n+{2 * r})",
            ((1, G, 28, 4 * r + 2), (4, G, 7, r - 1)),
            ((5, G, 14, 2 * r),), "eq",
        )
        for r in (2, 4, 5)
    ),
    LinearClaim("cor-4.1", "theorem", "3*a7(n-1) + b(n) >= 0 for n >= 1",
                ((3, G, 1, -1), (1, CUBE_PAIR, 1, 0)), n0=1),
    LinearClaim("vanish-b", "theorem", "b(n) = 0 when n mod 7 is 2, 4, or 5",
                ((1, CUBE_PAIR, 1, 0),), relation="eq", mod7=(2, 4, 5)),
    *(
        _positive(
            f"pos-1.23-{i}", "theorem", series,
            f"summand {i} of the four-term split has nonnegative coefficients",
        )
        for i, series in enumerate(
            (f"sigma(q^4)*({FFF7})", f"2*{RANK_M1}", f"6*{RANK_2}",
             f"2*q^2*{G2}"), 1
        )
    ),
    _positive("pos-4.6", "theorem", W_OMEGA,
              "E(q^14)^4/(E(q^4)E(q^28)) * omega(q^2) has nonnegative coefficients"),
    _positive("pos-4.7", "theorem", f"{G} - 2*q^2*{G2}",
              "a7(n) >= 2*a7((n-2)/2) summed as a series"),
    _positive("pos-4.12", "theorem", f"odd({G}) - 3*{RANK_M1}",
              "odd part minus three rank -1 layers stays nonnegative"),
    _positive("conj-6.1", "conjecture", "psi(q)*(psi(q)^2 - psi(q^7)^2)"),
    _positive("conj-6.2", "conjecture", "psi(q)*(phi(q)^2 - phi(q^7)^2)"),
    _positive("conj-6.3", "conjecture", "phi(q)*(psi(q)^2 - psi(q^7)^2)"),
    _positive("conj-6.4", "conjecture", "psi(q)*(phi(q)^2 - psi(q^7)^2)"),
    LinearClaim("conj-sharp-double", "conjecture",
                "a7(2n+2) >= 3*a7(n) for n >= 1",
                ((1, G, 2, 2),), ((3, G, 1, 0),), n0=1),
    LinearClaim("conj-sharp-quad15", "conjecture",
                "a7(4n+6) >= 15*a7(n) for n >= 1",
                ((1, G, 4, 6),), ((15, G, 1, 0),), n0=1),
    LinearClaim("conj-sharp-quad11", "conjecture",
                "a7(4n+6) >= 11*a7(n) for n >= 0",
                ((1, G, 4, 6),), ((11, G, 1, 0),)),
    *(
        LinearClaim(
            f"prog-ext-r{r}", "conjecture",
            f"a7(196n+{4 * r}) = 5*a7(98n+{2 * r - 1})",
            ((1, G, 196, 4 * r),), ((5, G, 98, 2 * r - 1),), "eq",
        )
        for r in (10, 17, 45)
    ),
)


@dataclass(frozen=True)
class ClaimRecord:
    id: str
    kind: str
    runner: Callable[[int], Report]


#: The runner of each record is its table row, which is callable.
CLAIMS: tuple = tuple(ClaimRecord(c.id, c.kind, c) for c in _TABLE)

_CLAIMS_BY_ID = {c.id: c for c in CLAIMS}


def run_claim(claim_id: str, order: int) -> Report:
    return lookup(_CLAIMS_BY_ID, "claim", claim_id).runner(order)


def run_all(order: int, kind: Optional[str] = None) -> list:
    return [c.runner(order) for c in CLAIMS if kind is None or c.kind == kind]
