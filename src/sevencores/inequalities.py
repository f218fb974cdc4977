"""Coefficient inequalities, progressions, and conjecture scans.

Every claim is one row of a table: a linear relation

    sum of coef * S[a*n + b] over the lhs terms   REL   the same over the rhs

for every n >= n0, where REL is >= ("ge") or = ("eq") and each S is a
series named in ``SERIES``, which maps each name to an expression text.
Positivity of a series S is the row 1*S[n] >= 0.  The range of n comes
from the order: it ends at the largest n whose every index a*n + b is at
most the order.  Every claim scans its full range; nothing is sampled.
A ``ScanReport`` records the range, the outcome, the first violation if
one exists, and the first few instances so that spot values are visible
in the output.  A claim whose range holds no instance at this order
reports ``empty``: nothing was checked, so it does not hold either.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional

from .exprlang import evaluate
from .forms import FFF7, G, G2, RANK_2, RANK_M1, SPLIT, W
from .forms import core_split  # noqa: F401  (cli and perfbench read it here)

#: How many leading instances each report keeps for display.
SAMPLE_COUNT = 3

#: Default scan depth for the command-line scanners.
DEFAULT_DEPTH = 2000


@dataclass(frozen=True)
class ScanReport:
    """Result of scanning one claim over its full range."""

    claim: str
    kind: str
    description: str
    n_range: tuple
    status: str
    violation: Optional[tuple]
    samples: tuple


def _scan(claim, kind, description, n_range, items, relation) -> ScanReport:
    samples = []
    violation = None
    for n, lhs, rhs in items:
        if len(samples) < SAMPLE_COUNT:
            samples.append((n, lhs, rhs))
        ok = lhs >= rhs if relation == "ge" else lhs == rhs
        if not ok:
            violation = (n, lhs, rhs)
            break
    return ScanReport(
        claim=claim,
        kind=kind,
        description=description,
        n_range=n_range,
        status="violated" if violation else "holds" if samples else "empty",
        violation=violation,
        samples=tuple(samples),
    )


#: Every series a claim names, as expression text: the fields of
#: ``core_split``, then the other series.
SERIES: dict = {
    **SPLIT,
    "sigma4*fff7": f"sigma(q^4)*({FFF7})",
    "2*rank_m1": f"2*{RANK_M1}",
    "6*rank_2": f"6*{RANK_2}",
    "2q^2*G2": f"2*q^2*{G2}",
    "E(q^14)^4/(E(q^4)E(q^28)) * omega(q^2)": f"({W})*omega(q^2)",
    "a7-2q^2*G2": f"{G} - 2*q^2*{G2}",
    "odd(a7)-3*rank_m1": f"odd({G}) - 3*{RANK_M1}",
    **{
        text: text
        for text in (
            "psi(q)*(psi(q)^2 - psi(q^7)^2)",
            "psi(q)*(phi(q)^2 - phi(q^7)^2)",
            "phi(q)*(psi(q)^2 - psi(q^7)^2)",
            "psi(q)*(phi(q)^2 - psi(q^7)^2)",
        )
    },
}


@dataclass(frozen=True)
class LinearClaim:
    """One table row.  A term (coef, name, a, b) stands for coef*S[a*n + b].

    ``mod7``, when not empty, keeps only the n whose residue mod 7 is in it.
    """

    id: str
    kind: str
    description: str
    lhs: tuple
    rhs: tuple = ()
    relation: str = "ge"
    n0: int = 0
    mod7: tuple = ()

    def __call__(self, order: int) -> ScanReport:
        terms = self.lhs + self.rhs
        hi = min((order - b) // a for _, _, a, b in terms)
        names = {name for _, name, _, _ in terms}
        coeffs = {name: evaluate(SERIES[name], order).coeffs for name in names}
        ns = [
            n for n in range(self.n0, hi + 1)
            if not self.mod7 or n % 7 in self.mod7
        ]

        def side(terms):
            columns = [
                [c * coeffs[name][a * n + b] for n in ns]
                for c, name, a, b in terms
            ]
            return map(sum, zip(*columns)) if columns else repeat(0)

        items = zip(ns, side(self.lhs), side(self.rhs))
        return _scan(
            self.id, self.kind, self.description, (self.n0, hi), items,
            self.relation,
        )


def _positive(claim, kind, series, description=None):
    description = description or f"{series} has nonnegative coefficients"
    return LinearClaim(claim, kind, description, ((1, series, 1, 0),))


_TABLE = (
    LinearClaim("ineq-1.11", "theorem", "a7(2n+2) >= 2*a7(n)",
                ((1, "a7", 2, 2),), ((2, "a7", 1, 0),)),
    LinearClaim("ineq-1.12", "theorem", "a7(4n+6) >= 10*a7(n)",
                ((1, "a7", 4, 6),), ((10, "a7", 1, 0),)),
    LinearClaim("ineq-1.13", "theorem", "a7_0(n) >= 9*a7_2(n)",
                ((1, "a7_0", 1, 0),), ((9, "a7_2", 1, 0),)),
    LinearClaim("ineq-1.14", "theorem", "a7_1(n) >= 2*a7_m1(n)",
                ((1, "a7_1", 1, 0),), ((2, "a7_m1", 1, 0),)),
    *(
        LinearClaim(
            f"prog-1.15-r{r}", "theorem",
            f"a7(28n+{4 * r}) = 5*a7(14n+{2 * r - 1})",
            ((1, "a7", 28, 4 * r),), ((5, "a7", 14, 2 * r - 1),), "eq",
        )
        for r in (1, 2, 6)
    ),
    *(
        LinearClaim(
            f"prog-1.16-r{r}", "theorem",
            f"a7(28n+{4 * r + 2}) + 4*a7(7n+{r - 1}) = 5*a7(14n+{2 * r})",
            ((1, "a7", 28, 4 * r + 2), (4, "a7", 7, r - 1)),
            ((5, "a7", 14, 2 * r),), "eq",
        )
        for r in (2, 4, 5)
    ),
    LinearClaim("cor-4.1", "theorem", "3*a7(n-1) + b(n) >= 0 for n >= 1",
                ((3, "a7", 1, -1), (1, "b", 1, 0)), n0=1),
    LinearClaim("vanish-b", "theorem", "b(n) = 0 when n mod 7 is 2, 4, or 5",
                ((1, "b", 1, 0),), relation="eq", mod7=(2, 4, 5)),
    *(
        _positive(
            f"pos-1.23-{i}", "theorem", series,
            f"summand {i} of the four-term split has nonnegative coefficients",
        )
        for i, series in enumerate(
            ("sigma4*fff7", "2*rank_m1", "6*rank_2", "2q^2*G2"), 1
        )
    ),
    _positive("pos-4.6", "theorem", "E(q^14)^4/(E(q^4)E(q^28)) * omega(q^2)"),
    _positive("pos-4.7", "theorem", "a7-2q^2*G2",
              "a7(n) >= 2*a7((n-2)/2) summed as a series"),
    _positive("pos-4.12", "theorem", "odd(a7)-3*rank_m1",
              "odd part minus three rank -1 layers stays nonnegative"),
    _positive("conj-6.1", "conjecture", "psi(q)*(psi(q)^2 - psi(q^7)^2)"),
    _positive("conj-6.2", "conjecture", "psi(q)*(phi(q)^2 - phi(q^7)^2)"),
    _positive("conj-6.3", "conjecture", "phi(q)*(psi(q)^2 - psi(q^7)^2)"),
    _positive("conj-6.4", "conjecture", "psi(q)*(phi(q)^2 - psi(q^7)^2)"),
    LinearClaim("conj-sharp-double", "conjecture",
                "a7(2n+2) >= 3*a7(n) for n >= 1",
                ((1, "a7", 2, 2),), ((3, "a7", 1, 0),), n0=1),
    LinearClaim("conj-sharp-quad15", "conjecture",
                "a7(4n+6) >= 15*a7(n) for n >= 1",
                ((1, "a7", 4, 6),), ((15, "a7", 1, 0),), n0=1),
    LinearClaim("conj-sharp-quad11", "conjecture",
                "a7(4n+6) >= 11*a7(n) for n >= 0",
                ((1, "a7", 4, 6),), ((11, "a7", 1, 0),)),
    *(
        LinearClaim(
            f"prog-ext-r{r}", "conjecture",
            f"a7(196n+{4 * r}) = 5*a7(98n+{2 * r - 1})",
            ((1, "a7", 196, 4 * r),), ((5, "a7", 98, 2 * r - 1),), "eq",
        )
        for r in (10, 17, 45)
    ),
)


@dataclass(frozen=True)
class ClaimRecord:
    id: str
    kind: str
    runner: Callable[[int], ScanReport]


#: The runner of each record is its table row, which is callable.
CLAIMS: tuple = tuple(ClaimRecord(c.id, c.kind, c) for c in _TABLE)

_CLAIMS_BY_ID = {c.id: c for c in CLAIMS}
assert len(_CLAIMS_BY_ID) == len(CLAIMS), "claim ids must be unique"


def claim_ids(kind: Optional[str] = None) -> tuple:
    return tuple(c.id for c in CLAIMS if kind is None or c.kind == kind)


def run_claim(claim_id: str, order: int) -> ScanReport:
    try:
        rec = _CLAIMS_BY_ID[claim_id]
    except KeyError:
        raise KeyError(
            f"unknown claim id {claim_id!r}; "
            f"known ids: {', '.join(sorted(_CLAIMS_BY_ID))}"
        ) from None
    return rec.runner(order)


def run_all(order: int, kind: Optional[str] = None) -> list:
    return [c.runner(order) for c in CLAIMS if kind is None or c.kind == kind]


# -- named entry points -----------------------------------------------

_THEOREM_1_1_IDS = (
    "ineq-1.11", "ineq-1.12", "ineq-1.13", "ineq-1.14",
    "prog-1.15-r1", "prog-1.15-r2", "prog-1.15-r6",
    "prog-1.16-r2", "prog-1.16-r4", "prog-1.16-r5",
)


def check_theorem_1_1(order: int) -> list:
    """The ten headline claims: four growth bounds, six index progressions."""
    return [run_claim(i, order) for i in _THEOREM_1_1_IDS]
