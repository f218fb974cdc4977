"""Coefficient inequalities, progressions, and conjecture scans.

Every claim is one row of a table: a linear relation

    sum of coef * S[a*n + b] over the lhs terms   REL   the same over the rhs

for every n >= n0, where REL is >= ("ge") or = ("eq") and each S is an
expression text, most often a closed form from ``forms``.
Positivity of a series S is the row 1*S[n] >= 0.  The range of n comes
from the order: it ends at the largest n whose every index a*n + b is at
most the order.  Every claim scans its full range; nothing is sampled.
Each column, the values of one term over the range, is one slice of its
series, filtered by ``mod7`` and scaled by its coefficient at C speed.
A row is checked when it is built: it needs at least one term, every
term needs a >= 1 and a first index a*n0 + b >= 0 (so no slice wraps
around to the top of a series), the relation must be "ge" or "eq",
and the ``mod7`` residues must lie in 0..6; otherwise it raises
``ValueError``.  A text that does not parse or evaluate fails when the
row is scanned, with ``ExprSyntaxError`` or ``ExprEvalError`` (both
``ValueError``).
A ``ScanReport`` records the range, the outcome, the first violation if
one exists, and the first few instances so that spot values are visible
in the output.  A claim whose range holds no instance at this order
reports ``empty``: nothing was checked, so it does not hold either.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from itertools import compress, count, cycle, repeat
from operator import add, lt, mul, ne
from typing import Callable, Optional

from .exprlang import evaluate
from .forms import CUBE_PAIR, FFF7, G, G2, RANK_0, RANK_1, RANK_2, RANK_M1, W_OMEGA
from .forms import core_split  # noqa: F401  (perfbench reads it here)

#: How many leading instances each report keeps for display.
SAMPLE_COUNT = 3


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


@dataclass(frozen=True)
class LinearClaim:
    """One table row.  A term (coef, text, a, b) stands for coef*S[a*n + b],
    where S is the series that the expression text evaluates to.

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

    def __post_init__(self):
        if not self.lhs + self.rhs:
            raise ValueError(f"{self.id}: a row needs at least one term")
        if self.relation not in ("ge", "eq"):
            raise ValueError(
                f"{self.id}: relation must be 'ge' or 'eq', got {self.relation!r}"
            )
        if not set(self.mod7) <= set(range(7)):
            raise ValueError(f"{self.id}: mod7 residues must lie in 0..6")
        for _, text, a, b in self.lhs + self.rhs:
            if a < 1 or a * self.n0 + b < 0:
                raise ValueError(
                    f"{self.id}: term {text}[{a}*n + {b}] needs a >= 1 and "
                    f"a*n0 + b >= 0 (n0 = {self.n0})"
                )

    def __call__(self, order: int) -> ScanReport:
        terms = self.lhs + self.rhs
        n0 = self.n0
        hi = min((order - b) // a for _, _, a, b in terms)
        size = max(hi + 1 - n0, 0)
        ns = range(n0, hi + 1)
        if self.mod7:
            # keep[i] says whether n0 + i is scanned; it repeats every 7 n.
            keep = [(n0 + i) % 7 in self.mod7 for i in range(7)]
            ns = list(compress(ns, cycle(keep)))
        texts = {text for _, text, _, _ in terms}
        coeffs = {text: evaluate(text, order).coeffs for text in texts}

        def column(c, text, a, b):
            # S[a*n + b] for n = n0 .. hi, as one slice of S.
            start = a * n0 + b
            col = coeffs[text][start : start + a * size : a]
            if self.mod7:
                col = compress(col, cycle(keep))
            return col if c == 1 else map(mul, repeat(c), col)

        def side(terms):
            if not terms:
                return [0] * len(ns)
            # Column-wise sum: map(add, ...) over the columns in turn.
            return list(reduce(partial(map, add), [column(*t) for t in terms]))

        lhs, rhs = side(self.lhs), side(self.rhs)
        fails = map(lt if self.relation == "ge" else ne, lhs, rhs)
        k = next(compress(count(), fails), None)
        shown = SAMPLE_COUNT if k is None else min(SAMPLE_COUNT, k + 1)
        return ScanReport(
            claim=self.id,
            kind=self.kind,
            description=self.description,
            n_range=(n0, hi),
            status="empty" if not ns else "holds" if k is None else "violated",
            violation=None if k is None else (ns[k], lhs[k], rhs[k]),
            samples=tuple(zip(ns[:shown], lhs, rhs)),
        )


def _positive(claim, kind, series, description=None):
    description = description or f"{series} has nonnegative coefficients"
    return LinearClaim(claim, kind, description, ((1, series, 1, 0),))


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
    runner: Callable[[int], ScanReport]


#: The runner of each record is its table row, which is callable.
CLAIMS: tuple = tuple(ClaimRecord(c.id, c.kind, c) for c in _TABLE)

_CLAIMS_BY_ID = {c.id: c for c in CLAIMS}
assert len(_CLAIMS_BY_ID) == len(CLAIMS), "claim ids must be unique"


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

