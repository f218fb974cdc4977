"""The one claim row type, its runner, and the catalog of identities.

A row is a linear relation

    sum of coef * S[a*n + b] over the lhs terms   REL   the same over the rhs

for every n >= n0, where REL is >= ("ge") or = ("eq") and each S is an
expression text, most often a closed form from ``forms``.  An identity
L = R is the row 1*L[n] = 1*R[n], n >= 0; positivity of S is the row
1*S[n] >= 0.  The range of n ends at the largest n whose every index
a*n + b is at most the order, and all of it is scanned.  A row is
checked when it is built: it needs a term, every term needs a >= 1 and
a*n0 + b >= 0 (so no slice wraps round to the top of a series), REL
must be "ge" or "eq" and ``mod7`` residues must lie in 0..6; otherwise
``ValueError``.  A text that does not parse or evaluate fails when the
row is run, with ``ExprSyntaxError`` or ``ExprEvalError``.

Calling a row runs it into a ``Report``, by one column pass for every
row: each term's column is one slice of its series, filtered by
``mod7`` and scaled at C speed, and each side is one tuple, the series'
own for an identity.  An "eq" row whose sides are equal is settled by
one tuple comparison; any other row is scanned for its first failure.
A row with no instance at the order reports ``empty``, which does not
hold.

``REGISTRY`` holds the identity rows, under fixed external ids (eq-1.17,
eq-3.2, ...); the claim rows are in ``inequalities``, which only
``scan`` loads.
"""

from __future__ import annotations

from functools import partial, reduce
from itertools import compress, count, cycle, repeat
from operator import add, lt, mul, ne
from time import perf_counter
from typing import NamedTuple, Optional

from .exprlang import check_bounds, evaluate
from .forms import CUBE_PAIR, FFF1, FFF7, G, G2, Q, RANK_0, RANK_1, RANK_2
from .forms import RANK_M1, RANK_M1_QUOTIENT, W, W_OMEGA
from .series import TruncSeries

#: How many leading instances each report keeps for display.
SAMPLE_COUNT = 3


class Report(NamedTuple):
    """One run of a row: ``holds``, ``violated`` or ``empty``, the first
    violation (n, lhs, rhs) if any, the first instances, the wall time."""

    id: str
    kind: str
    note: str
    order: int
    n_range: tuple
    status: str
    violation: Optional[tuple]
    samples: tuple
    millis: float


class LinearClaim(
    NamedTuple("LinearClaim", [
        ("id", str), ("kind", str), ("note", str), ("lhs_terms", tuple),
        ("rhs_terms", tuple), ("relation", str), ("n0", int), ("mod7", tuple),
    ])
):
    """One row.  A term (coef, text, a, b) stands for coef*S[a*n + b], where
    S is the series of the text.  A nonempty ``mod7`` keeps only the n
    whose residue mod 7 is in it."""

    __slots__ = ()

    def __new__(cls, id, kind, note, lhs_terms, rhs_terms=(), relation="ge",
                n0=0, mod7=()):
        if not lhs_terms + rhs_terms:
            raise ValueError(f"{id}: a row needs at least one term")
        if relation not in ("ge", "eq"):
            raise ValueError(f"{id}: relation must be 'ge' or 'eq', got {relation!r}")
        if not set(mod7) <= set(range(7)):
            raise ValueError(f"{id}: mod7 residues must lie in 0..6")
        for _, text, a, b in lhs_terms + rhs_terms:
            if a < 1 or a * n0 + b < 0:
                raise ValueError(
                    f"{id}: term {text}[{a}*n + {b}] needs a >= 1 and "
                    f"a*n0 + b >= 0 (n0 = {n0})"
                )
        fields = (id, kind, note, lhs_terms, rhs_terms, relation, n0, mod7)
        return super().__new__(cls, *fields)

    # An identity row's two sides, each the text of its one term.  Any
    # other row has no two sides to name.

    def _side(self, terms) -> str:
        if self.kind != "identity":
            raise ValueError(f"{self.id} is a {self.kind} row, not an identity")
        return terms[0][1]

    @property
    def lhs_text(self) -> str:
        return self._side(self.lhs_terms)

    @property
    def rhs_text(self) -> str:
        return self._side(self.rhs_terms)

    def lhs(self, order: int) -> TruncSeries:
        return evaluate(self.lhs_text, order)

    def rhs(self, order: int) -> TruncSeries:
        return evaluate(self.rhs_text, order)

    def __call__(self, order: int) -> Report:
        """Run the row to the order, column by column: every row's one
        runner."""
        start = perf_counter()
        terms = self.lhs_terms + self.rhs_terms
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
            # S[a*n + b] for n = n0 .. hi, as one slice of S (S itself
            # when that is all of it).
            first = a * n0 + b
            col = coeffs[text][first : first + a * size : a]
            if self.mod7:
                col = compress(col, cycle(keep))
            return col if c == 1 else map(mul, repeat(c), col)

        def side(terms):
            if not terms:
                return (0,) * len(ns)
            # Column-wise sum: map(add, ...) over the columns in turn.
            return tuple(reduce(partial(map, add), [column(*t) for t in terms]))

        lhs, rhs = side(self.lhs_terms), side(self.rhs_terms)
        fails = lt if self.relation == "ge" else ne
        settled = fails is ne and lhs == rhs
        k = None if settled else next(compress(count(), map(fails, lhs, rhs)), None)
        shown = SAMPLE_COUNT if k is None else min(SAMPLE_COUNT, k + 1)
        status = "empty" if not ns else "holds" if k is None else "violated"
        violation = None if k is None else (ns[k], lhs[k], rhs[k])
        samples = tuple(zip(ns[:shown], lhs, rhs))
        millis = (perf_counter() - start) * 1000.0
        return Report(self.id, self.kind, self.note, order, (n0, hi), status,
                      violation, samples, millis)


def lookup(index: dict, what: str, key: str):
    """index[key]; an unknown key raises a KeyError that names every id."""
    try:
        return index[key]
    except KeyError:
        known = ", ".join(sorted(index))
        raise KeyError(f"unknown {what} id {key!r}; known ids: {known}") from None


def identity(id: str, note: str, lhs_text: str, rhs_text: str) -> LinearClaim:
    """The row 1*L[n] = 1*R[n], n >= 0, of the identity L = R."""
    lhs, rhs = ((1, lhs_text, 1, 0),), ((1, rhs_text, 1, 0),)
    return LinearClaim(id, "identity", note, lhs, rhs, "eq")


REGISTRY: tuple = (
    identity(
        "eq-1.3-t2",
        "2-core generating function: lattice sum vs eta quotient",
        "lattice(2)",
        "E(q^2)^2/E(q)",
    ),
    identity(
        "eq-1.3-t3",
        "3-core generating function: lattice sum vs eta quotient",
        "lattice(3)",
        "E(q^3)^3/E(q)",
    ),
    identity(
        "eq-1.3-t5",
        "5-core generating function: lattice sum vs eta quotient",
        "lattice(5)",
        "E(q^5)^5/E(q)",
    ),
    identity(
        "eq-1.3-t7",
        "7-core generating function: lattice sum vs eta quotient",
        "lattice(7)",
        G,
    ),
    identity(
        "eq-1.17",
        "odd-index core counts minus the rank -1 layer, factored form",
        RANK_1,
        f"q*({Q})*(sigma(q^4) + q^2*psi(q^2)*psi(q^14))",
    ),
    identity(
        "eq-1.18",
        "even-index core counts minus the rank 2 layer, expanded form",
        RANK_0,
        "omega(q^2)*(psi(q^4)^2*phi(q^14)^2 + q^6*psi(q^28)^2*phi(q^2)^2"
        f" + q^2*{Q})"
        " + q^2*psi(q^4)*psi(q^14)^2*phi(q^14)^3"
        " + 2*q^4*psi(q^2)^3*psi(q^14)^3"
        " + 4*q^12*psi(q^14)^2*psi(q^28)^3*phi(q^2)",
    ),
    identity(
        "eq-1.20",
        "four-factor eta quotient as a triple theta product times psi",
        Q,
        "f(q^2,q^12)*f(q^4,q^10)*f(q^6,q^8)*psi(q^14)",
    ),
    identity(
        "eq-1.21",
        "7-core series regrouped around sigma, with the rank 2 layer",
        G,
        f"{FFF7}*sigma(q^2) + 8*{RANK_2}",
    ),
    identity(
        "eq-1.22",
        "7-core series regrouped around omega, with a q^2 eta piece",
        G,
        f"{FFF1}*psi(q^7)*omega(q) + q^2*{G2}",
    ),
    identity(
        "eq-1.23",
        "7-core series as four summands with nonnegative coefficients",
        G,
        f"sigma(q^4)*{FFF7} + 2*{RANK_M1} + 6*{RANK_2} + 2*q^2*{G2}",
    ),
    identity(
        "eq-1.24",
        "rank -1 eta quotient as thetas times psi products",
        RANK_M1_QUOTIENT,
        "f(q^2,q^12)*f(q^6,q^8)*f(q^4,q^10)*psi(q^2)*psi(q^14)^2",
    ),
    identity(
        "eq-1.25",
        "triple theta with phi vs psi pair times an eta quotient",
        FFF7,
        f"psi(q)*psi(q^7)*{W}",
    ),
    identity(
        "eq-1.31",
        "rank -1 layer: lattice sum vs eta-quotient closed form",
        "lattice7(-1)",
        RANK_M1,
    ),
    identity(
        "eq-1.32",
        "rank 2 layer: lattice sum vs eta-quotient closed form",
        "lattice7(2)",
        RANK_2,
    ),
    identity(
        "eq-1.34",
        "7-core series equals the sum of its four rank layers",
        G,
        "lattice7(-1) + lattice7(0) + lattice7(1) + lattice7(2)",
    ),
    identity(
        "eq-1.35",
        "rank 0 layer isolated from the even part",
        "lattice7(0)",
        RANK_0,
    ),
    identity(
        "eq-1.36",
        "rank 1 layer isolated from the odd part",
        "lattice7(1)",
        RANK_1,
    ),
    identity(
        "eq-3.1",
        "sigma at q^2 via phi products and sign-flipped psi",
        "sigma(q^2)",
        "phi(q)*phi(q^7) - 2*q*f(-q,-q^3)*f(-q^7,-q^21)",
    ),
    identity(
        "eq-3.2",
        "sigma halving relation",
        "sigma(q)",
        "sigma(q^2) + 2*q*psi(q)*psi(q^7)",
    ),
    identity(
        "eq-3.3",
        "omega squared via psi products and sigma",
        "omega(q)^2",
        "psi(q)*psi(q^7)*(sigma(q^2) - q*psi(q)*psi(q^7))",
    ),
    identity(
        "eq-3.4",
        "sigma squared via omega squared and sign-flipped phi",
        "sigma(q^2)^2",
        "4*q*omega(q)^2 + f(-q,-q)^2*f(-q^7,-q^7)^2",
    ),
    identity(
        "eq-3.5",
        "sign-flipped phi product halving relation",
        "f(-q^2,-q^2)*f(-q^14,-q^14)",
        "f(-q,-q)*f(-q^7,-q^7) + 2*q*f(-q,-q^3)*f(-q^7,-q^21)",
    ),
    identity(
        "eq-3.6",
        "psi pair split into three pieces by index parity",
        "psi(q)*psi(q^7)",
        "psi(q^8)*phi(q^28) + q^6*psi(q^56)*phi(q^4)"
        " + q*psi(q^2)*psi(q^14)",
    ),
    identity(
        "eq-3.7",
        "psi pair via omega at q^2",
        "psi(q)*psi(q^7)",
        "omega(q^2) + q*psi(q^2)*psi(q^14)",
    ),
    identity(
        "eq-3.8",
        "phi pair via sigma at q^4 and omega at q^2",
        "phi(q)*phi(q^7)",
        "sigma(q^4) + 2*q*omega(q^2)",
    ),
    identity(
        "eq-3.14",
        "odd theta triple via a psi cube and omega",
        FFF1,
        "q^2*psi(q^7)^3 + psi(q)*omega(q)",
    ),
    identity(
        "eq-3.15",
        "odd theta triple as a chi quotient times a cube",
        FFF1,
        "(chi(-q^7)/chi(-q))*E(q^7)^3",
    ),
    identity(
        "eq-3.16",
        "chi-quotient cube at q^2 expanded in psi products",
        "(chi(-q^14)/chi(-q^2))*E(q^14)^3",
        "q^4*psi(q^14)^3 + psi(q^2)*(psi(q)*psi(q^7) - q*psi(q^2)*psi(q^14))",
    ),
    identity(
        "eq-3.22",
        "five-factor eta quotient via a psi fourth power and omega",
        "E(q^14)*E(q^7)^3*E(q^2)/E(q)",
        "q^2*psi(q^7)^4 + psi(q)*psi(q^7)*omega(q)",
    ),
    identity(
        "eq-3.23",
        "7-core series via its q^2 counterpart and omega",
        G,
        f"q^2*{G2} + (E(q^14)*E(q^7)^3*E(q^2)/E(q))*omega(q)",
    ),
    identity(
        "eq-3.24",
        "even part of the 7-core series in eta quotients",
        f"even({G})",
        f"5*q^2*{G2} - 4*{RANK_2} + E(q^2)^3*E(q^14)^3",
    ),
    identity(
        "eq-3.28",
        "coefficient-halving action on the shifted 7-core series",
        f"T2(q^2*{G})",
        f"5*q^2*{G} + q*{CUBE_PAIR}",
    ),
    identity(
        "eq-4.4",
        "7-core series minus 8 rank-2 layers, factored with sigma",
        f"{G} - 8*{RANK_2}",
        f"(psi(q)*psi(q^7)*{W})*sigma(q^2)",
    ),
    identity(
        "eq-4.5",
        "even part regrouped through the omega-sigma product",
        f"even({G})",
        f"2*q^2*{G2} + 6*{RANK_2} + {W_OMEGA}*sigma(q^4)",
    ),
    identity(
        "eq-4.8",
        "omega-weighted eta quotient as two quadruple theta products",
        W_OMEGA,
        "f(q^4,q^24)*f(q^12,q^16)^3 + q^6*f(q^10,q^18)*f(q^2,q^26)^3",
    ),
    identity(
        "eq-4.11",
        "odd part minus three rank -1 layers, factored with omega^2",
        f"odd({G}) - 3*lattice7(-1)",
        f"q*omega(q^2)^2*{W}",
    ),
    identity(
        "eq-4.15",
        "even-index slice tying a(4n), a(2n-1), and cube coefficients",
        f"even(T2({G}) - 4*{G2})",
        f"even(5*q*{G} + {CUBE_PAIR})",
    ),
    identity(
        "eq-4.18",
        "nonnegativity witness combining the cube pair with sigma and omega",
        f"3*q*{G} + {CUBE_PAIR}",
        f"10*q^3*{G2} + sigma(q^2)*omega(q)*E(q^7)^4/(E(q^2)*E(q^14))",
    ),
    identity(
        "eq-5.1",
        "rank 1 layer directly against its factored closed form",
        "lattice7(1)",
        f"q*({Q})*(sigma(q^4) + q^2*psi(q^2)*psi(q^14))",
    ),
    identity(
        "eq-5.2",
        "7-core series via psi^4 omega and the psi pair times omega^2",
        G,
        f"q^2*{G2} + q^2*psi(q^7)^4*omega(q) + psi(q)*psi(q^7)*omega(q)^2",
    ),
    identity(
        "eq-5.3",
        "7-core series with the q^2 piece expanded one level deeper",
        G,
        f"{RANK_2} + q^2*({Q})*omega(q^2)"
        " + q^2*psi(q^7)^4*omega(q) + psi(q)*psi(q^7)*omega(q)^2",
    ),
    identity(
        "eq-5.4",
        "psi fourth power split by exponent parity",
        "psi(q)^4",
        "psi(q^2)^2*(phi(q^2)^2 + 4*q*psi(q^4)^2)",
    ),
    identity(
        "eq-5.5",
        "odd part minus two rank -1 layers, factored with sigma",
        f"odd({G}) - 2*lattice7(-1)",
        f"q*({Q})*sigma(q^4)",
    ),
    identity(
        "eq-5.6",
        "7-core series as rank layers plus nonnegative theta terms",
        G,
        f"2*lattice7(-1) + 2*q^2*{G2} + 6*{RANK_2} + sigma(q^4)*{FFF7}",
    ),
    identity(
        "aux-psi-square",
        "psi squared halving relation",
        "psi(q)^2",
        "psi(q^2)*phi(q)",
    ),
    identity(
        "aux-phi-split",
        "phi split into even and odd exponent parts",
        "phi(q)",
        "phi(q^4) + 2*q*psi(q^8)",
    ),
)

_BY_ID = {rec.id: rec for rec in REGISTRY}


def get_record(identity_id: str) -> LinearClaim:
    return lookup(_BY_ID, "identity", identity_id)


def verify(identity_id, order: int) -> Report:
    """Run one identity row, given as a row or by its id, to the order."""
    if isinstance(identity_id, LinearClaim):
        return identity_id(order)
    return get_record(identity_id)(order)


def verify_all(order: int) -> list:
    """Verify the whole catalog, ``REGISTRY`` as it is bound at the call,
    and return the reports in registry order.  Every term's bounds are
    checked at order (``check_bounds``) before any row is run, so a
    refused order raises at once."""
    for rec in REGISTRY:
        for _, text, _, _ in rec.lhs_terms + rec.rhs_terms:
            check_bounds(text, order)
    return [verify(rec, order) for rec in REGISTRY]
