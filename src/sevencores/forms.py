"""Closed forms shared by the identity catalog and the claim scans.

Each eta quotient, theta product and rank layer that more than one
place names is written here once, as expression text; ``exprlang``
evaluates and caches it.  The four rank layers of the 7-core series G
are RANK_M1, RANK_0, RANK_1 and RANK_2.  ``core_split`` bundles G with
its four rank layers and the alternating companion b(n), all read off
these texts.
"""

from __future__ import annotations

from typing import NamedTuple

from .exprlang import evaluate
from .series import TruncSeries

#: E(q^7)^7 / E(q): counts 7-cores by size.
G = "E(q^7)^7/E(q)"
G2 = "E(q^14)^7/E(q^2)"
Q = "E(q^28)*E(q^14)^3*E(q^4)/E(q^2)"
W = "E(q^14)^4/(E(q^4)*E(q^28))"
CUBE_PAIR = "E(q)^3*E(q^7)^3"
RANK_M1_QUOTIENT = "E(q^28)^3*E(q^14)^2*E(q^4)^3/E(q^2)^2"
#: The rank -1 layer.
RANK_M1 = f"q^3*{RANK_M1_QUOTIENT}"
#: The rank 2 layer.
RANK_2 = "q^6*E(q^28)^7/E(q^4)"
#: The rank 0 layer.
RANK_0 = f"even({G}) - {RANK_2}"
#: The rank 1 layer.
RANK_1 = f"odd({G}) - {RANK_M1}"
#: W times omega at q^2, a series with nonnegative coefficients.
W_OMEGA = f"({W})*omega(q^2)"
FFF7 = "f(q,q^13)*f(q^3,q^11)*f(q^5,q^9)*phi(q^7)"
FFF1 = "f(q,q^6)*f(q^2,q^5)*f(q^3,q^4)"


#: The text of each ``CoreSplit`` field.
SPLIT = {
    "a7": G,
    "a7_m1": RANK_M1,
    "a7_0": RANK_0,
    "a7_1": RANK_1,
    "a7_2": RANK_2,
    "b": CUBE_PAIR,
}

#: The 7-core series and its rank layers, one field per key of SPLIT.
CoreSplit = NamedTuple("CoreSplit", [(name, TruncSeries) for name in SPLIT])


def core_split(order: int) -> CoreSplit:
    """The 7-core series, its rank layers and b(n) at this order, as
    ``table``, ``oracle`` and the benchmark's digests read them."""
    return CoreSplit(**{name: evaluate(text, order) for name, text in SPLIT.items()})
