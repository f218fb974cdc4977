"""Partition-level ground truth: brute-force cores and lattice sums.

Two independent views of the same counts live here.

* Direct enumeration: walk every partition of every n up to a top,
  keep the t-cores, and classify them by the parity-alternating rank.
  Exponential in n, so it is capped.  The walk splits each partition
  into a head of parts >= 3 and a tail of 2s and 1s, keeps each side's
  beta-numbers as the bits of one int, and tests every partition on
  its own by the abacus criterion, one big-int expression on their
  union.  The tests pin the bits against a rebuild from scratch, the
  criterion against the hook-length definition and the walk against a
  plain generator; nothing is shared with the series or lattice code,
  so the enumeration is the oracle for everything built on them.
  ``enumerate_partitions`` yields the partitions of one n by ZS1.
* Lattice counting: t-cores of n correspond to integer vectors
  n0..n(t-1) summing to zero with n = (t*|v|^2)/2 + sum(i*v_i)
  (Garvan-Kim-Stanton).  The vectors are counted by a dynamic program
  over the coordinates rather than visited one by one, and keeping the
  number of coordinate parities that differ from (1,0,1,0,1,0,1) splits
  the 7-core generating function into the four rank classes.  The DP
  is bounded from both sides: an exact least cost of the coordinates
  still to come drops states and high exponents that cannot reach
  q^order, and each state is stored from its least exponent up.
"""

from __future__ import annotations

from itertools import accumulate
from operator import add
from typing import Iterator

from .series import TruncSeries, _check_int, _unpack, check_order, prefix_cached

# Hard cap for the exponential enumeration; p(60) = 966467 partitions.
PARTITION_BOUND = 60


def _check_n(n) -> None:
    """Refuse an n that is not an int (TypeError), is negative or passes
    the enumeration cap (ValueError)."""
    _check_int("n", n)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > PARTITION_BOUND:
        raise ValueError(
            f"n = {n} exceeds the enumeration cap {PARTITION_BOUND}"
        )


def enumerate_partitions(n: int) -> Iterator[tuple]:
    """Yield all partitions of n as descending tuples, in reverse
    lexicographic order: (n,), (n - 1, 1), (n - 2, 2), ..., (1,) * n.

    The walk is ZS1 (Zoghbi and Stojmenovic, "Fast algorithms for
    generating integer partitions", Int. J. Comput. Math. 70, 1998).
    """
    _check_n(n)
    if n == 0:
        yield ()
        return
    # x[h] is the last part above 1, and every slot after h a 1 that stays
    # in place: a 2 at h becomes two ones, a larger part drops by one and
    # is copied over the ones it freed.  The partition is x[:m + 1].
    x = [n] + [1] * (n - 1)
    m = h = 0
    yield (n,)
    while x[0] != 1:
        if x[h] == 2:
            x[h] = 1
            h -= 1
            m += 1
        else:
            r = x[h] - 1
            rem = m - h + 1
            x[h] = r
            while rem > r:
                h += 1
                x[h] = r
                rem -= r
            m = h + 1
            if rem > 1:
                h += 1
                x[h] = rem
        yield tuple(x[: m + 1])


def bg_rank(partition: tuple) -> int:
    """Alternating sum of part parities: +odd(p1) - odd(p2) + odd(p3) ...

    Examples: (2, 1) -> -1 and (3, 2, 1) -> 2.
    """
    total = 0
    for i, p in enumerate(partition):
        if p & 1:
            total += -1 if i & 1 else 1
    return total


def _check_t(t) -> None:
    """Refuse a t that is not an int (TypeError) or is below 2."""
    if type(t) is not int or t < 2:
        _check_int("t", t)
        raise ValueError(f"t must be at least 2, got {t}")


def is_t_core(partition: tuple, t: int) -> bool:
    """True when no cell of the diagram has hook length divisible by t.

    Tested by the abacus criterion (James and Kerber, *The Representation
    Theory of the Symmetric Group*, 1981, section 2.7): with k parts, the
    beta-numbers b_i = lambda_i + (k - 1 - i) are distinct, and the hooks
    of length h are the pairs of a b >= h in the set with b - h not in
    it.  A hook length divisible by t implies one equal to t, so the
    partition is a t-core exactly when b - t is in the set for every
    b >= t in it.  With the set as the bits of an int beta, that is
    ``not (beta >> t) & ~beta``: no bit moved down by t lands outside it.
    """
    _check_t(t)
    beta = 0
    for b in map(add, partition, range(len(partition) - 1, -1, -1)):
        beta |= 1 << b
    return not (beta >> t) & ~beta


def _tails(top: int) -> tuple:
    """(rooms, found) for the tails 2^a 1^b of size 2a + b <= top.

    rooms[r] lists, by size ascending, the (width, bits) of every tail of
    size at most r: its number of parts a + b and the bit set of its
    beta-numbers over that many slots.  found maps a tail's bits, which
    no two tails share, to its size and BG-rank.  A tail's ones sit at
    beta-numbers 1..b and its twos at b + 2..a + b + 1.
    """
    pairs, found, rooms = [], {}, []
    for size in range(top + 1):
        for a in range(size // 2, -1, -1):
            b = size - 2 * a
            width = a + b
            bits = ((1 << (width + 2)) - 1) ^ (1 << (b + 1)) ^ 1
            pairs.append((width, bits))
            found[bits] = (size, bg_rank((2,) * a + (1,) * b))
        rooms.append(pairs[:])
    return rooms, found


def rank_histograms(top: int, t: int) -> list:
    """Row n, for every n <= top: rank class -> number of t-cores of n in
    it, by brute force.

    Each partition is a head of parts >= 3 and a tail 2^a 1^b, and the
    walk meets each once: a recursion builds the heads, and every head
    takes every tail that fits under top (``_tails``).  Over as many
    slots as it has parts, a head's beta-numbers are the bits of one int
    beta; appending a part p shifts them all up by one and adds p, and a
    tail of width w shifts them up by w, under the tail's own bits.  So
    each partition's full bit set is ``x = beta << width | bits``,
    tested by the criterion of ``is_t_core`` as ``x >> t | x == x``.

    The rank needs no tuple either.  The recursion carries the head's
    rank and the sign (-1)^k of its k parts, and a tail's parts sit k
    places on, so a core's rank is the head's plus that sign times the
    tail's own, tabled once per tail.  Each room r, the size left under
    top, has one list of the tails of size at most r, built once per
    walk, and a head walks the list of its room.  On a 2-core Xeon with
    CPython 3.11, ``rank_histograms(40, 7)`` (215 308 partitions) takes
    about 33 ms and ``rank_histograms(60, 7)`` (6 639 349) about 0.94 s.
    """
    _check_t(t)
    _check_n(top)
    rows: list = [{} for _ in range(top + 1)]
    rooms, found = _tails(top)

    def grow(size, beta, rank, sign, last):
        room = top - size
        for width, bits in rooms[room]:
            x = beta << width | bits
            if x >> t | x == x:
                r, j = found[bits]
                row = rows[size + r]
                j = rank + sign * j
                row[j] = row.get(j, 0) + 1
        for p in range(min(last, room), 2, -1):
            grow(size + p, beta << 1 | 1 << p, rank + sign * (p & 1), -sign, p)

    grow(0, 0, 0, 1, top)
    return rows


def rank_histogram(n: int, t: int) -> dict:
    """Rank class -> number of t-cores of n in it, by brute force: row n
    of ``rank_histograms(n, t)``, so it walks every row up to n."""
    return rank_histograms(n, t)[n]


_RANK_FLIPS = {2: 0, 1: 2, 0: 4, -1: 6}


def _coordinate_ranges(t: int, order: int) -> list:
    """Per coordinate i, the (x, cost) pairs with cost <= order.

    With sum(v) = 0 the size is n = sum_i (t*v_i^2 + (2i - t + 2)*v_i) / 2,
    and each term is a nonnegative integer on its own: t*x^2 + c*x is even
    for every x, and never negative because -t < c <= t.  So partial sizes
    only grow, a coordinate whose own term passes the order can be dropped
    outright, and every kept x has |x| <= M, the largest m with
    t*m*(m - 1)/2 <= order.
    """
    m = 0
    while t * (m + 1) * m <= 2 * order:
        m += 1
    ranges = []
    for i in range(t):
        c = 2 * i - t + 2
        costs = ((x, (t * x * x + c * x) // 2) for x in range(-m, m + 1))
        ranges.append([(x, cost) for x, cost in costs if cost <= order])
    return ranges


def _slot_bytes(ranges: list) -> int:
    """Bytes per packed coefficient, from a bound on every packed count.

    A state after i coordinates counts distinct choices of those i
    coordinates, so each of its coefficients is at most the product of
    the first i range sizes; the last coordinate is forced by the zero
    sum and multiplies nothing.  The product is at most (2M + 1)^(t - 1).
    All counts are nonnegative, so slots never borrow from each other.
    """
    bound = 1
    for xs in ranges[:-1]:
        bound *= len(xs)
    return (bound.bit_length() + 7) // 8


def _least_costs(ranges: list, order: int) -> list:
    """need_i for i = 1..t as (lo, costs): costs[r - lo] is the least total
    cost of coordinates i..t-1 whose values sum to r, kept where it is at
    most order.  Entry t admits only r = 0, at cost 0.  Entry 0 is None:
    the DP reads need_{i+1} after coordinate i, never need_0.

    Each coordinate's cost is convex in x on its range (its second
    difference is t), so every need_i is convex on an interval too: the
    min-plus convolution of two convex sequences starts at the sum of
    their first values and then takes their steps in increasing order.
    Convex values at most order form an interval, so trimming both ends
    keeps it one.
    """
    t = len(ranges)
    needs = [None] * t + [(0, [0])]
    for i in range(t - 1, 0, -1):
        lo, costs = needs[i + 1]
        own = [cost for _, cost in ranges[i]]
        steps = sorted(
            [b - a for a, b in zip(own, own[1:])]
            + [b - a for a, b in zip(costs, costs[1:])]
        )
        costs = list(accumulate(steps, initial=own[0] + costs[0]))
        kept = [k for k, c in enumerate(costs) if c <= order]
        needs[i] = (lo + ranges[i][0][0] + kept[0], costs[kept[0] : kept[-1] + 1])
    return needs


@prefix_cached
def _flip_layers(t: int, order: int) -> tuple:
    """Counts of zero-sum vectors in Z^t by size, split by parity flips.

    Entry f is the series, to q^order, of the vectors with f
    coordinates whose parity differs from (1, 0, 1, 0, ...).  The vectors
    are built one coordinate at a time.  A state is keyed by the partial
    sum s and the flips so far, and holds a pair (low, poly): its
    q-polynomial divided by q^low, its least exponent, Kronecker-packed
    into one nonnegative int, slot k at bit 8 * width * k.  Merging two
    states shifts the one with the higher low up by the difference.

    After coordinate i, the coordinates after it cost at least
    need_{i+1}(-s) to bring the sum back to zero (``_least_costs``).  A
    state with no such need, or with low + need past the order, is
    dropped, and every other is masked to the order - need - low + 1
    slots that can still reach q^order.
    """
    check_order(order)
    ranges = _coordinate_ranges(t, order)
    width = _slot_bytes(ranges)
    bits = 8 * width
    needs = _least_costs(ranges, order)

    states = {(0, 0): (0, 1)}
    for i in range(t):
        moves = [(x, (x ^ i ^ 1) & 1, cost) for x, cost in ranges[i]]
        x0 = moves[0][0]
        lo, need = needs[i + 1]
        hi = lo + len(need) - 1
        grown: dict = {}
        for (s, f), (low, poly) in states.items():
            top = order - low
            # The x whose sum s + x the later coordinates can undo.
            first, last = max(0, -s - hi - x0), max(0, -s - lo - x0 + 1)
            for x, flip, cost in moves[first:last]:
                if cost + need[-s - x - lo] > top:
                    continue
                base = low + cost
                key = (s + x, f + flip)
                old = grown.get(key)
                if old is None:
                    grown[key] = (base, poly)
                elif old[0] <= base:
                    grown[key] = (old[0], old[1] + (poly << bits * (base - old[0])))
                else:
                    grown[key] = (base, poly + (old[1] << bits * (old[0] - base)))
        states = {}
        for key, (low, poly) in grown.items():
            room = bits * (order - need[-key[0] - lo] - low + 1)
            if poly.bit_length() > room:
                poly &= (1 << room) - 1
            states[key] = (low, poly)

    # Past the last coordinate only the sum 0 survives.
    layers = []
    for f in range(t + 1):
        low, poly = states.get((0, f), (0, 0))
        raw = poly.to_bytes(width * (order + 1 - low), "little")
        counts = (0,) * low + tuple(_unpack(raw, width, False))
        layers.append(TruncSeries._trusted(order, counts))
    return tuple(layers)


def lattice_sum(t: int, order: int) -> TruncSeries:
    """Full t-core generating function from the lattice view."""
    _check_t(t)
    layers = (layer.coeffs for layer in _flip_layers(t, order))
    return TruncSeries._trusted(order, tuple(map(sum, zip(*layers))))


def lattice_rank_sum(j: int, order: int) -> TruncSeries:
    """Generating function of 7-cores with rank j, from the lattice view.

    Vectors at 0, 2, 4, 6 parity flips from (1,0,1,0,1,0,1) carry ranks
    2, 1, 0, -1; no zero-sum vector has an odd number of flips.
    """
    _check_int("rank class", j)
    if j not in _RANK_FLIPS:
        raise ValueError(f"rank class must be in -1..2, got {j}")
    return _flip_layers(7, order)[_RANK_FLIPS[j]]
