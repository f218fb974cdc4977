"""Partition-level ground truth: brute-force cores and lattice sums.

Two independent views of the same counts live here.

* Direct enumeration: walk every partition of n, keep the t-cores, and
  classify them by the parity-alternating rank.  Exponential in n, so it is capped, but it
  assumes nothing beyond the hook-length definition and serves as the
  oracle for everything built on series.
* Lattice counting: t-cores of n correspond to integer vectors
  n0..n(t-1) summing to zero with n = (t*|v|^2)/2 + sum(i*v_i)
  (Garvan-Kim-Stanton).  The vectors are counted by a dynamic program
  over the coordinates rather than visited one by one, and keeping the
  number of coordinate parities that differ from (1,0,1,0,1,0,1) splits
  the 7-core generating function into the four rank classes.
"""

from __future__ import annotations

from typing import Iterator

from .series import TruncSeries, check_order, prefix_cached

# Hard cap for the exponential enumeration; p(45) = 89134 partitions.
PARTITION_BOUND = 45


def enumerate_partitions(n: int) -> Iterator[tuple]:
    """Yield all partitions of n as descending tuples."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > PARTITION_BOUND:
        raise ValueError(
            f"n = {n} exceeds the enumeration cap {PARTITION_BOUND}"
        )
    if n == 0:
        yield ()
        return
    part = [n]
    while True:
        yield tuple(part)
        ones = 0
        while part and part[-1] == 1:
            part.pop()
            ones += 1
        if not part:
            return
        part[-1] -= 1
        rem = ones + 1
        cap = part[-1]
        while rem > cap:
            part.append(cap)
            rem -= cap
        part.append(rem)


def conjugate(partition: tuple) -> tuple:
    """Transpose of the Young diagram, again as a descending tuple."""
    if not partition:
        return ()
    return tuple(
        sum(1 for p in partition if p > j) for j in range(partition[0])
    )


def bg_rank(partition: tuple) -> int:
    """Alternating sum of part parities: +odd(p1) - odd(p2) + odd(p3) ...

    Examples: (2, 1) -> -1 and (3, 2, 1) -> 2.
    """
    total = 0
    for i, p in enumerate(partition):
        if p & 1:
            total += -1 if i & 1 else 1
    return total


def is_t_core(partition: tuple, t: int) -> bool:
    """True when no cell of the diagram has hook length divisible by t."""
    if t < 2:
        raise ValueError(f"t must be at least 2, got {t}")
    conj = conjugate(partition)
    for i, row in enumerate(partition):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            if hook % t == 0:
                return False
    return True


def count_cores(n: int, t: int) -> int:
    """Number of t-core partitions of n, by brute force."""
    return sum(rank_histogram(n, t).values())


def rank_histogram(n: int, t: int) -> dict:
    """Rank class -> number of t-cores of n in it, by brute force."""
    out: dict[int, int] = {}
    for p in enumerate_partitions(n):
        if is_t_core(p, t):
            j = bg_rank(p)
            out[j] = out.get(j, 0) + 1
    return out


def count_cores_by_rank(n: int, t: int, j: int) -> int:
    """Number of t-cores of n whose parity-alternating rank equals j."""
    return rank_histogram(n, t).get(j, 0)


def core_rank_census(max_n: int, t: int) -> list:
    """Rows 0..max_n of rank_histogram."""
    return [rank_histogram(n, t) for n in range(max_n + 1)]


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


@prefix_cached
def _flip_layers(t: int, order: int) -> tuple:
    """Counts of zero-sum vectors in Z^t by size, split by parity flips.

    Entry f is the series, to q^order, of the vectors with f
    coordinates whose parity differs from (1, 0, 1, 0, ...).  The vectors
    are built one coordinate at a time; a state is keyed by the partial
    sum and the flips so far, and holds its q-polynomial Kronecker-packed
    into one nonnegative int, slot k at bit 8 * width * k.
    """
    if t < 2:
        raise ValueError(f"t must be at least 2, got {t}")
    check_order(order)
    ranges = _coordinate_ranges(t, order)
    width = _slot_bytes(ranges)
    bits = 8 * width
    keep = (1 << (bits * (order + 1))) - 1
    # The coordinates after i must be able to bring the sum back to zero.
    rest_lo = [0] * (t + 1)
    rest_hi = [0] * (t + 1)
    for i in range(t - 1, -1, -1):
        rest_lo[i] = rest_lo[i + 1] + ranges[i][0][0]
        rest_hi[i] = rest_hi[i + 1] + ranges[i][-1][0]

    states = {(0, 0): 1}
    for i in range(t):
        moves = [(x, (x ^ i ^ 1) & 1, bits * cost) for x, cost in ranges[i]]
        lo, hi = -rest_hi[i + 1], -rest_lo[i + 1]
        grown: dict = {}
        for (s, f), poly in states.items():
            for x, flip, shift in moves:
                if lo <= s + x <= hi:
                    key = (s + x, f + flip)
                    grown[key] = grown.get(key, 0) + (poly << shift)
        states = {}
        for key, poly in grown.items():
            poly &= keep
            if poly:
                states[key] = poly

    # Past the last coordinate only the sum 0 survives.
    size = width * (order + 1)
    layers = []
    for f in range(t + 1):
        raw = states.get((0, f), 0).to_bytes(size, "little")
        counts = (
            int.from_bytes(raw[k : k + width], "little")
            for k in range(0, size, width)
        )
        layers.append(TruncSeries._trusted(order, tuple(counts)))
    return tuple(layers)


def lattice_sum(t: int, order: int) -> TruncSeries:
    """Full t-core generating function from the lattice view."""
    layers = (layer.coeffs for layer in _flip_layers(t, order))
    return TruncSeries._trusted(order, tuple(map(sum, zip(*layers))))


def lattice_rank_sum(j: int, order: int) -> TruncSeries:
    """Generating function of 7-cores with rank j, from the lattice view.

    Vectors at 0, 2, 4, 6 parity flips from (1,0,1,0,1,0,1) carry ranks
    2, 1, 0, -1; no zero-sum vector has an odd number of flips.
    """
    if j not in _RANK_FLIPS:
        raise ValueError(f"rank class must be in -1..2, got {j}")
    return _flip_layers(7, order)[_RANK_FLIPS[j]]
