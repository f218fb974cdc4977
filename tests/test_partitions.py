"""Brute-force partition facts pinned against the series and lattice layers.

The enumeration side is deliberately naive.  Its whole value is that it
cannot share a bug with the generating-function code it checks.  The
same goes for the lattice walk below: it visits every lattice point,
and it is the slow oracle for the coordinate DP in ``partitions``.
Between the two sits ``_layers_oracle``, the coordinate DP with only
the bound that the sum can still return to zero: fast enough to pin
every layer of the bounded DP at order 1600.  ``hook_is_t_core`` is
the hook-length definition itself, cell by cell: the slow oracle for
the bit-set t-core test in ``is_t_core`` and ``rank_histograms``, and
``beta_bits`` builds a partition's beta-number bit set from scratch: the
slow oracle for the one ``rank_histograms`` builds from a head and a
tail.  ``plain_partitions`` pops the trailing ones and rebuilds the tail
at every step: the slow oracle for ZS1 and for the head-and-tail walk.
``tuple_walk`` is that walk as it was before it carried the rank: it
builds each head as a tuple and ranks every core as head + tail, the
oracle for the carried rank and the per-room tail lists.
``ShiftSpy`` is a t that records every bit set the walk tests.
"""

from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sevencores.partitions as partitions_module
from sevencores.partitions import (
    PARTITION_BOUND,
    _coordinate_ranges,
    _flip_layers,
    _least_costs,
    _slot_bytes,
    _tails,
    bg_rank,
    enumerate_partitions,
    is_t_core,
    lattice_rank_sum,
    lattice_sum,
    rank_histogram,
    rank_histograms,
)
from sevencores.series import TruncSeries
from sevencores.theta import eta_quotient

_ODD_BASE = (1, 0, 1, 0, 1, 0, 1)


def conjugate(partition: tuple) -> tuple:
    """Transpose of the Young diagram, again as a descending tuple."""
    if not partition:
        return ()
    return tuple(
        sum(1 for p in partition if p > j) for j in range(partition[0])
    )


def plain_partitions(n: int):
    """Partitions of n as descending tuples, in reverse lexicographic order,
    by popping every trailing one and re-appending the tail."""
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


def pentagonal_counts(top: int) -> list:
    """p(0..top) by Euler's pentagonal-number recurrence."""
    p = [1]
    for n in range(1, top + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if g <= n:
                    total += sign * p[n - g]
            k += 1
        p.append(total)
    return p


def hook_is_t_core(partition: tuple, t: int) -> bool:
    """True when no cell of the diagram has hook length divisible by t,
    by walking every cell."""
    conj = conjugate(partition)
    for i, row in enumerate(partition):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            if hook % t == 0:
                return False
    return True


@st.composite
def partitions(draw) -> tuple:
    """A partition of some n up to the enumeration cap, descending."""
    left = draw(st.integers(min_value=0, max_value=PARTITION_BOUND))
    parts = []
    while left:
        parts.append(draw(st.integers(min_value=1, max_value=left)))
        left -= parts[-1]
    return tuple(sorted(parts, reverse=True))


_RANK_FLIPS = {2: 0, 1: 2, 0: 4, -1: 6}


def rank_residue_classes(j: int) -> frozenset:
    """Parity patterns of 7-dimensional vectors whose cores have rank j.

    Patterns at Hamming distance 0, 2, 4, 6 from (1,0,1,0,1,0,1) carry
    ranks 2, 1, 0, -1; the four families exhaust all 64 patterns with an
    even number of odd coordinates.
    """
    flips = _RANK_FLIPS[j]
    out = set()
    for idxs in combinations(range(7), flips):
        v = list(_ODD_BASE)
        for i in idxs:
            v[i] ^= 1
        out.add(tuple(v))
    return frozenset(out)


@lru_cache(maxsize=None)
def _walk(t: int, order: int) -> dict:
    """Lattice point counts bucketed by coordinate parity pattern.

    Visits every zero-sum vector v in Z^t of size at most order.  Works
    in doubled exponents e2 = t*|v|^2 + 2*b.v with b = (0..t-1), which
    is always even for vectors summing to zero.  Returns a mapping from
    parity bitmask (bit i = v_i mod 2) to a coefficient list.
    """
    n2 = 2 * order
    min2 = [min(0, t - 2 * i) for i in range(t)]
    total_min = sum(min2)

    def box_excludes(radius: int) -> bool:
        # No vector with some |v_i| = radius fits under n2 even when all
        # other coordinates sit at their unconstrained minima.
        return all(
            t * radius * radius - 2 * i * radius + (total_min - min2[i]) > n2
            for i in range(t)
        )

    m_bound = 0
    while not box_excludes(m_bound + 1):
        m_bound += 1

    suffmin = [0] * (t + 1)
    for i in range(t - 1, -1, -1):
        suffmin[i] = suffmin[i + 1] + min2[i]

    buckets: dict = {}

    def close(s: int, e2: int, mask: int) -> None:
        # Last free coordinate x at index t-2; index t-1 takes -(s + x).
        # Doubled total is 2t*x^2 + 2(ts-1)*x + e2 + t*s^2 - 2(t-1)*s.
        bq = t * s - 1
        c0 = e2 + t * s * s - 2 * (t - 1) * s - n2

        def q(x: int) -> int:
            return 2 * t * x * x + 2 * bq * x + c0

        disc = bq * bq - 2 * t * c0
        if disc < 0:
            return
        root = isqrt(disc)
        lo = (-bq - root) // (2 * t)
        hi = (-bq + root) // (2 * t)
        while q(lo - 1) <= 0:
            lo -= 1
        while lo <= hi and q(lo) > 0:
            lo += 1
        while q(hi + 1) <= 0:
            hi += 1
        while hi >= lo and q(hi) > 0:
            hi -= 1
        for x in range(lo, hi + 1):
            y = -(s + x)
            e2_total = q(x) + n2
            assert e2_total % 2 == 0 and 0 <= e2_total <= n2
            full = mask | ((x & 1) << (t - 2)) | ((y & 1) << (t - 1))
            row = buckets.setdefault(full, [0] * (order + 1))
            row[e2_total // 2] += 1

    def visit(i: int, s: int, e2: int, mask: int) -> None:
        if i == t - 2:
            close(s, e2, mask)
            return
        floor_rest = suffmin[i + 1]
        for x in range(-m_bound, m_bound + 1):
            contrib = t * x * x + 2 * i * x
            if e2 + contrib + floor_rest > n2:
                continue
            visit(i + 1, s + x, e2 + contrib, mask | ((x & 1) << i))

    visit(0, 0, 0, 0)
    return buckets


@lru_cache(maxsize=None)
def _layers_oracle(t: int, order: int) -> tuple:
    """``partitions._flip_layers`` without its cost bounds.

    A state is keyed by the partial sum and the flips so far and holds
    its whole q-polynomial packed into one int, slot k at bit
    8 * width * k.  It is dropped only when the remaining coordinates
    cannot bring the sum back to zero, and masked to order + 1 slots.
    """
    ranges = _coordinate_ranges(t, order)
    width = _slot_bytes(ranges)
    bits = 8 * width
    keep = (1 << (bits * (order + 1))) - 1
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

    size = width * (order + 1)
    layers = []
    for f in range(t + 1):
        raw = states.get((0, f), 0).to_bytes(size, "little")
        counts = (
            int.from_bytes(raw[k : k + width], "little")
            for k in range(0, size, width)
        )
        layers.append(TruncSeries(order, tuple(counts)))
    return tuple(layers)


def walk_sum(t: int, order: int, patterns=None) -> TruncSeries:
    """Walked vectors whose parity pattern is in patterns (None: all)."""
    cs = [0] * (order + 1)
    for mask, row in _walk(t, order).items():
        pattern = tuple((mask >> i) & 1 for i in range(t))
        if patterns is None or pattern in patterns:
            cs = [a + b for a, b in zip(cs, row)]
    return TruncSeries(order, cs)


def walk_rank_sum(j: int, order: int) -> TruncSeries:
    return walk_sum(7, order, rank_residue_classes(j))


def test_partitions_of_three():
    assert sorted(enumerate_partitions(3)) == [(1, 1, 1), (2, 1), (3,)]


def test_partitions_of_zero():
    assert list(enumerate_partitions(0)) == [()]


def test_partition_counts():
    # p(8) = 22, p(10) = 42
    assert sum(1 for _ in enumerate_partitions(8)) == 22
    assert sum(1 for _ in enumerate_partitions(10)) == 42


def test_enumeration_bound():
    with pytest.raises(ValueError):
        next(enumerate_partitions(PARTITION_BOUND + 1))
    with pytest.raises(ValueError):
        next(enumerate_partitions(-1))


@pytest.mark.parametrize("n", [2.5, 2.0, True])
def test_enumeration_refuses_an_n_that_is_not_an_int(n):
    # 2.5 would never stop: its parts go negative and the list grows.
    with pytest.raises(TypeError, match="n must be an int"):
        next(enumerate_partitions(n))


def test_enumeration_matches_the_plain_generator():
    # Same partitions in the same order, not just the same set.
    for n in range(31):
        assert list(enumerate_partitions(n)) == list(plain_partitions(n)), n


def beta_bits(partition: tuple, slots: int) -> int:
    """The bit set of partition's beta-numbers over slots slots, parts
    past the last taken as zeros."""
    parts = partition + (0,) * (slots - len(partition))
    return sum(1 << (p + slots - 1 - i) for i, p in enumerate(parts))


def from_beta_bits(x: int) -> tuple:
    """The partition whose beta-numbers over as many slots as it has
    parts are the bits of x: the i-th lowest bit b is part k - i, b - i."""
    low = [b for b in range(x.bit_length()) if x >> b & 1]
    return tuple(b - i for i, b in enumerate(low))[::-1]


class ShiftSpy(int):
    """A t that records each int shifted right by it.

    An int subclass on the right of ``>>`` answers before the int on its
    left, and the walk's t-core test shifts every partition's bit set by
    t exactly once, so ``seen`` ends up holding every state tested.
    """

    def __rrshift__(self, x):
        self.seen.append(x)
        return x >> int(self)


def spied_states(monkeypatch, top: int, t: int = 7) -> list:
    """Every bit set ``rank_histograms(top, t)`` tests, in order."""
    spy = ShiftSpy(t)
    spy.seen = []
    monkeypatch.setattr(partitions_module, "_check_t", lambda t: None)
    rank_histograms(top, spy)
    return spy.seen


def test_the_walk_keeps_each_partitions_beta_numbers(monkeypatch):
    # Every bit set the walk tests is one partition's beta-numbers over
    # its number of parts, and each partition of each n <= 30 is tested
    # exactly once.
    tested = [from_beta_bits(x) for x in spied_states(monkeypatch, 30)]
    assert all(lam[-1:] != (0,) for lam in tested)
    want = [lam for n in range(31) for lam in plain_partitions(n)]
    assert sorted(tested) == sorted(want)
    assert len(tested) == 28629


def test_one_row_walks_the_partitions_of_its_n_alone(monkeypatch):
    # rank_histogram(n, t) is row n of the walk of every row, and its own
    # walk tests the p(n) partitions of n, each once, and nothing smaller.
    for t in range(2, 10):
        rows = rank_histograms(30, t)
        for n in range(31):
            assert rank_histogram(n, t) == rows[n], (n, t)
    counts = pentagonal_counts(PARTITION_BOUND)
    monkeypatch.setattr(partitions_module, "_check_t", lambda t: None)
    for n in (0, 1, 2, 3, 12, 20, 40):
        spy = ShiftSpy(7)
        spy.seen = []
        rank_histogram(n, spy)
        assert len(spy.seen) == counts[n], n
        if n <= 20:
            tested = sorted(from_beta_bits(x) for x in spy.seen)
            assert tested == sorted(plain_partitions(n)), n
    assert counts[40] == 37_338


def test_the_walk_tests_every_partition_up_to_the_cap():
    # A t above every hook length makes every partition a t-core, so
    # each row counts every state the walk tests for its n.
    want = pentagonal_counts(PARTITION_BOUND)
    rows = rank_histograms(PARTITION_BOUND, 2 * PARTITION_BOUND)
    assert [sum(row.values()) for row in rows] == want
    assert sum(want) == 6_639_349


def tuple_walk(top: int, t: int, low: int) -> list:
    """The rows of ``partitions._walk``, with every head kept as a tuple
    and every core ranked by ``bg_rank(head + tail)``; each head slices
    the tails of sizes low - size to top - size out of one table."""
    rows = [{} for _ in range(top + 1)]
    tails, ends = _tails(top)

    def grow(size, beta, head, last):
        first = ends[low - size - 1] if low > size else 0
        for r, width, bits, tail in tails[first : ends[top - size]]:
            x = (beta << width) | bits
            if not (x >> t) & ~x:
                j = bg_rank(head + tail)
                row = rows[size + r]
                row[j] = row.get(j, 0) + 1
        for p in range(min(last, top - size), 2, -1):
            grow(size + p, (beta << 1) | 1 << p, head + (p,), p)

    grow(0, 0, (), top)
    return rows


def test_the_walk_counts_as_the_tuple_walk():
    # Every top up to 30 for t = 2..11, one row or all of them.
    for t in range(2, 12):
        for top in range(31):
            assert rank_histograms(top, t) == tuple_walk(top, t, 0), (top, t)
            assert rank_histogram(top, t) == tuple_walk(top, t, top)[top], (top, t)


def test_the_walk_counts_as_the_tuple_walk_at_45():
    assert rank_histograms(45, 7) == tuple_walk(45, 7, 0)
    for n in range(46):
        assert rank_histogram(n, 7) == tuple_walk(n, 7, n)[n], n


def test_every_tail_is_tabled_with_its_beta_numbers():
    entries, ends = _tails(PARTITION_BOUND)
    want = [
        (size, a + b, (2,) * a + (1,) * b)
        for size in range(PARTITION_BOUND + 1)
        for a in range(size // 2, -1, -1)
        for b in (size - 2 * a,)
    ]
    assert [(size, width, tail) for size, width, _, tail in entries] == want
    for size, width, bits, tail in entries:
        assert bits == beta_bits(tail, width), tail
    assert ends == [
        sum(1 for entry in entries if entry[0] <= r)
        for r in range(PARTITION_BOUND + 1)
    ]
    assert _tails(0) == ([(0, 0, 0, ())], [1])


@st.composite
def heads(draw) -> tuple:
    """A descending tuple of parts >= 3 with sum at most the cap."""
    left = draw(st.integers(min_value=0, max_value=PARTITION_BOUND))
    parts = []
    while left >= 3:
        parts.append(draw(st.integers(min_value=3, max_value=left)))
        left -= parts[-1]
    return tuple(sorted(parts, reverse=True))


@settings(max_examples=200, deadline=None)
@given(heads())
def test_the_shift_law_holds_for_drawn_heads(head):
    # Appending a part p maps a head's bits to (beta << 1) | 1 << p, and a
    # tabled tail of width w puts them w slots up, over the tail's bits.
    beta = 0
    for p in head:
        beta = (beta << 1) | 1 << p
    assert beta == beta_bits(head, len(head))
    entries, ends = _tails(PARTITION_BOUND)
    for _, width, bits, tail in entries[: ends[PARTITION_BOUND - sum(head)]]:
        whole = head + tail
        assert (beta << width) | bits == beta_bits(whole, len(whole)), whole


def test_enumeration_counts_are_the_partition_numbers():
    want = pentagonal_counts(PARTITION_BOUND)
    assert want[:11] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert want[45] == 89134
    for n in range(PARTITION_BOUND + 1):
        assert sum(1 for _ in enumerate_partitions(n)) == want[n], n


def test_rank_histogram_matches_the_slow_oracles():
    for t in range(2, 10):
        rows = rank_histograms(18, t)
        assert len(rows) == 19
        for n in range(19):
            want = Counter(
                bg_rank(lam) for lam in plain_partitions(n) if hook_is_t_core(lam, t)
            )
            assert rows[n] == rank_histogram(n, t) == want, (n, t)


def test_rank_histograms_refuse_a_top_out_of_range():
    for top in (-1, PARTITION_BOUND + 1):
        with pytest.raises(ValueError):
            rank_histograms(top, 7)
        with pytest.raises(ValueError):
            rank_histogram(top, 7)
    for top in (2.5, 2.0, True):
        with pytest.raises(TypeError, match="n must be an int"):
            rank_histograms(top, 7)
    assert rank_histograms(0, 7) == [{0: 1}]


def test_parts_descend():
    for lam in enumerate_partitions(9):
        assert all(a >= b for a, b in zip(lam, lam[1:]))
        assert sum(lam) == 9


def test_conjugate():
    assert conjugate((4, 1)) == (2, 1, 1, 1)
    assert conjugate((3, 2, 1)) == (3, 2, 1)
    assert conjugate(()) == ()


@given(st.integers(min_value=0, max_value=14))
def test_conjugate_involution(n):
    for lam in enumerate_partitions(n):
        assert conjugate(conjugate(lam)) == lam


def test_bg_rank_examples():
    # alternating parity sum over parts, first part weighted +
    assert bg_rank(()) == 0
    assert bg_rank((1,)) == 1
    assert bg_rank((2, 1)) == -1
    assert bg_rank((3, 2, 1)) == 2
    assert bg_rank((2,)) == 0


def test_two_cores_are_staircases():
    for n, want in ((1, (1,)), (3, (2, 1)), (6, (3, 2, 1)), (10, (4, 3, 2, 1))):
        found = [lam for lam in enumerate_partitions(n) if is_t_core(lam, 2)]
        assert found == [want]
    assert not any(is_t_core(lam, 2) for lam in enumerate_partitions(5))


def test_t_core_test_matches_the_hook_lengths():
    # is_t_core on the tuple, and the same criterion on the bit set the
    # walk tests for it.
    for n in range(23):
        for lam in enumerate_partitions(n):
            beta = beta_bits(lam, len(lam))
            for t in range(2, 12):
                want = hook_is_t_core(lam, t)
                assert is_t_core(lam, t) == want, (lam, t)
                assert (not (beta >> t) & ~beta) == want, (lam, t)


@settings(max_examples=200, deadline=None)
@given(partitions(), st.sampled_from((2, 3, 5, 7, 11)))
def test_t_core_test_matches_the_hook_lengths_up_to_the_cap(lam, t):
    assert is_t_core(lam, t) == hook_is_t_core(lam, t)


def test_t_core_test_refuses_t_below_two():
    for t in (1, 0, -7):
        with pytest.raises(ValueError, match="t must be at least 2"):
            is_t_core((3, 1), t)


@pytest.mark.parametrize("t", [2.5, "7", True])
def test_t_core_test_refuses_a_t_that_is_not_an_int(t):
    with pytest.raises(TypeError, match="t must be an int"):
        is_t_core((3, 1), t)
    with pytest.raises(TypeError, match="t must be an int"):
        rank_histogram(5, t)


def test_seven_core_counts_head():
    want = (1, 1, 2, 3, 5, 7, 11, 8, 15)
    assert tuple(sum(rank_histogram(n, 7).values()) for n in range(9)) == want


def test_rank_split_examples():
    assert rank_histogram(6, 7) == {0: 10, 2: 1}
    assert rank_histogram(3, 7) == {-1: 1, 1: 2}
    assert rank_histogram(0, 7) == {0: 1}


def test_census_rows_are_consistent():
    for n in range(11):
        cores = [lam for lam in enumerate_partitions(n) if is_t_core(lam, 7)]
        assert sum(rank_histogram(n, 7).values()) == len(cores)


def test_rank_residue_class_sizes():
    sizes = {j: len(rank_residue_classes(j)) for j in (-1, 0, 1, 2)}
    assert sizes == {2: 1, 0: 35, 1: 21, -1: 7}
    # the four families tile all 64 even-distance patterns
    union = set()
    for j in (-1, 0, 1, 2):
        cls = rank_residue_classes(j)
        assert union.isdisjoint(cls)
        union |= cls
    assert len(union) == 64


def test_lattice_rejects_bad_arguments():
    for t in (1, 0, -3):
        with pytest.raises(ValueError):
            lattice_sum(t, 5)
    for j in (-2, 3, 7):
        with pytest.raises(ValueError):
            lattice_rank_sum(j, 5)
    with pytest.raises(ValueError):
        lattice_sum(7, -1)


def test_lattice_refuses_arguments_that_are_not_ints():
    # A float or bool key would share the cache entry of the equal int,
    # and True would count the rank-1 layer.
    lattice_sum(7, 5)
    for bad in (7.0, True, "7"):
        with pytest.raises(TypeError, match="t must be an int"):
            lattice_sum(bad, 5)
    for bad in (True, False, 1.0, -1.0):
        with pytest.raises(TypeError, match="rank class must be an int"):
            lattice_rank_sum(bad, 5)
    for bad in (5.0, True):
        with pytest.raises(TypeError, match="order must be an int"):
            lattice_sum(3, bad)


def test_lattice_matches_eta_quotient():
    # t-core generating function as an eta quotient, small t
    for t in (2, 3, 5):
        assert lattice_sum(t, 25) == eta_quotient({t: t, 1: -1}, 25)


def test_lattice_counts_cores_directly():
    for n in range(16):
        brute = sum(1 for lam in enumerate_partitions(n) if is_t_core(lam, 3))
        assert lattice_sum(3, 16)[n] == brute


def test_rank_sums_match_census():
    rows = [rank_histogram(n, 7) for n in range(13)]
    series = {j: lattice_rank_sum(j, 12) for j in (-1, 0, 1, 2)}
    for n in range(13):
        for j in (-1, 0, 1, 2):
            assert series[j][n] == rows[n].get(j, 0)


def test_rank_sums_partition_the_total():
    total = lattice_sum(7, 30)
    add = sum((lattice_rank_sum(j, 30) for j in (-1, 0, 1)), lattice_rank_sum(2, 30))
    assert add == total


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(min_value=0, max_value=60))
def test_lattice_sum_matches_walk(t, order):
    assert lattice_sum(t, order) == walk_sum(t, order)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((-1, 0, 1, 2)), st.integers(min_value=0, max_value=60))
def test_lattice_rank_sum_matches_walk(j, order):
    assert lattice_rank_sum(j, order) == walk_rank_sum(j, order)


def test_lattice_matches_walk_at_order_120():
    for t in (2, 3, 5, 7):
        assert lattice_sum(t, 120) == walk_sum(t, 120)
    for j in (-1, 0, 1, 2):
        assert lattice_rank_sum(j, 120) == walk_rank_sum(j, 120)


def _same_layers(t: int, order: int) -> None:
    # The build itself: a cached value at a higher order would only be cut.
    got, want = _flip_layers.__wrapped__(t, order), _layers_oracle(t, order)
    assert [layer.coeffs for layer in got] == [layer.coeffs for layer in want]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((2, 3, 5, 7)), st.integers(min_value=0, max_value=200))
def test_every_flip_layer_matches_the_unbounded_dp(t, order):
    _same_layers(t, order)


@pytest.mark.parametrize("t", [5, 7])
def test_every_flip_layer_matches_the_unbounded_dp_at_order_1600(t):
    _same_layers(t, 1600)


@pytest.mark.parametrize("t", [2, 3, 5, 7])
def test_least_costs_are_the_pairwise_minima(t):
    # need_i(r) by the plain min-plus DP over every pair of a value of
    # coordinate i and a sum of the later ones; a weaker bound would
    # still count right, only slower, so the layer tests cannot see it.
    for order in (0, 1, 9, 40, 130):
        ranges = _coordinate_ranges(t, order)
        needs = _least_costs(ranges, order)
        best = {0: 0}
        assert needs[t] == (0, [0])
        for i in range(t - 1, 0, -1):
            pairs = [(r + x, c + cost) for r, c in best.items() for x, cost in ranges[i]]
            best = {}
            for r, c in pairs:
                if c <= order and c < best.get(r, order + 1):
                    best[r] = c
            lo, costs = needs[i]
            assert dict(enumerate(costs, lo)) == best


def test_slot_width_grows_with_order():
    for t in (2, 3, 5, 7):
        widths = [
            _slot_bytes(_coordinate_ranges(t, order))
            for order in (0, 10, 100, 1000, 10000, 100000)
        ]
        assert widths == sorted(widths)
        assert widths[0] < widths[-1]
        for order in (10, 1000, 100000):
            ranges = _coordinate_ranges(t, order)
            m = max(abs(x) for xs in ranges for x, _ in xs)
            assert 256 ** _slot_bytes(ranges) > (2 * m + 1) ** (t - 1)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=14), st.sampled_from((2, 3, 5, 7)))
def test_core_counts_match_lattice(n, t):
    brute = sum(1 for lam in enumerate_partitions(n) if is_t_core(lam, t))
    assert lattice_sum(t, 14)[n] == brute


@given(st.integers(min_value=0, max_value=12))
def test_bg_rank_of_seven_cores_stays_in_window(n):
    for lam in enumerate_partitions(n):
        if is_t_core(lam, 7):
            assert bg_rank(lam) in (-1, 0, 1, 2)


@given(st.integers(min_value=0, max_value=14))
def test_rank_parity_matches_size_parity(n):
    # the alternating parity sum always has the parity of n itself
    for lam in enumerate_partitions(n):
        assert bg_rank(lam) % 2 == n % 2
