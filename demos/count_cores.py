"""Three independent ways to count 7-cores, and the rank refinement.

A partition is a 7-core when no hook length is divisible by 7.  The
alternating parity statistic over its parts splits those counts into
four residue families, and all the machinery below must agree row by
row: brute-force enumeration, a count of zero-sum vectors in Z^7 done
one coordinate at a time, and the infinite-product quotient.
"""

from sevencores.exprlang import evaluate
from sevencores.partitions import (
    bg_rank,
    enumerate_partitions,
    is_t_core,
    lattice_rank_sum,
    lattice_sum,
    rank_histograms,
)

TOP = 20

census = rank_histograms(TOP, 7)
quotient = evaluate("E(q^7)^7/E(q)", TOP)
lattice = lattice_sum(7, TOP)

print(f"{'n':>3} {'brute':>6} {'lattice':>8} {'quotient':>9}   rank split")
for n in range(TOP + 1):
    row = census[n]
    total = sum(row.values())
    split = ", ".join(f"{j:+d}: {row[j]}" for j in sorted(row))
    print(f"{n:>3} {total:>6} {lattice[n]:>8} {quotient[n]:>9}   {split}")
    assert total == lattice[n] == quotient[n]

print()
print("the 7-cores of n=6, with their ranks:")
for lam in enumerate_partitions(6):
    if is_t_core(lam, 7):
        print(f"  {lam!s:<22} rank {bg_rank(lam):+d}")

print()
print("rank family generating functions (order 12):")
for j in (-1, 0, 1, 2):
    print(f"  j={j:+d}:", lattice_rank_sum(j, 12).coeffs)
