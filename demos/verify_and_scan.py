"""Run the full identity catalog and the claim scans from Python.

The CLI wraps exactly these calls; nothing is CLI-only.  Identities and
claims are rows of one type, and every run returns the same report: an
identity holds when its two sides agree to the order.
"""

from sevencores.identities import verify_all
from sevencores.inequalities import run_all

ORDER = 150

reports = verify_all(ORDER)
worst = max(reports, key=lambda r: r.millis)
print(f"verified {len(reports)} identities at order {ORDER}")
print(f"  all hold: {all(r.status == 'holds' for r in reports)}")
print(f"  slowest:  {worst.id} at {worst.millis:.1f}ms ({worst.note})")

print()
scans = run_all(1000)
theorems = [r for r in scans if r.kind == "theorem"]
conjectures = [r for r in scans if r.kind == "conjecture"]
print(f"scanned {len(theorems)} proved claims and {len(conjectures)} conjectures to depth 1000")
for r in scans:
    flag = "ok " if r.status == "holds" else "BAD"
    print(f"  [{flag}] {r.id:<20} {r.note}")

print()
print("a conjecture scan never proves anything; it only fails loudly or stays quiet")
