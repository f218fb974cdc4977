"""Tour of the exact truncated-series engine.

Everything is integer arithmetic on tuples; nothing here floats.
"""

from sevencores.series import TruncSeries, dilate
from sevencores.theta import euler_E

N = 20

e = euler_E(1, N)
print("Euler product E(q) up to q^20:")
print(" ", e.coeffs)

p = TruncSeries.one(N).div(e)
print("its reciprocal generates partition counts p(n):")
print(" ", p.coeffs)

print("p(10) =", p[10], "(expect 42)")

# parity surgery
print("even part of E:", e.even_part().coeffs[:10])
print("odd part of E: ", e.odd_part().coeffs[:10])
print("q -> -q:       ", e.alternate().coeffs[:10])

# substitution q -> q^4 keeps the caller's truncation order
print("E(q^4) head:   ", dilate(e.coeffs, 4, N).coeffs[:10])

# mismatch reporting, the workhorse of the verification layer
other = p + TruncSeries.monomial(1, 7, N)
m = p.compare(other)
print(f"first divergence against a perturbed copy: q^{m.exponent}, {m.lhs} vs {m.rhs}")
