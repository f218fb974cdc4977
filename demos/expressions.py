"""The expression mini-language: parse, print, evaluate.

Each catalog entry is two expression texts, one per side, and nothing
else: the printed catalog is the executable catalog.  Verifying an entry
parses both texts and evaluates them to the same coefficient stream.
"""

from sevencores.exprlang import ExprSyntaxError, evaluate, parse, to_text
from sevencores.identities import get_record

TEXT = "phi(q)*phi(q^7) + 4*q^2*psi(q^2)*psi(q^14)"

ast = parse(TEXT)
print("input:    ", TEXT)
print("printed:  ", to_text(ast))
print("round trip stable:", parse(to_text(ast)) == ast)
print("head:     ", evaluate(ast, 10).coeffs)

print()
rec = get_record("eq-1.20")
print(f"catalog entry {rec.id}: {rec.note}")
print("  lhs:", rec.lhs_text)
print("  rhs:", rec.rhs_text)
same = evaluate(rec.lhs_text, 60) == evaluate(rec.rhs_text, 60)
print("  sides agree at order 60:", same)

print()
try:
    parse("E(q^7")
except ExprSyntaxError as exc:
    print("errors carry one-based offsets:", exc)
    print("  offset:", exc.offset, " expected:", exc.expected)
