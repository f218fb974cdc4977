"""Theta sums, eta quotients, and classical relations among them."""

from sevencores.exprlang import evaluate
from sevencores.theta import (
    ThetaArgs,
    chi_neg,
    eta_quotient,
    euler_E,
    jacobi_cube,
    phi,
    psi,
    sigma_at,
    theta_f,
)

N = 30

# a two-variable theta section: f(q, q^13) shows up in 7-core dissections
section = theta_f(ThetaArgs(1, 1, 1, 13), N)
print("f(q, q^13) as a bilateral sum:  ", section.coeffs[:16])

# E(q) is the same sum at fixed arguments, written as an expression text
assert evaluate("f(-q,-q^2)", N) == euler_E(1, N)
print("f(-q, -q^2) == E(q) holds to order", N)

# phi and psi are the square and triangular sums
print("phi(q):", phi(1, 12).coeffs)
print("psi(q):", psi(1, 12).coeffs)
assert psi(1, N) ** 2 == psi(2, N) * phi(1, N)
print("psi(q)^2 == psi(q^2) * phi(q) holds to order", N)
assert evaluate("phi(q)", N) == evaluate("phi(q^4) + 2*q*psi(q^8)", N)
print("phi(q) == phi(q^4) + 2q psi(q^8) holds to order", N)

# chi is the odd-spaced product E(q)/E(q^2)
print("chi(-q):", chi_neg(1, 8).coeffs)

# eta-style quotients assemble from one dict
g = eta_quotient({7: 7, 1: -1}, 10)
print("E(q^7)^7/E(q):", g.coeffs)

# the cube of the Euler product has a closed coefficient law
print("E(q)^3 matches its indexed sum:", jacobi_cube(N) == euler_E(1, N) ** 3)

# sigma packs two theta products into one even-looking series
print("sigma head:", sigma_at(1, 8).coeffs)
