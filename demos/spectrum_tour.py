#!/usr/bin/env python3
"""A tour of the Casimir spectrum on symbol space.

Homogeneous symbols of total fiber degree i split into blocks labelled by a
tableau number p, and the symbol Casimir acts on each block as an exact
rational scalar.  This script prints a spectrum table, exhibits the highest
weight vector of a block, and verifies the scalar action on it.
"""

from fractions import Fraction

from projquant import (Context, casimir_eigenvalue, casimir_symbol,
                       decompose, highest_weight_vector, SymbolPoly,
                       format_poly, parse_poly)
from projquant.casimir import tableau_labels

n = 2
delta = Fraction(1, 2)
ctx = Context.from_delta(n, (Fraction(0), Fraction(0)), delta)

print(f"Spectrum table at n={n}, shift={delta}")
print(f"{'degree':>8} {'tableau':>8} {'eigenvalue':>12}")
for i in range(5):
    for p in tableau_labels(n, i):
        print(f"{i:>8} {p:>8} {str(casimir_eigenvalue(n, delta, i, p)):>12}")

print()
vec = highest_weight_vector(2, 1, 1, ctx)
print("Highest weight vector of the (k,l,q) = (2,1,1) block:")
print("   ", format_poly(vec.body))
gamma = casimir_eigenvalue(n, delta, 3, 1)
image = casimir_symbol(vec)
print(f"Casimir acts as the scalar {gamma}:",
      image.body == gamma * vec.body)

print()
mixed = SymbolPoly(parse_poly("a1*b2", n), ctx)
print("The monomial a1*b2 is not an eigenvector; its eigenblocks are:")
for (i, p), piece in decompose(mixed).items():
    print(f"    block ({i},{p}):  {format_poly(piece.body)}")
