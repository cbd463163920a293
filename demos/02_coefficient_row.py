# Top-row coefficients from the closed partition sum
#
# For a prime ell, the modular polynomial Phi_ell(X, Y) has a
# distinguished row of coefficients a_{ell, ell-m}, m = 0..ell, and each
# of them is an explicit integer combination of the j-coefficients c_i:
# a sum over the partitions of m whose weights involve only factorials
# and one binomial.  This script assembles a_{5,3} (ell = 5, m = 2) by
# hand, then lets the library do whole rows and cross-checks them.

from modpoly import (
    CoeffRequest,
    coeff_closed,
    coeff_small_m,
    closed_row,
    hypergeometric_row,
    j_coefficients,
    partitions,
    recurrence_row,
    term_weight,
)

j = j_coefficients(16)
ell, m = 5, 2

# Partitions of 2, largest part first: (2) and (1+1).  Each contributes
# weight * product of c_{r-1}^t.

print("assembling a_{%d,%d}:" % (ell, ell - m))
total = 0
for term in partitions(m):
    w = term_weight(ell, m, term)
    monomial = 1
    label = []
    for r, t in zip(term.r, term.t):
        monomial *= j[r - 1] ** t
        label.append("c_%d^%d" % (r - 1, t))
    print("  partition r=%s t=%s: weight %6d  *  %s" % (term.r, term.t, w, "*".join(label)))
    total += w * monomial

print("  sum =", total)

# The same number through the public entry point, and through the
# independently typed-up expanded expression for small m.

req = CoeffRequest(ell, m)
print("coeff_closed:  ", coeff_closed(req, j))
print("coeff_small_m: ", coeff_small_m(req, j))

# Whole rows: m = 0 is always -1, and the m = ell entry picks up an
# extra -(ell+1) c_0 term.

row = closed_row(5, j)
print("row for ell=5: ", row)

# An entirely different route to the same numbers: the induction
# recurrence, which only multiplies truncated power series.  Agreement
# of the two oracles is the core consistency check of the package
# (the crosscheck CLI command runs exactly this comparison).

print("recurrence row:", recurrence_row(5, j))
print("rows agree:    ", closed_row(5, j) == recurrence_row(5, j))

# A route with no j table at all: E4/E6 as a hypergeometric series in
# t = 1/j, the row that the coeff, row and check commands serve.

print("hypergeometric:", hypergeometric_row(5) == row)

# The per-term weights are provably integers even though they are
# assembled from fractions like u!/prod(t_i!).  Watch the cancellation
# on a term where the denominator is 3! = 6:

from modpoly import PartitionTerm

w = term_weight(7, 6, PartitionTerm((2,), (3,)))
print("weight for r=(2), t=(3) at ell=7:", w, "(2!/3! * 7 * C(3,2) = 7)")
