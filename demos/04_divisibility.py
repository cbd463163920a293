# Divisibility patterns in the coefficients
#
# The top-row coefficients a_{ell, ell-m} carry striking 2- and 3-adic
# divisibility that depends only on m mod 8 and m mod 3, and the corner
# coefficients (those with m + n < ell + 1) are divisible by huge prime
# powers growing linearly in c = ell + 1 - m - n.  The checkers in this
# package compare observed p-adic valuations against those tables.

from modpoly import (
    check_conjecture_div,
    check_row,
    j_coefficients,
    ord_p,
    recurrence_row,
    required_three_valuation,
    required_two_valuation,
    solve_full_polynomial,
)

# ord_p is plain integer arithmetic; 0 gets the infinite valuation so
# vanishing coefficients pass every divisibility requirement vacuously.

print("ord_2(3720) =", ord_p(3720, 2))
print("ord_5(2028551200) =", ord_p(2028551200, 5))
print("ord_3(0) =", ord_p(0, 3))

# The guaranteed row valuations, by residue class:

print("m mod 8 -> ord_2 floor:", [required_two_valuation(m) for m in range(8, 16)])
print("m mod 3 -> ord_3 floor:", [required_three_valuation(m) for m in range(3, 6)])

# Check a computed row.  For ell = 31 the row has 31 entries (m = 1..31)
# and every single 2- and 3-adic requirement holds -- these are proved
# statements, so the checker would flag any failure as FATAL.

ell = 31
row = recurrence_row(ell, j_coefficients(ell))[1:]
report = check_row(ell, row)
for name, (passed, failed) in sorted(report.summary.items()):
    print("%s at ell=%d: %d checked, %d failed" % (name, ell, passed + failed, failed))

# The five-divisibility prediction is conjectural: it says 5 | a_{ell,ell-m}
# exactly when (ell mod 5, m mod 5) lands in a small set of pairs.  Failures
# would be recorded as COUNTEREXAMPLE, not FATAL; none appear.

counter = [r for r in report.failures() if r.severity == "COUNTEREXAMPLE"]
print("conjectural 5-divisibility failures:", len(counter))

# Corner bounds on a full polynomial: with c = ell + 1 - m - n > 0, the
# coefficient a_{m,n} must be divisible by 2^{15c} and 3^{3c} (with a
# stronger 3-adic floor when ell = 1 mod 3) and 5^{3c}.  Phi_5's constant
# term has c = 6 and indeed carries 2^90 exactly.

phi5 = solve_full_polynomial(5, j_coefficients(32))
corner = check_conjecture_div(phi5)
rec = next(r for r in corner.records if r.index == (0, 0) and r.prime == 2)
print("Phi_5 a_00: required ord_2 >= %d, observed %s" % (rec.required, rec.observed))
print("corner checks on Phi_5: %d records, %d failures" % (len(corner.records), len(corner.failures())))

# Everything above is also reachable from the command line:
#
#   modpoly check --ell 31
#   modpoly check --ell 5 --set prop22,prop23,conj25,conj12
#
# with exit code 3 if a proved statement ever failed and 4 for a
# conjectural counterexample.
