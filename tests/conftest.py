"""Shared oracle data and helpers for the test suite.

PHI5_FACTORED holds every coefficient a_{m,n} of the level-5 classical
modular polynomial (m <= n <= 5, excluding the monic X^6/Y^6 terms),
entered in fully factored form so each line can be eyeballed against
published tables independently of any code in this package.
"""

from modpoly import IntSeries

# Filled in by test_acceptance.py; printed after the run so the verdict
# lines survive pytest's output capture.
ACCEPTANCE_VERDICTS = {}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.write_line("")
        for n in sorted(ACCEPTANCE_VERDICTS):
            terminalreporter.write_line("ACCEPTANCE %d: %s" % (n, ACCEPTANCE_VERDICTS[n]))


def truncated(series, precision):
    """series known only below q^precision; the precision may only go down."""
    assert precision <= series.precision, (precision, series.precision)
    return IntSeries(series.base_exponent, series.coeffs, precision)


PHI5_FACTORED = {
    (0, 0): 2**90 * 3**18 * 5**3 * 11**9,
    (0, 1): 2**77 * 3**16 * 5**3 * 11**6 * 31 * 1193,
    (1, 1): -(2**62) * 3**13 * 11**3 * 26984268714163,
    (0, 2): 2**60 * 3**13 * 5**2 * 11**3 * 13**2 * 3167 * 204437,
    (1, 2): 2**47 * 3**10 * 5**4 * 53359 * 131896604713,
    (2, 2): 2**30 * 3**8 * 5**4 * 7 * 13 * 1861 * 6854302120759,
    (0, 3): 2**48 * 3**9 * 5**2 * 31 * 1193 * 24203 * 2260451,
    (1, 3): -(2**31) * 3**7 * 5**3 * 327828841654280269,
    (2, 3): 2**17 * 3**4 * 5**3 * 2311 * 2579 * 3400725958453,
    (3, 3): -(2**2) * 5**2 * 11 * 17 * 131 * 1061 * 169751677267033,
    (0, 4): 2**30 * 3**7 * 5 * 13**2 * 3167 * 204437,
    (1, 4): 2**20 * 3**4 * 5**3 * 12107359229837,
    (2, 4): 3 * 5**3 * 167 * 6117103549378223,
    (3, 4): 2**5 * 3 * 5**2 * 197 * 227 * 421 * 2387543,
    (4, 4): 2**3 * 5**2 * 257 * 32412439,
    (0, 5): 2**17 * 3**4 * 5 * 31 * 1193,
    (1, 5): -2 * 3 * 5**2 * 1644556073,
    (2, 5): 2**5 * 5**2 * 13 * 195053,
    (3, 5): -(2**2) * 3**2 * 5 * 131 * 193,
    (4, 5): 2**3 * 3 * 5 * 31,
    (5, 5): -1,
}

# Classical level-2 modular polynomial, transcribed from published tables.
PHI2_KNOWN = {
    (0, 0): -157464000000000,
    (1, 0): 8748000000,
    (1, 1): 40773375,
    (2, 0): -162000,
    (2, 1): 1488,
    (2, 2): -1,
}
