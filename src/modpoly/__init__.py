"""Exact arithmetic for classical modular polynomial coefficients.

The package computes the coefficients a_{m,n} of Phi_ell(X, Y) for prime
ell by four independent routes: a closed partition sum, a power-series
recurrence and a full solver driven by the defining identity, all three
from the q-expansion of the j-invariant, and for the top row a
hypergeometric series that needs no j table at all.  It checks p-adic
divisibility patterns of the results.
"""

from .qseries import IntegralityError, IntSeries, PrecisionError
from .jfun import JTable, delta_series, e4_series, euler_factor_series, j_coefficients
from .comb import (
    PartitionTerm,
    binomial,
    full_multinomial,
    is_prime,
    partitions,
    primes_upto,
    stirling_first,
    stirling_second,
)
from .closedform import (
    CoeffRequest,
    closed_row,
    coeff_closed,
    coeff_small_m,
    hypergeometric_row,
    partition_row,
    term_weight,
)
from .recurrence import (
    InconsistentSystemError,
    ModularPolynomial,
    coeff_recurrence,
    d_weight,
    polynomial_residual,
    recurrence_row,
    solve_full_polynomial,
    verify_d_recurrence,
)
from .congruence import (
    ALL_CHECKS,
    INFINITE,
    ROW_CHECKS,
    CheckRecord,
    CongruenceReport,
    check_conjecture_div,
    check_row,
    five_predicted,
    ord_p,
    required_three_valuation,
    required_two_valuation,
)
from .io_cli import (
    SutherlandFile,
    SutherlandParseError,
    UsageError,
    cli_main,
    emit_polynomial_json,
    emit_sutherland_text,
    load_sutherland,
    parse_sutherland,
    read_polynomial_json,
)

__version__ = "0.1.0"

__all__ = [
    "IntSeries", "PrecisionError",
    "JTable", "delta_series", "e4_series", "euler_factor_series", "j_coefficients",
    "PartitionTerm", "binomial", "full_multinomial", "is_prime", "partitions",
    "primes_upto", "stirling_first", "stirling_second",
    "CoeffRequest", "IntegralityError", "closed_row", "coeff_closed", "coeff_small_m",
    "hypergeometric_row", "partition_row", "term_weight",
    "InconsistentSystemError", "ModularPolynomial", "coeff_recurrence", "d_weight",
    "polynomial_residual", "recurrence_row", "solve_full_polynomial", "verify_d_recurrence",
    "ALL_CHECKS", "INFINITE", "ROW_CHECKS", "CheckRecord", "CongruenceReport",
    "check_conjecture_div", "check_row", "five_predicted", "ord_p",
    "required_three_valuation", "required_two_valuation",
    "SutherlandFile", "SutherlandParseError", "UsageError", "cli_main",
    "emit_polynomial_json", "emit_sutherland_text", "load_sutherland",
    "parse_sutherland", "read_polynomial_json",
    "__version__",
]
