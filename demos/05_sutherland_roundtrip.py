# Reading and writing coefficient tables
#
# Published modular polynomial tables use a plain text format with one
# coefficient per line: "[m,n] value", upper or lower triangle only, a
# '#' for comments, and usually a monic boundary line like "[6,0] 1".
# This script emits that format, reads it back, survives a detour
# through JSON, and finishes by running the divisibility checker on the
# file -- the same path the CLI uses for ingested tables.

import json
import os
import tempfile

from modpoly import (
    cli_main,
    emit_polynomial_json,
    emit_sutherland_text,
    j_coefficients,
    parse_sutherland,
    read_polynomial_json,
    solve_full_polynomial,
)

phi5 = solve_full_polynomial(5, j_coefficients(32))

# The text emitter writes the boundary entry first, then the stored
# triangle in a fixed order, so output is byte-for-byte reproducible.

text = emit_sutherland_text(phi5)
print("first four lines:")
for line in text.splitlines()[:4]:
    print(" ", line)

# Parsing recovers the level without being told: a boundary entry
# "[6,0] 1" puts it at 5.  A header comment ("# ell = 5") takes
# precedence when present; the file name plays no part.

parsed = parse_sutherland(text)
print("inferred level:", parsed.ell)
print("round trip intact:", parsed.to_polynomial() == phi5)

# Values in the JSON form are decimal strings on purpose: the constant
# term alone has 48 digits, far beyond what consumers of 64-bit JSON
# numbers can hold.

doc = json.loads(emit_polynomial_json(phi5))
print("JSON constant term:", doc["coefficients"][-1])
print("JSON round trip:   ", read_polynomial_json(emit_polynomial_json(phi5)) == phi5)

# Malformed input fails with the offending line number, duplicate and
# symmetry-conflicting entries included.

try:
    parse_sutherland("[1,0] 3\n[0,1] 4\n")
except ValueError as err:
    print("conflict detection:", err)

# Finally, the CLI ingestion path: write the table to disk, then ask the
# checker to verify the corner divisibility bounds against it.  Exit
# code 0 means every check passed.

with tempfile.NamedTemporaryFile("w", suffix="_phi5.txt", delete=False) as fh:
    fh.write(text)
    path = fh.name

code = cli_main(["check", "--ell", "5", "--file", path, "--set", "conj12", "--format", "text"])
print("checker exit code:", code)
os.unlink(path)
