"""Coefficient-file parsing, serialization round trips, and the CLI front end."""

import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import PHI2_KNOWN, PHI5_FACTORED
from hypothesis import given, settings, strategies as st

from modpoly import (
    ModularPolynomial,
    SutherlandParseError,
    check_row,
    cli_main,
    emit_polynomial_json,
    emit_sutherland_text,
    j_coefficients,
    load_sutherland,
    parse_sutherland,
    read_polynomial_json,
    recurrence_row,
    solve_full_polynomial,
)
from modpoly import io_cli

PHI5 = ModularPolynomial(5, dict(PHI5_FACTORED))
SRC = Path(__file__).resolve().parent.parent / "src"


# --- parsing ----------------------------------------------------------------


def test_parse_basic_lines():
    parsed = parse_sutherland("[2,2] -1\n[1,0] 42\n")
    assert parsed.ell == 2
    assert parsed.lines == ((2, 2, -1), (1, 0, 42))


def test_parse_tolerates_whitespace_comments_crlf():
    text = "# a comment\r\n\r\n  [ 2 , 2 ]   -1\r\n[1,0] +42  \r\n# trailing\r\n"
    parsed = parse_sutherland(text)
    assert parsed.lines == ((2, 2, -1), (1, 0, 42))


def test_parse_accepts_bytes_and_huge_values():
    big = PHI5_FACTORED[(0, 0)]
    data = ("[0,0] %d\n[5,5] -1\n" % big).encode()
    # a UTF-8 byte-order mark is dropped, in bytes and in str alike
    for text in (data, b"\xef\xbb\xbf" + data, "\ufeff" + data.decode()):
        parsed = parse_sutherland(text)
        assert parsed.lines == ((0, 0, big), (5, 5, -1))


def test_parse_malformed_line_reports_line_number():
    with pytest.raises(SutherlandParseError) as info:
        parse_sutherland("[2,2] -1\n[1,0]42\n")
    assert info.value.line_number == 2
    assert "line 2" in str(info.value)


def test_parse_rejects_duplicates():
    with pytest.raises(SutherlandParseError) as info:
        parse_sutherland("[1,0] 3\n[1,0] 3\n")
    assert "duplicate" in str(info.value)


def test_parse_rejects_symmetry_conflict():
    with pytest.raises(SutherlandParseError) as info:
        parse_sutherland("[1,0] 3\n[0,1] 4\n")
    assert "symmetry conflict" in str(info.value)


def test_parse_allows_consistent_mirror_entries():
    parsed = parse_sutherland("[1,0] 3\n[0,1] 3\n[2,2] -1\n")
    assert parsed.to_polynomial().get(0, 1) == 3


def test_parse_rejects_empty_input():
    with pytest.raises(SutherlandParseError):
        parse_sutherland("# only comments\n")


def test_level_inference_chain():
    body = "[3,0] 1\n[2,2] -1\n[1,0] 7\n"
    # a header comment wins, even over the boundary entry
    assert parse_sutherland("# ell = 3\n" + body).ell == 3
    assert parse_sutherland("# ell = 2\n" + body).ell == 2
    assert parse_sutherland("# Level: 2\n" + body).ell == 2
    # then the monic boundary entry [M,0] 1
    assert parse_sutherland(body).ell == 2
    # otherwise the largest m seen
    assert parse_sutherland("[2,2] -1\n[1,0] 7\n").ell == 2
    assert parse_sutherland("[5,5] -1\n").ell == 5


def test_parse_refuses_two_different_header_levels():
    body = "[3,0] 1\n[2,2] -1\n[1,0] 7\n"
    with pytest.raises(SutherlandParseError) as info:
        parse_sutherland("# ell = 2\n[2,2] -1\n# ell = 3\n[1,0] 7\n")
    assert info.value.line_number == 3
    assert "level 3" in str(info.value) and "gave 2" in str(info.value)
    # a repeated equal header is accepted, in any spelling
    assert parse_sutherland("# ell = 2\n# Level: 2\n" + body).ell == 2


def test_to_polynomial_drops_boundary_and_rejects_junk():
    parsed = parse_sutherland("[3,0] 1\n[2,2] -1\n")
    assert parsed.to_polynomial().get(2, 2) == -1
    bad = parse_sutherland("# ell = 2\n[3,1] 1\n[2,2] -1\n")
    with pytest.raises(SutherlandParseError):
        bad.to_polynomial()
    wrong_value = parse_sutherland("# ell = 2\n[3,0] 2\n[2,2] -1\n")
    with pytest.raises(SutherlandParseError):
        wrong_value.to_polynomial()


def test_load_sutherland_reads_file(tmp_path):
    path = tmp_path / "phi5.txt"
    path.write_text(emit_sutherland_text(PHI5))
    parsed = load_sutherland(str(path))
    assert parsed.ell == 5
    assert parsed.to_polynomial() == PHI5


# --- serialization round trips ------------------------------------------------


def test_sutherland_text_shape():
    text = emit_sutherland_text(PHI5)
    lines = text.splitlines()
    assert lines[0] == "[6,0] 1"
    assert lines[1] == "[5,5] -1"
    assert len(lines) == 22
    assert text.endswith("\n")


def test_sutherland_round_trip():
    assert parse_sutherland(emit_sutherland_text(PHI5)).to_polynomial() == PHI5


def test_json_round_trip():
    assert read_polynomial_json(emit_polynomial_json(PHI5)) == PHI5


@pytest.mark.parametrize("text, message", [
    ('{"ell": 5}', "polynomial JSON lacks a 'coefficients' list"),
    ("[]", "polynomial JSON lacks a 'coefficients' list"),
    ("null", "polynomial JSON lacks a 'coefficients' list"),
    ('{"ell": 5, "coefficients": [{"m": 1}]}', "polynomial JSON lacks an integer 'n' field"),
    ('{"coefficients": []}', "polynomial JSON lacks an integer 'ell' field"),
    ('{"ell": 5, "coefficients": [{"m": 5, "n": 5, "value": "x"}]}',
     "polynomial JSON lacks an integer 'value' field"),
    ('{"ell": 5.9, "coefficients": []}', "polynomial JSON lacks an integer 'ell' field"),
    ('{"ell": 5, "coefficients": [{"m": true, "n": 0, "value": "7"}]}',
     "polynomial JSON lacks an integer 'm' field"),
], ids=["no-coefficients", "list", "null", "no-n", "no-ell", "bad-value", "float", "bool"])
def test_read_polynomial_json_names_the_field_it_cannot_read(text, message):
    # KeyError and TypeError once escaped here, which callers and cli_main do not
    # catch, and a float or a boolean field was truncated to an int
    with pytest.raises(ValueError) as info:
        read_polynomial_json(text)
    assert str(info.value) == message


def test_json_document_shape():
    doc = json.loads(emit_polynomial_json(PHI5))
    assert doc["ell"] == 5
    assert doc["monic_degree"] == 6
    assert doc["coefficients"][0] == {"m": 5, "n": 5, "value": "-1"}
    assert all(isinstance(c["value"], str) for c in doc["coefficients"])


def small_polynomials():
    values = st.integers(-(10 ** 40), 10 ** 40)

    def build(ell, draw_map):
        entries = {(m, n): draw_map[(m, n)] for m in range(ell + 1) for n in range(m + 1)}
        entries[(ell, ell)] = -1
        return ModularPolynomial(ell, entries)

    def strategy(ell):
        keys = [(m, n) for m in range(ell + 1) for n in range(m + 1)]
        return st.fixed_dictionaries({k: values for k in keys}).map(
            lambda d: build(ell, d)
        )

    return st.sampled_from([2, 3, 5]).flatmap(strategy)


@settings(deadline=None, max_examples=25)
@given(poly=small_polynomials())
def test_round_trips_on_random_tables(poly):
    assert parse_sutherland(emit_sutherland_text(poly)).to_polynomial() == poly
    assert read_polynomial_json(emit_polynomial_json(poly)) == poly


# --- CLI ------------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_jcoeff_text(capsys):
    code, out, err = run_cli(capsys, "jcoeff", "--count", "3")
    assert code == 0 and err == ""
    assert out == "1\n744\n196884\n21493760\n"


def test_cli_jcoeff_json(capsys):
    code, out, _ = run_cli(capsys, "jcoeff", "--count", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"first_index": -1, "values": ["1", "744", "196884"]}


def test_cli_coeff_closed_at_large_m(capsys):
    # p(90) is about 5.7e7 partitions; the grouped closed form answers at once
    code, out, _ = run_cli(capsys, "coeff", "--ell", "97", "--m", "90")
    assert code == 0
    assert out == "%d\n" % recurrence_row(97, j_coefficients(90), 90)[90]


def test_cli_coeff_json(capsys):
    code, out, _ = run_cli(
        capsys, "coeff", "--ell", "5", "--m", "2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"ell": 5, "m": 2, "value": "-4550940"}


def test_cli_row_matches_table(capsys):
    code, out, _ = run_cli(capsys, "row", "--ell", "5")
    assert code == 0
    got = [int(line.split()[1]) for line in out.splitlines()]
    assert got == [PHI5_FACTORED[(5 - m, 5)] for m in range(6)]


def test_cli_row_m_max_matches_recurrence(capsys):
    code, out, _ = run_cli(capsys, "row", "--ell", "7", "--m-max", "3")
    assert code == 0
    expected = recurrence_row(7, j_coefficients(3), 3)
    assert out == "".join("%d %d\n" % (m, v) for m, v in enumerate(expected))


def test_cli_row_json(capsys):
    code, out, _ = run_cli(capsys, "row", "--ell", "5", "--m-max", "2", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "ell": 5,
        "values": [
            {"m": 0, "value": "-1"},
            {"m": 1, "value": "3720"},
            {"m": 2, "value": "-4550940"},
        ],
    }


def test_cli_poly_json_matches_solver(capsys):
    code, out, _ = run_cli(capsys, "poly", "--ell", "2")
    assert code == 0
    poly = read_polynomial_json(out)
    assert {(m, n): v for m, n, v in poly.items()} == PHI2_KNOWN


def test_cli_poly_refuses_levels_past_its_limit(capsys, monkeypatch):
    started = []

    def stop(*args):
        started.append(args)
        raise ValueError("stopped")

    monkeypatch.setattr(io_cli, "j_coefficients", stop)
    monkeypatch.setattr(io_cli, "solve_full_polynomial", stop)
    assert io_cli.POLY_FEASIBLE_MAX == 23
    for ell in (29, 97):
        assert run_cli(capsys, "poly", "--ell", str(ell)) == (
            2, "", "error: the full table for ell=%d is out of reach; "
            "poly is limited to ell <= 23\n" % ell,
        )
    assert started == []
    # ell=23 is let through: its j table is the first thing built
    assert run_cli(capsys, "poly", "--ell", "23") == (2, "", "error: stopped\n")
    assert started == [(23 * 23 + 23 + 2,)]


def test_cli_poly_text_round_trip(capsys):
    code, out, _ = run_cli(capsys, "poly", "--ell", "2", "--format", "text")
    assert code == 0
    assert parse_sutherland(out).to_polynomial() == solve_full_polynomial(
        2, j_coefficients(8)
    )


def test_cli_out_writes_file(tmp_path, capsys):
    target = tmp_path / "row.txt"
    code, out, _ = run_cli(
        capsys, "row", "--ell", "5", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text().splitlines()[1].endswith("3720")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ("jcoeff", "--count", "4"),
        ("coeff", "--ell", "7", "--m", "3"),
        ("row", "--ell", "5"),
        ("poly", "--ell", "3"),
    ],
)
def test_cli_out_holds_what_stdout_would(tmp_path, capsys, argv, fmt):
    code, expected, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    target = tmp_path / "out.dat"
    assert run_cli(capsys, *argv, "--format", fmt, "--out", str(target)) == (0, "", "")
    assert target.read_text() == expected


def test_cli_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "poly", "--ell", "3")
    _, second, _ = run_cli(capsys, "poly", "--ell", "3")
    assert first == second


def test_cli_calls_in_one_process_share_no_state(tmp_path, capsys, monkeypatch):
    # The parser is built once per process; each call's options and errors
    # must still stay with that call.
    run_cli(capsys, "poly", "--ell", "5", "--format", "text")
    code, out, _ = run_cli(capsys, "poly", "--ell", "5")
    assert code == 0 and json.loads(out)["ell"] == 5

    table = tmp_path / "phi5.txt"
    table.write_text(emit_sutherland_text(PHI5))
    expected = run_cli(capsys, "check", "--ell", "5")
    assert run_cli(capsys, "check", "--ell", "5", "--file", str(table))[0] == 0

    def no_file(path):
        raise AssertionError("check without --file read %s" % path)

    monkeypatch.setattr(io_cli, "load_sutherland", no_file)
    assert run_cli(capsys, "check", "--ell", "5") == expected

    code, _, err = run_cli(capsys, "coeff", "--ell", "5")
    assert code == 1 and err.startswith("error:")
    assert run_cli(capsys, "coeff", "--ell", "5", "--m", "1") == (0, "3720\n", "")


def test_cli_check_computed_row(capsys):
    code, out, _ = run_cli(capsys, "check", "--ell", "11")
    assert code == 0
    assert "result: OK" in out


def test_cli_check_json_format(capsys):
    code, out, _ = run_cli(capsys, "check", "--ell", "5", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ell"] == 5
    assert all(c["verdict"] == "pass" for c in doc["checks"])


@pytest.mark.parametrize("ell", [3, 5, 13, 97])
def test_cli_check_json_matches_recurrence_row(capsys, ell):
    code, out, _ = run_cli(capsys, "check", "--ell", str(ell), "--format", "json")
    assert code == 0
    expected = check_row(ell, recurrence_row(ell, j_coefficients(ell))[1:])
    assert json.loads(out) == expected.to_json_dict()


def test_cli_check_conj12_via_solver(capsys):
    code, out, _ = run_cli(capsys, "check", "--ell", "7", "--set", "conj12")
    assert code == 0
    assert "conj12" in out


def _count_solves(monkeypatch):
    calls = []

    def counted(ell, j):
        calls.append(ell)
        return solve_full_polynomial(ell, j)

    monkeypatch.setattr(io_cli, "solve_full_polynomial", counted)
    return calls


def test_cli_check_level_two_row_needs_no_solve(capsys, monkeypatch):
    calls = _count_solves(monkeypatch)
    code, out, _ = run_cli(capsys, "check", "--ell", "2", "--set", "prop23")
    assert (code, calls) == (0, [])
    assert out == (
        "prop23: 2 checked, 0 failed\n"
        "note: unclaimed_mod3_indivisible_by_3: 0 of 0\n"
        "result: OK\n"
    )


def test_cli_check_level_two_solves_once(capsys, monkeypatch):
    calls = _count_solves(monkeypatch)
    code, out, _ = run_cli(capsys, "check", "--ell", "2", "--set", "prop23,conj12")
    assert (code, calls) == (0, [2])
    assert out == (
        "conj12: 8 checked, 0 failed\n"
        "prop23: 2 checked, 0 failed\n"
        "note: unclaimed_mod3_indivisible_by_3: 0 of 0\n"
        "result: OK\n"
    )


def test_cli_builds_at_most_one_j_table(tmp_path, capsys, monkeypatch):
    counts = []

    def counted(count):
        counts.append(count)
        return j_coefficients(count)

    monkeypatch.setattr(io_cli, "j_coefficients", counted)
    path = tmp_path / "phi5.txt"
    path.write_text(emit_sutherland_text(PHI5))
    cases = [
        (("coeff", "--ell", "97", "--m", "90"), []),
        (("row", "--ell", "5"), []),
        (("check", "--ell", "5"), []),
        (("check", "--ell", "5", "--set", "prop23,conj12"), [32]),
        (("check", "--ell", "5", "--file", str(path), "--set", "prop23,conj12"), []),
        (("crosscheck", "--ell", "5", "--m-max", "3"), [32]),
        (("crosscheck", "--ell", "17", "--m-max", "3"), [3]),
    ]
    for argv, expected in cases:
        counts.clear()
        assert run_cli(capsys, *argv)[0] == 0, argv
        assert counts == expected, argv


@pytest.mark.parametrize(
    "argv",
    [
        ("--ell", "2", "--set", "prop22"),
        ("--ell", "5", "--set", "conj25"),
        ("--ell", "3", "--format", "json", "--set", "conj25"),
        ("--ell", "2", "--set", "prop22,conj25"),
    ],
)
def test_cli_check_vacuous_set_is_refused(capsys, tmp_path, argv):
    target = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "check", *argv, "--out", str(target))
    ell, names = argv[1], argv[-1]
    assert (code, out) == (1, "")
    assert err == "error: no coefficient at ell=%s falls under %s\n" % (ell, names)
    assert not target.exists()


def test_cli_check_partly_vacuous_set_notes_the_idle_check(capsys):
    code, out, err = run_cli(capsys, "check", "--ell", "5", "--set", "conj25,prop22")
    assert code == 0
    assert out == (
        "prop22: 5 checked, 0 failed\n"
        "note: unclaimed_mod8_indivisible_by_2: 0 of 0\n"
        "result: OK\n"
    )
    assert err == "note: conj25 covers no coefficient at ell=5\n"


def test_cli_check_conj12_infeasible_without_file(capsys):
    code, _, err = run_cli(capsys, "check", "--ell", "17", "--set", "conj12")
    assert code == 2
    assert "--file" in err


def test_cli_check_file_pass(tmp_path, capsys):
    path = tmp_path / "phi5.txt"
    path.write_text(emit_sutherland_text(PHI5))
    code, out, _ = run_cli(
        capsys, "check", "--ell", "5", "--file", str(path), "--set",
        "prop22,prop23,conj25,conj12",
    )
    assert code == 0
    assert "result: OK" in out


def test_cli_check_file_with_a_byte_order_mark(tmp_path, capsys):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(emit_sutherland_text(PHI5))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    got = run_cli(capsys, "check", "--ell", "5", "--file", str(marked))
    assert got == run_cli(capsys, "check", "--ell", "5", "--file", str(plain))
    assert got[0] == 0 and "result: OK" in got[1]


def test_cli_check_file_level_mismatch(tmp_path, capsys):
    path = tmp_path / "phi5.txt"
    path.write_text(emit_sutherland_text(PHI5))
    code, _, err = run_cli(capsys, "check", "--ell", "7", "--file", str(path))
    assert code == 2
    assert "level" in err


@pytest.mark.parametrize("headers", [("5", "7"), ("7", "5")])
def test_cli_check_file_refuses_conflicting_headers(tmp_path, capsys, headers):
    # the first header alone once decided the level, so 5 then 7 passed as level 5
    path = tmp_path / "phi5.txt"
    path.write_text("# ell = %s\n# ell = %s\n" % headers + emit_sutherland_text(PHI5))
    code, out, err = run_cli(capsys, "check", "--ell", "5", "--file", str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 2: header gives level %s but an earlier one gave %s\n" % headers[::-1]


def test_cli_check_file_accepts_a_repeated_equal_header(tmp_path, capsys):
    plain, headed = tmp_path / "plain.txt", tmp_path / "headed.txt"
    plain.write_text(emit_sutherland_text(PHI5))
    headed.write_text("# ell = 5\n# ell = 5\n" + emit_sutherland_text(PHI5))
    got = run_cli(capsys, "check", "--ell", "5", "--file", str(headed))
    assert got == run_cli(capsys, "check", "--ell", "5", "--file", str(plain))
    assert got[0] == 0 and "result: OK" in got[1]


def test_cli_check_file_level_ignores_digits_in_the_file_name(tmp_path, capsys):
    path = tmp_path / "phi7_2024.txt"
    path.write_text(emit_sutherland_text(solve_full_polynomial(7, j_coefficients(58))))
    code, out, err = run_cli(capsys, "check", "--ell", "7", "--file", str(path))
    assert (code, err) == (0, "")
    assert "result: OK" in out


def test_cli_check_fatal_exit_code(tmp_path, capsys, monkeypatch):
    entries = dict(PHI5_FACTORED)
    entries[(4, 5)] = 7  # m=1 coefficient loses its proved 2- and 3-divisibility
    altered = ModularPolynomial(5, entries)
    path = tmp_path / "phi5.txt"
    path.write_text(emit_sutherland_text(altered))
    # A table whose top row is not Phi_5's is refused before any valuation.
    assert run_cli(capsys, "check", "--ell", "5", "--file", str(path)) == (
        2, "", "error: the file is not Phi_5: its top row first differs at m=1, "
        "where a_{5,4} is 7, not %d\n" % PHI5_FACTORED[(4, 5)],
    )
    # A real Phi_5 holds the proved bounds, so exit 3 is reached only through
    # a row source that agrees with the altered file.  3720 + 5 keeps
    # Kronecker's congruence (0 mod 5) but is odd, so prop22 fails.
    entries[(4, 5)] = 3720 + 5
    altered = ModularPolynomial(5, entries)
    path.write_text(emit_sutherland_text(altered))
    monkeypatch.setattr(io_cli, "hypergeometric_row", lambda ell: altered.top_row())
    code, out, _ = run_cli(capsys, "check", "--ell", "5", "--file", str(path))
    assert code == 3
    assert "result: FATAL" in out
    assert "FAIL prop22" in out


def test_cli_check_counterexample_exit_code(tmp_path, capsys):
    entries = dict(PHI5_FACTORED)
    # corner bound ord_2 >= 90 now fails, row checks untouched; 5 is 0 mod 5,
    # so the table still passes Kronecker's congruence
    entries[(0, 0)] = 5
    path = tmp_path / "phi5.txt"
    path.write_text(emit_sutherland_text(ModularPolynomial(5, entries)))
    code, out, _ = run_cli(
        capsys, "check", "--ell", "5", "--file", str(path), "--set", "conj12"
    )
    assert code == 4
    assert "result: COUNTEREXAMPLE" in out


def test_cli_check_out_keeps_text_summary(tmp_path, capsys):
    # --out gets the JSON report and stdout the text one, in either format
    _, text_report, _ = run_cli(capsys, "check", "--ell", "5")
    _, json_report, _ = run_cli(capsys, "check", "--ell", "5", "--format", "json")
    assert "result: OK" in text_report
    assert json.loads(json_report)["ell"] == 5
    for fmt in ("text", "json"):
        target = tmp_path / ("report_%s.json" % fmt)
        code, out, _ = run_cli(
            capsys, "check", "--ell", "5", "--format", fmt, "--out", str(target)
        )
        assert (code, out) == (0, text_report)
        assert target.read_text() == json_report


def test_cli_check_builds_only_the_report_it_writes(tmp_path, capsys, monkeypatch):
    built = []
    to_text, to_json_text = io_cli.CongruenceReport.to_text, io_cli.CongruenceReport.to_json_text
    monkeypatch.setattr(io_cli.CongruenceReport, "to_text",
                        lambda r: built.append("text") or to_text(r))
    monkeypatch.setattr(io_cli.CongruenceReport, "to_json_text",
                        lambda r: built.append("json") or to_json_text(r))
    # the JSON is written from the records: no dict is built on the way
    monkeypatch.setattr(io_cli.CongruenceReport, "to_json_dict", lambda r: built.append("dict"))
    target = str(tmp_path / "report.json")
    for argv, expected in [
        ((), ["text"]),
        (("--format", "json"), ["json"]),
        (("--out", target), ["json", "text"]),
        (("--format", "json", "--out", target), ["json", "text"]),
    ]:
        built.clear()
        assert run_cli(capsys, "check", "--ell", "5", *argv)[0] == 0, argv
        assert built == expected, argv


def test_cli_check_file_reads_pairs_in_either_order(tmp_path, capsys):
    # ModularPolynomial reads [m,n] and [n,m] as one pair; so must the boundary
    # entry and the absent-pair count, which once read [0,8] 1 as an index
    # outside the table and counted the boundary as a pair
    text = emit_sutherland_text(solve_full_polynomial(7, j_coefficients(58)))
    mirrored = re.sub(r"^\[(\d+),(\d+)\]", r"[\2,\1]", text, flags=re.M).splitlines()
    assert mirrored[0] == "[0,8] 1"
    argv = ("check", "--ell", "7", "--set", "prop22,prop23,conj25,conj12", "--file")
    plain, path = tmp_path / "phi7.txt", tmp_path / "phi7_mirrored.txt"
    plain.write_text(text)
    path.write_text("\n".join(mirrored) + "\n")
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, err) == (0, "")
    assert out == run_cli(capsys, *argv, str(plain))[1]
    path.write_text("\n".join(["[0,8] 2"] + mirrored[1:]) + "\n")
    assert run_cli(capsys, *argv, str(path)) == (
        2, "", "error: unexpected boundary entry [0,8] 2 for level 7\n")
    # [1,3], [2,5] and [6,6] lie off the top row and are not a_{1,1}, so both
    # screens pass with them read as 0
    kept = [line for line in mirrored if line.split()[0] not in ("[1,3]", "[2,5]", "[6,6]")]
    assert len(kept) == len(mirrored) - 3
    path.write_text("\n".join(kept) + "\n")
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, err) == (0, "note: 3 of 36 coefficient pairs are absent from the file "
                              "and read as 0\n")
    assert out.endswith("result: OK\n")


def test_cli_check_file_notes_absent_pairs(tmp_path, capsys):
    text = emit_sutherland_text(solve_full_polynomial(7, j_coefficients(58)))
    full = tmp_path / "phi7.txt"
    full.write_text(text)
    argv = ("check", "--ell", "7", "--set", "prop22,prop23,conj25,conj12", "--file")
    code, full_out, err = run_cli(capsys, *argv, str(full))
    assert (code, err) == (0, "")
    assert full_out.endswith("result: OK\n")
    # The first 20 lines hold the boundary entry and 19 of the 36 pairs.  The
    # 17 absent pairs read as 0, which passes every bound, but a_{1,1} = 0 is
    # not -1 mod 7, so Kronecker's congruence refuses the table after the note.
    truncated = tmp_path / "phi7_head.txt"
    truncated.write_text("\n".join(text.splitlines()[:20]) + "\n")
    assert run_cli(capsys, *argv, str(truncated)) == (
        2,
        "",
        "note: 17 of 36 coefficient pairs are absent from the file and read as 0\n"
        "error: the file is not Phi_7: a_{1,1} is 0 mod 7, but Kronecker's "
        "congruence requires 6\n",
    )


@pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13])
def test_cli_check_file_solver_tables_pass_kronecker(tmp_path, capsys, ell):
    path = tmp_path / "phi.txt"
    poly = solve_full_polynomial(ell, j_coefficients(ell * ell + ell + 2))
    path.write_text(emit_sutherland_text(poly))
    code, out, err = run_cli(capsys, "check", "--ell", str(ell), "--file", str(path),
                             "--set", "prop23,conj12")
    assert (code, err) == (0, "")
    assert out.endswith("result: OK\n")


@pytest.mark.parametrize("change", [2**40 * 3**20, 2**60 * 3**40 * 5**12])
def test_cli_check_file_refuses_kronecker_violation(tmp_path, capsys, change):
    # Off the top row, so the row comparison passes; without the congruence
    # the first change read as a counterexample to conj12 (exit 4) and the
    # second passed every bound (exit 0).
    entries = {(m, n): v for m, n, v in solve_full_polynomial(7, j_coefficients(58)).items()}
    entries[(3, 1)] += change
    path = tmp_path / "phi7.txt"
    path.write_text(emit_sutherland_text(ModularPolynomial(7, entries)))
    assert run_cli(capsys, "check", "--ell", "7", "--set", "prop22,prop23,conj25,conj12",
                   "--file", str(path)) == (
        2, "", "error: the file is not Phi_7: a_{3,1} is %d mod 7, but Kronecker's "
        "congruence requires 0\n" % (change % 7),
    )


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a change by a multiple of 7 off the top row passes both screens, so the "
    "table reads as a counterexample to conj12 (exit 4); ROADMAP item 1 "
    "verifies the whole table before judging it"))
def test_cli_check_file_refuses_a_multiple_of_ell_off_the_top_row(tmp_path, capsys):
    code, text, _ = run_cli(capsys, "poly", "--ell", "7", "--format", "text")
    assert code == 0
    change = 7 * 2**40 * 3**20
    lines = text.splitlines()
    (row,) = [i for i, line in enumerate(lines) if line.startswith("[3,1] ")]
    lines[row] = "[3,1] %d" % (int(lines[row].split()[1]) + change)
    path = tmp_path / "phi7.txt"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(capsys, "check", "--ell", "7", "--set", "prop22,prop23,conj25,conj12",
                           "--file", str(path))
    assert code == 2, out

def test_cli_crosscheck(capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "--ell", "5")
    assert code == 0
    assert "crosscheck: OK" in out
    assert "closed,recurrence,solver" in out


def test_cli_row_and_coeff_level_two(capsys):
    assert run_cli(capsys, "row", "--ell", "2") == (0, "0 -1\n1 1488\n2 -162000\n", "")
    assert run_cli(capsys, "coeff", "--ell", "2", "--m", "1") == (0, "1488\n", "")


def test_cli_crosscheck_level_two(capsys):
    code, out, _ = run_cli(capsys, "crosscheck", "--ell", "2")
    assert (code, out) == (0, "crosscheck: OK (ell=2, m <= 2, methods: closed,recurrence,solver)\n")


@pytest.mark.parametrize("m_max", ["1", "5"])
def test_cli_crosscheck_beyond_solver_range(capsys, m_max):
    code, out, _ = run_cli(capsys, "crosscheck", "--ell", "17", "--m-max", m_max)
    assert code == 0
    assert "solver" not in out


def test_cli_crosscheck_runs_partition_sum_up_to_its_bound(capsys, monkeypatch):
    real = io_cli.partition_row
    seen = []

    def off_by_one_at_4(ell, j, m_max):
        seen.append(m_max)
        row = real(ell, j, m_max)
        row[4] += 1
        return row

    monkeypatch.setattr(io_cli, "partition_row", off_by_one_at_4)
    code, out, _ = run_cli(capsys, "crosscheck", "--ell", "23")
    assert code == 3
    assert seen == [io_cli.PARTITION_CHECK_MAX]
    (line,) = [l for l in out.splitlines() if l.startswith("MISMATCH at")]
    good = real(23, j_coefficients(4), 4)[4]
    assert line == (
        "MISMATCH at m=4: closed=%d, hypergeometric=%d, partition=%d, recurrence=%d"
        % (good, good, good + 1, good)
    )
    assert "crosscheck: MISMATCH (1 of 24 rows)" in out


def test_cli_crosscheck_refuses_m_max_zero(capsys):
    # every route returns a_{ell,ell} = -1 by construction, so m <= 0 checks nothing
    assert run_cli(capsys, "crosscheck", "--ell", "5", "--m-max", "0") == (
        1, "", "error: --m-max 0 compares only a_{ell,ell} = -1, which every route returns\n")
    assert run_cli(capsys, "crosscheck", "--ell", "5", "--m-max", "1") == (
        0, "crosscheck: OK (ell=5, m <= 1, methods: closed,recurrence,solver)\n", "")


def test_cli_crosscheck_compares_the_hypergeometric_row_on_every_m(capsys, monkeypatch):
    real = io_cli.hypergeometric_row

    def off_by_one_at_the_end(ell, m_max):
        row = real(ell, m_max)
        return row[:-1] + [row[-1] + 1]

    monkeypatch.setattr(io_cli, "hypergeometric_row", off_by_one_at_the_end)
    code, out, _ = run_cli(capsys, "crosscheck", "--ell", "23")
    good = real(23)[23]
    assert (code, out) == (3, (
        "MISMATCH at m=23: closed=%d, hypergeometric=%d, recurrence=%d\n"
        "crosscheck: MISMATCH (1 of 24 rows)\n" % (good, good + 1, good)
    ))


def test_cli_usage_errors(capsys):
    cases = [
        (),                                        # no command
        ("coeff", "--ell", "6", "--m", "1"),       # composite level
        ("coeff", "--ell", "5"),                   # missing required flag
        ("coeff", "--ell", "abc", "--m", "1"),     # unparsable int
        ("row", "--ell", "5", "--m-max", "9"),     # m out of range
        ("coeff", "--ell", "5", "--m", "1", "--method", "small"),  # option removed
        ("row", "--ell", "5", "--method", "recurrence"),           # option removed
        ("poly", "--ell", "5", "--precision", "20"),               # option removed
        ("jcoeff", "--count", "0"),                # nonpositive count
        ("check", "--ell", "5", "--set", "bogus"),
        ("check", "--ell", "5", "--set", ","),    # empty check set
        ("poly", "--ell", "6"),                    # composite level
        ("check", "--ell", "6"),
        ("crosscheck", "--ell", "5", "--format", "json"),  # crosscheck has no output options
        ("crosscheck", "--ell", "5", "--out", "cc.txt"),
        ("nonsense",),                             # unknown command
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error:"), argv
    code, _, err = run_cli(capsys, "coeff", "--ell", "5", "--m", "9")
    assert code == 1 and err.startswith("error: --m must lie in [0, 5]")


def test_run_config_validation(capsys):
    # The run settings are checked once, in the CLI: a prime level with the
    # default check set runs; each bad setting is refused with its own message.
    code, out, err = run_cli(capsys, "check", "--ell", "7")
    assert code == 0 and err == ""
    assert out.endswith("result: OK\n") and "prop22: 7 checked" in out
    cases = [
        (("poly", "--ell", "6"), "error: poly needs --ell a prime >= 2, got 6\n"),
        (("check", "--ell", "6"), "error: check needs --ell a prime >= 2, got 6\n"),
        (("row", "--ell", "5", "--m-max", "9"), "error: --m-max must lie in [0, 5], got 9\n"),
        (
            ("check", "--ell", "5", "--set", "prop22,bogus"),
            "error: unknown checks: bogus (choose from prop22,prop23,conj25,conj12)\n",
        ),
        (
            ("check", "--ell", "5", "--set", ","),
            "error: --set names no checks (choose from prop22,prop23,conj25,conj12)\n",
        ),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", message), argv


def test_cli_computation_errors(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "check", "--ell", "5", "--file", str(tmp_path / "missing.txt")
    )
    assert code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("[1,0]\n")
    code, _, err = run_cli(capsys, "check", "--ell", "5", "--file", str(bad))
    assert code == 2 and "line 1" in err


def test_python_m_modpoly_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "modpoly", "coeff", "--ell", "5", "--m", "1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "3720\n", "")


def test_import_loads_no_dataclass_or_fraction_machinery():
    # dataclasses pulls in inspect, ast, dis and tokenize; fractions pulls in
    # decimal: none of them is needed to import the package, nor to run
    # coeff_small_m's expanded forms, two of which have a denominator
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys; before = set(sys.modules); import modpoly; "
             "j = modpoly.j_coefficients(8); "
             "[modpoly.coeff_small_m(modpoly.CoeffRequest(11, m), j) for m in range(4, 8)]; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert "modpoly.congruence" in loaded
    assert not loaded & {"dataclasses", "inspect", "fractions", "decimal"}


def test_cli_entry_point_raises_system_exit():
    from modpoly.io_cli import main

    with pytest.raises(SystemExit) as info:
        main()
    assert info.value.code == 1


def test_every_public_name_resolves():
    import modpoly

    missing = [name for name in modpoly.__all__ if not hasattr(modpoly, name)]
    assert missing == []


def test_each_module_states_its_public_names_once():
    # The package's export list is the union of its modules' __all__ lists,
    # so each name is declared once, in the module that defines it.
    import modpoly

    layers = [name for _, name, _ in pkgutil.iter_modules(modpoly.__path__) if name != "__main__"]
    joined = []
    for layer in layers:
        module = importlib.import_module("modpoly." + layer)
        assert isinstance(getattr(module, "__all__", None), list), layer
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, (layer, name)
            assert getattr(modpoly, name) is obj, (layer, name)
        joined += module.__all__
    assert sorted(modpoly.__all__) == sorted(joined + ["__version__"])
    assert len(set(modpoly.__all__)) == len(modpoly.__all__)
