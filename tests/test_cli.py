import argparse
import contextlib
import csv
import decimal
import functools
import io
import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vertalign.cli as cli
from _faults import fail_morphism, fault_lucas_row, forbid, lose_last_range
from _reference import (
    TABLE_ROWS_EXPECTED,
    binomial_falling,
    built_target,
    folded_equation,
    lifted,
    lucas_coeff_alt,
    reference_columns,
    reference_csv,
    ring_power,
    root_power,
    scaled,
    zeta_power,
)
from output_digest import help_and_usage, load_workloads
from vertalign import curves, lockwood, quotient_ring
from vertalign.alignment import SweepSummary, identity_sum, identity_sweep, map_row_ranges
from vertalign.quotient_ring import QuotientRingElement, from_rational

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = [
    (["identity", "11", "3"], "identity_11_3.txt"),
    (["triangle", "12"], "triangle_12.txt"),
    (["aligned", "12", "6"], "aligned_12_6.txt"),
    (["table", "5", "11"], "table_5_11.txt"),
    (["verify-morphism", "6", "1", "0"], "verify_morphism_6_1_0.txt"),
    (["lucas-row", "11"], "lucas_row_11.txt"),
    (["sweep", "12"], "sweep_12.txt"),
    (["curve", "7", "3", "1"], "curve_7_3_1.txt"),
    (["--format", "csv", "identity", "12", "6"], "identity_12_6.csv"),
]


@pytest.mark.parametrize("argv, filename", GOLDEN_CASES)
def test_golden_output(argv, filename, capsys):
    assert cli.main(argv) == 0
    captured = capsys.readouterr().out
    assert captured == (GOLDEN / filename).read_text()


def test_help_and_usage_errors(monkeypatch):
    # -h, each <command> -h and the usage errors of tests/output_digest.py.
    monkeypatch.setenv("COLUMNS", "80")
    assert help_and_usage(cli.main) == (GOLDEN / "help.txt").read_text()


def test_output_is_deterministic(capsys):
    cli.main(["identity", "12", "6"])
    first = capsys.readouterr().out
    cli.main(["identity", "12", "6"])
    second = capsys.readouterr().out
    assert first == second


# The mathematics never fails, so these fabricate failing results to pin down
# the exit-code contract and the failure output.
def _fail_identity(monkeypatch):
    bad = ((1, 4),), 4
    monkeypatch.setattr(cli, "identity_sum", lambda n, i: bad)


def _fail_sweep(monkeypatch):
    bad = SweepSummary(pairs_checked=10, failures=((3, 1, 7),))
    monkeypatch.setattr(cli, "identity_sweep", lambda n_max, workers: bad)


def _fail_lockwood(monkeypatch):
    def fails_at_2(n_start, n_end):
        return range(n_start, n_end + 1), [2] if n_start <= 2 <= n_end else []

    monkeypatch.setattr(cli, "_verify_range", fails_at_2)


# T(9, 2) + 1 leaves w^2 x^5 (x^2 + w)^5 in the residual: x^5, x^7, ..., x^15.
_MORPHISM_ARGV = ["verify-morphism", "--", "9", "-7/11", "1"]


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        assert cli.main(["identity", "11", "3"]) == 0
        capsys.readouterr()

    def test_domain_error_is_usage(self, capsys):
        assert cli.main(["identity", "11", "0"]) == 2
        err = capsys.readouterr().err
        assert "0 < i < n" in err

    def test_identity_out_of_range_high(self, capsys):
        assert cli.main(["identity", "11", "11"]) == 2
        capsys.readouterr()

    def test_negative_triangle_is_usage(self, capsys):
        assert cli.main(["triangle", "-3"]) == 2
        capsys.readouterr()

    def test_zero_c_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["curve", "5", "0", "0"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_malformed_rational_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["curve", "5", "one/two", "0"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["curve", "--", "1", "--", "0"],
            ["verify-morphism", "--", "3", "--", "1"],
            ["aligned", "--", "4", "--"],
        ],
    )
    def test_second_double_dash_is_usage(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert "expected a value, got '--'" in capsys.readouterr().err

    def test_missing_subcommand_is_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_verification_failure_is_one(self, capsys, monkeypatch):
        _fail_identity(monkeypatch)
        assert cli.main(["identity", "4", "1"]) == 1
        out = capsys.readouterr().out
        assert "holds: no" in out

    def test_sweep_failure_is_one(self, capsys, monkeypatch):
        _fail_sweep(monkeypatch)
        assert cli.main(["sweep", "5"]) == 1
        out = capsys.readouterr().out
        assert "FAIL n=3 i=1 total=7" in out

    def test_lockwood_failure_is_one(self, capsys, monkeypatch):
        _fail_lockwood(monkeypatch)
        assert cli.main(["lockwood", "3"]) == 1
        out = capsys.readouterr().out
        assert "fails for n in [2]" in out
        assert "residual for n=2:" in out

    def test_lockwood_lost_range_is_one(self, capsys, monkeypatch):
        # At one worker the only range is lost: nothing was checked, so the
        # run may not claim that all 40 hold, in any format.
        lose_last_range(monkeypatch)
        assert cli.main(["lockwood", "40", "--workers", "1"]) == 1
        out = capsys.readouterr().out
        assert "all 40 hold" not in out
        assert "only 0 of 40 checked" in out
        assert cli.main(["--format", "json", "lockwood", "40", "--workers", "1"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert (payload["checked"], payload["all_hold"]) == (0, False)
        assert cli.main(["--format", "csv", "lockwood", "40", "--workers", "1"]) == 1
        assert capsys.readouterr().out == "n,holds\n"

    def test_lockwood_csv_writes_only_the_checked_n(self, capsys, monkeypatch):
        # With two workers the rows fall into several ranges; the last is
        # lost, so its n are missing from the CSV, not written as holding.
        lose_last_range(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert cli.main(["--format", "csv", "lockwood", "40", "--workers", "2"]) == 1
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert header == ["n", "holds"]
        assert 0 < len(rows) < 40
        assert rows == [[str(n), "True"] for n in range(1, len(rows) + 1)]

    def test_sweep_lost_range_is_one(self, capsys, monkeypatch):
        # At one worker the only range is lost: no pair was checked, so the
        # run fails in every format, with no failure to report.
        lose_last_range(monkeypatch)
        assert cli.main(["sweep", "40", "--workers", "1"]) == 1
        assert capsys.readouterr().out == (
            "checked 0 pairs with 2 <= n <= 40, 0 < i < n\n"
            "failures: none\n"
            "only 0 of 780 pairs checked\n"
        )
        assert cli.main(["--format", "json", "sweep", "40", "--workers", "1"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"n_max": 40, "pairs_checked": 0, "failures": []}
        assert cli.main(["--format", "csv", "sweep", "40", "--workers", "1"]) == 1
        assert capsys.readouterr().out == "n,i,total\n"

    def test_morphism_failure_is_one(self, capsys, monkeypatch):
        fail_morphism(monkeypatch)
        assert cli.main(_MORPHISM_ARGV) == 1
        out = capsys.readouterr().out
        assert "holds: no" in out
        assert "residual: 0" not in out
        assert cli.main(["--format", "json", *_MORPHISM_ARGV]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is False and payload["residual"] != "0"
        assert cli.main(["--format", "csv", *_MORPHISM_ARGV]) == 1
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert header == ["x_exp", "pullback", "source", "residual"]
        assert [int(row[0]) for row in rows if row[3] != "0"] == [15, 13, 11, 9, 7, 5]

    def test_morphism_negative_weights_print_their_residual(self, capsys, monkeypatch):
        # T(9, 1) + 1 leaves -w x^3 (x^2 + w)^7 in the pullback: the weights
        # -C(7, b - 1) at x^(19 - 2b), b = 1..8, all negative, so the integer
        # stage unpacks its total through the carry of negative digits.  The
        # residual is rebuilt from repeated ring products by w = zeta u.
        fault_lucas_row(monkeypatch, curves, (9, 1, 1))
        spec = cli.make_ring(9, Fraction(-7, 11))
        w = zeta_power(spec, 1) * root_power(spec, 1)
        residual = curves.RingPolynomial(spec, {
            19 - 2 * b: scaled(ring_power(w, b), -math.comb(7, b - 1)) for b in range(1, 9)
        })
        assert cli.main(_MORPHISM_ARGV) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [f"residual: {residual.to_text()}", "holds: no"]


class TestJsonOutputs:
    def test_identity_round_trips(self, capsys):
        assert cli.main(["--format", "json", "identity", "12", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        terms, total = identity_sum(12, 6)
        assert payload == {
            "n": 12,
            "i": 6,
            "terms": [
                {"k": k, "signed_coefficient": coeff, "binomial_value": value, "product": coeff * value}
                for k, (coeff, value) in enumerate(terms)
            ],
            "total": total,
            "holds": total == 0,
        }

    def test_format_flag_after_subcommand(self, capsys):
        assert cli.main(["identity", "12", "6", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 0

    def test_triangle_rows(self, capsys):
        cli.main(["--format", "json", "triangle", "4"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][-1] == [1, 4, 6, 4, 1]

    def test_sweep(self, capsys):
        cli.main(["--format", "json", "sweep", "12"])
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"n_max": 12, "pairs_checked": 66, "failures": []}

    def test_lockwood(self, capsys):
        cli.main(["--format", "json", "lockwood", "8"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_hold"] and payload["checked"] == 8

    def test_curve_and_morphism(self, capsys):
        cli.main(["--format", "json", "verify-morphism", "5", "1", "0"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is True
        assert (payload["g"], payload["c"], payload["i"]) == (5, "1", 0)
        assert payload["target"] == "y^2 = x^5 - 5*x^3 + 5*x"
        assert payload["residual"] == "0"
        assert payload["x_map_nonconstant"] is True
        cli.main(["--format", "json", "curve", "6", "1", "0"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["equation"] == "y^2 = x^6 - 6*x^4 + 9*x^2 - 2"
        assert payload["coefficients"][0] == {"x_exp": 6, "element": "1"}

    def test_table_structure(self, capsys):
        cli.main(["--format", "json", "table", "5", "5"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["coefficients"][1] == {
            "k": 1,
            "sign": -1,
            "magnitude": 5,
            "zeta_exp": 1,
            "x_exp": 3,
        }


def _records_and_csv(argv, capsys) -> tuple[dict, list[str], list[list[str]]]:
    """The ``--format json`` payload of argv, and the header and rows of its CSV."""
    assert cli.main(["--format", "json", *argv]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert cli.main(["--format", "csv", *argv]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    return payload, header, rows


def _assert_records_match_csv(records: list[dict], header: list[str], rows: list[list[str]]):
    """Record j has the CSV header's keys, in order, and the values of CSV row j."""
    assert len(records) == len(rows)
    for record, row in zip(records, rows):
        assert list(record) == header
        assert [str(value) for value in record.values()] == row


def _target_coefficient_text(g: int, exp: int) -> str:
    """The coefficient of x^exp in C_0 over R(g, c): (-1)^k T(g, k) u^k at exp = g - 2k."""
    k, odd = divmod(g - exp, 2)
    if odd:
        return "0"
    if k == 0:
        return "1"
    power = "u" if k == 1 else f"u^{k}"
    return f"{'-' if k % 2 else ''}{lucas_coeff_alt(g, k)}*{power}"


class TestRecordsAgainstReferences:
    """JSON records and CSV rows of the tabular commands, against values the
    library does not compute: ``math.comb``, the sum form of T and the
    tabulated curves of criterion 06."""

    @pytest.mark.parametrize("n, i", [(12, 6), (11, 3), (9, 0), (7, 7), (20, 13), (1, 1)])
    def test_aligned(self, n, i, capsys):
        payload, header, rows = _records_and_csv(["aligned", str(n), str(i)], capsys)
        assert header == ["k", "row", "index", "value"]
        assert list(payload) == ["n", "i", "entries"]
        assert payload == {
            "n": n,
            "i": i,
            "entries": [
                {"k": k, "row": n - 2 * k, "index": i - k, "value": math.comb(n - 2 * k, i - k)}
                for k in range(min(i, n // 2) + 1)
            ],
        }
        _assert_records_match_csv(payload["entries"], header, rows)

    @pytest.mark.parametrize("n, i", [(11, 3), (12, 6), (2, 1), (20, 19), (40, 33)])
    def test_identity(self, n, i, capsys):
        payload, header, rows = _records_and_csv(["identity", str(n), str(i)], capsys)
        assert header == ["k", "signed_coefficient", "binomial_value", "product"]
        assert list(payload) == ["n", "i", "terms", "total", "holds"]
        terms = []
        for k in range(i + 1):
            coeff = (-1) ** k * lucas_coeff_alt(n, k)
            m = n - 2 * k
            value = math.comb(m, i - k) if m >= 0 else binomial_falling(m, i - k)
            terms.append({
                "k": k, "signed_coefficient": coeff, "binomial_value": value, "product": coeff * value
            })
        assert payload == {"n": n, "i": i, "terms": terms, "total": 0, "holds": True}
        _assert_records_match_csv(payload["terms"], header, rows)

    @pytest.mark.parametrize("g", [1, 2, 5, 6, 9])
    @pytest.mark.parametrize("c", ["1", "2", "-7/11"])
    def test_curve(self, g, c, capsys):
        payload, header, rows = _records_and_csv(["curve", "--", str(g), c, "0"], capsys)
        assert header == ["x_exp", "element"]
        assert list(payload) == ["g", "c", "i", "equation", "coefficients"]
        assert (payload["g"], payload["c"], payload["i"]) == (g, c, 0)
        assert payload["coefficients"] == [
            {"x_exp": exp, "element": _target_coefficient_text(g, exp)}
            for exp in range(g, -1, -1)
        ]
        _assert_records_match_csv(payload["coefficients"], header, rows)

    @pytest.mark.parametrize("g_min, g_max", [(1, 1), (1, 4), (5, 11)])
    def test_table(self, g_min, g_max, capsys):
        payload, header, rows = _records_and_csv(["table", str(g_min), str(g_max)], capsys)
        assert header == ["g", "k", "sign", "magnitude", "zeta_exp", "x_exp"]
        assert list(payload) == ["rows"]
        assert [row["g"] for row in payload["rows"]] == list(range(g_min, g_max + 1))
        records = []
        for row in payload["rows"]:
            g = row["g"]
            assert list(row) == ["g", "coefficients"]
            assert row["coefficients"] == [
                {"k": k, "sign": (-1) ** k, "magnitude": lucas_coeff_alt(g, k), "zeta_exp": k,
                 "x_exp": g - 2 * k}
                for k in range(g // 2 + 1)
            ]
            if g in TABLE_ROWS_EXPECTED:
                assert row["coefficients"] == [
                    dict(zip(["k", "sign", "magnitude", "zeta_exp", "x_exp"], (k, *term)))
                    for k, term in enumerate(TABLE_ROWS_EXPECTED[g])
                ]
            records += [{"g": g, **term} for term in row["coefficients"]]
        _assert_records_match_csv(records, header, rows)


def _reference_payload(argv: list[str]) -> dict:
    """The ``--format json`` payload of argv, built from the library's results
    with one dict per record, not by ``cli``'s record templates.

    Results are read through the names ``cli`` binds, so a fault patched in
    there reaches this payload too.
    """
    command, *words = [word for word in argv if word != "--"]
    if command in ("curve", "verify-morphism"):
        g, c, i = int(words[0]), Fraction(words[1]), int(words[2])
        spec = cli.make_ring(g, c)
        head = {"g": g, "c": str(spec.c), "i": i}
        # The target's equation is the u-folded equation of its polynomial.
        if command == "curve":
            f = cli.build_target(spec, cli._zeta_table(spec, i, g // 2), cli.lucas_row(g))
            return {**head, "equation": folded_equation(f), "coefficients": [
                {"x_exp": exp, "element": f.coeffs.get(exp, from_rational(spec, 0)).to_text()}
                for exp in range(f.degree, -1, -1)
            ]}
        # The weights lifted into R(g, c) and written from their elements.
        source, pullback, residual = lifted(spec, i, cli.verify_morphism(spec, i))
        # verify_morphism reads T through ``curves``, as ``built_target`` does.
        f = built_target(spec, i)
        return {**head, "holds": not residual.coeffs, "source": source.equation_text(),
                "target": folded_equation(f), "pullback": pullback.to_text(),
                "residual": residual.to_text(), "x_map_nonconstant": True}
    numbers = [int(word) for word in words]
    if command == "aligned":
        n, i = numbers
        return {"n": n, "i": i, "entries": [
            {"k": k, "row": n - 2 * k, "index": i - k, "value": value}
            for k, value in enumerate(cli.aligned_entries(n, i))
        ]}
    if command == "identity":
        n, i = numbers
        terms, total = cli.identity_sum(n, i)
        return {"n": n, "i": i, "terms": [
            {"k": k, "signed_coefficient": coeff, "binomial_value": value,
             "product": coeff * value}
            for k, (coeff, value) in enumerate(terms)
        ], "total": total, "holds": total == 0}
    if command == "sweep":
        (n_max,) = numbers
        summary = cli.identity_sweep(n_max, workers=1)
        return {"n_max": n_max, "pairs_checked": summary.pairs_checked,
                "failures": [list(failure) for failure in summary.failures]}
    if command == "lucas-row":
        (n,) = numbers
        return {"n": n, "coefficients": list(cli.lucas_row(n))}
    if command == "lockwood":
        (n_max,) = numbers
        ns, failures = cli._verify_range(1, n_max)
        return {"n_max": n_max, "checked": len(ns),
                "all_hold": len(ns) == n_max and not failures, "failures": failures}
    assert command == "table", command
    return {"rows": [
        {"g": g, "coefficients": [
            {"k": k, "sign": (-1) ** k, "magnitude": t, "zeta_exp": k, "x_exp": g - 2 * k}
            for k, t in enumerate(row)
        ]}
        for g, row in cli.table_rows(*numbers)
    ]}


def _json_against_reference(argv, capsys) -> int:
    """Run ``--format json`` argv; its output must be what json.dumps writes
    for ``_reference_payload(argv)``."""
    code = cli.main(["--format", "json", *argv])
    assert capsys.readouterr().out == json.dumps(_reference_payload(argv), indent=2) + "\n"
    return code


@contextlib.contextmanager
def _no_int_digit_limit():
    limit = cli._get_int_digits()
    cli._set_int_digits(0)
    try:
        yield
    finally:
        cli._set_int_digits(limit)


# m * 10**4300 + m: past the default int/str limit of 4,300 digits.
_HUGE_INTS = st.integers(-(10**6), 10**6).filter(bool).map(lambda m: m * 10**4300 + m)
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _HUGE_INTS,
    st.text(),
    st.text(alphabet='"\\/\x00\x1f\x7f\n\t\r\u00e9\u2028\U0001f600a'),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.lists(st.integers() | st.booleans() | _HUGE_INTS),
        st.dictionaries(st.text(), children),
    ),
    max_leaves=15,
)


class TestJsonEmitter:
    """``_json`` writes what ``json.dumps(payload, indent=2)`` writes."""

    @settings(max_examples=200, deadline=None)
    @given(_JSON_VALUES)
    def test_matches_json_dumps(self, payload):
        with _no_int_digit_limit():
            assert cli._json(payload) == json.dumps(payload, indent=2)

    @pytest.mark.parametrize(
        "payload", [[], {}, (), [[]], {"a": {}}, {"a": [True, 1, False, -2]}, [None, "x"]]
    )
    def test_matches_json_dumps_on_edge_shapes(self, payload):
        assert cli._json(payload) == json.dumps(payload, indent=2)

    @pytest.mark.parametrize(
        "payload",
        [1.5, Fraction(1, 3), {1, 2}, [0.0], {"a": [1, Fraction(1, 2)]}, {1: "x"}],
        ids=["float", "fraction", "set", "float-in-list", "fraction-in-dict", "int-key"],
    )
    def test_other_types_raise_type_error(self, payload):
        with pytest.raises(TypeError):
            cli._json(payload)

    @pytest.mark.parametrize(
        "argv",
        [
            ["aligned", "12", "6"],
            ["identity", "12", "5"],
            ["identity", "40", "33"],
            ["sweep", "12"],
            ["lucas-row", "30"],
            ["lockwood", "10"],
            ["table", "5", "11"],
            *(
                [command, "--", "7", c, i]
                for command in ("curve", "verify-morphism")
                for c in ("1", "-7/11", "3/5")
                for i in ("0", "1")
            ),
        ],
        ids=" ".join,
    )
    def test_every_command_matches_json_dumps(self, argv, capsys):
        assert _json_against_reference(argv, capsys) == 0

    @pytest.mark.parametrize(
        "argv, fault",
        [
            (["identity", "4", "1"], _fail_identity),
            (["sweep", "5"], _fail_sweep),
            (["lockwood", "3"], _fail_lockwood),
            (_MORPHISM_ARGV, fail_morphism),
        ],
        ids=["identity", "sweep", "lockwood", "verify-morphism"],
    )
    def test_failing_run_matches_json_dumps(self, argv, fault, capsys, monkeypatch):
        fault(monkeypatch)
        assert _json_against_reference(argv, capsys) == 1


def _pointwise_json_requests(seeds) -> list[tuple[str, ...]]:
    """The distinct ``--format json`` requests of the benchmark's pointwise
    passes for ``seeds``, read from ``bench/workloads.py``."""
    workloads = load_workloads()
    stream = [argv for seed in seeds for argv in workloads.generate("pointwise", seed)]
    return sorted({tuple(argv[2:]) for argv in stream if argv[:2] == ["--format", "json"]})


def _record_list(command: str, payload: dict) -> list[dict] | None:
    """The records of a tabular command's payload, flattened as its CSV is."""
    if command == "table":
        return [{"g": row["g"], **term} for row in payload["rows"] for term in row["coefficients"]]
    key = {"aligned": "entries", "identity": "terms", "curve": "coefficients"}.get(command)
    return payload[key] if key else None


class TestRecordTemplates:
    """Records written by one template per header read back as the stdlib
    writes them, and hold the values of the same request's CSV rows."""

    @pytest.mark.parametrize("argv", _pointwise_json_requests((1, 2)), ids=" ".join)
    def test_pointwise_requests(self, argv, capsys):
        assert cli.main(["--format", "json", *argv]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert out == json.dumps(payload, indent=2) + "\n"
        records = _record_list(argv[0], payload)
        if records is not None:
            assert cli.main(["--format", "csv", *argv]) == 0
            header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
            _assert_records_match_csv(records, header, rows)

    @pytest.mark.parametrize("depth", [0, 1, 3])
    @pytest.mark.parametrize("rows", [[[0, "a\u00e9\"", -(10**30)], [7, "", 5]], []], ids=["rows", "empty"])
    def test_matches_json_dumps_at_depth(self, depth, rows):
        # Keys with a quote and a %s, text cells that need escaping.
        header = ["k", "text", 'say "%s"']
        payload, expected = cli._Records(header, rows), [dict(zip(header, row)) for row in rows]
        for _ in range(depth):
            payload, expected = [payload], [expected]
        assert cli._json(payload) == json.dumps(expected, indent=2)

    @pytest.mark.parametrize("cell", [True, 1.5, Fraction(1, 3)], ids=["bool", "float", "fraction"])
    def test_other_cell_types_raise_type_error(self, cell):
        with pytest.raises(TypeError):
            cli._json(cli._Records(["a", "b"], [[1, "x"], [2, cell]]))

    @pytest.mark.parametrize(
        "column",
        [[1, "2"], [True, False], [1.5, 2.5], [Fraction(1, 3)] * 2],
        ids=["int-and-str", "bool", "float", "fraction"],
    )
    def test_column_of_mixed_or_other_type_raises_type_error(self, column):
        with pytest.raises(TypeError):
            cli._json(cli._Records(["a", "b"], [[k, cell] for k, cell in enumerate(column)]))


_COLUMN_CELLS = st.one_of(st.integers(), _HUGE_INTS, st.text(max_size=4))


@st.composite
def _column_tables(draw) -> tuple[list[str], list[list]]:
    """Headers and rows of one width; headers from empty to wider than most cells."""
    width = draw(st.integers(1, 5))
    headers = draw(st.lists(st.text(max_size=12), min_size=width, max_size=width))
    rows = draw(st.lists(
        st.lists(_COLUMN_CELLS, min_size=width, max_size=width), min_size=1, max_size=6
    ))
    return headers, rows


class TestColumns:
    """``_columns`` lays text out as the cell-by-cell reference does."""

    @settings(max_examples=100, deadline=None)
    @given(_column_tables())
    def test_matches_reference(self, table):
        with _no_int_digit_limit():
            assert cli._columns(*table) == reference_columns(*table)

    @pytest.mark.parametrize(
        "headers, rows",
        [
            (["k", "value"], [[0, -(10**40)]]),
            (["a_wide_header", "b"], [[1, "x"]]),
            (["k", "v"], [[-3, 12], [10, -4]]),
        ],
        ids=["single-row", "wide-header", "signed"],
    )
    def test_matches_reference_on_examples(self, headers, rows):
        assert cli._columns(headers, rows) == reference_columns(headers, rows)


def _csv_against_reference(argv, capsys, monkeypatch) -> int:
    """Run ``--format csv`` argv; its output must be what csv.writer writes."""
    received = []
    emit = cli._emit_csv

    def recording(header, rows):
        received.append((header, rows))
        return emit(header, rows)

    monkeypatch.setattr(cli, "_emit_csv", recording)
    code = cli.main(["--format", "csv", *argv])
    [(header, rows)] = received
    assert capsys.readouterr().out == reference_csv(header, rows) + "\n"
    return code


class TestCsvOutputs:
    def test_triangle(self, capsys):
        for n_max in range(42):
            rows = [[n, i, math.comb(n, i)] for n in range(n_max + 1) for i in range(n + 1)]
            assert cli.main(["--format", "csv", "triangle", str(n_max)]) == 0
            out = capsys.readouterr().out
            assert out == reference_csv(["n", "i", "value"], rows) + "\n", n_max

    def test_lucas_row(self, capsys):
        cli.main(["--format", "csv", "lucas-row", "6"])
        out = capsys.readouterr().out.splitlines()
        assert out == ["k,coefficient", "0,1", "1,6", "2,9", "3,2"]

    def test_morphism_rows_cover_all_exponents(self, capsys):
        cli.main(["--format", "csv", "verify-morphism", "2", "1", "0"])
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "x_exp,pullback,source,residual"
        assert len(out) == 7  # header + exponents 5..0

    @pytest.mark.parametrize(
        "argv",
        [
            ["aligned", "12", "6"],
            ["identity", "12", "5"],
            ["sweep", "12"],
            ["lockwood", "10"],
            ["lucas-row", "30"],
            ["table", "5", "11"],
            *(
                [command, "--", "7", c, i]
                for command in ("curve", "verify-morphism")
                for c in ("1", "-7/11", "3/5")
                for i in ("0", "1")
            ),
        ],
        ids=" ".join,
    )
    def test_matches_csv_writer(self, argv, capsys, monkeypatch):
        assert _csv_against_reference(argv, capsys, monkeypatch) == 0

    @pytest.mark.parametrize(
        "argv, fault",
        [
            (["identity", "4", "1"], _fail_identity),
            (["sweep", "5"], _fail_sweep),
            (["lockwood", "3"], _fail_lockwood),
            (_MORPHISM_ARGV, fail_morphism),
        ],
        ids=["identity", "sweep", "lockwood", "verify-morphism"],
    )
    def test_failing_run_matches_csv_writer(self, argv, fault, capsys, monkeypatch):
        fault(monkeypatch)
        assert _csv_against_reference(argv, capsys, monkeypatch) == 1


class TestCoefficientCells:
    """The rows of ``curve`` read the target's stored coefficients, those of
    ``verify-morphism`` each curve's weights, and both write ``0`` for an
    exponent the curve does not hold."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["--format", "csv", "verify-morphism", "--", "30", "-7/11", "1"],
            ["--format", "json", "curve", "--", "30", "-7/11", "1"],
        ],
        ids=" ".join,
    )
    def test_rows_build_no_element(self, argv, capsys, monkeypatch):
        # The target is built before the counting starts; what remains is
        # writing its rows, which renders each stored coefficient once.  A
        # morphism check is counted whole: it builds the two factors of
        # w^30 = w^15 * w^15, their product and the c that the product is
        # compared with, and writes its rows from the weights, rendering no
        # element.  The reference reads the weights lifted into R(g, c).
        spec = cli.make_ring(30, Fraction(-7, 11))
        if "curve" in argv:
            target = built_target(spec, 1)
            monkeypatch.setattr(cli, "build_target", lambda spec, *tables: target)
            written = {"element": target}
            stored = [id(p) for p in target.coeffs.values()]
            elements = []
        else:
            source, pullback, residual = lifted(spec, 1, cli.verify_morphism(spec, 1))
            written = {"pullback": pullback, "source": source, "residual": residual}
            stored = []
            w_15 = ring_power(zeta_power(spec, 1) * root_power(spec, 1), 15)
            c = from_rational(spec, spec.c)
            elements = [w_15, w_15, c, c]
        rendered, built = [], []
        to_text, element = QuotientRingElement.to_text, quotient_ring._element
        monkeypatch.setattr(
            QuotientRingElement, "to_text", lambda self: rendered.append(id(self)) or to_text(self)
        )

        def counting(*args):
            built.append(element(*args))
            return built[-1]

        # ``curves`` binds ``_element`` by name for the table's powers of w.
        monkeypatch.setattr(quotient_ring, "_element", counting)
        monkeypatch.setattr(curves, "_element", counting)
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert built == elements
        assert sorted(rendered) == sorted(stored)
        if "curve" in argv:
            records = json.loads(out)["coefficients"]
        else:
            header, *rows = csv.reader(io.StringIO(out))
            records = [dict(zip(header, row)) for row in rows]
        # x^g down to x^0 for the target, x^(2g+1) down to x^0 for the check.
        top = 30 if "curve" in argv else 61
        assert [int(record["x_exp"]) for record in records] == list(range(top, -1, -1))
        for record in records:
            exp = int(record["x_exp"])
            for name, f in written.items():
                p = f.coeffs.get(exp)
                assert record[name] == ("0" if p is None else to_text(p)), (exp, name)


def _triangle_text(rows: list[list[int]]) -> str:
    """The text layout of ``rows``: centered up to 20 rows, then one line a row."""
    n_max = len(rows) - 1
    if n_max > 20:
        return "\n".join(f"row {n}: {' '.join(map(str, row))}" for n, row in enumerate(rows))
    width = max(len(str(v)) for row in rows for v in row)
    return "\n".join(
        " " * ((width + 1) * (n_max - n))
        + (" " * (width + 2)).join(str(v).rjust(width) for v in row)
        for n, row in enumerate(rows)
    )


class TestTriangleOutput:
    # The triangle writes its own text in every format, so it is compared
    # byte for byte with references fed rows of math.comb, across the switch
    # from the centered grid to the list (n_max 20/21) and at a size with
    # long, odd and even rows.
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_matches_reference(self, fmt, capsys):
        for n_max in [*range(41), 299]:
            rows = [[math.comb(n, i) for i in range(n + 1)] for n in range(n_max + 1)]
            if fmt == "json":
                expected = json.dumps({"n_max": n_max, "rows": rows}, indent=2)
            elif fmt == "csv":
                cells = [[n, i, v] for n, row in enumerate(rows) for i, v in enumerate(row)]
                expected = reference_csv(["n", "i", "value"], cells)
            else:
                expected = _triangle_text(rows)
            assert cli.main(["--format", fmt, "triangle", str(n_max)]) == 0
            assert capsys.readouterr().out == expected + "\n", n_max


class TestModes:
    def test_triangle_switches_to_list_mode(self, capsys):
        cli.main(["triangle", "21"])
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "row 0: 1"
        assert out[21].startswith("row 21: 1 21 210")

    def test_workers_flag_matches_serial(self, capsys):
        cli.main(["sweep", "30"])
        serial = capsys.readouterr().out
        cli.main(["sweep", "30", "--workers", "2"])
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_lockwood_workers(self, capsys):
        cli.main(["lockwood", "12", "--workers", "2"])
        out = capsys.readouterr().out
        assert "all 12 hold" in out

    @pytest.mark.parametrize("fault", [False, True], ids=["honest", "T(17,3)+5"])
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_lockwood_workers_match_serial(self, capsys, monkeypatch, fmt, fault):
        if fault:
            fault_lucas_row(monkeypatch, lockwood, (17, 3, 5))
        # Two CPUs as far as the pool cap knows, so a pool of two really starts.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        serial_code = cli.main(["--format", fmt, "lockwood", "60"])
        serial = capsys.readouterr()
        assert serial_code == (1 if fault else 0)
        assert cli.main(["--format", fmt, "lockwood", "60", "--workers", "2"]) == serial_code
        assert capsys.readouterr() == serial


class TestNegativeRationalC:
    @pytest.mark.parametrize("command", ["curve", "verify-morphism"])
    @pytest.mark.parametrize("c", ["-7/11", "-3"])
    def test_matches_double_dash_form(self, command, c, capsys):
        assert cli.main([command, "4", c, "1"]) == 0
        bare = capsys.readouterr().out
        assert cli.main([command, "--", "4", c, "1"]) == 0
        assert bare == capsys.readouterr().out
        assert f"c={c}" in bare

    @pytest.mark.parametrize(
        "c", ["-1e5", "-2.5E+3", "-1e-3", "-1_000", "-1.", "-1.e3", "-1/1_0", "-1e1_0"]
    )
    def test_exponent_literal_matches_double_dash_form(self, c, capsys):
        assert cli.main(["curve", "2", c, "1"]) == 0
        bare = capsys.readouterr()
        assert cli.main(["curve", "--", "2", c, "1"]) == 0
        assert bare == capsys.readouterr()
        assert bare.out.startswith("C_1 over R(g=2, c=-")

    @pytest.mark.parametrize(
        "c, code", [("-1_000", 0), ("-1/1_0", 0), ("-1e1_0", 0), ("1__0", 2)]
    )
    def test_digit_underscores_read_alike_without_fraction_support(
        self, c, code, capsys, monkeypatch
    ):
        # Fraction reads PEP 515 underscores only from Python 3.11.  With a
        # Fraction that refuses every underscore, as 3.10's does, c must read
        # as before; an underscore not between two digits is refused by both.
        def fraction_without_underscores(*args):
            if isinstance(args[0], str) and "_" in args[0]:
                raise ValueError(f"Invalid literal for Fraction: {args[0]!r}")
            return Fraction(*args)

        def curve():
            try:
                return cli.main(["curve", "2", c, "1"]), capsys.readouterr()
            except SystemExit as exc:
                return exc.code, capsys.readouterr()

        native = curve()
        monkeypatch.setattr(cli, "Fraction", fraction_without_underscores)
        assert curve() == native
        assert native[0] == code

    def test_malformed_negative_is_named(self, capsys):
        # Read as c, not as a flag: the usage error names the token.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["curve", "2", "-1x", "0"])
        assert excinfo.value.code == 2
        assert "'-1x'" in capsys.readouterr().err


EVERY_SUBCOMMAND = [
    ["triangle", "3"],
    ["aligned", "4", "2"],
    ["identity", "4", "1"],
    ["sweep", "5"],
    ["lucas-row", "5"],
    ["lockwood", "3"],
    ["curve", "3", "1", "0"],
    ["verify-morphism", "3", "1", "0"],
    ["table", "1", "2"],
]


@pytest.mark.parametrize("argv", EVERY_SUBCOMMAND, ids=lambda argv: argv[0])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_is_usage(argv, workers, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    for placed in (["--workers", workers, *argv], [*argv, "--workers", workers]):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(placed)
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [argv for argv in EVERY_SUBCOMMAND if argv[0] not in ("sweep", "lockwood")],
    ids=lambda argv: argv[0],
)
def test_workers_accepted_and_ignored_by_other_commands(argv, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code = cli.main(argv)
    plain = capsys.readouterr()
    for placed in (["--workers", "2", *argv], [*argv, "--workers", "2"]):
        assert cli.main(placed) == code
        assert capsys.readouterr() == plain


@functools.cache
def _lucas_row_25000_text() -> tuple[str, ...]:
    """T(25000, k) as text, by the ratio recurrence in exact decimal arithmetic.

    A Decimal prints in linear time, where str() of the 12,501 ints takes
    seconds; Inexact and Rounded are trapped, so every step is exact.
    """
    n = 25000
    ctx = decimal.Context(
        prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact, decimal.Rounded]
    )
    t = decimal.Decimal(1)
    text = ["1"]
    for k in range(n // 2):
        t = ctx.divide(ctx.multiply(t, (n - 2 * k) * (n - 2 * k - 1)), (k + 1) * (n - k - 1))
        text.append(str(t))
    return tuple(text)


class TestHugeIntegers:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_answer_past_the_int_text_limit(self, fmt, capsys):
        # T(25000, k) runs to 5,223 digits, past the interpreter's default
        # int/str limit of 4,300; main lifts it for the run and restores it.
        limit = cli._get_int_digits()
        assert cli.main(["--format", fmt, "lucas-row", "25000"]) == 0
        out = capsys.readouterr().out
        assert cli._get_int_digits() == limit
        values = _lucas_row_25000_text()
        if fmt == "json":
            body = ",\n    ".join(values)
            expected = f'{{\n  "n": 25000,\n  "coefficients": [\n    {body}\n  ]\n}}\n'
        else:
            expected = f"T(25000, k) for k = 0..12500: {' '.join(values)}\n"
        assert out == expected

    @pytest.mark.skipif(
        not 0 < cli._get_int_digits() < 5000, reason="needs an int/str digit limit below 5,000"
    )
    def test_huge_argument_refused_at_parse_time(self, capsys, monkeypatch):
        forbid(monkeypatch, "a 5,000-digit argument got past the parser", (cli, "lucas_row"))
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["lucas-row", "9" * 5000])
        assert excinfo.value.code == 2
        assert "invalid int value" in capsys.readouterr().err


class TestExponentFormC:
    """c written with an exponent meets the digit limit of a plain literal."""

    @pytest.mark.skipif(
        cli._get_int_digits() not in (0, 4300), reason="needs the default int/str digit limit"
    )
    @pytest.mark.parametrize("c", ["1e4300", "-1e4300", "1e-4300"])
    def test_past_the_limit_is_usage(self, c, capsys, monkeypatch):
        forbid(monkeypatch, f"c = {c} got past the parser", (cli, "make_ring"))
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["curve", "--", "2", c, "0"])
        assert excinfo.value.code == 2
        assert "expected an integer or p/q rational" in capsys.readouterr().err

    @pytest.mark.parametrize("c", ["1e4299", "3.5e2", "0.5", "-7/11"])
    def test_within_the_limit_parses(self, c, capsys):
        assert cli.main(["--format", "json", "curve", "--", "2", c, "0"]) == 0
        assert json.loads(capsys.readouterr().out)["c"] == str(Fraction(c))

    def test_huge_exponent_is_refused_quickly(self):
        # Fraction("1e99999999") would first compute 10**99999999.
        result = subprocess.run(
            [sys.executable, "-m", "vertalign", "curve", "--", "2", "1e99999999", "0"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2
        assert "expected an integer or p/q rational" in result.stderr


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "vertalign", "identity", "2", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "total = 0" in result.stdout


class TestInterruptedRuns:
    def test_closed_pipe_exits_141_without_traceback(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "vertalign", "triangle", "400"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"row 0: 1\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv", [["sweep", "8000"], ["lockwood", "1000"]], ids=lambda argv: argv[0]
    )
    def test_ctrl_c_stops_a_parallel_run(self, argv):
        # SIGINT goes to the whole process group, as from a terminal: the
        # workers must not carry on with their queued chunks.  Each request
        # runs for well over ten times the wait before the interrupt
        # (`sweep 8000 --workers 2` took about 26 s on 2 vCPUs).
        proc = subprocess.Popen(
            [sys.executable, "-m", "vertalign", *argv, "--workers", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            time.sleep(2)
            assert proc.poll() is None, "the run ended before it was interrupted"
            sent = time.perf_counter()
            os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=5)
            assert time.perf_counter() - sent < 5
            assert proc.returncode == 130
            assert out == b""
            assert b"Traceback" not in err
            deadline = time.perf_counter() + 2
            while time.perf_counter() < deadline:
                try:
                    os.killpg(proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("a worker outlived the interrupted run")
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    def test_ctrl_c_exits_130(self, monkeypatch, capsys):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_cmd_identity", interrupted)
        assert cli.main(["identity", "11", "3"]) == 130
        assert "Traceback" not in capsys.readouterr().err


class _RecordingPool:
    """Stands in for multiprocessing.Pool: records its size, runs tasks inline."""

    sizes: list[int] = []

    def __init__(self, processes, initializer=None, initargs=()):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=None):
        return [fn(item) for item in iterable]

    def starmap(self, fn, iterable, chunksize=None):
        return [fn(*item) for item in iterable]


class TestWorkerCap:
    def test_pool_size_caps_at_tasks_and_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
        for last, workers in [(100, 10**6), (3, 10**6), (100, 2)]:
            map_row_ranges(lambda start, end: None, 1, last, workers)
        assert _RecordingPool.sizes == [4, 3, 2]
        # Without a CPU count, one worker: the rows are checked in-process.
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert map_row_ranges(lambda start, end: (start, end), 1, 100, 10**6) == [(1, 100)]
        assert _RecordingPool.sizes == [4, 3, 2]

    def test_huge_request_starts_capped_pools(self, monkeypatch, capsys):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
        assert identity_sweep(30, workers=10**6) == identity_sweep(30)
        assert cli.main(["lockwood", "3", "--workers", str(10**6)]) == 0
        assert "all 3 hold" in capsys.readouterr().out
        assert cli.main(["sweep", "2", "--workers", str(10**6)]) == 0
        capsys.readouterr()
        # sweep 30 has 29 rows and lockwood 3 three values of n: capped by
        # the CPUs, then by the tasks; sweep 2 has one row and runs serially.
        assert _RecordingPool.sizes == [4, 3]

    @pytest.mark.parametrize(
        "first, last, workers", [(2, 299, 2), (1, 150, 2), (2, 1000, 4), (2, 30, 4), (1, 3, 4), (1, 2, 2)]
    )
    def test_row_ranges_cover_first_to_last(self, monkeypatch, first, last, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
        ranges = map_row_ranges(lambda start, end: (start, end), first, last, workers)
        # No worker is started without a range to check.
        assert _RecordingPool.sizes == [min(workers, 4, len(ranges))]
        assert ranges[0][0] == first and ranges[-1][1] == last
        assert all(start <= end for start, end in ranges)
        assert all(end + 1 == start for (_, end), (start, _) in zip(ranges, ranges[1:]))


class TestParserReuse:
    """``cli.main`` builds its parser once; no call may leak into the next."""

    def test_no_state_carried_between_calls(self, capsys, monkeypatch):
        assert cli.main(["--format", "json", "identity", "11", "3"]) == 0
        capsys.readouterr()
        assert cli.main(["identity", "11", "3"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "identity_11_3.txt").read_text()

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        monkeypatch.setattr(multiprocessing, "Pool", _RecordingPool)
        assert cli.main(["sweep", "12", "--workers", "2"]) == 0
        assert _RecordingPool.sizes == [2]
        assert cli.main(["sweep", "12"]) == 0
        assert _RecordingPool.sizes == [2]  # the second sweep started no pool
        assert capsys.readouterr().out == 2 * (GOLDEN / "sweep_12.txt").read_text()

        with pytest.raises(SystemExit) as excinfo:
            cli.main(["identity", "3"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        assert cli.main(["curve", "--", "7", "3", "1"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "curve_7_3_1.txt").read_text()

    def test_parser_is_not_rebuilt(self, capsys, monkeypatch):
        cli.main(["identity", "11", "3"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(type(self))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        requests = [
            *EVERY_SUBCOMMAND,
            *(["--format", "csv", *argv] for argv in EVERY_SUBCOMMAND),
            ["identity", "3"],
            ["table", "-h"],
        ]
        assert len(requests) == 20
        for argv in requests:
            with contextlib.suppress(SystemExit):
                cli.main(argv)
        capsys.readouterr()
        assert built == []


_SUBCOMMAND_ARITY = {
    "triangle": ("size",),
    "aligned": ("size", "i"),
    "identity": ("size", "i"),
    "sweep": ("size",),
    "lucas-row": ("size",),
    "lockwood": ("size",),
    "curve": ("size", "c", "i"),
    "verify-morphism": ("size", "c", "i"),
    "table": ("size", "size"),
}
_C_VALUES = st.one_of(
    st.integers(-50, 50).map(str),
    st.tuples(st.integers(-30, 30), st.integers(1, 30)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.sampled_from(["0", "1/0", "-0", "abc", "", "3/", "/4", "1.5", "nan", "--", "2/-3"]),
)
_JUNK = st.sampled_from(["", "-", "--", "-x", "--bogus", "7", "-1/2", "1/0", "zz", "--format"])


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_SUBCOMMAND_ARITY)))
    top = 60 if command == "triangle" else 40
    args = []
    for kind in _SUBCOMMAND_ARITY[command]:
        if kind == "size":
            args.append(str(draw(st.integers(-3, top))))
        elif kind == "i":
            args.append(str(draw(st.integers(-1, 2))))
        else:
            args.append(draw(_C_VALUES))
    flags = []
    if draw(st.booleans()):
        flags += ["--format", draw(st.sampled_from(["text", "json", "csv"]))]
    if draw(st.booleans()):
        flags += ["--workers", str(draw(st.integers(-1, 1)))]
    before = draw(st.booleans())
    argv = flags + [command] + args if before else [command] + args + flags
    if draw(st.booleans()):
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK))
    return argv


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_random_argv_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
