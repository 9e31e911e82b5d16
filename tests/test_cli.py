import concurrent.futures
import json
import subprocess
import sys
from pathlib import Path

import pytest

import vertalign.cli as cli
from vertalign.alignment import IdentityReport, IdentityTerm, SweepSummary, identity_sum

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


def test_output_is_deterministic(capsys):
    cli.main(["identity", "12", "6"])
    first = capsys.readouterr().out
    cli.main(["identity", "12", "6"])
    second = capsys.readouterr().out
    assert first == second


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

    def test_missing_subcommand_is_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_verification_failure_is_one(self, capsys, monkeypatch):
        # The mathematics never fails, so fabricate a failing report to pin
        # down the exit-code contract.
        bad = IdentityReport(
            n=4, i=1, terms=(IdentityTerm(0, 1, 4, 4),), total=4, holds=False
        )
        monkeypatch.setattr(cli, "identity_sum", lambda n, i: bad)
        assert cli.main(["identity", "4", "1"]) == 1
        out = capsys.readouterr().out
        assert "holds: no" in out

    def test_sweep_failure_is_one(self, capsys, monkeypatch):
        bad = SweepSummary(n_max=5, pairs_checked=10, failures=((3, 1, 7),))
        monkeypatch.setattr(cli, "identity_sweep", lambda n_max, workers: bad)
        assert cli.main(["sweep", "5"]) == 1
        out = capsys.readouterr().out
        assert "FAIL n=3 i=1 total=7" in out

    def test_lockwood_failure_is_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_lockwood", lambda n: n != 2)
        assert cli.main(["lockwood", "3"]) == 1
        out = capsys.readouterr().out
        assert "fails for n in [2]" in out
        assert "residual for n=2:" in out


class TestJsonOutputs:
    def test_identity_round_trips(self, capsys):
        assert cli.main(["--format", "json", "identity", "12", "6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert IdentityReport.from_dict(payload) == identity_sum(12, 6)

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
        assert payload["target"] == "y^2 = x^5 - 5*x^3 + 5*x"
        assert payload["residual"] == "0"
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


class TestCsvOutputs:
    def test_triangle(self, capsys):
        cli.main(["--format", "csv", "triangle", "2"])
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "n,i,value"
        assert out[-1] == "2,2,1"

    def test_lucas_row(self, capsys):
        cli.main(["--format", "csv", "lucas-row", "6"])
        out = capsys.readouterr().out.splitlines()
        assert out == ["k,coefficient", "0,1", "1,6", "2,9", "3,2"]

    def test_morphism_rows_cover_all_exponents(self, capsys):
        cli.main(["--format", "csv", "verify-morphism", "2", "1", "0"])
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "x_exp,pullback,source,residual"
        assert len(out) == 7  # header + exponents 5..0


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


class TestNegativeRationalC:
    @pytest.mark.parametrize("command", ["curve", "verify-morphism"])
    @pytest.mark.parametrize("c", ["-7/11", "-3"])
    def test_matches_double_dash_form(self, command, c, capsys):
        assert cli.main([command, "4", c, "1"]) == 0
        bare = capsys.readouterr().out
        assert cli.main([command, "--", "4", c, "1"]) == 0
        assert bare == capsys.readouterr().out
        assert f"c={c}" in bare


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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    for placed in (["--workers", workers, *argv], [*argv, "--workers", workers]):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(placed)
        assert excinfo.value.code == 2
        assert "--workers" in capsys.readouterr().err


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "vertalign", "identity", "2", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "total = 0" in result.stdout
