import json
import shlex
from fractions import Fraction as F
from pathlib import Path

import pytest

import echspec.cli
from echspec import EchspecError
from echspec.cli import (
    CLIError,
    main,
    parse_complex,
    parse_range,
    parse_rational,
)

README = Path(__file__).resolve().parents[1] / "README.md"


class TestParsers:
    def test_rational_forms(self):
        assert parse_rational("3/7") == F(3, 7)
        assert parse_rational("5") == F(5)
        assert parse_rational(" 2/3 ") == F(2, 3)

    @pytest.mark.parametrize("bad", ["1.5", "2e3", "1E2", "x", "1/0"])
    def test_rational_rejects(self, bad):
        with pytest.raises(CLIError):
            parse_rational(bad)

    def test_range(self):
        assert parse_range("3..10") == (3, 10)
        assert parse_range("0..0") == (0, 0)
        for bad in ["5..3", "abc", "1-2"]:
            with pytest.raises(CLIError):
                parse_range(bad)

    def test_complex(self):
        assert parse_complex("2.5") == complex(2.5, 0.0)
        assert parse_complex("1,-3") == complex(1.0, -3.0)
        with pytest.raises(CLIError):
            parse_complex("1,2,3")

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "3,nan", "nan,1", "1,inf"])
    def test_complex_rejects_non_finite(self, bad):
        with pytest.raises(CLIError, match="finite"):
            parse_complex(bad)


class TestCapacitiesCommand:
    def test_csv_output(self, capsys):
        assert main(["capacities", "-a", "1", "-b", "1", "-k", "0..5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "k,c_num,c_den,c_float"
        assert lines[1] == "0,0,1,0"
        assert [ln.split(",")[1] for ln in lines[1:]] == ["0", "1", "1", "2", "2", "2"]

    def test_json_output(self, capsys):
        assert main(
            ["capacities", "-a", "2/3", "-b", "5/7", "-k", "3..4", "--format", "json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["a"] == "2/3"
        assert [r["k"] for r in doc["rows"]] == [3, 4]
        for r in doc["rows"]:
            assert F(r["c_num"], r["c_den"]) > 0

    def test_exact_rationals_only(self, capsys):
        main(["capacities", "-a", "1/3", "-b", "1", "-k", "1..1"])
        line = capsys.readouterr().out.strip().splitlines()[1]
        k, num, den, _ = line.split(",")
        assert (k, num, den) == ("1", "1", "3")


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["capacities", "-a", "3/2", "-b", "5/7", "-k", "0..50"],
            ["dk", "-a", "1", "-b", "832040/514229", "-k", "1..300", "--format", "json"],
        ],
    )
    def test_repeated_runs_are_byte_identical(self, argv, capsys):
        outs = []
        for _ in range(2):
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_cache_option_rejected(self, tmp_path, capsys):
        cache = str(tmp_path / "spec.cache")
        assert main(["capacities", "-a", "1", "-b", "1", "-k", "0..3", "--cache", cache]) == 2
        assert "--cache" in capsys.readouterr().err
        assert not (tmp_path / "spec.cache").exists()


class TestOtherCommands:
    def test_weyl(self, capsys):
        assert main(["weyl", "-a", "1", "-b", "1", "-R", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1] == "10,1,66,11"

    def test_weyl_fit_summary(self, capsys):
        R = ",".join(str(k) for k in range(50, 401, 50))
        assert main(["weyl", "-a", "1", "-b", "1", "-R", R]) == 0
        captured = capsys.readouterr()
        fit_lines = [ln for ln in captured.out.splitlines() if ln.startswith("# fit_coefficient=")]
        assert len(fit_lines) == 1
        assert abs(float(fit_lines[0].split("=")[1]) - 0.5) < 0.01
        assert "factor of about 2" in captured.err

    def test_dk(self, capsys):
        assert main(["dk", "-a", "1", "-b", "1", "-k", "1..100"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        j3 = [ln for ln in lines if ln.startswith("3,")][0]
        assert abs(float(j3.split(",")[3]) - (2 - 6**0.5)) < 1e-12

    def test_zeta(self, capsys):
        assert main(["zeta", "-a", "1", "-b", "1", "-s", "3,0", "--convention", "interior"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        val = float(lines[1].split(",")[2])
        # zeta(2) - zeta(3) for the diagonal collapse on the square
        assert abs(val - (1.6449340668482264 - 1.2020569031595943)) < 1e-9

    def test_residues(self, capsys):
        assert main(["residues", "-a", "1", "-b", "2"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().splitlines()
        row = [ln for ln in lines if ln.startswith("interior,2,")][0]
        assert abs(float(row.split(",")[2]) - 0.5) < 1e-7
        assert any(ln.startswith("# expected_res_s2=0.5") for ln in lines)

    def test_envelope(self, capsys):
        assert main(["envelope", "-k", "4..6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("j,r1,r2,r3")
        assert len([ln for ln in lines if not ln.startswith("#")]) == 4


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert main(["capacities", "-a", "1.5", "-b", "1", "-k", "0..3"]) == 2
        assert "decimal input rejected" in capsys.readouterr().err

    def test_domain_error(self, capsys):
        assert main(["zeta", "-a", "1", "-b", "1", "-s", "1,0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_echspec_error_exits_one(self, monkeypatch, capsys):
        def fail(*args):
            raise EchspecError("planted")

        monkeypatch.setattr(echspec.cli, "spectrum_range", fail)
        assert main(["capacities", "-a", "1", "-b", "1", "-k", "0..3"]) == 1
        assert "error: planted" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["capacities", "-a", "1", "-b", "1", "-k", "0..1"],
            ["weyl", "-a", "1", "-b", "1", "-R", "2"],
            ["dk", "-a", "1", "-b", "1", "-k", "1..3"],
            ["envelope", "-k", "4..4"],
        ],
    )
    def test_tol_only_where_read(self, argv, capsys):
        assert main(argv + ["--tol", "1e-6"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("s", ["nan", "inf", "3,nan"])
    def test_non_finite_zeta_point(self, s, capsys):
        assert main(["zeta", "-a", "1", "-b", "2", "-s", s]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    @pytest.mark.parametrize("command", ["zeta", "residues"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.5", "x"])
    def test_bad_tol(self, command, tol, capsys):
        argv = [command, "-a", "1", "-b", "2", "--tol", tol] + ["-s", "3"] * (command == "zeta")
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag", ["--vol", "--c2", "--q", "--c3"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_envelope_constant(self, flag, value, capsys):
        assert main(["envelope", "-k", "4..5", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    @pytest.mark.parametrize("per_decade", ["0", "-3"])
    def test_per_decade_below_one(self, per_decade, capsys):
        assert main(["envelope", "-k", "4..5", "--per-decade", per_decade]) == 2
        assert capsys.readouterr().out == ""

    def test_envelope_decades_past_float_range(self, capsys):
        assert main(["envelope", "-k", "300..310"]) == 2
        assert "overflows" in capsys.readouterr().err

    def test_success(self, capsys):
        assert main(["capacities", "-a", "1", "-b", "1", "-k", "0..1"]) == 0
        capsys.readouterr()


class TestReadme:
    def test_cli_examples_run(self, capsys):
        text = README.read_text(encoding="utf-8")
        block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [ln for ln in block.splitlines() if ln.startswith("echspec ")]
        assert len(lines) >= 6
        for line in lines:
            assert main(shlex.split(line)[1:]) == 0, line
            assert capsys.readouterr().out
