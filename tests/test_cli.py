import hashlib
import json
import math
import shlex
import time
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest

import echspec.cli
from echspec import EchspecError
from echspec.cli import (
    CLIError,
    build_parser,
    main,
    parse_complex,
    parse_range,
    parse_rational,
)

README = Path(__file__).resolve().parents[1] / "README.md"

# SHA-256 of stdout for (command, a, b, range, format); residues takes no
# range, zeta takes a convention in its place and runs at ZETA_POINTS, and
# weyl takes its radii there.
# envelope takes no axes, and its range is followed by its options.
# The pins hold the output byte for byte: any change to them is a change of
# the CLI's output format. The residues rows print exact residues and values
# at s = 0, and Laurent constants from one complex-step pass per pole. The dk
# summaries are the centred fsum line fit, within 1e-13 of the exact
# least-squares fit (tests/test_asymptotics.py::TestFitAccuracy).
PINNED_SHA256 = {
    ("capacities", "1", "832040/514229", "0..1500", "csv"): "6a6510a6435dff755f67cfe793ad49809682ed6972ada4daafcbe30568d7ee75",
    ("capacities", "1", "832040/514229", "0..1500", "json"): "1b1e2c926fdc3ec03783fe68000e91e5f3a85a4b2764ca2a0c87b8c4f7413fc1",
    ("capacities", "1", "832040/514229", "1000000..1000500", "csv"): "deaf2b6333bc330c2b426191a3c2b8fbcd37fb94d9c318aaa6784b87e99069ac",
    ("capacities", "1", "832040/514229", "1000000..1000500", "json"): "d482195ae8d4e33c7dc996bb51dc0825e6ebb0408cda190a4cac07bbc9875cb1",
    ("dk", "1", "832040/514229", "0..1500", "csv"): "14dcf72d5eb0841ea9bea61578ba551833ea24ec83fca23488f84d9bdc38514d",
    ("dk", "1", "832040/514229", "0..1500", "json"): "838585923cad37b1b4d0403178c86ee0d88c51fdafb2723540a163bbff2a198c",
    ("dk", "1", "832040/514229", "1000000..1000500", "csv"): "7ee1dce9c60a58bc53eda56d858e7cf82892edb136cbd049c5fa834d4eb67946",
    ("dk", "1", "832040/514229", "1000000..1000500", "json"): "5c5cb771f362df5d10a8db8b1bb33706064d5fe52d4c92b49e81f68a2541526a",
    ("capacities", "2", "3", "0..1500", "csv"): "88200fcff1fe82ae3a466a9432a09431fa852254a34cf5bff766f45d4cfa23da",
    ("capacities", "2", "3", "0..1500", "json"): "8cf28de4fc91fbd199f0f042a21644d095dd2a6006a76775c886da8ef490c80d",
    ("capacities", "2", "3", "1000000..1000500", "csv"): "6cf4b152635aef2e25d76e32771541538ce0f9ab7beedfae1d217c1c0335bfd4",
    ("capacities", "2", "3", "1000000..1000500", "json"): "ff25d4344d23a01f5e0cecdf25eb8a53a4018fcf8b2be0710c09c2cbb3c2d971",
    ("dk", "2", "3", "0..1500", "csv"): "737938aa30c8cb2671e33fc413982afe7b7f90d0f00a1bc48952a5005053e586",
    ("dk", "2", "3", "0..1500", "json"): "9cec620e5a2dd5de4aa47390901415d5a802cc3dd757a36112f2177bd3529fd7",
    ("dk", "2", "3", "1000000..1000500", "csv"): "4db01ab4149d09bef7b92697f2b1b576857cb8ab9afdd7f08f81fdf4b27d1ff1",
    ("dk", "2", "3", "1000000..1000500", "json"): "f026a1d574624a334b0afb3a661dd0a49fb95c1337f059cc6a6b3491480d66e0",
    ("residues", "1", "2", "", "csv"): "66a249b2aa212045730f12eac936ad7ca95e2999fabbe552f534d6a1c92e891d",
    ("residues", "1", "2", "", "json"): "c3bb6b615d202a3589f35a110a4d3bee142d33b2c4d31c674c867daaebdfdecf",
    ("residues", "2", "3", "", "csv"): "f992d54dfeb3a881be41be3dea45bd3f25c6035d6f1d37cfc64742cd6939dae4",
    ("residues", "2", "3", "", "json"): "9a0679e21bad44ac8f1954c71593499c734c3d475af51b5256a66cc1a3b84266",
    ("residues", "1/2", "3/2", "", "csv"): "8cb5100058d104a1269135763d32bb34fb94ad02de358c49d7fb3eca5735e48b",
    ("residues", "1/2", "3/2", "", "json"): "f332072155a31dfb36dd1b5a487fdc6bf8e45d9e178f5e6cc2d19afe15ac7086",
    ("residues", "1", "832040/514229", "", "csv"): "ec6356d14eb60c8cb4314fd87ab6d6c42079f625e55ede1508a6800ab34eeb99",
    ("residues", "1", "832040/514229", "", "json"): "c55a2da5c46c29fb7d225412d7bec0744173eb69b12a5fb9b9dc4ec9b5858965",
    ("zeta", "2", "3", "interior", "csv"): "2d4a92fc972e6ceade031e99a9cf972e8ac7e7473a8e1ad00d8220f50f62b865",
    ("zeta", "2", "3", "interior", "json"): "a7a6ec86ddf874671d22fb911444f107224e9db4ebd202eeef07951c43984975",
    ("zeta", "2", "3", "full", "csv"): "6099b163b04f43041793cac16fcaae16509923b786fd167ed38f7a49b3321f63",
    ("zeta", "2", "3", "full", "json"): "6acecec28d16e0187a6e386d796ecd2100ca1faae82e3d0cbc89c2837d874004",
    ("zeta", "2", "3", "distinct", "csv"): "f9b0c286b3638708f2dd2c448ea59c6b37440317dd8c033108bb75b3a6b10bed",
    ("zeta", "2", "3", "distinct", "json"): "f283e98aded0a8b917663cee7c8f61f295774e5106750b90db2fd3865767b36f",
    ("weyl", "1", "2", "10,20,30,40", "csv"): "d996511b77360d7a4f8b343801c7d8050544e68e14fd93f1b3c912ec559b0559",
    ("weyl", "1", "2", "10,20,30,40", "json"): "2799ed55d8f56a35402b070d2d31d8352eb0e33137389c43e44a00d55181cdbb",
    ("weyl", "3/2", "5/7", "10,20,30,40", "csv"): "29f733e54dbad5a3a0a976cf8b7cf261ab0bfd5866cecb5bb3082bba05349ba6",
    ("weyl", "3/2", "5/7", "10,20,30,40", "json"): "3450e02fd68b0c04a795966cb9a7953e77975f0bf1042cd95fa5f481fd9087ef",
    ("capacities", "3/2", "5/7", "0..1500", "csv"): "821b206ce7cd22472a3571403cef405f2b10bd57092b9e11367b2619811db870",
    ("capacities", "3/2", "5/7", "0..1500", "json"): "f8d8c73a5d88bd54ee5dd4d1260fb68eb0413a9fc1a0c2bc2115f6a8304561e5",
    ("capacities", "3/2", "5/7", "1000000..1000500", "csv"): "54526b2d64f8eb6e53105d2cc5423bb5c2d4fb3f10f9fc4ec9a5183a3338f88d",
    ("capacities", "3/2", "5/7", "1000000..1000500", "json"): "60207c023322e4f1e95d6f32f530c1e907489d15b0ebeebbbf2c12cdb8e90ffe",
    ("dk", "3/2", "5/7", "0..1500", "csv"): "0a35312a0591e687de134045b9ca67688d3a13a3e34b267440fab4f8b28573d9",
    ("dk", "3/2", "5/7", "0..1500", "json"): "7941cca26872e3ac736885ffb59ffb275d676167935b03e213f134826d887ba0",
    ("dk", "3/2", "5/7", "1000000..1000500", "csv"): "0614546f095b4602e42c38f83dca3c9afb47fb6a56e22ff80c62f2db3fd6cbe7",
    ("dk", "3/2", "5/7", "1000000..1000500", "json"): "a7773a4cdd081e8a85bd0f6c875efa7971384f801db5c9ad7f5929d6da06f40a",
    ("envelope", "", "", "2..9 --per-decade 4", "csv"): "35a88ae855506bafe9fdad2f7a169153624df9caa98a00805a93aa7d66456e7f",
    ("envelope", "", "", "2..9 --per-decade 4", "json"): "a69e344c3d5cfa1de91660abaf19b75925810276dabcd3f336609bbb47067da1",
    ("envelope", "", "", "2..9 --per-decade 4 --vol 1000 --c1 2 --c2 0.5 --q 3 --c0 0.25", "csv"): "c56dd3766fad7f0966d4f0604fc8f09bc422103d8d046de859e29f0b17bd73cc",
}
ZETA_POINTS = ["-s", "3", "-s", "0.5", "-s=-1.5,2", "-s=-3.9,0.5", "-s=2.5,-16", "-s", "30", "-s=1.5,-1000"]


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


class TestByteIdentity:
    @pytest.mark.parametrize("key", sorted(PINNED_SHA256))
    def test_pinned_stdout(self, key, capsys):
        cmd, a, b, arg, fmt = key
        axes = ["-a", a, "-b", b] if a else []
        flag = "-R" if cmd == "weyl" else "-k"
        extra = ["--convention", arg] + ZETA_POINTS if cmd == "zeta" else [flag] * bool(arg) + arg.split()
        argv = [cmd] + axes + extra + ["--format", fmt]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SHA256[key]

    @pytest.mark.parametrize(
        "argv",
        [
            ["capacities", "-a", "3/2", "-b", "5/7", "-k", "0..40"],
            ["weyl", "-a", "1", "-b", "2", "-R", "10,20,30,40"],
            ["dk", "-a", "1", "-b", "832040/514229", "-k", "0..500"],
            ["dk", "-a", "1", "-b", "1", "-k", "1..3", "--windows", "1"],
            ["zeta", "-a", "1", "-b", "2", "-s", "3,1", "-s=-1.5,2", "--convention", "interior"],
            ["residues", "-a", "1", "-b", "2"],
            ["envelope", "-k", "4..6", "--per-decade", "2"],
        ],
    )
    def test_json_is_the_stdlib_indent_encoding(self, argv, capsys):
        assert main(argv + ["--format", "json"]) == 0
        out = capsys.readouterr().out
        assert json.dumps(json.loads(out), indent=2) + "\n" == out


class TestRepeatedCalls:
    """main reuses one parser in a process; what a parse makes stays with its call."""

    ZETA = ["zeta", "-a", "1", "-b", "2"]
    DK = ["dk", "-a", "1", "-b", "1", "-k", "1..400"]

    @staticmethod
    def fresh(argv, capsys) -> str:
        cfg = build_parser().parse_args(argv)
        assert cfg.func(cfg) == 0
        return capsys.readouterr().out

    def run(self, argv, capsys) -> str:
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_parser_built_once(self, monkeypatch, capsys):
        self.run(self.ZETA + ["-s", "3"], capsys)
        built = []
        monkeypatch.setattr(echspec.cli, "build_parser", lambda: built.append(1))
        for argv in (self.ZETA + ["-s", "3"], self.DK, ["residues", "-a", "1", "-b", "2"]):
            self.run(argv, capsys)
        assert built == []

    def test_repeated_option_does_not_accumulate(self, capsys):
        two = self.run(self.ZETA + ["-s", "3", "-s", "4"], capsys)
        assert len(two.splitlines()) == 3
        one = self.run(self.ZETA + ["-s", "5"], capsys)
        assert len(one.splitlines()) == 2
        assert one == self.fresh(self.ZETA + ["-s", "5"], capsys)

    def test_defaults_do_not_leak(self, capsys):
        self.run(self.ZETA + ["-s", "3", "--format", "json", "--tol", "1e-3"], capsys)
        self.run(self.DK + ["--windows", "2", "--format", "json"], capsys)
        for argv in (self.ZETA + ["-s", "3"], self.DK):
            out = self.run(argv, capsys)
            assert not out.startswith("{")
            assert out == self.fresh(argv, capsys)
        assert self.run(self.ZETA + ["-s", "3"], capsys).splitlines()[1].endswith(",1e-10")

    def test_usage_error_leaves_next_call_alone(self, capsys):
        argv = self.ZETA + ["-s", "3"]
        before = self.run(argv, capsys)
        assert main(argv + ["--format", "json", "--bogus"]) == 2
        assert capsys.readouterr().out == ""
        after = self.run(argv, capsys)
        assert before == after == self.fresh(argv, capsys)


class TestDkFitOmitted:
    def test_too_few_windows(self, capsys):
        assert main(["dk", "-a", "1", "-b", "1", "-k", "1..3", "--windows", "1"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 4 and not any(ln.startswith("#") for ln in lines)
        assert "warning: sup exponent fit omitted: exponent_fit requires at least two usable windows" in captured.err

    def test_non_finite_fit(self, capsys):
        argv = ["dk", "-a", "1", "-b", "832040/514229", "-k", "11203511..11203519", "--format", "json"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert len(doc["rows"]) == 9
        assert doc["summary"] == {}
        assert any("non-finite fit" in w for w in doc["warnings"])
        assert "RuntimeWarning" not in captured.err

    def test_fit_kept_when_finite(self, capsys):
        assert main(["dk", "-a", "1", "-b", "1", "-k", "1..2000"]) == 0
        captured = capsys.readouterr()
        assert "# sup_exponent=" in captured.out
        assert "fit omitted" not in captured.err

    def test_index_past_the_float_range(self, capsys):
        # c_j near 4.5e154 fits a float; the window edges, floats of j, do not
        j = 10**309
        assert main(["dk", "-a", "1", "-b", "1", "-k", f"{j}..{j + 3}"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 5
        assert captured.err == "warning: sup exponent fit omitted: index exp(711.499) overflows a float\n"

    @pytest.mark.parametrize("windows", ["0", "-3"])
    def test_windows_must_be_positive(self, windows, capsys):
        assert main(["dk", "-a", "1", "-b", "1", "-k", "1..30", "--windows", windows]) == 2


class TestOtherCommands:
    def test_weyl(self, capsys):
        assert main(["weyl", "-a", "1", "-b", "1", "-R", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1] == "10,1,66,11"

    def test_weyl_radii_past_float_range(self, capsys):
        # the residuals near 1e310 overflow a float; their logs come from the
        # integer numerator and denominator
        R = ",".join(f"{m}{'0' * 310}" for m in (1, 2, 3))
        assert main(["weyl", "-a", "1", "-b", "2", "-R", R]) == 0
        summary = dict(ln[2:].split("=") for ln in capsys.readouterr().out.splitlines() if ln.startswith("# "))
        assert float(summary["fit_coefficient"]) == 1 / (2 * 1 * 2)
        assert math.isfinite(float(summary["fit_remainder_exponent"]))

    def test_weyl_radius_below_float_range(self, capsys):
        # 1e-400 rounds to 0.0 as a float; its log comes from the integer parts
        R = ",".join(["1/1" + "0" * 400, "1", "2", "3"])
        assert main(["weyl", "-a", "1", "-b", "2", "-R", R]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1] == f"1,1{'0' * 400},1,1"
        summary = dict(ln[2:].split("=") for ln in out.splitlines() if ln.startswith("# "))
        assert all(math.isfinite(float(v)) for v in summary.values())

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

        monkeypatch.setattr(echspec.cli, "scaled_spectrum", fail)
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

    def test_overflowing_axis_power(self, capsys):
        # a^-s = 1e600 on a = 1e-200, past the float range
        assert main(["zeta", "-a", "1/1" + "0" * 200, "-b", "1", "-s", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: 1e-200 ** (-3-0j) overflows a float"]

    @pytest.mark.parametrize(
        "a,R",
        [
            ("1/1" + "0" * 400, "1,2,3"),  # C = 1/(2ab) is about 2.5e399
            ("1", ",".join(f"{m}/1{'0' * 400}" for m in (1, 2, 3))),  # C is about 1e800
        ],
    )
    def test_weyl_coefficient_past_float_range(self, a, R, capsys):
        assert main(["weyl", "-a", a, "-b", "2", "-R", R]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: leading coefficient exp(") and line.endswith(") overflows a float")

    def test_dk_at_an_axis_below_the_float_range(self, capsys):
        # the approximant warning compares integers, so no axis is made a float
        assert main(["dk", "-a", "1/1" + "0" * 400, "-b", "1", "-k", "1..5"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("1,1,1" + "0" * 400 + ",")

    @pytest.mark.parametrize(
        "argv",
        [
            ["zeta", "-a", "1" + "0" * 400, "-b", "1", "-s", "3"],
            ["zeta", "-a", "1/1" + "0" * 400, "-b", "1", "-s", "3"],
            ["residues", "-a", "1" + "0" * 400, "-b", "1"],
            ["residues", "-a", "1/1" + "0" * 400, "-b", "1"],
            ["weyl", "-a", "1" + "0" * 400, "-b", "1", "-R", "1,2,3"],
            ["capacities", "-a", "1", "-b", "1", "-k", f"1{'0' * 800}..1{'0' * 800}"],
            ["dk", "-a", "1", "-b", "1", "-k", f"1{'0' * 800}..1{'0' * 800}"],
        ],
    )
    def test_axis_past_the_float_range(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and line.endswith(("is outside the float range", "overflows a float"))
        if argv[0] in ("capacities", "dk"):  # c_k is about 1.4e400 at k = 10^800
            assert line == "error: capacity exp(921.381) overflows a float"

    def test_weyl_radius_zero(self, capsys):
        assert main(["weyl", "-a", "1", "-b", "2", "-R", "0,1,2"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "0,1,1,1"

    def test_huge_imaginary_part_fails_fast(self, capsys):
        t0 = time.perf_counter()
        assert main(["zeta", "-a", "1", "-b", "2", "-s=3,1e300"]) == 1
        assert time.perf_counter() - t0 < 1.0
        assert "Im(s)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["zeta", "residues"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.5", "x"])
    def test_bad_tol(self, command, tol, capsys):
        argv = [command, "-a", "1", "-b", "2", "--tol", tol] + ["-s", "3"] * (command == "zeta")
        assert main(argv) == 2
        assert capsys.readouterr().out == ""

    def test_residues_tol_is_the_accepted_error(self, capsys):
        # the default prints every row; a bound above --tol is an error, not a row
        assert main(["residues", "-a", "1", "-b", "2"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:7]
        assert max(float(r.split(",")[6]) for r in rows) <= 1e-10
        assert main(["residues", "-a", "1", "-b", "2", "--tol", "1e-20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: rounding bound") and "exceeds tol=1e-20" in captured.err

    @pytest.mark.parametrize("flag", ["--vol", "--c2", "--q"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_envelope_constant(self, flag, value, capsys):
        assert main(["envelope", "-k", "4..5", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    def test_c3_is_not_an_option(self, capsys):
        # c3 is always derived from c1
        assert main(["envelope", "-k", "4..5", "--c3", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --c3 1" in captured.err

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
