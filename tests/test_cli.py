import argparse
import hashlib
import json
import math
import shlex
import sys
import time
import warnings
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import echspec.cli
from echspec import EchspecError, Ellipsoid, column_exponent_fit, d_sequence
from echspec.cli import (
    CLIError,
    _fmt,
    build_parser,
    main,
    parse_complex,
    parse_range,
    parse_rational,
)

from oracles import (
    brute_count_leq,
    brute_distinct_leq,
    defect_limits_by_gcd,
    distinct_leq_by_classes,
    weyl_fit_fractions,
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
# least-squares fit (tests/test_asymptotics.py::TestFitAccuracy), then the
# defect limit lines; the 1000000..1000500 ranges span under an octave, so
# they print only the limit lines.
PINNED_SHA256 = {
    ("capacities", "1", "832040/514229", "0..1500", "csv"): "6a6510a6435dff755f67cfe793ad49809682ed6972ada4daafcbe30568d7ee75",
    ("capacities", "1", "832040/514229", "0..1500", "json"): "1b1e2c926fdc3ec03783fe68000e91e5f3a85a4b2764ca2a0c87b8c4f7413fc1",
    ("capacities", "1", "832040/514229", "1000000..1000500", "csv"): "deaf2b6333bc330c2b426191a3c2b8fbcd37fb94d9c318aaa6784b87e99069ac",
    ("capacities", "1", "832040/514229", "1000000..1000500", "json"): "d482195ae8d4e33c7dc996bb51dc0825e6ebb0408cda190a4cac07bbc9875cb1",
    ("dk", "1", "832040/514229", "0..1500", "csv"): "9aa4032f7a244a161e20a22aab7b4fcbae77bedcc79236c13a88b690bc4f8970",
    ("dk", "1", "832040/514229", "0..1500", "json"): "4ebdb5cbf621b91b6903ee0ee75f5adbfc1759a677ac795d3680dd99cc2d9f61",
    ("dk", "1", "832040/514229", "1000000..1000500", "csv"): "27a897eb635f1b1d65a4a6f4839cad918cd6183497efd950cc3b7963d4d62691",
    ("dk", "1", "832040/514229", "1000000..1000500", "json"): "dcb46c7e0e4ac4aad1d43e30bf68583a932f2938e5b3f8bfae06abc3b271a52e",
    ("capacities", "2", "3", "0..1500", "csv"): "88200fcff1fe82ae3a466a9432a09431fa852254a34cf5bff766f45d4cfa23da",
    ("capacities", "2", "3", "0..1500", "json"): "8cf28de4fc91fbd199f0f042a21644d095dd2a6006a76775c886da8ef490c80d",
    ("capacities", "2", "3", "1000000..1000500", "csv"): "6cf4b152635aef2e25d76e32771541538ce0f9ab7beedfae1d217c1c0335bfd4",
    ("capacities", "2", "3", "1000000..1000500", "json"): "ff25d4344d23a01f5e0cecdf25eb8a53a4018fcf8b2be0710c09c2cbb3c2d971",
    ("dk", "2", "3", "0..1500", "csv"): "6d91f4c9beb667585245d21eef5e04c49a8c8fe72521ccf0fe3204ccc10e5aa2",
    ("dk", "2", "3", "0..1500", "json"): "9b50c9cc972c09788be72247a324a84aaaca849ab3815af78f2af3e82b122289",
    ("dk", "2", "3", "1000000..1000500", "csv"): "0ed56e657c3b312747c191a23de1c201c56e335ec2f8df3d339ba131a0aa292d",
    ("dk", "2", "3", "1000000..1000500", "json"): "4fad749984960ad563e3af12ac7913bc6e2b4102edd99f42560ff9696e291d28",
    ("residues", "1", "2", "", "csv"): "46dd08bdf29fc7a0d39aebe223d9093ab4411d366dbcf74ca063a7f9fed5935e",
    ("residues", "1", "2", "", "json"): "c1333e604bb6bc8771e088ba01b74ae0cb59c746649b53bad390397c4d020b04",
    ("residues", "2", "3", "", "csv"): "dc51e31e5f0cc56242b9b122104b5c5fc06e77cffd95b13019e48e3b96a2d2f0",
    ("residues", "2", "3", "", "json"): "dd6e05daa7e59d0842bde72711655b02504e39041e230bfa828ce2f652abc4c0",
    ("residues", "1/2", "3/2", "", "csv"): "b6c948e9a40137f240dea2a7da27a2cc6b2d319579dacecf80bc6606395d4432",
    ("residues", "1/2", "3/2", "", "json"): "12af8a564d7315a2384ba92368fb5e75844b524d7b04661a413a48413d04da72",
    ("residues", "1", "832040/514229", "", "csv"): "85b888ed7b1bec1ae1b63f2e77bdc43b3e41f5942477f86e235bfa828488c9cc",
    ("residues", "1", "832040/514229", "", "json"): "b7c0c36c74653d7bfbdac64fc23786ee256fef90ff51aecdaa16a3bc16ce2a2f",
    ("zeta", "2", "3", "interior", "csv"): "fc6f029644cd987974f3ebbf9aadbf8d7768df97f2f2e4b74e5837384c36e0a7",
    ("zeta", "2", "3", "interior", "json"): "52da764a4e30fb0c104b938593f67e74d7e785eb3633eda934b816881a8edbef",
    ("zeta", "2", "3", "full", "csv"): "5eee9361c6300a458864c31ab3971ee24b4b763de35965c1665fe24d8740d9d1",
    ("zeta", "2", "3", "full", "json"): "5cc251b894144154d5d3609ef2020e0a41c641755267b3a1dda6d08b9a095512",
    ("zeta", "2", "3", "distinct", "csv"): "f9b0c286b3638708f2dd2c448ea59c6b37440317dd8c033108bb75b3a6b10bed",
    ("zeta", "2", "3", "distinct", "json"): "f283e98aded0a8b917663cee7c8f61f295774e5106750b90db2fd3865767b36f",
    ("weyl", "1", "2", "10,20,30,40", "csv"): "42f32f20913833b1b812e1fa3c21af38bcc67d92ab3de00f1f7464b7d2e6d321",
    ("weyl", "1", "2", "10,20,30,40", "json"): "9cde4d5873533af191bf833fdcc1855a0d4ed504dd910f4ee36d4c18b571bf23",
    ("weyl", "3/2", "5/7", "10,20,30,40", "csv"): "00b79f81c9f6bc6a00838345b89cec801cd0862424961c33ea5c189a6095078e",
    ("weyl", "3/2", "5/7", "10,20,30,40", "json"): "ec92cc21285f577a4d02e1623a235b10af0c3dd473901ac679f64952f2da9708",
    ("capacities", "3/2", "5/7", "0..1500", "csv"): "821b206ce7cd22472a3571403cef405f2b10bd57092b9e11367b2619811db870",
    ("capacities", "3/2", "5/7", "0..1500", "json"): "f8d8c73a5d88bd54ee5dd4d1260fb68eb0413a9fc1a0c2bc2115f6a8304561e5",
    ("capacities", "3/2", "5/7", "1000000..1000500", "csv"): "54526b2d64f8eb6e53105d2cc5423bb5c2d4fb3f10f9fc4ec9a5183a3338f88d",
    ("capacities", "3/2", "5/7", "1000000..1000500", "json"): "60207c023322e4f1e95d6f32f530c1e907489d15b0ebeebbbf2c12cdb8e90ffe",
    ("dk", "3/2", "5/7", "0..1500", "csv"): "50b1b15b491068ac48f05aed4379448d1b0e9468af04324b3def6f034514f994",
    ("dk", "3/2", "5/7", "0..1500", "json"): "be63feab74c56c4c0a07b24391274414a53dce71764da0f6478a57d06f6ea804",
    ("dk", "3/2", "5/7", "1000000..1000500", "csv"): "584d53721dc157c7821d7d345d6ddef4e96c0bf8ef3f5405a90a7b6a803528ae",
    ("dk", "3/2", "5/7", "1000000..1000500", "json"): "46a22dd7b1d70e84c4e724a087ef253d1ac81eb6c9f213f6b71b8429b047c8e5",
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


    @pytest.mark.parametrize("argv", [["-h"], ["--help", "zeta"]])
    def test_help_describes_the_program_not_its_implementation(self, argv, capsys):
        # the description is a line of its own, not the module docstring's notes
        assert echspec.cli.main(argv) == 0
        out = capsys.readouterr().out
        assert "ECH capacities of ellipsoids and their zeta functions." in out
        for note in ("option table", "template", "complex-step", "argparse", "Subcommands:"):
            assert note not in out, note


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


def pinned_stdout_id(position, key) -> str:
    """The command and its arguments, so that a re-pin renames no test.

    The `capacities` and `dk` keys, which sort first, still take their
    position in the sorted keys (`key0` to `key23`).
    """
    if key[0] in ("capacities", "dk"):
        return f"key{position}"
    return "-".join(part for part in key if part).replace(" ", "_")


class TestByteIdentity:
    @pytest.mark.parametrize(
        "key", [pytest.param(key, id=pinned_stdout_id(i, key)) for i, key in enumerate(sorted(PINNED_SHA256))]
    )
    def test_pinned_stdout(self, key, capsys):
        cmd, a, b, arg, fmt = key
        axes = ["-a", a, "-b", b] if a else []
        flag = "-R" if cmd == "weyl" else "-k"
        extra = ["--convention", arg] + ZETA_POINTS if cmd == "zeta" else [flag] * bool(arg) + arg.split()
        argv = [cmd] + axes + extra + ["--format", fmt]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SHA256[key], " ".join(argv)

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


def readme_cli_examples() -> list[list[str]]:
    """The argv of each `echspec ...` line in the README's CLI block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(ln)[1:] for ln in block.splitlines() if ln.startswith("echspec ")]


ZETA12 = ["zeta", "-a", "1", "-b", "2"]


class TestDispatch:
    """main reads a known subcommand's plain command line from the option table
    and gives every other argv to the full parse by build_parser(); each argv
    gives what that full parse and cfg.func give."""

    ARGVS = [
        [],
        ["-h"],
        ["--help", "zeta"],
        ["zeta", "-h"],
        ["zeta", "--he"],
        ["bogus", "-a", "1"],
        ["--", "zeta", "-a", "1", "-b", "2", "-s", "3"],
        ZETA12 + ["-s", "3", "--form", "json", "--conv", "interior"],
        ZETA12 + ["-s=-2.5,1"],
        ZETA12 + ["-s", "-2.5,1"],
        ZETA12 + ["-s", "3", "-s", "0.5,2", "--format", "json"],
        ZETA12 + ["-s", "3", "extra", "--bogus", "more"],
        ZETA12 + ["--", "-s", "3"],
        ZETA12 + ["-s", "1"],
        ["zeta", "-a", "1"],
        ["residues", "-a", "1", "-b", "2", "--format", "xml"],
        ["capacities", "-a", "1", "-b", "2", "-k", "0..5", "--tol", "1e-3"],
        ["capacities", "-a", "1.5", "-b", "2", "-k", "0..3", "--format", "json"],
        ["envelope", "-k", "1..2", "--per-decade", "0"],
        ["dk", "-a", "2", "-b", "3", "--range=0..50", "--windows", "3", "--format", "json"],
        ZETA12 + ["-s", "3", "--format=json"],
        ["capacities", "-a=", "-b", "2", "-k", "0..5"],
        ["dk", "-a", "2", "-b", "3", "-k", "0..50", "--windows", "0"],
        ["capacities", "-a", "1", "-b", "2", "-a", "3", "-k", "0..5"],
        ["capacities", "-a", "1", "-b", "2", "--range=0..5"],
    ]

    @staticmethod
    def record_parses(monkeypatch) -> list:
        """(how, namespace) for each parse that gives a namespace, in the order
        the calls return: how is "plain" for a _plain_parse call, and for an
        ArgumentParser.parse_known_args call the parser's prog ("echspec zeta",
        then "echspec", in a full parse). The last is the whole parse's."""
        seen, parse, plain = [], argparse.ArgumentParser.parse_known_args, echspec.cli._plain_parse

        def recording(self, *args, **kwargs):
            ns, extras = parse(self, *args, **kwargs)
            seen.append((self.prog, ns))
            return ns, extras

        def recording_plain(*args):
            ns = plain(*args)
            if ns is not None:
                seen.append(("plain", ns))
            return ns

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
        monkeypatch.setattr(echspec.cli, "_plain_parse", recording_plain)
        return seen

    @staticmethod
    def full_parse(argv) -> int:
        """main without the plain parse: the full parse, where an option written
        opt=--, which Python 3.11's argparse stores as [], exits 2 naming it."""
        try:
            cfg = build_parser().parse_args(argv)
            _, subs, table = echspec.cli._parser()
            for action, _ in table[cfg.subcommand]:
                value = getattr(cfg, action.dest)
                if value == [] or isinstance(value, list) and [] in value:
                    subs[cfg.subcommand].error(f"argument {'/'.join(action.option_strings)}: expected one argument")
        except SystemExit as exc:
            return int(exc.code or 0)
        try:
            return cfg.func(cfg)
        except CLIError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (ValueError, EchspecError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    @pytest.mark.parametrize("argv", ARGVS + readme_cli_examples())
    def test_same_as_the_full_parse(self, argv, monkeypatch, capsys):
        seen = self.record_parses(monkeypatch)
        code = main(argv)
        got = (code, *capsys.readouterr(), [list(vars(ns).items()) for _, ns in seen[-1:]])
        seen.clear()
        code = self.full_parse(argv)
        want = (code, *capsys.readouterr(), [list(vars(ns).items()) for _, ns in seen[-1:]])
        assert got == want

    def test_one_parse_per_known_subcommand(self, monkeypatch, capsys):
        # a plain command line takes one plain parse and no argparse parse; any
        # other takes no plain parse and one full parse, its subparser's inside it
        seen = self.record_parses(monkeypatch)
        plain = [ZETA12 + ["-s", "3"], ["residues", "-a", "1", "-b", "2"], ["envelope", "-k", "1..2"]]
        deferred = [ZETA12 + ["--conv", "interior", "-s", "3"], ["envelope", "--range", "1..2", "--per", "2"]]
        for argv in plain + readme_cli_examples() + deferred:
            seen.clear()
            assert main(argv) == 0
            want = [f"echspec {argv[0]}", "echspec"] if argv in deferred else ["plain"]
            assert [h for h, _ in seen] == want, argv

    def test_option_written_with_a_double_dash_value(self, capsys):
        # Python 3.11's argparse stores opt=-- as [], or appends it: a usage error, not a traceback
        for name, options in echspec.cli._parser()[2].items():
            for action, _ in options:
                for flag in action.option_strings:
                    assert main([name, *PLAIN_BASES[name], f"{flag}=--"]) == 2, flag
                    out, err = capsys.readouterr()
                    assert out == ""
                    assert err.startswith("usage: echspec "), flag
                    assert err.endswith(
                        f"\nechspec {name}: error: argument {'/'.join(action.option_strings)}: expected one argument\n"
                    ), flag


# Values for each option string of some subcommand: some its type and choices
# take, some they refuse, some with a leading "-". Each stays cheap to run.
PLAIN_VALUES = {
    "-a": ["2", "1/2", "-1"], "-b": ["3", "3/2", ""], "--format": ["csv", "json", "xml"],
    "-k": ["0..5", "1..2", "-1..2"], "--range": ["3..4", "x"], "-R": ["10,20"],
    "--windows": ["3", "0", "1.5"], "--tol": ["1e-3", "0", "-1e-3"],
    "-s": ["3", "0.5,2", "-1.5,1", "1"], "--convention": ["interior", "full", "distinct", "none"],
    "--per-decade": ["2", "0"], "--q": ["1", "-1", "x"], "--c0": ["0.5"], "--c1": ["2"],
    "--c2": ["0.5"], "--vol": ["1000"],
}
# Each subcommand's option strings, and a command line it runs
PLAIN_OPTIONS = {
    "capacities": ["-a", "-b", "--format", "-k", "--range"],
    "weyl": ["-a", "-b", "--format", "-R"],
    "dk": ["-a", "-b", "--format", "-k", "--range", "--windows"],
    "zeta": ["-a", "-b", "--format", "--tol", "-s", "--convention"],
    "residues": ["-a", "-b", "--format", "--tol"],
    "envelope": ["--format", "-k", "--range", "--per-decade", "--q", "--c0", "--c1", "--c2", "--vol"],
}
PLAIN_BASES = {
    "capacities": ["-a", "2", "-b", "3", "-k", "0..5"],
    "weyl": ["-a", "1", "-b", "2", "-R", "10,20"],
    "dk": ["-a", "2", "-b", "3", "-k", "0..40"],
    "zeta": ["-a", "1", "-b", "2", "-s", "3"],
    "residues": ["-a", "1", "-b", "2"],
    "envelope": ["-k", "1..2"],
}


@st.composite
def command_lines(draw) -> list[str]:
    """A subcommand and its arguments: mostly a command line it runs, then
    options, mostly its own, as "opt value" or "opt=value", some abbreviated,
    some with empty or dashed values, and some lone tokens."""
    name = draw(st.sampled_from(sorted(PLAIN_BASES)))
    argv = [name] + (PLAIN_BASES[name] if draw(st.integers(0, 3)) else [])
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from(PLAIN_OPTIONS[name] if draw(st.integers(0, 3)) else sorted(PLAIN_VALUES)))
        value = draw(st.sampled_from(PLAIN_VALUES[flag] if draw(st.integers(0, 4)) else ["", "-", "--", "x"]))
        if not draw(st.integers(0, 4)):  # an abbreviation, or down to a lone "-"
            flag = flag[: draw(st.integers(1, len(flag) - 1))]
        form = draw(st.integers(0, 5))
        if form == 0:
            argv.append(draw(st.sampled_from([flag, value, "-h", "--help", "--", "--bogus"])))
        else:
            argv += [f"{flag}={value}"] if form == 1 else [flag, value]
    return argv


class TestPlainParse:
    """_plain_parse gives argparse's namespace or None, and main what the full parse gives."""

    @given(argv=command_lines())
    @example(argv=["zeta", "-a", "1", "-b", "2", "-s=--"])
    @example(argv=["capacities", "-a=", "-b", "2", "-k", "0..5"])
    @example(argv=["zeta", "-a", "1", "-b", "2", "-s", "3", "-s=-1.5,1", "--format=json"])
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_as_argparse(self, argv, capsys):
        name, args = argv[0], argv[1:]
        ns = echspec.cli._plain_parse(name, args)
        try:
            ref, extras = echspec.cli._parser()[1][name].parse_known_args(args, argparse.Namespace(subcommand=name))
        except SystemExit:
            ref = extras = None
        capsys.readouterr()
        if ns is not None:
            assert ref is not None and extras == []
            assert list(vars(ns).items()) == list(vars(ref).items())
        assert self.outcome(main, argv, capsys) == self.outcome(TestDispatch.full_parse, argv, capsys)

    @staticmethod
    def outcome(run, argv, capsys) -> tuple:
        """The exit code, or the repr of an uncaught error, then stdout and stderr."""
        try:
            code = run(argv)
        except Exception as exc:
            code = repr(exc)
        return (code, *capsys.readouterr())


class TestDkFitOmitted:
    def test_too_few_windows(self, capsys):
        assert main(["dk", "-a", "1", "-b", "1", "-k", "1..3", "--windows", "1"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 6
        assert _summary(captured.out) == _limits(1, 1)
        assert "warning: sup exponent fit omitted: exponent_fit requires at least two usable windows" in captured.err

    def test_non_finite_fit(self):
        # 9 indices near 1.1e7 span under an octave, so the CLI fits nothing
        # there; the fit itself gives an infinite coefficient, which _fit omits
        js = range(11203511, 11203520)
        ds = [p.d for p in d_sequence(Ellipsoid(1, F(832040, 514229)), js[0], js[-1])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = column_exponent_fit(js, ds, 12)
            assert not math.isfinite(fit.coefficient)
            omitted = []
            assert echspec.cli._fit("sup exponent", omitted, column_exponent_fit, js, ds, 12) is None
        assert omitted == [f"sup exponent fit omitted: non-finite fit {fit}"]

    def test_fit_kept_when_finite(self, capsys):
        assert main(["dk", "-a", "1", "-b", "1", "-k", "1..2000"]) == 0
        captured = capsys.readouterr()
        assert "# sup_exponent=" in captured.out
        assert "fit omitted" not in captured.err

    def test_index_past_the_float_range(self, capsys):
        # c_j near 4.5e154 fits a float; the window edges, floats of j, do not.
        # Four indices span under an octave, so the CLI gives that reason first.
        j = 10**309
        assert main(["dk", "-a", "1", "-b", "1", "-k", f"{j}..{j + 3}"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 7
        assert _summary(captured.out) == _limits(1, 1)
        assert captured.err == "warning: sup exponent fit omitted: indices span 0 octaves, less than one\n"
        with pytest.raises(ValueError, match=r"^index exp\(711\.499\) overflows a float$"):
            column_exponent_fit(range(j, j + 4), [1.0, 2.0, 3.0, 4.0], 12)

    @pytest.mark.parametrize(
        "k,fitted",
        [("1000..1999", False), ("1000..2000", True), ("0..1999", True), ("1..2", True)],
    )
    def test_an_octave_of_indices_is_fitted(self, k, fitted, capsys):
        assert main(["dk", "-a", "2", "-b", "3", "-k", k]) == 0
        captured = capsys.readouterr()
        summary = _summary(captured.out)
        assert ("fit_window" in summary) == fitted
        assert list(summary.items())[-2:] == list(_limits(2, 3).items())
        if fitted:
            assert captured.err == ""
        else:
            assert captured.err == (
                "warning: sup exponent fit omitted: indices span 0.999 octaves, less than one\n"
            )

    def test_narrow_range_builds_no_fit(self, monkeypatch, capsys):
        def fit(*args):
            raise AssertionError("column_exponent_fit called")

        monkeypatch.setattr(echspec.cli, "column_exponent_fit", fit)
        assert main(["dk", "-a", "2", "-b", "3", "-k", "1000000..1000500"]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 504
        assert _summary(captured.out) == _limits(2, 3)
        assert captured.err == (
            "warning: sup exponent fit omitted: indices span 0.000721 octaves, less than one\n"
        )
        with pytest.raises(AssertionError, match="column_exponent_fit called"):
            main(["dk", "-a", "2", "-b", "3", "-k", "1000..2000"])

    @given(
        a=st.fractions(F(1, 3), 5, max_denominator=3),
        b=st.fractions(F(1, 3), 5, max_denominator=3),
        j0=st.integers(0, 3000),
        width=st.integers(0, 3000),
        windows=st.integers(1, 16),
    )
    @example(a=F(2), b=F(3), j0=1000, width=999, windows=12)
    @example(a=F(2), b=F(3), j0=1000, width=1000, windows=12)
    @example(a=F(1), b=F(1), j0=0, width=1, windows=12)
    @example(a=F(1), b=F(1), j0=0, width=2, windows=12)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_summary_is_the_library_fit_over_an_octave(self, a, b, j0, width, windows, capsys):
        j1 = j0 + width
        argv = ["dk", "-a", str(a), "-b", str(b), "-k", f"{j0}..{j1}", "--windows", str(windows)]
        assert main(argv) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len([ln for ln in lines if not ln.startswith("#")]) == width + 2
        # stderr holds at most the one fit omitted line
        omitted = captured.err.splitlines()
        limits = _limits(a, b)
        lo = max(j0, 1)
        if lo < j1 < 2 * lo:
            assert _summary(captured.out) == limits
            (line,) = omitted
            assert line.startswith("warning: sup exponent fit omitted: indices span 0.")
            assert line.endswith(" octaves, less than one")
            return
        ds = [p.d for p in d_sequence(Ellipsoid(a, b), j0, j1)]
        try:
            fit = column_exponent_fit(range(j0, j1 + 1), ds, windows)
        except ValueError as exc:
            assert _summary(captured.out) == limits
            assert omitted == [f"warning: sup exponent fit omitted: {exc}"]
            return
        assert _summary(captured.out) == {
            "sup_exponent": _fmt(fit.exponent),
            "sup_coefficient": _fmt(fit.coefficient),
            "fit_window": f"{lo}..{j1}",
            **limits,
        }
        assert omitted == []

    @pytest.mark.parametrize("windows", ["0", "-3", "1" + "0" * 400])
    def test_windows_must_be_positive(self, windows, capsys):
        assert main(["dk", "-a", "1", "-b", "1", "-k", "1..30", "--windows", windows]) == 2

    def test_window_count_past_any_list(self, capsys):
        # the fit bisects for each row's window, so no edge list is built
        t0 = time.perf_counter()
        assert main(["dk", "-a", "1", "-b", "1", "-k", "1..30", "--windows", "1" + "0" * 300]) == 0
        assert time.perf_counter() - t0 < 1.0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 33
        assert captured.err == (
            "warning: sup exponent fit omitted: exponent_fit requires at least two usable windows\n"
        )

    @pytest.mark.parametrize(
        "k,reason",
        [
            ("5..5", "exponent_fit requires at least two usable windows"),
            ("0..1", "exponent_fit requires at least two usable windows"),
            ("0..0", "window_sups requires points with j >= 1"),
        ],
        ids=["5..5", "0..1", "0..0"],
    )
    def test_under_two_indices_from_one(self, k, reason, capsys):
        assert main(["dk", "-a", "1", "-b", "2", "-k", k]) == 0
        captured = capsys.readouterr()
        assert _summary(captured.out) == _limits(1, 2)
        assert captured.err == f"warning: sup exponent fit omitted: {reason}\n"


def _summary(out: str) -> dict:
    return dict(ln[2:].split("=", 1) for ln in out.splitlines() if ln.startswith("# "))


def _limits(a, b) -> dict:
    """dk's defect limit lines for E(a, b), from the gcd oracle."""
    lo, hi = defect_limits_by_gcd(F(a), F(b))
    return {"defect_liminf": str(lo), "defect_limsup": str(hi)}


class TestDkDefectLimits:
    def test_printed_as_p_over_q_after_the_fit(self, capsys):
        assert main(["dk", "-a", "2", "-b", "3", "-k", "0..1500"]) == 0
        assert capsys.readouterr().out.splitlines()[-3:] == [
            "# fit_window=1..1500",
            "# defect_liminf=-3",
            "# defect_limsup=-2",
        ]
        assert main(["dk", "-a", "2", "-b", "3", "-k", "0..1500", "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert (summary["defect_liminf"], summary["defect_limsup"]) == ("-3", "-2")

    @pytest.mark.parametrize(
        "a,b,limits",
        [
            ("1", "1", ("-3/2", "-1/2")),
            ("3", "200/7", ("-111/7", "-110/7")),
            ("1", "832040/514229", ("-673135/514229", "-673134/514229")),
            ("1/3", "1/3", ("-1/2", "-1/6")),
        ],
        ids=["1-1", "3-200/7", "1-832040/514229", "1/3-1/3"],
    )
    def test_the_gcd_interval(self, a, b, limits, capsys):
        assert main(["dk", "-a", a, "-b", b, "-k", "0..10"]) == 0
        summary = _summary(capsys.readouterr().out)
        assert (summary["defect_liminf"], summary["defect_limsup"]) == limits
        assert tuple(_limits(a, b).values()) == limits

    @pytest.mark.parametrize(
        "a,b,k,err",
        [
            ("1/3", "1/3", "0..6", ""),
            (
                "3",
                "200/7",
                "1000000..1000015",
                "warning: sup exponent fit omitted: indices span 2.16e-05 octaves, less than one\n",
            ),
        ],
        ids=["1/3-1/3-shallow", "3-200/7-deep"],
    )
    def test_exact_ties_raise_no_warning(self, a, b, k, err, capsys):
        # real ties of exact rationals: no warning about an approximation
        assert main(["dk", "-a", a, "-b", b, "-k", k]) == 0
        captured = capsys.readouterr()
        assert captured.err == err
        assert list(_summary(captured.out).items())[-2:] == list(_limits(a, b).items())


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
        summary = _summary(capsys.readouterr().out)
        assert float(summary["fit_coefficient"]) == 1 / (2 * 1 * 2)
        assert math.isfinite(float(summary["fit_remainder_exponent"]))

    def test_weyl_radius_below_float_range(self, capsys):
        # 1e-400 rounds to 0.0 as a float; its log comes from the integer parts
        R = ",".join(["1/1" + "0" * 400, "1", "2", "3"])
        assert main(["weyl", "-a", "1", "-b", "2", "-R", R]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1] == f"1,1{'0' * 400},1,1"
        summary = _summary(out)
        assert all(math.isfinite(float(v)) for v in summary.values())

    def test_weyl_fit_summary(self, capsys):
        # the fit alone, with no restated normalisation and no warning
        R = ",".join(str(k) for k in range(50, 401, 50))
        assert main(["weyl", "-a", "1", "-b", "1", "-R", R]) == 0
        captured = capsys.readouterr()
        summary = _summary(captured.out)
        assert list(summary) == ["fit_coefficient", "fit_remainder_exponent"]
        assert abs(float(summary["fit_coefficient"]) - 0.5) < 0.01
        assert captured.err == ""

    def test_weyl_radii_one_float_apart(self, capsys):
        # the logs of the three radii round to one float, so the exponent is nan
        R = ",".join(str(10**400 + i) for i in range(3))
        assert main(["weyl", "-a", "1", "-b", "2", "-R", R]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 4
        assert captured.err == (
            "warning: weyl fit omitted: non-finite fit FitResult(coefficient=0.25, exponent=nan)\n"
        )

    @pytest.mark.parametrize(
        "R,reason",
        [
            ("3,2,1", "weyl_fit requires strictly increasing R"),
            ("1,2,2", "weyl_fit requires strictly increasing R"),
            ("3", "weyl_fit requires at least 3 samples"),
            ("3,4", "weyl_fit requires at least 3 samples"),
        ],
        ids=["3,2,1", "1,2,2", "3", "3,4"],
    )
    def test_weyl_fit_omitted_names_the_reason(self, R, reason, capsys):
        assert main(["weyl", "-a", "1", "-b", "2", "-R", R]) == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1 + len(R.split(","))
        assert _summary(captured.out) == {}
        assert captured.err == f"warning: weyl fit omitted: {reason}\n"

    @given(
        a=st.fractions(F(1, 3), 5, max_denominator=3),
        b=st.fractions(F(1, 3), 5, max_denominator=3),
        radii=st.lists(st.integers(0, 12) | st.fractions(0, 12, max_denominator=4), min_size=1, max_size=6),
    )
    @example(a=F(1), b=F(2), radii=[F(3), F(0), F(3), F(1)])
    @example(a=F(2, 3), b=F(3), radii=[F(0), F(5, 2), F(7)])
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_weyl_matches_the_oracles(self, a, b, radii, capsys):
        # rows by enumeration; the summary is the Fraction fit's when that is
        # finite, else one warning says why it is left out
        radii = [F(r) for r in radii]
        assert main(["weyl", "-a", str(a), "-b", str(b), "-R", ",".join(map(str, radii))]) == 0
        captured = capsys.readouterr()
        rows = [ln for ln in captured.out.splitlines()[1:] if not ln.startswith("#")]
        assert rows == [
            f"{R.numerator},{R.denominator},{brute_count_leq(a, b, R)},{brute_distinct_leq(a, b, R)}"
            for R in radii
        ]
        try:
            fit = weyl_fit_fractions(Ellipsoid(a, b), radii)
        except ValueError:
            fit = None
        if fit and math.isfinite(fit.coefficient) and math.isfinite(fit.exponent):
            assert _summary(captured.out) == {
                "fit_coefficient": _fmt(fit.coefficient),
                "fit_remainder_exponent": _fmt(fit.exponent),
            }
            assert captured.err == ""
        else:
            assert _summary(captured.out) == {}
            (line,) = captured.err.splitlines()
            assert line.startswith("warning: weyl fit omitted: ")

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

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["zeta", "-a", "1", "-b", "2", "-s=abc"], "cannot parse complex 'abc'"),
            (["zeta", "-a", "1", "-b", "2"], "zeta requires at least one -s"),
            (["capacities", "-a", "1", "-b", "2", "-k=-3..2"], "capacity indices must be nonnegative"),
            (["dk", "-a", "1", "-b", "2", "-k=-3..2"], "grading indices must be nonnegative"),
            (["weyl", "-a", "1", "-b", "2", "-R", ""], "weyl requires -R"),
        ],
    )
    def test_usage_error_names_the_argument(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

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
        # the exact rows, and one warning naming the overflow in place of the fit
        assert main(["weyl", "-a", a, "-b", "2", "-R", R]) == 0
        captured = capsys.readouterr()
        E, radii = Ellipsoid(F(a), 2), [F(r) for r in R.split(",")]
        rows = [  # the count by the axis 2 keeps the enumeration to one or two lines
            f"{r.numerator},{r.denominator},{brute_count_leq(F(2), F(a), r)},{distinct_leq_by_classes(E, r)}"
            for r in radii
        ]
        assert captured.out.splitlines() == ["R_num,R_den,count_classes,count_values"] + rows
        (line,) = captured.err.splitlines()
        assert line.startswith("warning: weyl fit omitted: leading coefficient exp(")
        assert line.endswith(") overflows a float")

    def test_dk_at_an_axis_below_the_float_range(self, capsys):
        # the defect limits are exact Fractions, so no axis is made a float
        assert main(["dk", "-a", "1/1" + "0" * 400, "-b", "1", "-k", "1..5"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].startswith("1,1,1" + "0" * 400 + ",")
        assert list(_summary(out).items())[-2:] == list(_limits(F(1, 10**400), 1).items())

    @pytest.mark.parametrize(
        "a,b,message",
        [
            # c_3 = 3 * 10^400: the capacity check comes before the defects, as in d_sequence
            ("1" + "0" * 400, "1" + "0" * 401, "capacity exp(922.133)"),
            # every c_j fits a float, but d_1 = 1 - sqrt(2 * 10^700) does not
            ("1", "1" + "0" * 700, "defect d_1 exp(806.251)"),
        ],
        ids=["capacity", "defect"],
    )
    def test_dk_past_the_float_range(self, a, b, message, capsys):
        assert main(["dk", "-a", a, "-b", b, "-k", "0..3"]) == 1
        assert capsys.readouterr() == ("", f"error: {message} overflows a float\n")

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
            # DISTINCT shifts n B'/A' past the float range, with A' = 3 and 17
            ["zeta", "-a", "1", "-b", f"{3 * 10**400 + 1}/3", "-s", "3", "--convention", "distinct"],
            ["zeta", "-a", "1", "-b", f"{17 * 10**400 + 1}/17", "-s", "3", "--convention", "distinct"],
            ["weyl", "-a", "1" + "0" * 400, "-b", "2", "-R", "1,2,3"],
        ],
    )
    def test_axis_past_the_float_range(self, argv, capsys):
        if argv[0] == "weyl":  # its counts and fit take no float of an axis
            assert main(argv) == 0
            captured = capsys.readouterr()
            a, b = F(argv[2]), F(argv[4])  # enumerated along the small axis b
            rows = [f"{R},1,{brute_count_leq(b, a, R)},{brute_distinct_leq(b, a, R)}" for R in (1, 2, 3)]
            assert captured.out.splitlines()[1:4] == rows
            assert list(_summary(captured.out)) == ["fit_coefficient", "fit_remainder_exponent"]
            assert captured.err == ""
            return
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

    def test_envelope_with_a_tiny_c1(self, capsys):
        # P4's constant (3/(4 c1))^3 overflows: no radius meets P4, so r2 is P1's
        assert main(["envelope", "-k", "1..3", "--c1", "1e-200"]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith("10,")

    def test_envelope_at_r1_zero(self, capsys):
        # q + j = 0 and c0 = 0 put r1 at 0, where the F brackets divide by r1
        assert main(["envelope", "-k", "0..0", "--q=-1", "--c0", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: r1 = 0 is not positive; the F brackets divide by r1\n"

    def test_c3_is_not_an_option(self, capsys):
        # c3 is always derived from c1
        assert main(["envelope", "-k", "4..5", "--c3", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --c3 1" in captured.err

    @pytest.mark.parametrize("per_decade", ["0", "-3", "1" + "0" * 400])
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
