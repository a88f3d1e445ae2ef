import argparse
import ast
import copy
import json
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import echspec
from echspec import (
    EchspecError,
    Ellipsoid,
    EnvelopeConstants,
    NonConvergent,
    capacity_envelope,
    d_sequence,
    ech_laurent_pair,
    weyl_count,
    weyl_fit,
)
from echspec.cli import build_parser, main
from echspec.envelope import _sup_below

SRC = Path(echspec.__file__).resolve().parent


class TestErrorHierarchy:
    def test_every_exported_exception_is_an_echspec_error(self):
        exported = [getattr(echspec, name) for name in echspec.__all__]
        errors = [e for e in exported if isinstance(e, type) and issubclass(e, BaseException)]
        assert NonConvergent in errors
        for e in errors:
            assert issubclass(e, EchspecError), e

    def test_non_convergent_catches_envelope_bracket_failure(self):
        # The laurent_at case is tests/test_zeta.py::TestLaurent.
        with pytest.raises(NonConvergent):
            _sup_below(lambda r: True, 1.0)


def test_every_exported_name_has_a_docstring():
    # Its own: not one inherited, nor the Name(field, ...) text namedtuples generate.
    def own_doc(name: str) -> str:
        obj = getattr(echspec, name)
        doc = (obj.__dict__.get("__doc__") if isinstance(obj, type) else obj.__doc__) or ""
        return "" if doc.startswith(f"{name}(") else doc.strip()

    assert [name for name in echspec.__all__ if not own_doc(name)] == []


def test_no_private_imports_across_modules():
    # Modules share only public names; the scaled-integer helpers that once
    # crossed modules privately are public now (scaled_spectrum, scaled_defects).
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or "echspec" in (node.module or "")):
                found |= {(path.stem, a.name) for a in node.names if a.name.startswith("_")}
    assert found == set()


def unused_imports(source: str) -> set[str]:
    """Names a module imports but never loads, other than those its __all__
    re-exports; `import a.b` binds `a`, and __future__ imports bind nothing."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", "") != "__future__":
                imported |= {(a.asname or a.name).partition(".")[0] for a in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", "") == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return imported - used


def test_unused_import_check_sees_what_it_should():
    source = "from __future__ import annotations\nimport os.path, re\nfrom math import gcd, pi as PI\n"
    assert unused_imports(source) == {"os", "re", "gcd", "PI"}
    used = source + "__all__ = ['gcd']\nos.sep, re.sub, PI\n"
    assert unused_imports(used) == set()


def test_no_unused_imports():
    # No linter runs on the package, so the suite is the guard.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= {(path.stem, name) for name in unused_imports(path.read_text(encoding="utf-8"))}
    assert found == set()


def test_package_imports_only_the_standard_library():
    # numpy and mpmath serve the tests and the benchmark checker, not the package.
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found |= {(path.stem, a.name) for a in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.add((path.stem, node.module))
    stdlib = sys.stdlib_module_names
    assert {(m, name) for m, name in found if name.partition(".")[0] not in stdlib} == set()


def test_records_survive_pickle_and_copy():
    # Ellipsoid is rebuilt from its axes, EnvelopeConstants through its validation.
    E = Ellipsoid(F(2, 3), F(5, 7))
    records = [
        E,
        d_sequence(E, 3, 3)[0],
        weyl_fit(E, [10, 20, 30, 40]),
        weyl_count(E, 10),
        ech_laurent_pair(2, E)[1],
        EnvelopeConstants(q=1.0, c1=0.5),
        capacity_envelope(1e4, EnvelopeConstants()),
    ]
    assert len({type(r) for r in records}) == 7
    for r in records:
        for c in (pickle.loads(pickle.dumps(r)), copy.deepcopy(r), copy.copy(r)):
            assert type(c) is type(r) and c == r and repr(c) == repr(r)
            if isinstance(c, Ellipsoid):
                assert (c.A, c.B, c.den) == (14, 15, 21)


def fresh_env() -> dict:
    """The environment of a new interpreter that finds this package."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def fresh_stdout(code: str, *flags: str) -> str:
    """What code prints in a new interpreter, run with flags, that finds this package."""
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=fresh_env(),
        capture_output=True,
        text=True,
        check=True,
    ).stdout


@pytest.mark.parametrize("last", [10, 200000])
def test_closed_stdout_exits_one_without_a_traceback(last):
    # `echspec capacities ... | head -1` with stdout block-buffered, as in a shell
    # pipe, and the reader gone before the command writes: stdin holds the run
    # until then. 0..10 stays in the buffer until main's flush; 0..200000 meets
    # the closed pipe in emit's writes.
    code = "import sys, echspec.cli; sys.stdin.read(); sys.exit(echspec.cli.main(sys.argv[1:]))"
    env = {k: v for k, v in fresh_env().items() if k != "PYTHONUNBUFFERED"}
    argv = ["capacities", "-a", "1", "-b", "2", "-k", f"0..{last}"]
    with subprocess.Popen(
        [sys.executable, "-c", code, *argv],
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        proc.stdout.close()
        proc.stdin.close()
        assert (proc.wait(timeout=60), proc.stderr.read()) == (1, "")


def test_fresh_import_loads_no_numpy():
    # In a new interpreter: this process has numpy loaded through tests/oracles.py.
    assert fresh_stdout("import echspec, echspec.cli, sys; print('numpy' in sys.modules)") == "False\n"


def test_fresh_cli_import_loads_no_dataclasses_typing_or_json(capsys):
    # dataclasses alone would load inspect, ast, dis and tokenize at start-up.
    # emit imports json in its JSON branch: the run exercises that import in a
    # process where nothing else has loaded json.
    argv = ["capacities", "-a", "2/3", "-b", "5/7", "-k", "3..4", "--format", "json"]
    code = (
        "import sys, echspec.cli\n"
        "print([m for m in ('dataclasses', 'inspect', 'typing', 'json') if m in sys.modules])\n"
        f"sys.exit(echspec.cli.main({argv!r}))\n"
    )
    out = fresh_stdout(code, "-S")
    assert main(argv) == 0
    assert out == "[]\n" + capsys.readouterr().out


def test_every_cli_option_is_in_the_readme():
    # An option the README never names is a knob nobody can find.
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {
        opt
        for p in (parser, *commands.choices.values())
        for action in p._actions
        for opt in action.option_strings
    }
    assert {opt for opt in options if not re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", readme)} == set()


def test_every_summary_line_is_in_the_readme(capsys):
    # A summary line the README never names is a number nobody can read.
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    small = {
        "capacities": ["-a", "2", "-b", "3", "-k", "0..5"],
        "weyl": ["-a", "2", "-b", "3", "-R", "10,20,30"],
        "dk": ["-a", "2", "-b", "3", "-k", "1..50"],
        "zeta": ["-a", "2", "-b", "3", "-s", "3"],
        "residues": ["-a", "2", "-b", "3"],
        "envelope": ["-k", "4..5"],
    }
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(small) == set(commands.choices)
    keys = set()
    for name, argv in small.items():
        assert main([name, *argv, "--format", "json"]) == 0
        keys |= set(json.loads(capsys.readouterr().out)["summary"])
    assert {"sup_exponent", "defect_liminf", "fit_coefficient", "note", "constants"} <= keys
    assert {key for key in keys if f"`{key}`" not in readme} == set()


def test_readme_python_blocks_run():
    # An API the README still shows after a rename or deletion fails here.
    readme = (SRC.parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_version_matches_pyproject():
    # Both are written by hand; diagnostics print echspec.__version__.
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(SRC.parents[1] / "pyproject.toml", "rb") as f:
        assert echspec.__version__ == tomllib.load(f)["project"]["version"]
