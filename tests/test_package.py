import argparse
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import echspec
from echspec import EchspecError, NonConvergent
from echspec.cli import build_parser
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


def test_fresh_import_loads_no_numpy():
    # In a new interpreter: this process has numpy loaded through tests/oracles.py.
    code = "import echspec, echspec.cli, sys; print('numpy' in sys.modules)"
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout == "False\n"


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


def test_version_matches_pyproject():
    # Both are written by hand; diagnostics print echspec.__version__.
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with open(SRC.parents[1] / "pyproject.toml", "rb") as f:
        assert echspec.__version__ == tomllib.load(f)["project"]["version"]
