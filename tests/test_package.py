import ast
from pathlib import Path

import pytest

import echspec
from echspec import EchspecError, NonConvergent
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
