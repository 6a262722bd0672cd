"""Rules that every module of the package keeps in its source."""

import ast
import pathlib

import nodalstab

SRC = pathlib.Path(nodalstab.__file__).parent


def assert_lines(source: str) -> list:
    """Line numbers of the ``assert`` statements in a module's source."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_the_assert_finder_finds_asserts():
    assert assert_lines("x = 1\nif x:\n    assert x, 'x'\n") == [3]
    assert assert_lines("def f(assert_=1):\n    return 'assert'\n") == []


def test_no_module_relies_on_assert():
    # python -O strips asserts, so an invariant must raise a package error
    found = [f"{path.name}:{line}" for path in sorted(SRC.rglob("*.py"))
             for line in assert_lines(path.read_text(encoding="utf-8"))]
    assert found == []
