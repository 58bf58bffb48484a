"""No library module relies on an assert statement: invariants are explicit
checks, so they still hold under python -O."""
import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "punctref")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def assert_lines(source):
    """Line numbers of the assert statements in a module."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)
    )


def test_scan_flags_only_assert_statements():
    source = (
        '"""assert in a docstring"""\n'
        "def f(x):\n"
        "    assert x > 0, 'positive'\n"
        "    # assert in a comment\n"
        "    if x:\n"
        "        assert (x, 1)\n"
        "    return 'assert'\n"
    )
    assert assert_lines(source) == [3, 6]


@pytest.mark.parametrize("module", MODULES)
def test_no_asserts(module):
    with open(os.path.join(SRC, module)) as fh:
        assert assert_lines(fh.read()) == []
