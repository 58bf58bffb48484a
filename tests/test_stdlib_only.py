"""The library imports nothing outside the standard library: every absolute
import of a module in src/punctref names a standard-library module, so the
package keeps no runtime dependency. Relative imports stay inside it. No
module imports ``dataclasses``, which costs a cold start about 10 ms with
``inspect``: the records derive from ``conecx._Record``."""
import ast
import os
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "punctref")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def absolute_imports(source):
    """(line, top-level module name) of each absolute import in a module."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.extend((node.lineno, a.name.split(".")[0]) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            out.append((node.lineno, node.module.split(".")[0]))
    return sorted(out)


def test_scan_finds_only_absolute_imports():
    source = (
        '"""import numpy in a docstring"""\n'
        "import os.path, json\n"
        "from collections import abc\n"
        "from . import lattice\n"
        "from .conecx import build_complex\n"
        "# import scipy in a comment\n"
        "def f():\n"
        "    import sympy.matrices\n"
        "    return 'import numpy'\n"
    )
    assert absolute_imports(source) == [
        (2, "json"), (2, "os"), (3, "collections"), (8, "sympy")
    ]


@pytest.mark.parametrize("module", MODULES)
def test_stdlib_only(module):
    with open(os.path.join(SRC, module)) as fh:
        imports = absolute_imports(fh.read())
    assert [x for x in imports if x[1] not in sys.stdlib_module_names] == []


@pytest.mark.parametrize("module", MODULES)
def test_no_dataclasses(module):
    with open(os.path.join(SRC, module)) as fh:
        imports = absolute_imports(fh.read())
    assert [x for x in imports if x[1] == "dataclasses"] == []
