"""Every name a library module imports is used there or re-exported."""
import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "punctref")
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def unused_imports(source):
    """Imported names (outside __future__) that the module never uses as a
    name and does not list in its __all__."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            # string entries are exported; a starred entry is a use of its name
            exported.update(
                e.value for e in node.value.elts if isinstance(e, ast.Constant)
            )
    return sorted(
        (line, name)
        for name, line in imported.items()
        if name not in used and name not in exported
    )


def test_scan_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, json\n"
        "from typing import Mapping, Optional\n"
        "from .x import kept\n"
        "__all__ = ['kept']\n"
        "def f(a: Optional[int]) -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(2, "json"), (3, "Mapping")]
    starred = "from .x import a, b, c\n__all__ = ['a', *b]\n"
    assert unused_imports(starred) == [(1, "c")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(SRC, module)) as fh:
        assert unused_imports(fh.read()) == []
