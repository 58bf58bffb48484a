"""The module-level relative imports of src/punctref form an acyclic graph,
so no module has to defer an import inside a function to break a cycle."""
import ast
import graphlib
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "punctref")
MODULES = sorted(f[:-3] for f in os.listdir(SRC) if f.endswith(".py"))


def relative_imports(source, modules):
    """(line, module) of each relative import at the top of a module's body.

    ``from . import x`` names the submodule x when there is one, and the
    package's ``__init__`` otherwise. Imports inside a function or an ``if``
    block are not read.
    """
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ImportFrom) or not node.level:
            continue
        if node.module:
            out.append((node.lineno, node.module.split(".")[0]))
        else:
            out.extend(
                (node.lineno, a.name if a.name in modules else "__init__")
                for a in node.names
            )
    return sorted(out)


def find_cycle(graph):
    """One import cycle of a module -> imported modules graph, or None."""
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as e:
        return e.args[1]
    return None


def test_scan_reads_only_top_level_relative_imports():
    source = (
        '"""from .gerby import x in a docstring"""\n'
        "from typing import TYPE_CHECKING\n"
        "from . import aluffi, __version__\n"
        "from .conecx import build_complex\n"
        "import json\n"
        "if TYPE_CHECKING:\n"
        "    from .puncture import PuncturingData\n"
        "def f():\n"
        "    from .blowups import subdivision\n"
    )
    assert relative_imports(source, {"aluffi", "conecx"}) == [
        (3, "__init__"), (3, "aluffi"), (4, "conecx")
    ]


def test_cycle_search_finds_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert set(find_cycle({"a": {"b"}, "b": {"a"}, "c": {"a"}})) == {"a", "b"}


def test_module_level_imports_are_acyclic():
    graph = {}
    for name in MODULES:
        with open(os.path.join(SRC, name + ".py")) as fh:
            graph[name] = {m for _, m in relative_imports(fh.read(), MODULES)}
    assert find_cycle(graph) is None
    assert "aluffi" in graph["puncture"]
