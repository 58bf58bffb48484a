"""Only conecx calls ConeComplex(...), so the cone rule of a subdivision
step, and its undo, live in one module and cannot drift into a second."""
import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "punctref")
MODULES = sorted(f[:-3] for f in os.listdir(SRC) if f.endswith(".py"))


def calls_to(source, name):
    """Line numbers of the calls to name in source, called bare or as an
    attribute of anything. A mention that is not a call is not read."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == name or isinstance(f, ast.Attribute) and f.attr == name:
            lines.append(node.lineno)
    return sorted(lines)


def test_scan_reads_only_calls():
    source = (
        '"""ConeComplex(rays, cones) in a docstring"""\n'
        "from .conecx import ConeComplex\n"
        "def f(c: ConeComplex) -> ConeComplex:\n"
        "    return ConeComplex(c.rays, c.cones)\n"
        "g = conecx.ConeComplex((), [()])\n"
        "h = isinstance(g, ConeComplex)\n"
    )
    assert calls_to(source, "ConeComplex") == [4, 5]


def test_only_conecx_builds_cone_complexes():
    builders = set()
    for name in MODULES:
        with open(os.path.join(SRC, name + ".py")) as fh:
            if calls_to(fh.read(), "ConeComplex"):
                builders.add(name)
    assert builders == {"conecx"}
