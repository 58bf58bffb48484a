"""Each representation has one owner module. Only conecx calls
ConeComplex(...) or touches a complex's caches and star rule, so the cone
rule of a subdivision step, and its undo, live in one module and cannot
drift into a second. Only chowring packs, multiplies and normalizes
monomials, so the packed format its push-downs share has one writer."""
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


# the private names of each representation: chowring's packed and tuple
# monomials, and a complex's caches and star rule in conecx
CHOWRING_PRIVATE = (
    "_Layout", "_push_step", "_compositions", "_mono_mul", "_mono_degree",
    "_norm_monomial", "_finish",
)
CONECX_PRIVATE = ("_star", "_maximal_cache", "_ray_cache", "_mode_cache")


def names_in(source):
    """Every identifier source uses, defines or imports, and every string
    constant that is exactly an identifier (a cache key). Docstrings and
    comments are not read."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
    return names


def namers(private):
    """Each of the private names that a module names, mapped to those modules."""
    out = {}
    for name in MODULES:
        with open(os.path.join(SRC, name + ".py")) as fh:
            for p in names_in(fh.read()).intersection(private):
                out.setdefault(p, set()).add(name)
    return out


def test_scan_reads_names_and_cache_keys():
    source = (
        '"""_finish in a docstring, and _star"""\n'
        "from .chowring import _Layout as L\n"
        "def f(c):\n"
        "    # _push_step in a comment\n"
        '    c.__dict__.setdefault("_maximal_cache", chowring._mono_mul)\n'
        '    return "a _ray_cache in a sentence"\n'
    )
    private = set(CHOWRING_PRIVATE + CONECX_PRIVATE)
    assert names_in(source) & private == {"_Layout", "_maximal_cache", "_mono_mul"}


def test_only_chowring_names_monomial_internals():
    assert namers(CHOWRING_PRIVATE) == dict.fromkeys(CHOWRING_PRIVATE, {"chowring"})


def test_only_conecx_names_complex_internals():
    assert namers(CONECX_PRIVATE) == dict.fromkeys(CONECX_PRIVATE, {"conecx"})
