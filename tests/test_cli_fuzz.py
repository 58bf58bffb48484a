"""Mutated fixtures never make the command line raise or print a traceback.

Each example applies one to three mutations to a fixture (drop a key, swap a
value for another JSON type, nudge an integer within |v| <= 50, duplicate an
array entry, put a line break into a string or a key, wrap a value in a few
thousand nested arrays) and runs one subcommand on it in process; ``segre``
also draws its ``--max-codim``. The run must end in one of two ways: exit 0
or 1 with a JSON document on stdout and nothing on stderr, or exit 1 or 2
with nothing on stdout and one line on stderr. Dropping one required member,
in turn, must be refused at that member's own JSON path.
"""
import contextlib
import copy
import io
import json
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from punctref.cli import _HANDLERS, main

from conftest import FIXTURE_NAMES, fixture_path

DOCS = {}
for _name in FIXTURE_NAMES:
    with open(fixture_path(_name)) as _f:
        DOCS[_name] = json.load(_f)

OTHER_VALUES = (None, True, 0, -1, 2.5, "x", [], {})


class Nested:
    """A value inside depth arrays. It is written out as text by ``dumps``:
    the encoder itself refuses to nest past the recursion limit."""

    def __init__(self, value, depth):
        self.value, self.depth = value, depth


def dumps(doc):
    """json.dumps, with each Nested spelled out as brackets around its value."""
    nested = []

    def hole(obj):
        nested.append(obj)
        return f"\0{len(nested) - 1}"

    text = json.dumps(doc, default=hole)
    for i, n in enumerate(nested):
        inner = "[" * n.depth + dumps(n.value) + "]" * n.depth
        text = text.replace(json.dumps(f"\0{i}"), inner)
    return text


def paths(node, prefix=()):
    """Every path below node, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield prefix + (key,)
        if isinstance(child, (dict, list)):
            yield from paths(child, prefix + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(draw, doc):
    """Apply one mutation at a drawn path of doc, in place."""
    path = draw(st.sampled_from(list(paths(doc))))
    parent, key = at(doc, path[:-1]), path[-1]
    value = parent[key]
    kinds = ["swap", "nest"]
    if isinstance(parent, dict):
        kinds.append("drop")
    if isinstance(value, int) and not isinstance(value, bool) and abs(value) <= 50:
        kinds.append("nudge")
    if isinstance(value, list) and value:
        kinds.append("duplicate")
    if isinstance(value, str) or isinstance(parent, dict):
        kinds.append("break")
    kind = draw(st.sampled_from(kinds))
    if kind == "drop":
        del parent[key]
    elif kind == "swap":
        others = [v for v in OTHER_VALUES if type(v) is not type(value)]
        parent[key] = copy.deepcopy(draw(st.sampled_from(others)))
    elif kind == "nest":
        parent[key] = Nested(value, draw(st.integers(2000, 5000)))
    elif kind == "nudge":
        parent[key] = draw(st.integers(max(-50, value - 5), min(50, value + 5)))
    elif kind == "break":
        # into the string itself, else into its key, where ray ids also sit
        text = value if isinstance(value, str) else key
        i = draw(st.integers(0, len(text)))
        broken = text[:i] + "\n" + text[i:]
        if isinstance(value, str):
            parent[key] = broken
        else:
            parent[broken] = parent.pop(key)
    else:
        i = draw(st.integers(0, len(value) - 1))
        value.insert(i, copy.deepcopy(value[i]))


@st.composite
def cases(draw):
    name = draw(st.sampled_from(FIXTURE_NAMES))
    doc = copy.deepcopy(DOCS[name])
    for _ in range(draw(st.integers(1, 3))):
        if doc:
            mutate(draw, doc)
    command = draw(st.sampled_from(sorted(_HANDLERS)))
    flags = []
    if command == "twisted-check":
        orders = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3))
        flags = ["--r", *map(str, orders)]
    if command == "segre":
        # absent, refused, empty, small, and far past the term budget
        max_codim = draw(st.sampled_from((None, -1, 0, 3, 999999999)))
        flags = [] if max_codim is None else ["--max-codim", str(max_codim)]
    return doc, command, flags


def run(doc, argv):
    """(exit code, stdout, stderr) of main on argv, with doc written as the
    file for each None in argv."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fx.json")
        with open(path, "w") as f:
            f.write(dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([path if a is None else a for a in argv])
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(cases())
def test_mutated_fixtures_end_in_json_or_one_line(case):
    doc, command, flags = case
    code, out, err = run(doc, [command, None, *flags])
    if out:
        assert code in (0, 1) and err == "", (code, err)
        json.loads(out)
    else:
        assert code in (1, 2), code
        assert err.endswith("\n") and err.count("\n") == 1, err


# members a loader reads when present: the sections, a complex's offsets, a
# class label, a step's new ray id and a ray's primitive; the keys of an
# offset's values are ray ids
OPTIONAL = {"offsets", "label", "new", "primitive"}


def json_path(path):
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


def member_drops():
    """(document, argv, path of the dropped member) for each required member
    of each fixture, a rooting file and a subdivision file."""
    for name in FIXTURE_NAMES:
        for path in paths(DOCS[name]):
            if (
                len(path) > 1
                and isinstance(path[-1], str)
                and path[-1] not in OPTIONAL
                and path[-2] != "values"
            ):
                yield DOCS[name], ["validate", None], path
    pr = fixture_path("pr-hyperplane")
    yield {"r": [2], "s": [1]}, ["twisted-check", pr, "--rooting", None], ("r",)
    fan = {"rays": [[1, 0], [0, 1]], "cones": [[0, 1]]}
    p2 = fixture_path("p2-two-lines")
    for key in fan:
        yield fan, ["sensitivity", p2, "--subdivision", None], (key,)


def test_a_dropped_member_is_refused_at_its_own_path():
    seen = set()
    for doc, argv, path in member_drops():
        doc = copy.deepcopy(doc)
        del at(doc, path[:-1])[path[-1]]
        result = run(doc, argv)
        assert result == (2, "", f"error: {json_path(path)}: missing\n"), (argv[0], path)
        seen.add(".".join(k for k in path if isinstance(k, str)))
    # every member the loaders require, the families the corpus reaches
    assert seen == {
        "data.k", "data.degrees", "data.markings",
        "strata.face", "strata.classes", "strata.classes.pairing",
        "complex.rays", "complex.cones", "complex.rays.id",
        "complex.offsets.puncture", "complex.offsets.values",
        "trace.center", "lifted_offsets.puncture", "lifted_offsets.values",
        "r", "rays", "cones",
    }
