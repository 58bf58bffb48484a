"""Tropical type enumeration, cones, balancing, and complex assembly."""
import functools
import gc
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import punctref
from punctref import tropmaps
from punctref.blowups import _restrict_data, _restrict_model
from punctref.conecx import Ray, _Record, build_complex
from punctref.lattice import is_unimodular, kernel
from punctref.fixtureio import complex_to_json, types_to_json
from punctref.puncture import puncturing_data
from punctref.tropdata import (
    BalancingError,
    EdgeDecor,
    EnumerationBoundError,
    NonSmoothConeError,
    TropicalType,
    VertexDecor,
    numerical_data,
    positivize,
    target_model,
    validate_numerical_data,
)
from punctref.tropmaps import (
    _decode,
    _face_candidates,
    _faces_of_cone,
    _level_types,
    _position_rows,
    _trees,
    TypeCone,
    assemble_complex,
    canonical_key,
    cone_of_type,
    enumerate_types,
    positivize_type,
    realizable,
    slopes_from_balancing,
    specializations,
)

from conftest import (
    p2_data_model,
    pr_data_model,
    reference_cone_of_type,
    reference_faces_of_cone,
    reference_level_types,
    reference_realizable,
)


def test_numerical_data_partition():
    nd = numerical_data(2, (1, 1), [(2, 2), (-1, -1), (0, 3)])
    assert nd.ordinary == (1, 3)
    assert nd.punctures == (2,)
    assert nd.rank(2) == 2
    assert nd.rank(3) == 0
    assert nd.k_P == 2


def test_numerical_data_rank_is_one_based():
    nd = numerical_data(2, (1, 1), [(2, 2), (-1, -1)])
    assert nd.rank(1) == 0
    for i in (0, -1, 3):
        with pytest.raises(ValueError, match="marking index"):
            nd.rank(i)


def test_numerical_data_validation():
    with pytest.raises(ValueError, match="genus"):
        numerical_data(1, (1,), []).__class__(1, (1,), (), genus=1)
    with pytest.raises(ValueError, match="degree vector"):
        numerical_data(2, (1,), [])
    with pytest.raises(ValueError, match="marking vector"):
        numerical_data(1, (1,), [(1, 2)])


def test_validate_report():
    nd, _ = p2_data_model()
    report = validate_numerical_data(nd)
    assert report == {
        "ok": True,
        "violations": [],
        "O": [1],
        "P": [2],
        "k_i": {1: 0, 2: 2},
        "k_P": 2,
        "virtual_codimension": 2,
    }
    bad = numerical_data(2, (1, 5), [(2, 2), (-1, -1)])
    assert validate_numerical_data(bad) == {
        "ok": False,
        "violations": [2],
        "O": [1],
        "P": [2],
        "k_i": {1: 0, 2: 2},
        "k_P": 2,
        "virtual_codimension": 2,
    }


def test_target_model_shape():
    tm = target_model(1, [((1,), [((1,), "a")]), ((), [((1,), "b")])])
    assert [sorted(f) for f, _ in tm.strata] == [[], [1]]
    assert tm.classes_at(frozenset([1])) == (((1,), "a"),)
    assert tm.classes_at(frozenset([9])) == ()
    with pytest.raises(ValueError, match="outside"):
        target_model(1, [((2,), [])])
    with pytest.raises(ValueError, match="length"):
        target_model(1, [((), [((1, 2), "a")])])
    # a second row for a face would be ignored by classes_at
    with pytest.raises(ValueError, match=r"face \[1\] listed twice"):
        target_model(1, [((), [((1,), "line")]), ((1,), []), ((1,), [((1,), "line-in-H")])])


def p2_two_vertex_type():
    nd, _ = p2_data_model()
    verts = (
        VertexDecor(frozenset([1, 2]), (0, 0), "0", (1, 2)),
        VertexDecor(frozenset(), (1, 1), "line", ()),
    )
    return nd, verts


def test_slopes_p2_two_vertex():
    nd, verts = p2_two_vertex_type()
    t = slopes_from_balancing(nd, verts, [(0, 1)])
    assert t.edges[0].slope == (-1, -1)
    assert t.edges[0].face == frozenset([1, 2])


def test_slopes_are_root_independent():
    nd, verts = p2_two_vertex_type()
    fwd = slopes_from_balancing(nd, verts, [(0, 1)])
    rev = slopes_from_balancing(nd, tuple(reversed(verts)), [(0, 1)])
    assert rev.edges[0].slope == tuple(-x for x in fwd.edges[0].slope)
    assert canonical_key(fwd) == canonical_key(rev)


def test_slopes_reject_non_trees():
    nd, verts = p2_two_vertex_type()
    with pytest.raises(BalancingError, match="not a tree"):
        slopes_from_balancing(nd, verts, [])
    three = verts + (VertexDecor(frozenset(), (0, 0), "0", ()),)
    with pytest.raises(BalancingError, match="disconnected"):
        slopes_from_balancing(nd, three, [(0, 1), (0, 1)])


def test_slopes_reject_out_of_range_ends_and_legs():
    # these raised a bare KeyError or IndexError, and leg 0 read the last marking
    nd, verts = p2_two_vertex_type()
    for ends in ((0, -1), (0, 2), (-1, 1)):
        with pytest.raises(BalancingError) as err:
            slopes_from_balancing(nd, verts, [ends])
        assert str(err.value) == f"edge 0 {ends} has an end outside 0..1"
    for leg in (0, len(nd.markings) + 1):
        legged = (verts[0], VertexDecor(frozenset(), (1, 1), "line", (leg,)))
        with pytest.raises(BalancingError) as err:
            slopes_from_balancing(nd, legged, [(0, 1)])
        assert str(err.value) == f"leg {leg} at vertex 1 names no marking"


def test_slopes_reject_unbalanced_decorations():
    nd, _ = p2_data_model()
    verts = (
        VertexDecor(frozenset(), (1, 1), "line", (1,)),
        VertexDecor(frozenset([1, 2]), (0, 0), "0", (2,)),
    )
    # slope (-1,-1) forced by the v0 side; at v1 it balances, but swapping
    # the pairings breaks vertex 0.
    slopes_from_balancing(nd, verts, [(0, 1)])
    broken = (verts[1], verts[1])
    with pytest.raises(BalancingError, match="balancing fails"):
        slopes_from_balancing(nd, broken, [(0, 1)])


def test_cone_positions_track_slopes():
    # Two vertices on the same divisor face joined by a slope-2 edge.
    nd = numerical_data(1, (1,), [(3,), (-2,)])
    verts = (
        VertexDecor(frozenset([1]), (0,), "0", (2,)),
        VertexDecor(frozenset([1]), (1,), "line", (1,)),
    )
    t = slopes_from_balancing(nd, verts, [(0, 1)])
    assert t.edges[0].slope == (2,)
    cone = cone_of_type(nd, t)
    assert cone.variables == ("x1", "l0")
    assert cone.dim == 2
    assert cone.rays == ((0, 1), (1, 0))
    assert realizable(nd, t)
    # at the pure-length ray the far vertex sits at position 2
    assert cone.position(1, 1, (0, 1)) == 2
    assert cone.position(0, 1, (0, 1)) == 0


def test_zero_slope_types_are_unrealizable():
    nd = numerical_data(1, (2,), [(2,), (0,)])
    verts = (
        VertexDecor(frozenset(), (2,), "conic", (1,)),
        VertexDecor(frozenset([1]), (0,), "0", (2,)),
    )
    t = slopes_from_balancing(nd, verts, [(0, 1)])
    assert t.edges[0].slope == (0,)
    assert not realizable(nd, t)


def test_enumerate_p2_six_types():
    nd, tm = p2_data_model()
    types = enumerate_types(nd, tm)
    assert len(types) == 6
    assert types == enumerate_types(nd, tm)
    dims = sorted(cone_of_type(nd, t).dim for t in types)
    assert dims == [0, 1, 1, 1, 2, 2]
    keys = {canonical_key(t) for t in types}
    for t in types:
        for s in specializations(nd, t):
            assert canonical_key(s) in keys


def test_enumerate_pr_four_types():
    nd, tm = pr_data_model()
    types = enumerate_types(nd, tm)
    assert len(types) == 4
    assert sorted(cone_of_type(nd, t).dim for t in types) == [0, 1, 1, 2]


def test_closure_under_specialization_adds_types_no_level_yields():
    # nothing is listed at the trivial face, so a vertex sits there only in a
    # specialization of a type with that vertex on H
    nd = numerical_data(1, (1,), [(2,), (-1,)])
    tm = target_model(1, [((), []), ((1,), [((1,), "line-in-H")])])
    types = enumerate_types(nd, tm)
    assert len(types) == 4
    candidates = _face_candidates(nd, tm)
    # the vertex bound B is 2 here; the reference walk yields every balanced
    # stable labeling, the unrealizable ones too
    leveled = {
        canonical_key(t) for n in (1, 2) for t in reference_level_types(nd, candidates, n)
    }
    line_at_origin = VertexDecor(frozenset(), (1,), "line-in-H", ())
    assert [t for t in types if canonical_key(t) not in leveled] == [
        TropicalType(1, (VertexDecor(frozenset(), (1,), "line-in-H", (1, 2)),), ()),
        TropicalType(
            1,
            (VertexDecor(frozenset({1}), (0,), "0", (1, 2)), line_at_origin),
            (EdgeDecor((0, 1), frozenset({1}), (-1,)),),
        ),
    ]
    cx, _ = assemble_complex(nd, types)
    assert cx.ray_ids == ("r1", "r2")
    assert cx.maximal_cones() == (("r1", "r2"),)


def test_enumerate_degree_zero_trivial_only():
    nd = numerical_data(1, (0,), [])
    tm = target_model(1, [((), [((1,), "line")]), ((1,), [((1,), "lineH")])])
    types = enumerate_types(nd, tm)
    assert len(types) == 1
    (t,) = types
    assert t.edges == ()
    assert t.vertices[0].pairing == (0,)
    assert t.vertices[0].face == frozenset()


def test_enumerate_rejects_mixed_sign_models():
    nd = numerical_data(1, (0,), [])
    tm = target_model(1, [((), [((1,), "a")]), ((1,), [((-1,), "b")])])
    with pytest.raises(EnumerationBoundError, match="both signs"):
        enumerate_types(nd, tm)


def test_enumerate_reports_vertex_bound_hit():
    nd, tm = pr_data_model()
    with pytest.raises(EnumerationBoundError, match="vertex bound"):
        enumerate_types(nd, tm, bounds={"max_vertices": 2})


def test_enumerate_refuses_a_vertex_bound_past_the_canonical_form(monkeypatch):
    # pr in degree 5 with markings (6), (-1) has B = 10: the walk ran for
    # minutes before a nine-vertex type reached canonical_key's cap
    _, tm = pr_data_model()
    nd = numerical_data(1, (5,), [(6,), (-1,)])
    monkeypatch.setattr(tropmaps, "_level_types", None)
    for bounds, bound in ((None, 10), ({"max_vertices": 9}, 9)):
        with pytest.raises(EnumerationBoundError) as err:
            enumerate_types(nd, tm, bounds=bounds)
        assert str(err.value) == (
            f"vertex bound {bound} is past the canonical form's cap of 8 vertices"
        )
    assert tropmaps.MAX_KEY_VERTICES == 8


def test_enumerate_refuses_bounds_it_would_ignore():
    # a cap below 1 returned () and an unknown key was dropped, both silently
    nd, tm = pr_data_model()
    for bounds in ({"max_vertices": 0}, {"max_vertices": -1}, {"max_vertex": 1}):
        with pytest.raises(ValueError) as err:
            enumerate_types(nd, tm, bounds=bounds)
        assert str(err.value) == f"bounds take only max_vertices >= 1, got {bounds}"
    assert enumerate_types(nd, tm, bounds={}) == enumerate_types(nd, tm)


def test_enumerate_rejects_unbalanced_data():
    tm = target_model(1, [((), [((1,), "a")])])
    with pytest.raises(ValueError, match="unbalanced"):
        enumerate_types(numerical_data(1, (5,), [(1,)]), tm)


def test_canonical_key_permutation_invariance():
    nd, verts = p2_two_vertex_type()
    t = slopes_from_balancing(nd, verts, [(0, 1)])
    s = slopes_from_balancing(nd, tuple(reversed(verts)), [(1, 0)])
    assert canonical_key(t) == canonical_key(s)


def zero_path(n):
    """A path on n zero-class vertices at the trivial face."""
    verts = tuple(VertexDecor(frozenset(), (0,), "0", ()) for _ in range(n))
    edges = tuple(EdgeDecor((i, i + 1), frozenset(), (0,)) for i in range(n - 1))
    return TropicalType(1, verts, edges)


def test_canonical_key_vertex_cap(monkeypatch):
    # the refusal read "beyond eight vertices" whatever the cap was
    with pytest.raises(EnumerationBoundError, match="^canonical form beyond 8 vertices$"):
        canonical_key(zero_path(9))
    monkeypatch.setattr(tropmaps, "MAX_KEY_VERTICES", 3)
    assert canonical_key(zero_path(3)) == reference_canonical_key(zero_path(3))
    with pytest.raises(EnumerationBoundError, match="^canonical form beyond 3 vertices$"):
        canonical_key(zero_path(4))


def test_specializations_of_top_cell():
    nd, tm = p2_data_model()
    types = enumerate_types(nd, tm)
    top = [t for t in types if cone_of_type(nd, t).dim == 2]
    assert len(top) == 2
    for t in top:
        specs = specializations(nd, t)
        assert len(specs) == 3
        assert sorted(cone_of_type(nd, s).dim for s in specs) == [0, 1, 1]


def test_assemble_p2_complex():
    nd, tm = p2_data_model()
    types = enumerate_types(nd, tm)
    cx, pd = assemble_complex(nd, types)
    assert cx.ray_ids == ("r1", "r2", "r3")
    assert cx.maximal_cones() == (("r1", "r3"), ("r2", "r3"))
    assert [cx.ray(r).primitive for r in cx.ray_ids] == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]
    offs = {pid: {r: int(v) for r, v in f.as_dict().items()} for pid, f in pd.offsets}
    assert offs == {
        "p2.1": {"r1": 1, "r3": 1},
        "p2.2": {"r2": 1, "r3": 1},
    }


def test_assemble_pr_complex():
    nd, tm = pr_data_model()
    types = enumerate_types(nd, tm)
    cx, pd = assemble_complex(nd, types)
    assert cx.ray_ids == ("r1", "r2")
    assert cx.maximal_cones() == (("r1", "r2"),)
    offs = {pid: {r: int(v) for r, v in f.as_dict().items()} for pid, f in pd.offsets}
    assert offs == {"p2.1": {"r1": 1, "r2": 1}}


def test_assemble_requires_specialization_closure():
    nd, tm = p2_data_model()
    types = enumerate_types(nd, tm)
    top = [t for t in types if cone_of_type(nd, t).dim == 2]
    with pytest.raises(ArithmeticError, match="not closed"):
        assemble_complex(nd, top)


def test_assemble_reports_a_dropped_specialization_as_an_inconsistency():
    # an open type list is a broken invariant, not malformed input
    nd, tm = pr_data_model()
    types = enumerate_types(nd, tm)
    keys = {canonical_key(s) for t in types for s in specializations(nd, t)}
    dropped = [i for i, t in enumerate(types) if canonical_key(t) in keys]
    assert len(dropped) == 3
    for i in dropped:
        with pytest.raises(ArithmeticError, match="not closed") as err:
            assemble_complex(nd, types[:i] + types[i + 1:])
        assert not isinstance(err.value, ValueError)


def test_non_smooth_cone_error_carries_type():
    nd, verts = p2_two_vertex_type()
    t = slopes_from_balancing(nd, verts, [(0, 1)])
    err = NonSmoothConeError("boom", t)
    assert err.type is t


def test_positivize_pinned_example():
    nd = numerical_data(1, (1,), [(4,), (-1,), (-2,)])
    pos = positivize(nd)
    assert pos.degrees == (4,)
    assert pos.markings == ((4,), (0,), (0,))
    assert pos.k_P == 0


def test_positivize_type_shifts_classes_keeps_slopes():
    nd, tm = p2_data_model()
    nd_pos = positivize(nd)
    assert nd_pos.degrees == (2, 2)
    types = enumerate_types(nd, tm)
    images = []
    for t in types:
        tp = positivize_type(nd, t)
        assert [e.slope for e in tp.edges] == [e.slope for e in t.edges]
        assert [v.face for v in tp.vertices] == [v.face for v in t.vertices]
        assert [v.legs for v in tp.vertices] == [v.legs for v in t.vertices]
        for v, vp in zip(t.vertices, tp.vertices):
            shift = tuple(
                -sum(min(nd.markings[i - 1][j], 0) for i in v.legs)
                for j in range(nd.k)
            )
            assert vp.pairing == tuple(p + s for p, s in zip(v.pairing, shift))
        assert realizable(nd_pos, tp)
        images.append(canonical_key(tp))
    assert len(set(images)) == len(types)


def test_trees_cover_every_shape_once_per_labeling():
    def shape(adj, v, parent):
        return tuple(sorted(shape(adj, w, v) for w in adj[v] if w != parent))

    for n, shapes in zip(range(1, 7), (1, 1, 1, 2, 3, 6)):
        trees = list(_trees(n))
        assert len(trees) == math.factorial(n - 1) == len(set(trees))
        seen = set()
        for edges in trees:
            assert len(edges) == n - 1
            adj = {v: [] for v in range(n)}
            for a, b in edges:
                adj[a].append(b)
                adj[b].append(a)
            reach, stack = {0}, [0]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in reach:
                        reach.add(w)
                        stack.append(w)
            assert len(reach) == n
            seen.add(min(shape(adj, r, None) for r in range(n)))
        assert len(seen) == shapes


def test_enumerate_degree_two_default_bound():
    _, tm = p2_data_model()
    nd = numerical_data(2, (2, 2), [(3, 3), (-1, -1)])
    types = enumerate_types(nd, tm)
    assert len(types) == 18
    assert max(t.n_vertices for t in types) == 4 == vertex_bound(nd, tm)


def vertex_bound(nd, tm):
    """B = max(1, 2N + m - 2), N = floor(sum |d_j| / least nonzero class weight)."""
    weights = [sum(map(abs, p)) for _, p, _ in _face_candidates(nd, tm) if any(p)]
    n = sum(map(abs, nd.degrees)) // min(weights) if weights else 0
    return max(1, 2 * n + len(nd.markings) - 2)


def small_data(rng):
    """A balanced datum with k <= 2, at most three markings and sum |d_j| <= 2."""
    p1 = target_model(1, [((), [((1,), "line")]), ((1,), [((1,), "line-in-H")])])
    rulings = target_model(2, [
        ((), [((1, 0), "f"), ((0, 1), "g")]),
        ((1,), [((0, 1), "g")]),
        ((2,), [((1, 0), "f")]),
        ((1, 2), []),
    ])
    k = rng.choice((1, 2))
    if k == 1:
        tm, degrees = p1, (rng.choice((0, 1, 2)),)
    else:
        tm, degrees = rulings, rng.choice(((1, 0), (0, 1), (1, 1), (2, 0), (0, 2)))
    marks = [tuple(rng.randint(-1, 2) for _ in range(k)) for _ in range(rng.randint(0, 2))]
    marks.append(tuple(degrees[j] - sum(a[j] for a in marks) for j in range(k)))
    return numerical_data(k, degrees, marks), tm


def test_no_stable_type_beyond_the_vertex_bound():
    assert vertex_bound(*pr_data_model()) == 2 == vertex_bound(*p2_data_model())
    rng = random.Random(4)
    data = [pr_data_model(), p2_data_model()]
    while len(data) < 8:
        nd, tm = small_data(rng)
        # B = 5 levels take about a minute; B <= 4 keeps the check fast
        if vertex_bound(nd, tm) <= 4:
            data.append((nd, tm))
    for nd, tm in data:
        b = vertex_bound(nd, tm)
        candidates = _face_candidates(nd, tm)
        # B bounds every stable balanced labeling, and so the pruned walk too
        assert next(reference_level_types(nd, candidates, b + 1), None) is None
        assert next(_level_types(nd, candidates, b + 1), None) is None
        types = enumerate_types(nd, tm)
        assert enumerate_types(nd, tm, bounds={"max_vertices": b + 1}) == types


def disconnected_type():
    nd, verts = p2_two_vertex_type()
    verts += (VertexDecor(frozenset(), (0, 0), "0", ()),)
    edges = (EdgeDecor((0, 1), frozenset([1, 2]), (-1, -1)),) * 2
    return nd, TropicalType(2, verts, edges)


def test_cone_of_disconnected_type_raises():
    nd, t = disconnected_type()
    with pytest.raises(BalancingError, match="not a tree: graph is disconnected"):
        cone_of_type(nd, t)


def test_cone_of_disconnected_type_raises_under_optimize():
    code = (
        "from test_tropmaps import cone_of_type, disconnected_type\n"
        "try:\n"
        "    cone_of_type(*disconnected_type())\n"
        "except Exception as e:\n"
        "    print(type(e).__name__, e)\n"
    )
    tests = os.path.dirname(__file__)
    src = os.path.dirname(os.path.dirname(punctref.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "BalancingError not a tree: graph is disconnected\n"


def test_degree_two_cones_are_integral():
    _, tm = p2_data_model()
    nd = numerical_data(2, (2, 2), [(3, 3), (-1, -1)])
    for t in enumerate_types(nd, tm):
        cone = cone_of_type(nd, t)
        assert all(type(x) is int for r in cone.rays for x in r)
        z = [sum(col) for col in zip(*cone.rays)] or [0] * len(cone.variables)
        for v in range(t.n_vertices):
            for j in range(1, nd.k + 1):
                assert type(cone.position(v, j, z)) is int
                for r in cone.rays:
                    assert type(cone.position(v, j, r)) is int


# The tree traversals that the one parents-first walk replaced, kept as the
# references it is checked against: a DFS per edge for the slopes, a DFS for
# the positions and a union-find for the contraction at a boundary point.


def reference_components_without(n, edges, cut):
    """Vertex set of the component of edges[cut][0] once that edge is removed."""
    adj = {i: [] for i in range(n)}
    for idx, (a, b) in enumerate(edges):
        if idx == cut:
            continue
        adj[a].append(b)
        adj[b].append(a)
    seen = {edges[cut][0]}
    stack = [edges[cut][0]]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def reference_slopes_from_balancing(nd, vertices, edges):
    """Unique slope assignment on a decorated tree via leaf flow.

    For each edge, cutting it splits the tree; the outgoing slope from the
    side containing the first endpoint is the side's total class minus its
    leg tangencies. Balancing is then verified at every vertex. When an edge
    carries a declared face, the computed support must lie inside it.
    """
    n = len(vertices)
    ends = [
        (e.ends if isinstance(e, EdgeDecor) else (int(e[0]), int(e[1])))
        for e in edges
    ]
    declared = [e.face if isinstance(e, EdgeDecor) else None for e in edges]
    if n == 0 or len(ends) != n - 1:
        raise BalancingError("not a tree: need n-1 edges on n >= 1 vertices")
    seen = reference_components_without(n, ends + [(0, 0)], len(ends)) if n > 1 else {0}
    if len(seen) != n:
        raise BalancingError("not a tree: graph is disconnected")
    legs_alpha = []
    for v in vertices:
        tot = [0] * nd.k
        for i in v.legs:
            for j in range(nd.k):
                tot[j] += nd.markings[i - 1][j]
        legs_alpha.append(tuple(tot))
    out_edges = []
    for idx, (a, b) in enumerate(ends):
        side = reference_components_without(n, ends, idx)
        m = tuple(
            sum(vertices[v].pairing[j] for v in side)
            - sum(legs_alpha[v][j] for v in side)
            for j in range(nd.k)
        )
        face = (
            vertices[a].face
            | vertices[b].face
            | frozenset(j + 1 for j in range(nd.k) if m[j])
        )
        if declared[idx] is not None:
            if not face <= declared[idx]:
                raise BalancingError(
                    f"slope {m} not supported on the declared face of edge {idx}"
                )
            face = declared[idx]
        out_edges.append(EdgeDecor((a, b), face, m))
    for v in range(n):
        bal = [0] * nd.k
        for e in out_edges:
            if e.ends[0] == v:
                for j in range(nd.k):
                    bal[j] += e.slope[j]
            elif e.ends[1] == v:
                for j in range(nd.k):
                    bal[j] -= e.slope[j]
        for j in range(nd.k):
            if bal[j] + legs_alpha[v][j] != vertices[v].pairing[j]:
                raise BalancingError(f"balancing fails at vertex {v}")
    return TropicalType(nd.k, tuple(vertices), tuple(out_edges))


def reference_position_rows(t):
    """Linear forms for every vertex position coordinate over (x_1..x_k, l_e)."""
    k = t.k
    n = t.n_vertices
    nv = k + len(t.edges)
    adj = {i: [] for i in range(n)}
    for idx, e in enumerate(t.edges):
        a, b = e.ends
        adj[a].append((b, idx, +1))
        adj[b].append((a, idx, -1))
    rows = [None] * n
    root_rows = [[0] * nv for _ in range(k)]
    for j in range(k):
        root_rows[j][j] = 1
    rows[0] = root_rows
    stack = [0]
    while stack:
        v = stack.pop()
        for w, idx, sign in adj[v]:
            if rows[w] is not None:
                continue
            slope = t.edges[idx].slope
            rw = [list(r) for r in rows[v]]
            for j in range(k):
                rw[j][k + idx] += sign * slope[j]
            rows[w] = rw
            stack.append(w)
    if any(r is None for r in rows):
        raise BalancingError("not a tree: graph is disconnected")
    return rows


def reference_decode(t, cone, z):
    """The specialized type at a point of the cone's boundary."""
    k = t.k
    n = t.n_vertices
    lengths = [z[k + i] for i in range(len(t.edges))]
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for idx, e in enumerate(t.edges):
        if lengths[idx] == 0:
            ra, rb = find(e.ends[0]), find(e.ends[1])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    order = sorted(groups)
    gid = {root: i for i, root in enumerate(order)}
    verts = []
    for root in order:
        members = groups[root]
        pairing = tuple(
            sum(t.vertices[v].pairing[j] for v in members) for j in range(k)
        )
        posvals = [cone.position(members[0], j, z) for j in range(1, k + 1)]
        for v in members[1:]:
            if any(cone.position(v, j, z) != posvals[j - 1] for j in range(1, k + 1)):
                raise ArithmeticError("contracted vertices at distinct positions")
        face = frozenset(j for j in range(1, k + 1) if posvals[j - 1] > 0)
        legs = tuple(sorted(i for v in members for i in t.vertices[v].legs))
        if len(members) == 1:
            label = t.vertices[members[0]].label
        elif all(x == 0 for x in pairing):
            label = "0"
        else:
            label = "+".join(
                sorted(t.vertices[v].label for v in members if t.vertices[v].label != "0")
            )
        verts.append(VertexDecor(face, pairing, label, legs))
    edges = []
    for idx, e in enumerate(t.edges):
        if lengths[idx] == 0:
            continue
        a, b = gid[find(e.ends[0])], gid[find(e.ends[1])]
        m = e.slope
        face = (
            verts[a].face | verts[b].face | frozenset(j + 1 for j in range(k) if m[j])
        )
        edges.append(EdgeDecor((a, b), face, m))
    return TropicalType(k, tuple(verts), tuple(edges))


def walk_data():
    """The plane with two lines in degree 1 (four marking pairs) and degree 2,
    the projective line, and four data with three markings."""
    _, tm = p2_data_model()
    nd_pr, tm_pr = pr_data_model()
    data = [
        (numerical_data(2, (1, 1), marks), tm, None)
        for marks in (
            ((2, 2), (-1, -1)),
            ((3, 3), (-2, -2)),
            ((2, 1), (-1, 0)),
            ((1, 2), (0, -1)),
            ((1, 1), (1, 1), (-1, -1)),
            ((2, 2), (0, 0), (-1, -1)),
            ((2, 1), (0, 1), (-1, -1)),
        )
    ]
    data.append((numerical_data(2, (2, 2), [(3, 3), (-1, -1)]), tm, {"max_vertices": 5}))
    data.append((nd_pr, tm_pr, None))
    data.append((numerical_data(1, (1,), [(1,), (1,), (-1,)]), tm_pr, None))
    return data


def outcome(f, *args):
    """f(*args), or the type and message of the exception it raises."""
    try:
        return f(*args)
    except (BalancingError, NonSmoothConeError, ArithmeticError, IndexError, KeyError) as e:
        return type(e), str(e)


def pipeline(nd, tm, bounds):
    types = enumerate_types(nd, tm, bounds=bounds)
    cones = [cone_of_type(nd, t) for t in types]
    specs = [specializations(nd, t) for t in types]
    assembled = outcome(assemble_complex, nd, types)
    out = [types, cones, specs, types_to_json(nd, types), assembled]
    if not isinstance(assembled[0], type):
        cx, pd = assembled
        out += [cx.maximal_cones(), complex_to_json(cx, pd)]
    return out


def assert_walk_matches_reference(nd, tm, bounds, monkeypatch):
    got = pipeline(nd, tm, bounds)
    for t, cone in zip(got[0], got[1]):
        edges = [e.ends for e in t.edges]
        assert slopes_from_balancing(nd, t.vertices, edges) == (
            reference_slopes_from_balancing(nd, t.vertices, edges)
        )
        assert _position_rows(t) == reference_position_rows(t)
        for subset in _faces_of_cone(cone):
            z = [sum(cone.rays[i][c] for i in subset) for c in range(len(cone.variables))]
            assert _decode(t, cone, z) == reference_decode(t, cone, z)
    monkeypatch.setattr(tropmaps, "slopes_from_balancing", reference_slopes_from_balancing)
    monkeypatch.setattr(tropmaps, "_position_rows", reference_position_rows)
    monkeypatch.setattr(tropmaps, "_decode", reference_decode)
    assert got == pipeline(nd, tm, bounds)


@pytest.mark.parametrize("index", range(len(walk_data())))
def test_walk_matches_reference_on_data(index, monkeypatch):
    assert_walk_matches_reference(*walk_data()[index], monkeypatch)


@pytest.mark.ladder
def test_walk_matches_reference_on_degree_two_default_bound(monkeypatch):
    _, tm = p2_data_model()
    nd = numerical_data(2, (2, 2), [(3, 3), (-1, -1)])
    assert_walk_matches_reference(nd, tm, None, monkeypatch)


def random_decorated_tree(rng):
    """A tree on 1..6 vertices under a random labeling, its edges shuffled and
    flipped, with random faces, classes and legs. About two in three are
    balanced."""
    n = rng.randint(1, 6)
    k = rng.choice((1, 2))
    perm = list(range(n))
    rng.shuffle(perm)
    ends = [(perm[rng.randrange(i)], perm[i]) for i in range(1, n)]
    ends = [e if rng.random() < 0.5 else e[::-1] for e in ends]
    rng.shuffle(ends)
    markings = [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(rng.randint(0, 3))]
    legs = [[] for _ in range(n)]
    for i in range(len(markings)):
        legs[rng.randrange(n)].append(i + 1)
    pairings = [[rng.randint(-1, 2) for _ in range(k)] for _ in range(n)]
    if rng.random() < 0.7:
        for j in range(k):
            pairings[-1][j] += sum(a[j] for a in markings) - sum(p[j] for p in pairings)
    faces = [frozenset(j for j in range(1, k + 1) if rng.random() < 0.5) for _ in range(n)]
    verts = tuple(
        VertexDecor(faces[v], tuple(pairings[v]), f"c{v}", tuple(legs[v])) for v in range(n)
    )
    degrees = [sum(a[j] for a in markings) for j in range(k)]
    return numerical_data(k, degrees, markings), verts, ends


def test_walk_matches_reference_on_random_trees():
    rng = random.Random(11)
    balanced, refusals = 0, set()
    for _ in range(400):
        nd, verts, edges = random_decorated_tree(rng)
        t = outcome(slopes_from_balancing, nd, verts, edges)
        assert t == outcome(reference_slopes_from_balancing, nd, verts, edges)
        if not isinstance(t, TropicalType):
            refusals.add(t[1])
            continue
        balanced += 1
        rows = _position_rows(t)
        assert rows == reference_position_rows(t)
        nv = nd.k + len(t.edges)
        # _decode reads only the positions of the cone
        cone = TypeCone((), (), 0, (), tuple(tuple(tuple(r) for r in pr) for pr in rows))
        for _ in range(4):
            z = [rng.randint(0, 2) for _ in range(nd.k)]
            z += [rng.choice((0, 0, 1, 3)) for _ in range(nv - nd.k)]
            assert _decode(t, cone, z) == reference_decode(t, cone, z)
    assert balanced >= 200
    # the first failing vertex is not always the root of the walk
    assert {"balancing fails at vertex 0", "balancing fails at vertex 1"} <= refusals


@pytest.mark.ladder
def test_balancing_identity_matches_reference_at_scale():
    """The one test of the total flow names the vertex, and raises the error,
    that checking every vertex against the cut sums does."""
    refused = set()
    for seed in range(40):
        rng = random.Random(1000 + seed)
        for _ in range(400):
            nd, verts, edges = random_decorated_tree(rng)
            got = outcome(slopes_from_balancing, nd, verts, edges)
            assert got == outcome(reference_slopes_from_balancing, nd, verts, edges)
            if not isinstance(got, TropicalType):
                refused.add(got[1])
    assert {m.rsplit(" ", 1)[0] for m in refused} == {"balancing fails at vertex"}
    assert len(refused) >= 3


def test_walk_matches_reference_on_non_trees():
    rng = random.Random(12)
    refusals = set()
    for _ in range(200):
        n = rng.randint(0, 6)
        size = max(0, n - 1 + rng.randint(-1, 1))
        # an end of -1 or n is out of range
        lo, hi = (-1, n + 1) if rng.random() < 0.2 else (0, n)
        ends = [(rng.randrange(lo, hi), rng.randrange(lo, hi)) for _ in range(size)] if n else []
        verts = tuple(VertexDecor(frozenset(), (0,), "0", ()) for _ in range(n))
        nd = numerical_data(1, (0,), [])
        got = outcome(slopes_from_balancing, nd, verts, ends)
        bad = [i for i, e in enumerate(ends) if not (0 <= e[0] < n and 0 <= e[1] < n)]
        if not bad or len(ends) != n - 1:
            assert got == outcome(reference_slopes_from_balancing, nd, verts, ends)
        else:
            # the reference raised a bare KeyError here
            i = bad[0]
            message = f"edge {i} {ends[i]} has an end outside 0..{n - 1}"
            assert got == (BalancingError, message)
        if not isinstance(got, TropicalType):
            refusals.add(got[1])
    assert {
        "not a tree: need n-1 edges on n >= 1 vertices",
        "not a tree: graph is disconnected",
    } <= refusals
    assert any(m.startswith("edge ") and "has an end outside 0.." in m for m in refusals)


def test_cone_of_a_non_tree_type_raises():
    # a doubled edge on two vertices used to give a cone, an empty type an
    # IndexError; both are now refused as non-trees
    nd, verts = p2_two_vertex_type()
    edge = EdgeDecor((0, 1), frozenset([1, 2]), (-1, -1))
    for t in (TropicalType(2, verts, (edge, edge)), TropicalType(2, (), ())):
        with pytest.raises(BalancingError) as err:
            cone_of_type(nd, t)
        assert str(err.value) == "not a tree: need n-1 edges on n >= 1 vertices"


# The per-class pass keeps the key, the faces and the complex of the code it
# replaced: a key built from every relabeling, faces by the dot products at
# each subset sum, and an assembly that ran a second specialization pass and
# decoded each extreme ray again.


def reference_canonical_key(t):
    """Degree-lex minimal adjacency encoding over leg-respecting relabelings."""
    n = t.n_vertices
    if n > 8:
        raise EnumerationBoundError("canonical form beyond eight vertices")
    best = None
    vdata = [(v.pairing, tuple(sorted(v.face)), v.legs) for v in t.vertices]
    for perm in itertools.permutations(range(n)):
        vrows = [None] * n
        for i in range(n):
            vrows[perm[i]] = vdata[i]
        erows = []
        for e in t.edges:
            a, b = perm[e.ends[0]], perm[e.ends[1]]
            slope = e.slope
            if a > b:
                a, b = b, a
                slope = tuple(-x for x in slope)
            erows.append((a, b, tuple(sorted(e.face)), slope))
        key = (n, tuple(vrows), tuple(sorted(erows)))
        if best is None or key < best:
            best = key
    return best


def reference_specializations(nd, t):
    cone = cone_of_type(nd, t)
    nv = len(cone.variables)
    return [
        _decode(t, cone, [sum(cone.rays[i][c] for i in subset) for c in range(nv)])
        for subset in reference_faces_of_cone(cone)
        if len(subset) != len(cone.rays)
    ]


def reference_assemble_complex(nd, types):
    """Glue type cones along specialization into an embedded complex."""
    key = reference_canonical_key
    by_key = {key(t): t for t in types}
    cones_of = {k: cone_of_type(nd, t) for k, t in by_key.items()}
    for t in by_key.values():
        for s in reference_specializations(nd, t):
            if key(s) not in by_key:
                raise ArithmeticError("types are not closed under specialization")
    ray_keys = sorted(k for k, c in cones_of.items() if c.dim == 1)
    ray_names = {k: f"r{i + 1}" for i, k in enumerate(ray_keys)}
    cones = []
    for k, t in by_key.items():
        cone = cones_of[k]
        if cone.dim == 0:
            continue
        if len(cone.rays) != cone.dim or not is_unimodular(cone.rays):
            raise NonSmoothConeError(
                f"type cone is not simplicial-unimodular (dim {cone.dim}, "
                f"{len(cone.rays)} rays)",
                t,
            )
        names = set()
        for i in range(len(cone.rays)):
            skey = key(_decode(t, cone, list(cone.rays[i])))
            if skey not in ray_names:
                raise ArithmeticError("extreme ray decodes to a missing type")
            names.add(ray_names[skey])
        if len(names) != cone.dim:
            raise NonSmoothConeError("cone rays decode to a repeated type", t)
        cones.append(tuple(sorted(names)))
    nrays = len(ray_keys)
    rays = [
        Ray(ray_names[k], tuple(1 if i == j else 0 for j in range(nrays)))
        for i, k in enumerate(ray_keys)
    ]
    complex_ = build_complex(rays, cones)
    offsets = {}
    for i, alpha in enumerate(nd.markings, start=1):
        for j in range(1, nd.k + 1):
            if alpha[j - 1] < 0:
                offsets[f"p{i}.{j}"] = {}
    for k in ray_keys:
        t = by_key[k]
        cone = cones_of[k]
        z = list(cone.rays[0])
        for i, alpha in enumerate(nd.markings, start=1):
            vtx = next(v for v in range(t.n_vertices) if i in t.vertices[v].legs)
            for j in range(1, nd.k + 1):
                if alpha[j - 1] < 0:
                    val = cone.position(vtx, j, z)
                    if val < 0:
                        raise ArithmeticError(f"offset {val} is not a natural number")
                    if val:
                        offsets[f"p{i}.{j}"][ray_names[k]] = val
    return complex_, puncturing_data(offsets)


def type_data():
    """The data of walk_data, then the degree-two datum at the default bound."""
    _, tm = p2_data_model()
    return walk_data() + [(numerical_data(2, (2, 2), [(3, 3), (-1, -1)]), tm, None)]


@functools.lru_cache(maxsize=None)
def labelings(index):
    """Datum `index` of type_data, its balanced labelings up to the vertex
    bound, unpruned, and its types."""
    nd, tm, bounds = type_data()[index]
    cap = min(vertex_bound(nd, tm), (bounds or {}).get("max_vertices", 8))
    candidates = _face_candidates(nd, tm)
    ts = tuple(
        t for n in range(1, cap + 1) for t in reference_level_types(nd, candidates, n)
    )
    return nd, ts, enumerate_types(nd, tm, bounds=bounds)


def test_rank_two_restrictions_give_the_data_back():
    # so type_data covers the restrictions check_slope_sensitivity builds
    for nd, tm, _ in type_data():
        if nd.k == 2:
            assert _restrict_data(nd, (1, 2)) == nd
            assert _restrict_model(tm, (1, 2)) == tm


def relabeled(rng, t):
    """t under a random vertex relabeling, its edges shuffled and flipped."""
    perm = list(range(t.n_vertices))
    rng.shuffle(perm)
    verts = [None] * t.n_vertices
    for v, vd in enumerate(t.vertices):
        verts[perm[v]] = vd
    edges = []
    for e in t.edges:
        a, b = perm[e.ends[0]], perm[e.ends[1]]
        if rng.random() < 0.5:
            edges.append(EdgeDecor((b, a), e.face, tuple(-x for x in e.slope)))
        else:
            edges.append(EdgeDecor((a, b), e.face, e.slope))
    rng.shuffle(edges)
    return TropicalType(t.k, tuple(verts), tuple(edges))


def keys_match_reference(index, rng):
    """Keys equal the reference's on every balanced labeling of the datum, the
    specializations of its types and a relabeling of each; returns the number
    of relabelings."""
    nd, ts, types = labelings(index)
    relabelings = 0
    for t in ts + tuple(s for t in types for s in specializations(nd, t)):
        key = canonical_key(t)
        assert key == reference_canonical_key(t)
        if t.n_vertices > 1:
            s = relabeled(rng, t)
            assert canonical_key(s) == reference_canonical_key(s) == key
            relabelings += 1
    return relabelings


# The type cone from the double description method and its incidence table
# against the subset scan it replaced: the same rays, dimension,
# realizability, faces in the same order and the same specializations.


def cone_matches_reference(nd, t):
    """Checks a fresh type's cone against the references; returns its
    number of extreme rays."""
    want = reference_cone_of_type(t)
    cone = cone_of_type(nd, t)
    # records compare all five fields: variables, rays, dim, rows, positions
    assert cone == want
    assert realizable(nd, t) == reference_realizable(t)
    faces = reference_faces_of_cone(want)
    assert _faces_of_cone(cone) == faces
    # a cone built by hand gets the same table, so the same faces
    by_hand = TypeCone(want.variables, want.rays, want.dim, want.ineq_rows, want.positions)
    assert _faces_of_cone(by_hand) == faces
    nv = len(want.variables)
    assert specializations(nd, t) == [
        _decode(t, want, [sum(want.rays[i][c] for i in s) for c in range(nv)])
        for s in faces
        if len(s) != len(want.rays)
    ]
    return len(want.rays)


def fresh_types(nd, tm, bounds=None):
    """The types of a datum, rebuilt so that no cone or face is cached."""
    return [TropicalType(t.k, t.vertices, t.edges) for t in enumerate_types(nd, tm, bounds)]


def faces_match_reference(index):
    """Cones, realizability, faces and specializations equal the references
    on every balanced labeling of the datum and on its types."""
    nd, ts, types = labelings(index)
    for t in ts + types:
        cone_matches_reference(nd, TropicalType(t.k, t.vertices, t.edges))


def assembly_matches_reference(index):
    nd, _, types = labelings(index)
    got = outcome(assemble_complex, nd, types)
    assert got == outcome(reference_assemble_complex, nd, types)
    if not isinstance(got[0], type):
        want = reference_assemble_complex(nd, types)
        assert complex_to_json(*got) == complex_to_json(*want)
    # every list with one type dropped, the three pr drops included
    for i in range(len(types)):
        rest = types[:i] + types[i + 1:]
        assert outcome(assemble_complex, nd, rest) == outcome(
            reference_assemble_complex, nd, rest
        )


def test_canonical_key_matches_reference():
    rng = random.Random(13)
    assert sum(keys_match_reference(i, rng) for i in range(len(walk_data()))) >= 500


def tree_with_runs(rng):
    """A tree on 2..7 vertices, its vertex data drawn in blocks of 1-4 equal
    (class, face) pairs and a leg on up to two vertices, so that runs of
    equal vertex data are common; slopes and edge faces are random, and the
    tree need not balance."""
    n = rng.randint(2, 7)
    data = []
    while len(data) < n:
        pairing = (rng.randint(0, 1), rng.randint(0, 1))
        face = frozenset(j for j in (1, 2) if rng.random() < 0.5)
        data += [(face, pairing)] * min(rng.randint(1, 4), n - len(data))
    rng.shuffle(data)
    legs = [()] * n
    for i in range(rng.randint(0, 2)):
        legs[rng.randrange(n)] += (i + 1,)
    verts = tuple(VertexDecor(f, p, "c", legs[v]) for v, (f, p) in enumerate(data))
    edges = tuple(
        EdgeDecor(
            (rng.randrange(i), i),
            frozenset(j for j in (1, 2) if rng.random() < 0.5),
            (rng.randint(-1, 1), rng.randint(-1, 1)),
        )
        for i in range(1, n)
    )
    return TropicalType(2, verts, edges)


def test_canonical_key_matches_reference_on_repeated_vertex_data():
    # the key relabels only within runs of equal vertex data, a branch the
    # enumerated types, whose vertex data rarely repeat, barely reach
    rng = random.Random(15)
    with_run = with_two_runs = 0
    for _ in range(160):
        t = tree_with_runs(rng)
        key = canonical_key(t)
        assert key == reference_canonical_key(t)
        assert canonical_key(relabeled(rng, t)) == key
        vdata = [(v.pairing, tuple(sorted(v.face)), v.legs) for v in t.vertices]
        runs = sum(vdata.count(d) >= 2 for d in set(vdata))
        with_run += runs >= 1
        with_two_runs += runs >= 2
    assert with_run >= 120 and with_two_runs >= 35


def test_cones_match_reference_on_pr_degree_two():
    # its cones include non-simplicial ones with (dim, rays) (3, 4), (4, 5)
    # and (4, 6)
    _, tm = pr_data_model()
    nd = numerical_data(1, (2,), [(3,), (-1,)])
    shapes = set()
    for t in fresh_types(nd, tm):
        shapes.add((cone_of_type(nd, t).dim, cone_matches_reference(nd, t)))
    assert {(3, 4), (4, 5), (4, 6)} <= shapes


def test_cones_match_reference_on_random_trees():
    rng = random.Random(11)
    rays = []
    for _ in range(400):
        nd, verts, edges = random_decorated_tree(rng)
        t = outcome(slopes_from_balancing, nd, verts, edges)
        if isinstance(t, TropicalType):
            rays.append(cone_matches_reference(nd, t))
    assert len(rays) >= 200 and max(rays) >= 4


@pytest.mark.ladder
@pytest.mark.parametrize("degree, markings, count", [
    (3, [(4,), (-1,)], 194),
    (2, [(4,), (-1,), (-1,)], 186),
])
def test_cones_match_reference_at_ladder_scale(degree, markings, count):
    # pr degree 3 with (4), (-1), and pr degree 2 with (4), (-1), (-1)
    _, tm = pr_data_model()
    nd = numerical_data(1, (degree,), markings)
    types = fresh_types(nd, tm)
    assert len(types) == count
    for t in types:
        cone_matches_reference(nd, t)


def test_cone_building_makes_one_kernel_call_per_cone(monkeypatch):
    """The double description method calls ``kernel`` once per cone, for
    the equations: 26 cones for the 26 types. The subset scan also called
    it once per (m - 1)-subset of inequality rows, 226 calls in all."""
    calls = []

    def counted(rows, n):
        calls.append(n)
        return kernel(rows, n)

    monkeypatch.setattr(tropmaps, "kernel", counted)
    _, tm = pr_data_model()
    nd = numerical_data(1, (2,), [(3,), (-1,)])
    assert len(enumerate_types(nd, tm)) == 26
    assert len(calls) == 26


@pytest.mark.parametrize("index", range(len(walk_data())))
def test_faces_match_reference(index):
    faces_match_reference(index)


@pytest.mark.parametrize("index", range(len(walk_data())))
def test_assemble_matches_reference(index):
    assembly_matches_reference(index)


@pytest.mark.ladder
def test_per_class_pass_matches_reference_on_degree_two_default_bound():
    index = len(type_data()) - 1
    assert keys_match_reference(index, random.Random(14)) >= 500
    faces_match_reference(index)
    assembly_matches_reference(index)


def test_one_realizability_test_per_class(monkeypatch):
    calls = {"realizable": 0, "cone_of_type": 0}
    for name in calls:
        def counted(*args, _f=getattr(tropmaps, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(tropmaps, name, counted)
    _, tm = p2_data_model()
    nd = numerical_data(2, (2, 2), [(3, 3), (-1, -1)])
    types = enumerate_types(nd, tm)
    assemble_complex(nd, types)
    # one realizability test per canonical key among the labelings the pruned
    # walk yields: 36 keys among 189 labelings, and 18 types. Unpruned, the
    # 2583 balanced labelings held 405 keys, and a test per labeling made
    # 2583 realizability calls and built 2637 cones
    assert calls["realizable"] == 36
    assert calls["cone_of_type"] <= 36 + 2 * len(types) == 72


def test_one_cone_build_and_one_face_pass_per_type(monkeypatch):
    calls = {"_position_rows": 0, "_decode": 0, "canonical_key": 0}
    for name in calls:
        def counted(*args, _f=getattr(tropmaps, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(tropmaps, name, counted)
    _, tm = p2_data_model()
    nd = numerical_data(2, (2, 2), [(3, 3), (-1, -1)])
    types = enumerate_types(nd, tm)
    assemble_complex(nd, types)
    types_to_json(nd, types)
    # one build per canonical key among the 189 labelings the pruned walk
    # yields, one key per labeling, one key per face of the 18 types and one
    # decode per proper face: 36 builds, 189 + 75 + 18 keys and 75 - 18
    # decodes, as a full face at an interior point is the type itself.
    # Unpruned, 2583 labelings held 405 keys, which made 405 builds and 2676
    # keys; a cone per caller and a second face pass in assembly made 459 and
    # 132, and keying faces again in assembly made 2733 keys
    assert calls == {"_position_rows": 36, "_decode": 57, "canonical_key": 282}


def test_enumeration_leaves_no_cyclic_garbage():
    # a cone that pointed back at the type caching it made each enumerated
    # type a reference cycle: the cyclic collector freed 50, 109 and 3573
    # records after these three data
    _, tm = p2_data_model()
    degree_two = numerical_data(2, (2, 2), [(3, 3), (-1, -1)])
    data = [pr_data_model(), p2_data_model(), (degree_two, tm)]
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        del gc.garbage[:]
        for nd, tm in data:
            assemble_complex(nd, enumerate_types(nd, tm))
        gc.collect()
        records = [x for x in gc.garbage if isinstance(x, _Record)]
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
        gc.enable()
    assert records == []
    cone = cone_of_type(degree_two, enumerate_types(degree_two, tm)[-1])
    assert not hasattr(cone, "type") and not hasattr(cone, "unimodular")


@pytest.mark.ladder
def test_pr_degree_three_types_and_refusal():
    # the projective line in degree 3: 194 types, digest of their keys and
    # order from the code that built a cone per caller
    _, tm = pr_data_model()
    nd = numerical_data(1, (3,), [(4,), (-1,)])
    types = enumerate_types(nd, tm)
    assert len(types) == 194
    encoded = repr([(canonical_key(t), t) for t in types]).encode()
    assert hashlib.sha256(encoded).hexdigest() == (
        "0e9eed850876eee9601d812749116733f9c15a1bdf72eee8b1fbf4d4384deddf"
    )
    with pytest.raises(NonSmoothConeError) as err:
        assemble_complex(nd, types)
    assert err.value.type is types[16]
    assert str(err.value) == "type cone is not simplicial-unimodular (dim 2, 2 rays)"


# The pruned walk against the unpruned reference walk. It drops a labeling
# when an edge slope leaves its ends' faces, which realizable then rejects,
# and when the classes cannot reach the degree, which the walk never yields;
# so it keeps the reference's order, and the enumeration its representatives.


def points_into_faces(t):
    """The direction rule: each edge's slope out of its first end is negative
    only along that end's face, and positive only along its second end's."""
    return all(
        j + 1 in t.vertices[e.ends[0] if m < 0 else e.ends[1]].face
        for e in t.edges
        for j, m in enumerate(e.slope)
        if m
    )


def assert_walk_prunes_exactly(nd, tm, bounds, monkeypatch):
    cap = min(vertex_bound(nd, tm), (bounds or {}).get("max_vertices", 8))
    candidates = _face_candidates(nd, tm)
    levels = [list(reference_level_types(nd, candidates, n)) for n in range(1, cap + 1)]
    for n, reference in enumerate(levels, 1):
        # the direction rule is necessary: realizable rejects every labeling
        # that breaks it
        assert not any(realizable(nd, t) for t in reference if not points_into_faces(t))
        assert list(_level_types(nd, candidates, n)) == [
            t for t in reference if points_into_faces(t)
        ]
    types = enumerate_types(nd, tm, bounds=bounds)
    # the enumeration over the reference walk's labelings
    monkeypatch.setattr(tropmaps, "_level_types", lambda nd, candidates, n: levels[n - 1])
    assert types == enumerate_types(nd, tm, bounds=bounds)


def small_prune_data():
    """200 seeded small_data data with B <= 4."""
    rng = random.Random(30)
    data = []
    while len(data) < 200:
        nd, tm = small_data(rng)
        if vertex_bound(nd, tm) <= 4:
            data.append((nd, tm))
    return data


@pytest.mark.parametrize("index", range(len(walk_data())))
def test_pruned_walk_matches_reference_on_data(index, monkeypatch):
    assert_walk_prunes_exactly(*walk_data()[index], monkeypatch)


def test_pruned_walk_matches_reference_on_small_data(monkeypatch):
    for nd, tm in small_prune_data():
        with monkeypatch.context() as patch:
            assert_walk_prunes_exactly(nd, tm, None, patch)


@pytest.mark.ladder
def test_pruned_walk_matches_reference_on_degree_two_default_bound(monkeypatch):
    _, tm = p2_data_model()
    nd = numerical_data(2, (2, 2), [(3, 3), (-1, -1)])
    assert_walk_prunes_exactly(nd, tm, None, monkeypatch)


@pytest.mark.ladder
def test_pruned_walk_matches_reference_on_pr_degree_three(monkeypatch):
    _, tm = pr_data_model()
    nd = numerical_data(1, (3,), [(4,), (-1,)])
    assert_walk_prunes_exactly(nd, tm, None, monkeypatch)
