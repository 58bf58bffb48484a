"""Tropical type enumeration, cones, balancing, and complex assembly."""
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import punctref
from punctref.tropmaps import (
    _face_candidates,
    _level_types,
    _trees,
    BalancingError,
    EdgeDecor,
    EnumerationBoundError,
    NonSmoothConeError,
    TropicalType,
    VertexDecor,
    assemble_complex,
    canonical_key,
    cone_of_type,
    enumerate_types,
    numerical_data,
    positivize,
    positivize_type,
    realizable,
    slopes_from_balancing,
    specializations,
    target_model,
    validate_numerical_data,
)

from conftest import p2_data_model, pr_data_model


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


def test_slopes_respect_declared_faces():
    nd, verts = p2_two_vertex_type()
    ok = EdgeDecor((0, 1), frozenset([1, 2]), ())
    t = slopes_from_balancing(nd, verts, [ok])
    assert t.edges[0].slope == (-1, -1)
    narrow = EdgeDecor((0, 1), frozenset([1]), ())
    with pytest.raises(BalancingError, match="not supported"):
        slopes_from_balancing(nd, verts, [narrow])


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


def test_enumerate_rejects_unbalanced_data():
    tm = target_model(1, [((), [((1,), "a")])])
    with pytest.raises(ValueError, match="unbalanced"):
        enumerate_types(numerical_data(1, (5,), [(1,)]), tm)


def test_canonical_key_permutation_invariance():
    nd, verts = p2_two_vertex_type()
    t = slopes_from_balancing(nd, verts, [(0, 1)])
    s = slopes_from_balancing(nd, tuple(reversed(verts)), [(1, 0)])
    assert canonical_key(t) == canonical_key(s)


def test_canonical_key_vertex_cap():
    n = 9
    verts = tuple(VertexDecor(frozenset(), (0,), "0", ()) for _ in range(n))
    edges = tuple(EdgeDecor((i, i + 1), frozenset(), (0,)) for i in range(n - 1))
    with pytest.raises(EnumerationBoundError, match="eight"):
        canonical_key(TropicalType(1, verts, edges))


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
    with pytest.raises(ValueError, match="not closed"):
        assemble_complex(nd, top)


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
        assert next(_level_types(nd, _face_candidates(nd, tm), b + 1), None) is None
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
