"""Genus-zero tropical type enumeration and complex assembly.

Types are decorated trees: per-vertex image face and curve class drawn from a
user-supplied target model. Edges are end pairs; one flow up the tree forces
their slopes, and a tree balances exactly when its classes add up to its legs'
tangencies. An edge's face is its end faces plus its slope's support. The walk
skips labelings whose edge slopes leave their end faces or whose classes
cannot reach the degree. Each type spans a cone whose coordinates are the root
position inside its face together with the edge lengths: a plain value, built
once and kept on the type beside its faces, decoded and keyed once.
Realizability, a cone point with every length and face coordinate positive,
is tested once per isomorphism class. Assembly
glues the cones along specialization, tests the simplicial ones for
unimodularity, and reads the offsets off primitive ray generators.
The data these functions read and the types they return are ``tropdata``'s.
"""
from __future__ import annotations

import itertools
from math import factorial
from operator import add, gt, mul
from typing import Iterator, Mapping, Optional, Sequence

from . import tropdata
from .conecx import ConeComplex, Ray, _Record, build_complex
from .lattice import is_unimodular, kernel, primitive, rank
from .puncture import PuncturingData, puncturing_data
from .tropdata import BalancingError, EdgeDecor, EnumerationBoundError, NonSmoothConeError
from .tropdata import NumericalData, TargetModel, TropicalType, VertexDecor
from .tropdata import positivize, validate_numerical_data

__all__ = [
    "TypeCone",
    "slopes_from_balancing",
    "enumerate_types",
    "canonical_key",
    "cone_of_type",
    "realizable",
    "specializations",
    "assemble_complex",
    "positivize_type",
]

# the data constructors stay readable here, for callers that build a datum
# and enumerate it through this one module
numerical_data, target_model = tropdata.numerical_data, tropdata.target_model

# canonical_key compares relabelings, so it refuses types with more vertices;
# enumerate_types refuses a vertex bound past it before any work
MAX_KEY_VERTICES = 8
# nor a walk over more tree labelings, sum over its n of (n - 1)! * n^markings
MAX_WALK_LABELINGS = 10**6


def canonical_key(t: TropicalType) -> tuple:
    """Degree-lex minimal adjacency encoding over leg-respecting relabelings.

    The minimal key lists the vertex data in sorted order, so only the
    relabelings that send each vertex to a slot holding its own data compete.
    Those are the products of the permutations within each run, a block of
    equal entries in the sorted data: prod run_i! of them, one when all the
    vertex data differ. The key is computed once per type and kept on it.
    """
    if "_canonical" in t.__dict__:
        return t.__dict__["_canonical"]
    n = t.n_vertices
    if n > MAX_KEY_VERTICES:
        raise EnumerationBoundError(f"canonical form beyond {MAX_KEY_VERTICES} vertices")
    vdata = [(v.pairing, tuple(sorted(v.face)), v.legs) for v in t.vertices]
    order = sorted(range(n), key=vdata.__getitem__)
    vrows = tuple(map(vdata.__getitem__, order))
    # each relabeling as its vertices in slot order, permuted run by run
    arrangements: list[Sequence[int]] = [order]
    if len(set(vrows)) < n:
        arrangements = [()]
        for _, run in itertools.groupby(order, key=vdata.__getitem__):
            perms = tuple(itertools.permutations(run))
            arrangements = [a + p for a in arrangements for p in perms]
    edges = [(e.ends, tuple(sorted(e.face)), e.slope) for e in t.edges]
    edge_rows = []
    slot = [0] * n
    for arrangement in arrangements:
        for i, v in enumerate(arrangement):
            slot[v] = i
        erows = []
        for (a, b), face, slope in edges:
            a, b = slot[a], slot[b]
            if a > b:
                a, b, slope = b, a, tuple(-x for x in slope)
            erows.append((a, b, face, slope))
        edge_rows.append(tuple(sorted(erows)))
    t.__dict__["_canonical"] = (n, vrows, min(edge_rows))
    return t.__dict__["_canonical"]


def _walk(n: int, ends: Sequence[tuple[int, int]]) -> list[tuple[int, int, int]]:
    """The vertices of the tree on 0..n-1 with edges ``ends``, parents first
    from vertex 0, as (vertex, parent, edge index); the root is (0, -1, -1).
    Every tree traversal goes through it. Non-trees raise BalancingError."""
    if n == 0 or len(ends) != n - 1:
        raise BalancingError("not a tree: need n-1 edges on n >= 1 vertices")
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n)}
    for idx, (a, b) in enumerate(ends):
        if a not in adj or b not in adj:
            raise BalancingError(f"edge {idx} {(a, b)} has an end outside 0..{n - 1}")
        adj[a].append((b, idx))
        adj[b].append((a, idx))
    order = [(0, -1, -1)]
    seen = {0}
    for v, _, _ in order:
        for w, idx in adj[v]:
            if w not in seen:
                seen.add(w)
                order.append((w, v, idx))
    if len(order) != n:
        raise BalancingError("not a tree: graph is disconnected")
    return order


def _order(t: TropicalType) -> list[tuple[int, int, int]]:
    """The walk of t's tree, listed once and kept on t."""
    if "_order" not in t.__dict__:
        t.__dict__["_order"] = _walk(t.n_vertices, [e.ends for e in t.edges])
    return t.__dict__["_order"]


def _edge_face(va: VertexDecor, vb: VertexDecor, slope: Sequence[int]) -> frozenset:
    """An edge's face: its end faces and the support of its slope."""
    return va.face | vb.face | frozenset(j + 1 for j, x in enumerate(slope) if x)


def slopes_from_balancing(
    nd: NumericalData, vertices: Sequence[VertexDecor], edges: Sequence[tuple[int, int]]
) -> TropicalType:
    """Unique slope assignment on a decorated tree, edges given as end pairs.

    Each vertex's flow is its subtree's total class minus its leg tangencies,
    summed in one pass up the walk from vertex 0. An edge's slope out of its
    first end is the flow of that end's side: the child's flow, or minus it
    when the parent is the first end. With T the total flow, that leaves
    vertex v with T times (1 - the number of edges v is the first end of), so
    the type balances exactly when T = 0; otherwise the first vertex that is
    not the first end of exactly one edge is named.
    """
    n = len(vertices)
    ends = [(int(a), int(b)) for a, b in edges]
    order = _walk(n, ends)
    flow = []
    for vi, v in enumerate(vertices):
        row = [v.pairing[j] for j in range(nd.k)]
        for i in v.legs:
            if not 1 <= i <= len(nd.markings):
                raise BalancingError(f"leg {i} at vertex {vi} names no marking")
            for j in range(nd.k):
                row[j] -= nd.markings[i - 1][j]
        flow.append(row)
    child = [0] * len(ends)
    for v, parent, idx in reversed(order[1:]):
        child[idx] = v
        for j in range(nd.k):
            flow[parent][j] += flow[v][j]
    # residual at v = T * (1 - #{edges with first end v}), T = flow[0]
    if any(flow[0]):
        firsts = [a for a, _ in ends]
        v = next(v for v in range(n) if firsts.count(v) != 1)
        raise BalancingError(f"balancing fails at vertex {v}")
    out_edges = []
    for idx, (a, b) in enumerate(ends):
        c = child[idx]
        m = tuple(flow[c]) if a == c else tuple(-x for x in flow[c])
        out_edges.append(EdgeDecor((a, b), _edge_face(vertices[a], vertices[b], m), m))
    return TropicalType(nd.k, tuple(vertices), tuple(out_edges))


class TypeCone(_Record):
    """The cone of a tropical type in root-position and edge-length coordinates."""

    _hidden = ("ineq_rows", "positions")

    def __init__(self, variables: tuple[str, ...], rays: tuple[tuple[int, ...], ...],
                 dim: int, ineq_rows: tuple[tuple[int, ...], ...],
                 positions: tuple[tuple[tuple[int, ...], ...], ...]) -> None:
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "ineq_rows", ineq_rows)
        object.__setattr__(self, "positions", positions)

    def position(self, vertex: int, j: int, z: Sequence[int]) -> int:
        row = self.positions[vertex][j - 1]
        return sum(c * x for c, x in zip(row, z))


def _position_rows(t: TropicalType) -> list[list[list[int]]]:
    """Linear forms for every vertex position coordinate over (x_1..x_k, l_e):
    down the walk, a child sits at its parent plus the slope times the length
    of the edge between them."""
    k = t.k
    n = t.n_vertices
    nv = k + len(t.edges)
    order = _order(t)
    rows: list[list[list[int]]] = [[]] * n
    rows[0] = [[0] * nv for _ in range(k)]
    for j in range(k):
        rows[0][j][j] = 1
    for v, parent, idx in order[1:]:
        e = t.edges[idx]
        sign = 1 if e.ends[0] == parent else -1
        rw = [list(r) for r in rows[parent]]
        for j in range(k):
            rw[j][k + idx] += sign * e.slope[j]
        rows[v] = rw
    return rows


def cone_of_type(nd: NumericalData, t: TropicalType) -> TypeCone:
    """Extreme rays, dimension, inequality rows and vertex positions of a
    type's cone; whether it is unimodular is left to assembly.

    Variables are the root position (all k coordinates, those outside the
    root face pinned to zero) followed by one length per edge. Equations pin
    every vertex coordinate outside its face; inequalities keep lengths and
    in-face coordinates nonnegative. Nothing is read from ``nd``, so the cone
    is built once per type object and stored on it; it points nowhere back.
    """
    if "_cone" in t.__dict__:
        return t.__dict__["_cone"]
    k = t.k
    nv = k + len(t.edges)
    pos = _position_rows(t)
    eqs: list[list[int]] = []
    ineqs: list[tuple[int, ...]] = []
    for v, vd in enumerate(t.vertices):
        for j in range(1, k + 1):
            row = pos[v][j - 1]
            if j in vd.face:
                ineqs.append(tuple(row))
            else:
                eqs.append(row)
    for idx in range(len(t.edges)):
        row = [0] * nv
        row[k + idx] = 1
        ineqs.append(tuple(row))
    basis = kernel(eqs, nv)
    m = len(basis)
    found: set[tuple[int, ...]] = set()
    if m:
        proj = [[sum(map(mul, r, bv)) for bv in basis] for r in ineqs]
        for subset in itertools.combinations(range(len(proj)), m - 1):
            sub = [proj[i] for i in subset]
            kern = kernel(sub, m)
            if len(kern) != 1:
                continue
            # a row r takes the value proj_r . c at the point sum_c c * basis_c
            c = kern[0]
            signs = [sum(map(mul, r, c)) for r in proj]
            if all(s >= 0 for s in signs):
                pass
            elif all(s <= 0 for s in signs):
                c = [-x for x in c]
            else:
                continue
            found.add(primitive([sum(map(mul, c, col)) for col in zip(*basis)]))
    rays = sorted(found)
    variables = tuple(f"x{j}" for j in range(1, k + 1)) + tuple(
        f"l{i}" for i in range(len(t.edges))
    )
    positions = tuple(tuple(tuple(r) for r in pr) for pr in pos)
    t.__dict__["_cone"] = TypeCone(
        variables, tuple(rays), rank(rays, nv), tuple(ineqs), positions
    )
    return t.__dict__["_cone"]


def realizable(nd: NumericalData, t: TropicalType) -> bool:
    """A type is realizable when its cone has a point with every edge length
    and every in-face position coordinate strictly positive."""
    cone = cone_of_type(nd, t)
    return _interior(cone, _ray_sum(cone, range(len(cone.rays))))


def _ray_sum(cone: TypeCone, subset: Sequence[int]) -> list[int]:
    """The sum of the cone's extreme rays with indices in subset."""
    z = [sum(col) for col in zip(*(cone.rays[i] for i in subset))]
    return z or [0] * len(cone.variables)


def _interior(cone: TypeCone, z: Sequence[int]) -> bool:
    """Whether z is positive on every inequality row of the cone."""
    return all(sum(map(mul, row, z)) > 0 for row in cone.ineq_rows)


def _trees(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The (n-1)! trees on 0..n-1 where each i >= 1 hangs off a parent p < i;
    breadth-first labeling puts every isomorphism class among them."""
    for parents in itertools.product(*(range(i) for i in range(1, n))):
        yield tuple((p, i) for i, p in enumerate(parents, 1))


def _face_candidates(
    nd: NumericalData, tm: TargetModel
) -> list[tuple[frozenset, tuple[int, ...], str]]:
    """Admissible (face, class, label) triples by face: bounded nonnegative
    combinations of the listed pairings, the zero class always included."""
    for j in range(nd.k):
        signs = set()
        for _, classes in tm.strata:
            for p, _ in classes:
                if p[j] > 0:
                    signs.add(1)
                if p[j] < 0:
                    signs.add(-1)
        if signs == {1, -1}:
            raise EnumerationBoundError(
                f"vertex classes unbounded: coordinate {j + 1} admits pairings of "
                "both signs, so class splittings do not terminate"
            )
    cap = [abs(d) for d in nd.degrees]
    out: list[tuple[frozenset, tuple[int, ...], str]] = []
    faces = {frozenset(): None}
    for f, _ in tm.strata:
        faces[f] = None
    for face in sorted(faces, key=lambda f: (len(f), sorted(f))):
        listed = [
            (p, lab) for p, lab in tm.classes_at(face) if any(x != 0 for x in p)
        ]
        combos: dict[tuple[int, ...], str] = {tuple([0] * nd.k): "0"}
        frontier = [(tuple([0] * nd.k), ())]
        while frontier:
            total, used = frontier.pop()
            for ci, (p, lab) in enumerate(listed):
                if used and ci < used[-1]:
                    continue
                nxt = tuple(a + b for a, b in zip(total, p))
                if any(abs(x) > c for x, c in zip(nxt, cap)):
                    continue
                nused = used + (ci,)
                if nxt not in combos:
                    names = sorted(
                        f"{n}*{listed[i][1]}" if n > 1 else listed[i][1]
                        for i, n in [(i, nused.count(i)) for i in set(nused)]
                    )
                    combos[nxt] = "+".join(names)
                frontier.append((nxt, nused))
        out.extend((face, p, lab) for p, lab in sorted(combos.items()))
    return out


def _level_types(nd: NumericalData, candidates: list, n: int) -> Iterator[TropicalType]:
    """Balanced types on the trees of _trees(n) whose zero-class vertices
    keep at least three special points, save a lone vertex at the trivial face.

    Class assignment, in vertex order, prunes by three necessary rules:
    - Direction: an edge (p, u) with slope m out of p needs j in p's face
      where m_j < 0, and j in u's face where m_j > 0. u sits at p + l*m with
      l > 0, and positions are 0 off a face and >= 0 on it, so otherwise
      ``realizable`` fails. The edge is tested when the largest label of
      u's subtree is assigned; its slope is that subtree's leg tangencies
      minus its classes.
    - Weight: the weight sum_j |x_j| of the partial class sum, plus w for
      each later vertex with fewer than three special points, stays within
      sum_j |d_j|. Weights add, as each coordinate's pairings share a sign;
      such a vertex takes a nonzero class, of weight at least w, the least
      nonzero candidate weight; and the classes must add up to d.
    - Last class: the last vertex takes d minus the partial class sum, as
      the classes must add up to d; it loops only over the candidates with
      that class, in candidate order.
    The direction rule holds on all labelings of a type or on none, and the
    other two drop no balanced labeling, so the walk yields the unpruned
    walk's labelings in its order, less whole unrealizable classes.
    """
    n_marks = len(nd.markings)
    cap = tuple(map(abs, nd.degrees))
    limit = sum(cap)
    zero = (0,) * nd.k
    w = min((sum(map(abs, p)) for _, p, _ in candidates if any(p)), default=0)
    with_class = {p: [c for c in candidates if c[1] == p] for _, p, _ in candidates}
    for edges in _trees(n):
        degree = [0] * n
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        # sub[u]: u's subtree; due[v]: the edges whose subtree's largest label is v
        sub = [[u] for u in range(n)]
        for p, u in reversed(edges):
            sub[p] += sub[u]
        due: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for p, u in edges:
            due[max(sub[u])].append((p, u))
        for legassign in itertools.product(range(n), repeat=n_marks):
            legs: list[tuple[int, ...]] = [
                tuple(i + 1 for i in range(n_marks) if legassign[i] == v)
                for v in range(n)
            ]
            specials = [degree[v] + len(legs[v]) for v in range(n)]
            owed = [w * sum(s < 3 for s in specials[v + 1:]) for v in range(n)]
            # the legs' tangencies summed over each subtree
            tangency = [
                [sum(nd.markings[i][j] for i in range(n_marks) if legassign[i] in sub[u])
                 for j in range(nd.k)]
                for u in range(n)
            ]
            chosen: list[tuple[frozenset, tuple[int, ...], str]] = []

            def directed(p: int, u: int) -> bool:
                for j in range(nd.k):
                    m = tangency[u][j] - sum(chosen[x][1][j] for x in sub[u])
                    if m and j + 1 not in chosen[p if m < 0 else u][0]:
                        return False
                return True

            def assign(v: int, partial: tuple[int, ...]) -> Iterator[TropicalType]:
                if v == n:
                    verts = [
                        VertexDecor(chosen[i][0], chosen[i][1], chosen[i][2], legs[i])
                        for i in range(n)
                    ]
                    # the classes add up to d, the markings' sum, so T = 0
                    yield slopes_from_balancing(nd, verts, edges)
                    return
                pool = candidates
                if v == n - 1:
                    rest = tuple(d - x for d, x in zip(nd.degrees, partial))
                    pool = with_class.get(rest, ())
                for c in pool:
                    face, pairing, _ = c
                    if pairing == zero and specials[v] < 3 and not (n == 1 and not face):
                        continue
                    nxt = tuple(map(add, partial, pairing))
                    if any(map(gt, map(abs, nxt), cap)):
                        continue
                    if sum(map(abs, nxt)) + owed[v] > limit:
                        continue
                    chosen.append(c)
                    if all(directed(p, u) for p, u in due[v]):
                        yield from assign(v + 1, nxt)
                    chosen.pop()

            yield from assign(0, zero)


def enumerate_types(
    nd: NumericalData,
    tm: TargetModel,
    bounds: Optional[Mapping[str, int]] = None,
) -> tuple[TropicalType, ...]:
    """All isomorphism classes of realizable tropical types for the data.

    Vertices with zero class keep at least three special points (a stability
    proxy) except the single-vertex type at the trivial face. So no type has
    more than B = max(1, 2N + m - 2) vertices, for m markings and
    N = floor(sum_j |d_j| / w), w the least weight sum_j |p_j| of a nonzero
    candidate class (N = 0 without one); the argument is beside the code.
    The walk skips a class assignment that puts an edge slope off its end
    faces, which no realizable type does, or whose classes cannot add up to
    d; both rules ignore the labeling, so the first labeling kept per
    canonical key is the unpruned walk's (see ``_level_types``).
    Realizability, which ignores the labeling, is tested once per canonical
    key. The output is closed under specialization and sorted by canonical
    form. Class splittings without a sign bound raise EnumerationBoundError.
    An explicit ``bounds={"max_vertices": cap}`` stops at min(cap, B)
    vertices and, unlike the default, raises it when types exist at cap.
    When min(cap, B) passes MAX_KEY_VERTICES, the most ``canonical_key``
    takes, it is raised before the first tree; so it is when the walk's tree
    labelings, sum over n <= min(cap, B) of (n-1)! n^m, pass
    MAX_WALK_LABELINGS; it counts them unpruned, so no refusal rests on the
    prune. A cap below 1 or any other
    key in ``bounds`` raises ValueError.
    """
    cap = (bounds or {}).get("max_vertices")
    if set(bounds or {}) - {"max_vertices"} or (cap is not None and cap < 1):
        raise ValueError(f"bounds take only max_vertices >= 1, got {dict(bounds)}")
    report = validate_numerical_data(nd)
    if not report["ok"]:
        raise ValueError(f"unbalanced numerical data at j = {report['violations']}")
    candidates = _face_candidates(nd, tm)
    # In a tree on n >= 2 vertices, valences plus legs add up to 2(n - 1) + m.
    # A zero-class vertex has at least three special points (the stability
    # rule of _level_types) and every other vertex at least one, so
    # n <= 2N + m - 2 for N nonzero-class vertices. The pairings of each
    # coordinate share a sign (_face_candidates checks it), so the weights of
    # the vertex classes add up to sum_j |d_j|, and N <= sum_j |d_j| // w.
    weights = [sum(map(abs, p)) for _, p, _ in candidates if any(p)]
    n_classes = sum(map(abs, nd.degrees)) // min(weights) if weights else 0
    max_v = max(1, 2 * n_classes + len(nd.markings) - 2)
    if cap is not None:
        max_v = min(cap, max_v)
    if max_v > MAX_KEY_VERTICES:
        raise EnumerationBoundError(
            f"vertex bound {max_v} is past the canonical form's cap of "
            f"{MAX_KEY_VERTICES} vertices"
        )
    m = len(nd.markings)
    labelings = sum(factorial(n - 1) * n**m for n in range(1, max_v + 1))
    if labelings > MAX_WALK_LABELINGS:
        raise EnumerationBoundError(
            f"vertex bound {max_v} and {m} markings give {labelings} tree labelings, "
            f"past the walk's cap of {MAX_WALK_LABELINGS}"
        )
    found: dict[tuple, TropicalType] = {}
    for n in range(1, max_v + 1):
        for t in _level_types(nd, candidates, n):
            found.setdefault(canonical_key(t), t)
    found = {key: t for key, t in found.items() if realizable(nd, t)}
    # close under specialization
    queue = list(found.values())
    while queue:
        t = queue.pop()
        cone = cone_of_type(nd, t)
        for subset, s, key in _faces(t, cone):
            if len(subset) != len(cone.rays) and key not in found:
                found[key] = s
                queue.append(s)
    if cap is not None and any(t.n_vertices == cap for t in found.values()):
        raise EnumerationBoundError(
            f"valid types exist at the vertex bound {cap}; enumeration may be incomplete"
        )
    return tuple(found[k] for k in sorted(found))


def _faces_of_cone(cone: TypeCone) -> list[tuple[int, ...]]:
    """Faces as subsets of extreme-ray indices: as rows are nonnegative on rays,
    no other ray is tight on all the rows tight at every ray of a face."""
    n, rows = len(cone.rays), range(len(cone.ineq_rows))
    tight = [
        {r for r in rows if sum(map(mul, cone.ineq_rows[r], ray)) == 0}
        for ray in cone.rays
    ]
    out = []
    for size in range(n + 1):
        for subset in itertools.combinations(range(n), size):
            common = set(rows).intersection(*(tight[i] for i in subset))
            if not any(common <= tight[i] for i in range(n) if i not in subset):
                out.append(subset)
    return out


def _faces(t: TropicalType, cone: TypeCone) -> tuple[tuple, ...]:
    """Each face of t's cone as (extreme-ray subset, the type decoded at its
    ray sum, that type's canonical key), decoded once and stored on t beside
    its cone. A ray sum positive on every row contracts nothing: that face
    is t, not decoded and stored as None, so t holds no reference to itself;
    callers read only the proper faces' types."""
    if "_faces" not in t.__dict__:
        out = []
        for s in _faces_of_cone(cone):
            z = _ray_sum(cone, s)
            face = None if _interior(cone, z) else _decode(t, cone, z)
            out.append((s, face, canonical_key(t if face is None else face)))
        t.__dict__["_faces"] = tuple(out)
    return t.__dict__["_faces"]


def _decode(t: TropicalType, cone: TypeCone, z: Sequence[int]) -> TropicalType:
    """The specialized type at a point of the cone's boundary.

    Down the type's walk, listed once and kept on it, a vertex joins its
    parent's group across an edge of length zero. Groups come out ordered by
    their least member, with members in increasing order; the surviving edges
    keep their slopes. Positions come from the cone's vertex position rows.
    """
    k = t.k
    n = t.n_vertices
    lengths = z[k:]
    top = list(range(n))
    for v, parent, idx in _order(t)[1:]:
        if lengths[idx] == 0:
            top[v] = top[parent]
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(top[v], []).append(v)
    gid = {v: i for i, members in enumerate(groups.values()) for v in members}
    at = [[sum(map(mul, row, z)) for row in rows] for rows in cone.positions]
    verts = []
    for members in groups.values():
        pairing = tuple(
            sum(t.vertices[v].pairing[j] for v in members) for j in range(k)
        )
        posvals = at[members[0]]
        if any(at[v] != posvals for v in members[1:]):
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
        a, b = gid[e.ends[0]], gid[e.ends[1]]
        edges.append(EdgeDecor((a, b), _edge_face(verts[a], verts[b], e.slope), e.slope))
    return TropicalType(k, tuple(verts), tuple(edges))


def specializations(nd: NumericalData, t: TropicalType) -> list[TropicalType]:
    """All proper face specializations of a type, one per proper cone face."""
    cone = cone_of_type(nd, t)
    return [s for subset, s, _ in _faces(t, cone) if len(subset) != len(cone.rays)]


def assemble_complex(
    nd: NumericalData, types: Sequence[TropicalType]
) -> tuple[ConeComplex, PuncturingData]:
    """Glue type cones along specialization into an embedded complex.

    Rays are the one-dimensional types in canonical order. A type's cone is
    the set of rays its one-ray faces decode to, in the faces its cone shares
    with the closure. Offsets record, per negative marking direction, the
    puncture vertex's position coordinate at each primitive ray generator.
    Non-simplicial or non-unimodular cones raise NonSmoothConeError carrying
    the type; a type list that is not closed under specialization raises
    ArithmeticError.
    """
    by_key = {canonical_key(t): t for t in types}
    cones_of: dict[tuple, TypeCone] = {k: cone_of_type(nd, t) for k, t in by_key.items()}
    ray_keys = sorted(k for k, c in cones_of.items() if c.dim == 1)
    ray_names = {k: f"r{i + 1}" for i, k in enumerate(ray_keys)}
    names_of: dict[tuple, set] = {}
    for key, cone in cones_of.items():
        face_keys = [(len(subset), skey) for subset, _, skey in _faces(by_key[key], cone)]
        if any(skey not in by_key for _, skey in face_keys):
            raise ArithmeticError("types are not closed under specialization")
        names_of[key] = {ray_names.get(skey) for size, skey in face_keys if size == 1}
    cones = []
    for key, t in by_key.items():
        cone = cones_of[key]
        if cone.dim == 0:
            continue
        if len(cone.rays) != cone.dim or not is_unimodular(cone.rays):
            raise NonSmoothConeError(
                f"type cone is not simplicial-unimodular (dim {cone.dim}, "
                f"{len(cone.rays)} rays)",
                t,
            )
        names = names_of[key]
        if None in names:
            raise ArithmeticError("extreme ray decodes to a missing type")
        if len(names) != cone.dim:
            raise NonSmoothConeError("cone rays decode to a repeated type", t)
        cones.append(tuple(sorted(names)))
    nrays = len(ray_keys)
    rays = [
        Ray(ray_names[k], tuple(1 if i == j else 0 for j in range(nrays)))
        for i, k in enumerate(ray_keys)
    ]
    complex_ = build_complex(rays, cones)
    offsets: dict[str, dict[str, int]] = {}
    for i, alpha in enumerate(nd.markings, start=1):
        for j in range(1, nd.k + 1):
            if alpha[j - 1] < 0:
                offsets[f"p{i}.{j}"] = {}
    for key in ray_keys:
        t = by_key[key]
        cone = cones_of[key]
        z = list(cone.rays[0])
        for i, alpha in enumerate(nd.markings, start=1):
            vtx = next(v for v in range(t.n_vertices) if i in t.vertices[v].legs)
            for j in range(1, nd.k + 1):
                if alpha[j - 1] < 0:
                    val = cone.position(vtx, j, z)
                    if val < 0:
                        raise ArithmeticError(f"offset {val} is not a natural number")
                    if val:
                        offsets[f"p{i}.{j}"][ray_names[key]] = val
    return complex_, puncturing_data(offsets)


def positivize_type(nd: NumericalData, t: TropicalType) -> TropicalType:
    """Image of a type under the degree-shift bijection to positivized data.

    Each vertex class absorbs the negated negative tangencies of its legs;
    faces, legs, and slopes are untouched, and balancing for the positivized
    data is reasserted.
    """
    nd_pos = positivize(nd)
    verts = []
    for v in t.vertices:
        shift = [0] * nd.k
        for i in v.legs:
            for j in range(nd.k):
                shift[j] -= min(nd.markings[i - 1][j], 0)
        verts.append(
            VertexDecor(
                v.face,
                tuple(p + s for p, s in zip(v.pairing, shift)),
                v.label,
                v.legs,
            )
        )
    result = slopes_from_balancing(nd_pos, verts, [e.ends for e in t.edges])
    if any(a.slope != b.slope for a, b in zip(result.edges, t.edges)):
        raise ArithmeticError("degree shift changed an edge slope")
    return result
