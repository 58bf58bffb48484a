"""Numerical data, genus-zero tropical type enumeration, and complex assembly.

Types are decorated trees: per-vertex image face and curve class drawn from a
user-supplied target model, per-edge slopes forced by balancing. Each type
spans a cone whose coordinates are the root position inside its face together
with the edge lengths; realizability means the cone has interior points with
all lengths and face coordinates strictly positive. Assembly glues the cones
along specialization and reads the puncturing offsets off primitive ray
generators.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .conecx import ConeComplex, Ray, build_complex
from .lattice import is_unimodular, kernel, primitive, rank
from .puncture import PuncturingData, puncturing_data

__all__ = [
    "NumericalData",
    "TargetModel",
    "VertexDecor",
    "EdgeDecor",
    "TropicalType",
    "TypeCone",
    "EnumerationBoundError",
    "BalancingError",
    "NonSmoothConeError",
    "numerical_data",
    "target_model",
    "validate_numerical_data",
    "slopes_from_balancing",
    "enumerate_types",
    "canonical_key",
    "cone_of_type",
    "realizable",
    "specializations",
    "assemble_complex",
    "positivize",
    "positivize_type",
]


class EnumerationBoundError(RuntimeError):
    """Enumeration cannot certify completeness; never silent."""


class BalancingError(ValueError):
    """A decorated graph admits no consistent slope assignment."""


class NonSmoothConeError(RuntimeError):
    """A type cone is not simplicial-unimodular; carries the offending type."""

    def __init__(self, message: str, tp: "TropicalType"):
        super().__init__(message)
        self.type = tp


@dataclass(frozen=True)
class NumericalData:
    """Degrees and tangency vectors of a genus-zero punctured-map problem."""

    k: int
    degrees: tuple[int, ...]
    markings: tuple[tuple[int, ...], ...]
    genus: int = 0

    def __post_init__(self) -> None:
        if self.genus != 0:
            raise ValueError("only genus zero is supported")
        if len(self.degrees) != self.k:
            raise ValueError("degree vector length differs from k")
        for a in self.markings:
            if len(a) != self.k:
                raise ValueError("marking vector length differs from k")

    @property
    def ordinary(self) -> tuple[int, ...]:
        return tuple(
            i + 1 for i, a in enumerate(self.markings) if all(x >= 0 for x in a)
        )

    @property
    def punctures(self) -> tuple[int, ...]:
        return tuple(
            i + 1 for i, a in enumerate(self.markings) if any(x < 0 for x in a)
        )

    def rank(self, i: int) -> int:
        """Number of negative tangency coordinates of marking i (1-based)."""
        if not 1 <= i <= len(self.markings):
            raise ValueError(f"marking index {i} outside 1..{len(self.markings)}")
        return sum(1 for x in self.markings[i - 1] if x < 0)

    @property
    def k_P(self) -> int:
        return sum(self.rank(i) for i in range(1, len(self.markings) + 1))


def numerical_data(
    k: int, degrees: Iterable[int], markings: Iterable[Iterable[int]]
) -> NumericalData:
    return NumericalData(
        k, tuple(int(x) for x in degrees), tuple(tuple(int(x) for x in a) for a in markings)
    )


def validate_numerical_data(nd: NumericalData) -> dict:
    """Check global balancing and report the marking partition and ranks."""
    violations = [
        j + 1
        for j in range(nd.k)
        if sum(a[j] for a in nd.markings) != nd.degrees[j]
    ]
    ranks = {i: nd.rank(i) for i in range(1, len(nd.markings) + 1)}
    return {
        "ok": not violations,
        "violations": violations,
        "O": list(nd.ordinary),
        "P": list(nd.punctures),
        "k_i": ranks,
        "k_P": nd.k_P,
        "virtual_codimension": nd.k_P,
    }


@dataclass(frozen=True)
class TargetModel:
    """Admissible vertex classes per face of the orthant, as pairing vectors."""

    k: int
    strata: tuple[tuple[frozenset, tuple[tuple[tuple[int, ...], str], ...]], ...]

    def classes_at(self, face: frozenset) -> tuple[tuple[tuple[int, ...], str], ...]:
        for f, classes in self.strata:
            if f == face:
                return classes
        return ()


def target_model(
    k: int,
    strata: Mapping[frozenset, Sequence[tuple[Sequence[int], str]]]
    | Sequence[tuple[Iterable[int], Sequence[tuple[Sequence[int], str]]]],
) -> TargetModel:
    items = strata.items() if isinstance(strata, Mapping) else strata
    rows = []
    for face, classes in items:
        fs = frozenset(int(j) for j in face)
        if any(j < 1 or j > k for j in fs):
            raise ValueError(f"face {sorted(fs)} outside 1..{k}")
        if any(fs == f for f, _ in rows):
            raise ValueError(f"face {sorted(fs)} listed twice")
        cl = tuple((tuple(int(x) for x in p), str(lab)) for p, lab in classes)
        for p, _ in cl:
            if len(p) != k:
                raise ValueError("pairing vector length differs from k")
        rows.append((fs, cl))
    rows.sort(key=lambda r: (len(r[0]), sorted(r[0])))
    return TargetModel(k, tuple(rows))


@dataclass(frozen=True)
class VertexDecor:
    face: frozenset
    pairing: tuple[int, ...]
    label: str
    legs: tuple[int, ...]


@dataclass(frozen=True)
class EdgeDecor:
    ends: tuple[int, int]
    face: frozenset
    slope: tuple[int, ...]


@dataclass(frozen=True)
class TropicalType:
    k: int
    vertices: tuple[VertexDecor, ...]
    edges: tuple[EdgeDecor, ...]

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


def canonical_key(t: TropicalType) -> tuple:
    """Degree-lex minimal adjacency encoding over leg-respecting relabelings."""
    n = t.n_vertices
    if n > 8:
        raise EnumerationBoundError("canonical form beyond eight vertices")
    best = None
    vdata = [(v.pairing, tuple(sorted(v.face)), v.legs) for v in t.vertices]
    for perm in itertools.permutations(range(n)):
        vrows: list = [None] * n
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


def _components_without(n: int, edges: Sequence[tuple[int, int]], cut: int) -> set[int]:
    """Vertex set of the component of edges[cut][0] once that edge is removed."""
    adj: dict[int, list[int]] = {i: [] for i in range(n)}
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


def slopes_from_balancing(
    nd: NumericalData,
    vertices: Sequence[VertexDecor],
    edges: Sequence[tuple[int, int] | EdgeDecor],
) -> TropicalType:
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
    seen = _components_without(n, ends + [(0, 0)], len(ends)) if n > 1 else {0}
    if len(seen) != n:
        raise BalancingError("not a tree: graph is disconnected")
    legs_alpha = []
    for v in vertices:
        tot = [0] * nd.k
        for i in v.legs:
            for j in range(nd.k):
                tot[j] += nd.markings[i - 1][j]
        legs_alpha.append(tuple(tot))
    out_edges: list[EdgeDecor] = []
    for idx, (a, b) in enumerate(ends):
        side = _components_without(n, ends, idx)
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


@dataclass(frozen=True)
class TypeCone:
    """The cone of a tropical type in root-position and edge-length coordinates."""

    type: TropicalType
    variables: tuple[str, ...]
    rays: tuple[tuple[int, ...], ...]
    dim: int
    unimodular: bool
    ineq_rows: tuple[tuple[int, ...], ...] = field(repr=False)
    positions: tuple[tuple[tuple[int, ...], ...], ...] = field(repr=False)

    def position(self, vertex: int, j: int, z: Sequence[int]) -> int:
        row = self.positions[vertex][j - 1]
        return sum(c * x for c, x in zip(row, z))


def _position_rows(t: TropicalType) -> list[list[list[int]]]:
    """Linear forms for every vertex position coordinate over (x_1..x_k, l_e)."""
    k = t.k
    n = t.n_vertices
    nv = k + len(t.edges)
    adj: dict[int, list[tuple[int, int, int]]] = {i: [] for i in range(n)}
    for idx, e in enumerate(t.edges):
        a, b = e.ends
        adj[a].append((b, idx, +1))
        adj[b].append((a, idx, -1))
    rows: list[Optional[list[list[int]]]] = [None] * n
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
    return rows  # type: ignore[return-value]


def cone_of_type(nd: NumericalData, t: TropicalType) -> TypeCone:
    """Extreme rays, dimension, and integral structure of a type's cone.

    Variables are the root position (all k coordinates, those outside the
    root face pinned to zero) followed by one length per edge. Equations pin
    every vertex coordinate outside its face; inequalities keep lengths and
    in-face coordinates nonnegative.
    """
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
    rays: list[tuple[int, ...]] = []
    if m:
        proj = [[sum(a * b for a, b in zip(r, bv)) for bv in basis] for r in ineqs]
        seen = set()
        for subset in itertools.combinations(range(len(proj)), m - 1):
            sub = [proj[i] for i in subset]
            kern = kernel(sub, m)
            if len(kern) != 1:
                continue
            z = [
                sum(kern[0][c] * basis[c][i] for c in range(m)) for i in range(nv)
            ]
            signs = [sum(a * b for a, b in zip(r, z)) for r in ineqs]
            if all(s >= 0 for s in signs):
                pass
            elif all(s <= 0 for s in signs):
                z = [-x for x in z]
            else:
                continue
            if all(x == 0 for x in z):
                continue
            prim = primitive(z)
            if prim not in seen:
                seen.add(prim)
                rays.append(prim)
    rays.sort()
    unimod = bool(rays) and is_unimodular(rays)
    variables = tuple(f"x{j}" for j in range(1, k + 1)) + tuple(
        f"l{i}" for i in range(len(t.edges))
    )
    return TypeCone(
        type=t,
        variables=variables,
        rays=tuple(rays),
        dim=rank(rays, nv),
        unimodular=unimod or not rays,
        ineq_rows=tuple(ineqs),
        positions=tuple(tuple(tuple(r) for r in pr) for pr in pos),
    )


def realizable(nd: NumericalData, t: TropicalType) -> bool:
    """A type is realizable when its cone has a point with every edge length
    and every in-face position coordinate strictly positive."""
    cone = cone_of_type(nd, t)
    if not cone.ineq_rows:
        return True
    if not cone.rays:
        return False
    z = [sum(r[i] for r in cone.rays) for i in range(len(cone.variables))]
    return all(sum(c * x for c, x in zip(row, z)) > 0 for row in cone.ineq_rows)


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
    """Realizable types on the trees of _trees(n) whose zero-class vertices
    keep at least three special points, save a lone vertex at the trivial face."""
    n_marks = len(nd.markings)
    for edges in _trees(n):
        degree = [0] * n
        for a, b in edges:
            degree[a] += 1
            degree[b] += 1
        for legassign in itertools.product(range(n), repeat=n_marks):
            legs: list[tuple[int, ...]] = [
                tuple(i + 1 for i in range(n_marks) if legassign[i] == v)
                for v in range(n)
            ]
            specials = [degree[v] + len(legs[v]) for v in range(n)]
            chosen: list[tuple[frozenset, tuple[int, ...], str]] = []

            def assign(v: int, partial: tuple[int, ...]) -> Iterator[TropicalType]:
                if v == n:
                    if partial != nd.degrees:
                        return
                    verts = [
                        VertexDecor(chosen[i][0], chosen[i][1], chosen[i][2], legs[i])
                        for i in range(n)
                    ]
                    try:
                        t = slopes_from_balancing(nd, verts, list(edges))
                    except BalancingError:
                        return
                    if realizable(nd, t):
                        yield t
                    return
                for face, pairing, label in candidates:
                    zero = all(x == 0 for x in pairing)
                    if zero and specials[v] < 3 and not (n == 1 and not face):
                        continue
                    nxt = tuple(a + b for a, b in zip(partial, pairing))
                    if any(abs(x) > abs(d) for x, d in zip(nxt, nd.degrees)):
                        continue
                    chosen.append((face, pairing, label))
                    yield from assign(v + 1, nxt)
                    chosen.pop()

            yield from assign(0, tuple([0] * nd.k))


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
    The output is closed under specialization and sorted by canonical form.
    Class splittings without a sign bound raise EnumerationBoundError. An
    explicit ``bounds={"max_vertices": cap}`` stops at min(cap, B) vertices
    and, unlike the default, raises it when types exist at cap.
    """
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
    cap = (bounds or {}).get("max_vertices")
    if cap is not None:
        max_v = min(cap, max_v)
    found: dict[tuple, TropicalType] = {}
    for n in range(1, max_v + 1):
        for t in _level_types(nd, candidates, n):
            found.setdefault(canonical_key(t), t)
    # close under specialization
    queue = list(found.values())
    while queue:
        t = queue.pop()
        for s in specializations(nd, t):
            key = canonical_key(s)
            if key not in found:
                found[key] = s
                queue.append(s)
    if cap is not None and any(t.n_vertices == cap for t in found.values()):
        raise EnumerationBoundError(
            f"valid types exist at the vertex bound {cap}; enumeration may be incomplete"
        )
    return tuple(found[k] for k in sorted(found))


def _faces_of_cone(cone: TypeCone) -> list[tuple[int, ...]]:
    """Faces as subsets of extreme-ray indices, by the tight-constraint test."""
    rays = cone.rays
    nv = len(cone.variables)
    out = []
    for size in range(len(rays) + 1):
        for subset in itertools.combinations(range(len(rays)), size):
            z = [sum(rays[i][c] for i in subset) for c in range(nv)]
            tight = [
                row
                for row in cone.ineq_rows
                if sum(a * b for a, b in zip(row, z)) == 0
            ]
            closure = tuple(
                i
                for i in range(len(rays))
                if all(
                    sum(a * b for a, b in zip(row, rays[i])) == 0 for row in tight
                )
            )
            if closure == subset:
                out.append(subset)
    return out


def _decode(
    nd: NumericalData, t: TropicalType, cone: TypeCone, z: Sequence[int]
) -> TropicalType:
    """The specialized type at a point of the cone's boundary."""
    k = t.k
    n = t.n_vertices
    lengths = [z[k + i] for i in range(len(t.edges))]
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for idx, e in enumerate(t.edges):
        if lengths[idx] == 0:
            ra, rb = find(e.ends[0]), find(e.ends[1])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[int]] = {}
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


def specializations(nd: NumericalData, t: TropicalType) -> list[TropicalType]:
    """All proper face specializations of a type, one per proper cone face."""
    cone = cone_of_type(nd, t)
    out = []
    nv = len(cone.variables)
    for subset in _faces_of_cone(cone):
        if len(subset) == len(cone.rays):
            continue
        z = [sum(cone.rays[i][c] for i in subset) for c in range(nv)]
        out.append(_decode(nd, t, cone, z))
    return out


def assemble_complex(
    nd: NumericalData, types: Sequence[TropicalType]
) -> tuple[ConeComplex, PuncturingData]:
    """Glue type cones along specialization into an embedded complex.

    Rays are the one-dimensional types in canonical order; each type's cone
    is the set of rays its extreme rays decode to. Offsets record, per
    negative marking direction, the puncture vertex's position coordinate at
    each primitive ray generator. Non-simplicial or non-unimodular cones
    raise NonSmoothConeError carrying the type; a type list that is not
    closed under specialization raises ArithmeticError.
    """
    by_key = {canonical_key(t): t for t in types}
    cones_of: dict[tuple, TypeCone] = {k: cone_of_type(nd, t) for k, t in by_key.items()}
    for key, t in by_key.items():
        for s in specializations(nd, t):
            if canonical_key(s) not in by_key:
                raise ArithmeticError("types are not closed under specialization")
    ray_keys = sorted(k for k, c in cones_of.items() if c.dim == 1)
    ray_names = {k: f"r{i + 1}" for i, k in enumerate(ray_keys)}
    cones = []
    for key, t in by_key.items():
        cone = cones_of[key]
        if cone.dim == 0:
            continue
        if len(cone.rays) != cone.dim or not cone.unimodular:
            raise NonSmoothConeError(
                f"type cone is not simplicial-unimodular (dim {cone.dim}, "
                f"{len(cone.rays)} rays)",
                t,
            )
        names = set()
        for i in range(len(cone.rays)):
            s = _decode(nd, t, cone, list(cone.rays[i]))
            skey = canonical_key(s)
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


def positivize(nd: NumericalData) -> NumericalData:
    """Zero out puncture tangencies and absorb them into the degrees."""
    markings = tuple(tuple(max(x, 0) for x in a) for a in nd.markings)
    degrees = tuple(
        nd.degrees[j] - sum(min(a[j], 0) for a in nd.markings) for j in range(nd.k)
    )
    return NumericalData(nd.k, degrees, markings, nd.genus)


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
