"""Shared fixtures and deterministic random generators for the test suite."""
import functools
import itertools
import json
import os
import random
from fractions import Fraction
from typing import Iterator

import pytest

from punctref.aluffi import AluffiDomainError
from punctref.blowups import faithful_lift, stabilize_rank
from punctref.chowring import reduce as chow_reduce
from punctref.conecx import _fresh_ray_ids, build_complex, pl_function, pl_pullback
from punctref.conecx import star_subdivide, Ray
from punctref.fixtureio import load_fixture_file
from punctref.lattice import primitive
from punctref.puncture import (
    PrincipalizationError,
    _segre_by_bending,
    monomial_ideal,
    principalize,
    puncturing_data,
)
from punctref.tropdata import (
    NumericalData,
    TropicalType,
    VertexDecor,
    numerical_data,
    target_model,
)
from punctref.tropmaps import _trees, slopes_from_balancing

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")

FIXTURE_NAMES = (
    "p2-two-lines",
    "pr-hyperplane",
    "f1-blowup",
    "f1-counterexample",
)


def fixture_path(name):
    return os.path.join(FIXTURE_DIR, name + ".json")


def load(name):
    fixture, _ = load_fixture_file(fixture_path(name))
    return fixture


@pytest.fixture(scope="session")
def p2():
    return load("p2-two-lines")


@pytest.fixture(scope="session")
def pr():
    return load("pr-hyperplane")


@pytest.fixture(scope="session")
def f1():
    return load("f1-blowup")


@pytest.fixture(scope="session")
def f1ce():
    return load("f1-counterexample")


def p2_data_model():
    nd = numerical_data(2, (1, 1), [(2, 2), (-1, -1)])
    tm = target_model(2, [
        ((), [((1, 1), "line")]),
        ((1,), [((1, 1), "line")]),
        ((2,), [((1, 1), "line")]),
        ((1, 2), []),
    ])
    return nd, tm


def pr_data_model():
    nd = numerical_data(1, (1,), [(2,), (-1,)])
    tm = target_model(1, [
        ((), [((1,), "line")]),
        ((1,), [((1,), "line-in-H")]),
    ])
    return nd, tm


# deterministic generators shared by the property and acceptance suites


def multiplicity(alpha):
    """Puncturing multiplicity of a tangency vector: the sum of -a over a < 0."""
    return sum(-a for a in alpha if a < 0)


def lifts_by_case2(alpha, center):
    """A faithful lift takes Case 2 exactly when every center entry is negative."""
    return all(alpha[j - 1] < 0 for j in center)


def balanced_single_marking(k, alpha):
    """Numerical data with one marking alpha, balanced by degrees alpha."""
    return NumericalData(k, tuple(alpha), (tuple(alpha),))


def all_centers(k):
    """Every nonempty set of divisor directions 1..k, as a sorted tuple."""
    for size in range(1, k + 1):
        yield from itertools.combinations(range(1, k + 1), size)


@pytest.fixture(scope="session")
def small_lifts():
    """One walk over every alpha with entries in [-3, 3] for k <= 3, shared by
    criterion 6 (e) and the property suite: (alpha, center, step, lifted) for
    faithful_lift on each of the 2555 (alpha, center), and (alpha, stable,
    again, fixed) for stabilize_rank on each of the 399 alpha and again on
    its result."""
    lifts, stabilized = [], []
    for k in (1, 2, 3):
        for alpha in itertools.product(range(-3, 4), repeat=k):
            nd = balanced_single_marking(k, alpha)
            for center in all_centers(k):
                lifts.append((alpha, center, *faithful_lift(nd, center)))
            _, stable = stabilize_rank(nd)
            stabilized.append((alpha, stable, *stabilize_rank(stable)))
    return lifts, stabilized


def random_complex(rng, max_rays=5, max_cone=2):
    """A small complex with at least one 2-cone, simplicial by construction."""
    n = rng.randint(2, max_rays)
    ids = [f"r{i}" for i in range(n)]
    cones = [[ids[0], ids[1]]]
    extra = rng.randint(0, 3)
    for _ in range(extra):
        size = rng.randint(2, min(max_cone, n))
        cone = rng.sample(ids, size)
        cones.append(cone)
    return build_complex([Ray(i, None) for i in ids], cones)


def random_class(rng, c, max_terms=4, max_exp=2):
    cones = [cone for cone in c.maximal_cones()]
    faces = {()}
    for cone in cones:
        for r in cone:
            faces.add((r,))
        faces.add(tuple(sorted(cone)))
    faces = sorted(faces)
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        face = rng.choice(faces)
        mono = {r: rng.randint(1, max_exp) for r in face}
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        terms.append((mono, coeff))
    return chow_reduce(terms, c)


def random_step(rng, c):
    """A star subdivision of a random 2-face of a maximal cone."""
    candidates = [cone for cone in c.maximal_cones() if len(cone) >= 2]
    cone = rng.choice(candidates)
    center = tuple(sorted(rng.sample(list(cone), 2)))
    return star_subdivide(c, center)


def replay(c, trace):
    """c and the refined complex after each step of trace, by replaying the
    steps: a step holds its center's link, not its complexes."""
    complexes = [c]
    for step in trace:
        complexes.append(star_subdivide(complexes[-1], step.center, step.new_ray)[0])
    return complexes


def random_triple(rng):
    c = random_complex(rng)
    a = random_class(rng, c)
    post, step = random_step(rng, c)
    return c, a, post, step


def random_wide_complex(rng):
    """A complex with a cone of up to four rays, plus at most one 2-cone."""
    size = rng.randint(2, 4)
    ids = [f"r{i}" for i in range(size + rng.randint(0, 1))]
    cones = [ids[:size]]
    if len(ids) > size:
        cones.append([ids[0], ids[-1]])
    return build_complex(ids, cones)


def random_wide_ideal(rng):
    """A monomial ideal on a complex with a cone of up to four rays."""
    c = random_wide_complex(rng)
    ids = list(c.ray_ids)
    gens = []
    for _ in range(rng.randint(2, 3)):
        g = {r: rng.randint(0, 2) for r in ids}
        g = {r: v for r, v in g.items() if v}
        if g:
            gens.append(g)
    if not gens:
        gens = [{ids[0]: 1}]
    return c, monomial_ideal(c, gens)


def random_puncturing(rng, max_offsets=3, max_value=3):
    """Puncturing data with one to max_offsets offsets on a wide complex."""
    c = random_wide_complex(rng)
    offsets = {}
    for i in range(rng.randint(1, max_offsets)):
        vals = {r: rng.randint(0, max_value) for r in c.ray_ids}
        offsets[f"p{i + 1}.1"] = {r: v for r, v in vals.items() if v}
    return c, puncturing_data(offsets)


def orthant_chart(rng, k, n, v):
    """The orthant on k rays with n offsets, each value drawn from [1, v]."""
    rays = [f"z{j}" for j in range(k)]
    offsets = {
        f"p{i + 1}.1": {r: rng.randint(1, v) for r in rays} for i in range(n)
    }
    return build_complex(rays, [rays]), puncturing_data(offsets)


# the benchmark's chart pool: (rays k, offsets n, values in [1, v]), four
# charts a rung, drawn from random.Random(0); the anchor from random.Random(1)
RUNGS = ((2, 4, 10), (3, 3, 6), (4, 3, 4), (4, 2, 6), (5, 2, 3), (5, 3, 2))
LADDER_SIZE = 4 * len(RUNGS) + 1


def ladder_chart(index):
    """Chart `index` of the pool, the anchor last, as (complex, offsets)."""
    rng = random.Random(0)
    pool = [
        [[rng.randint(1, v) for _ in range(k)] for _ in range(n)]
        for k, n, v in RUNGS
        for _ in range(4)
    ]
    rng = random.Random(1)
    values = (pool + [[[rng.randint(1, 10) for _ in range(4)] for _ in range(3)]])[index]
    rays = [f"z{j}" for j in range(len(values[0]))]
    pd = puncturing_data(
        {f"p{i + 1}.1": dict(zip(rays, row)) for i, row in enumerate(values)}
    )
    return build_complex(rays, [rays]), pd


# the seeded choice rule: principalize has one rule, and the Segre class does
# not depend on it, which the suites check against these seeded traces


def reference_crossing_faces_for_pair(ga, gb, c):
    """Crossing two-faces of one generator pair, read off every maximal cone."""
    d = {r: ga.get(r) - gb.get(r) for r in c.ray_ids}
    faces = {}
    for cone in c.maximal_cones():
        pos = [(r, d[r]) for r in cone if d[r] > 0]
        neg = [(r, d[r]) for r in cone if d[r] < 0]
        for rp, vp in pos:
            for rn, vn in neg:
                faces[tuple(sorted((rp, rn)))] = vp - vn
    return faces


def _dividing_generator(gens, cone):
    """Index of a generator whose restriction divides all others on the cone."""
    vecs = [tuple(g.get(r) for r in cone) for g in gens]
    for i, v in enumerate(vecs):
        if all(all(x <= y for x, y in zip(v, w)) for w in vecs):
            return i
    return None


def reference_principalize(c, ideal, max_steps=10000, choice_seed=None, choose=None):
    """Principalization restarting from the first generator pair after every
    step, the form the one-pass pair loop replaced; kept as the reference it
    is checked against. Without a seed it follows principalize's rule; a
    seed replaces that rule by a seeded choice among all crossing faces of
    the active pair, and ``choose``, given those faces and their excesses,
    by any rule."""
    rng = random.Random(choice_seed) if choice_seed is not None else None
    gens = list(ideal.generators)
    current = c
    trace = []
    for _ in range(max_steps):
        chosen = None
        for a in range(len(gens)):
            for b in range(a + 1, len(gens)):
                faces = reference_crossing_faces_for_pair(gens[a], gens[b], current)
                if not faces:
                    continue
                if choose is not None:
                    chosen = choose(faces)
                elif rng is None:
                    chosen = min(faces, key=lambda f: (-faces[f], f))
                else:
                    chosen = rng.choice(sorted(faces))
                break
            if chosen is not None:
                break
        if chosen is None:
            for cone in current.maximal_cones():
                if _dividing_generator(gens, cone) is None:
                    raise PrincipalizationError(
                        f"non-principal cone {cone} without a crossing pair"
                    )
            ray_min = {
                rid: min(g.get(rid) for g in gens) for rid in current.ray_ids
            }
            total = pl_function({r: v for r, v in ray_min.items() if v})
            return current, tuple(trace), total
        current, step = star_subdivide(current, chosen)
        gens = [pl_pullback(g, step) for g in gens]
        trace.append(step)
    raise PrincipalizationError(f"step budget {max_steps} exhausted")


@functools.lru_cache(maxsize=16)
def _seeded(c, ideal, choice_seed):
    # the reference is slow, and a seeded chart is often read more than once
    return reference_principalize(c, ideal, choice_seed=choice_seed)


def principalized(c, ideal, choice_seed=None):
    """principalize's (complex, trace, total), or with a seed the
    reference's under the seeded rule."""
    if choice_seed is None:
        return principalize(c, ideal)
    return _seeded(c, ideal, choice_seed)


def seeded_segre(c, ideal, choice_seed, max_codim=None):
    """The Segre class through max_codim (the dimension of c by default),
    pushed down the reference's trace under the seeded rule."""
    _, trace, total = _seeded(c, ideal, choice_seed)
    return _segre_by_bending(c, trace, total, c.dim() if max_codim is None else max_codim)


# the newton backend before three identities replaced its staircase hull,
# slot search and chart-local coordinates: kept as the reference it is
# checked against


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def reference_staircase_vertices(pts):
    """Vertices of the Newton region conv(points + positive orthant)."""
    minimal = [
        p
        for p in pts
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts)
    ]
    minimal.sort()
    chain = []
    for p in minimal:
        while len(chain) >= 2:
            u = (chain[-1][0] - chain[-2][0], chain[-1][1] - chain[-2][1])
            v = (p[0] - chain[-1][0], p[1] - chain[-1][1])
            if _cross(u, v) <= 0:
                chain.pop()
            else:
                break
        chain.append(p)
    return chain


def reference_edge_normals(chain):
    """Primitive inward normals of the chain's edges, sorted by (u_y, u_x)."""
    normals = []
    for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
        n = primitive((y1 - y2, x2 - x1))
        if n[0] <= 0 or n[1] <= 0:
            raise ArithmeticError(f"edge normal {n} is not positive")
        normals.append(n)
    normals.sort(key=lambda n: (n[1], n[0]))
    return normals


def reference_principalize_newton(c, ideal):
    """Newton-region principalization by an ordered fan per chart: each
    mediant lands in the required normal's slot and splits it, and the total
    is the support function of the chart-local coordinates."""
    if ideal.complex != c:
        raise ValueError("ideal does not live on the given complex")
    if c.dim() > 2:
        raise AluffiDomainError(
            "newton backend supports charts of dimension at most two"
        )
    gens = ideal.generators
    names = _fresh_ray_ids(c)
    current = c
    trace = []
    # chart-local coordinates of every ray created inside a chart
    new_vecs = {}
    for chart in c.maximal_cones():
        if len(chart) != 2:
            continue
        r1, r2 = chart
        pts = {(g.get(r1), g.get(r2)) for g in gens}
        required = reference_edge_normals(reference_staircase_vertices(pts))
        # ordered fan of the chart, from (1,0) to (0,1)
        fan = [((1, 0), r1), ((0, 1), r2)]
        for u in required:
            if any(v == u for v, _ in fan):
                continue
            idx = next(
                i
                for i in range(len(fan) - 1)
                if _cross(fan[i][0], u) > 0 and _cross(u, fan[i + 1][0]) > 0
            )
            while True:
                (va, ida), (vb, idb) = fan[idx], fan[idx + 1]
                m = (va[0] + vb[0], va[1] + vb[1])
                current, step = star_subdivide(current, (ida, idb), next(names))
                trace.append(step)
                new_vecs[step.new_ray] = ((r1, r2), m)
                fan.insert(idx + 1, (m, step.new_ray))
                if m == u:
                    break
                if _cross(m, u) > 0:
                    idx += 1
    values = {}
    for rid in current.ray_ids:
        if rid in new_vecs:
            (r1, r2), v = new_vecs[rid]
            val = min(v[0] * g.get(r1) + v[1] * g.get(r2) for g in gens)
        else:
            val = min(g.get(rid) for g in gens)
        if val:
            values[rid] = val
    return current, tuple(trace), pl_function(values)


# the type walk before it pruned class assignments by edge direction and owed
# weight: every balanced stable labeling, in the order the pruned walk keeps,
# kept as the reference the pruned walk is checked against


def reference_level_types(nd, candidates, n):
    """Balanced types on the trees of _trees(n) whose zero-class vertices
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
                    # the classes add up to d, the markings' sum, so T = 0
                    yield slopes_from_balancing(nd, verts, edges)
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
