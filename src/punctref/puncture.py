"""Puncturing data, monomial-ideal principalization, and refined virtual classes.

The pipeline: puncturing offsets define a monomial ideal on the cone complex;
stellar subdivisions at two-ray centers make its total transform E Cartier;
the Segre class of the puncturing substack is the pushforward of E/(1+E); and
the refined class is the degree-k_P part of the Chern/Segre product. With
G_s = -E_s on the complex after step s, step s changes G by its bending
c_s x_e, c_s = total(r1) + total(r2) - total(e) <= 0, so pi_*(G^i) is
(-D)^i, for D the divisor of total on the base, plus the sum over the steps
of the pushed-down R_s^i = sum_(t>=2) C(i, t) c_s^t G_(s-1)^(i-t)
pi_s*(x_e^t): only what the bending adds goes down, from the step that adds
it, and the Segre class is D/(1+D) minus that sum (``_segre_by_bending``).
The pushed-down powers of x_e enter R_s through a closed form in the two
center rays (``_bending_q``). The series of a linear class comes term by
term from ``chowring._power_series_part``. Each D_p upstairs is pulled back
from the base, so by the projection formula that product is formed on the
base complex, against the pushed-down Segre class, in one pass over the
pairs of terms whose degrees sum to k_P. The aluffi-crosscheck backend
calls ``aluffi.segre_newton``, which pushes down the whole series E/(1+E) of
its own principalization and needs nothing from this module at run time.
"""
from __future__ import annotations

import itertools
from functools import reduce
from math import comb, gcd
from typing import Iterable, Mapping, Optional, Sequence

from . import aluffi
from .chowring import (
    ChowClass,
    _compositions,
    _finish,
    _Layout,
    _mono_degree,
    _mono_mul,
    _power_series_part,
    _push_step,
    divisor_of_pl,
    multiply,
    ray_class,
    stratum_class,
    truncate,
    unit,
    zero,
)
from .conecx import (
    ConeComplex,
    PLFunction,
    SubdivisionStep,
    _fresh_ray_ids,
    _Record,
    _star,
    pl_function,
    star_subdivide,
)

__all__ = [
    "PuncturingData",
    "MonomialIdealOnComplex",
    "RefinedClassResult",
    "puncturing_data",
    "monomial_ideal",
    "normalized_ideal",
    "puncturing_components",
    "principalize",
    "segre_class",
    "refined_class",
    "refined_class_excess",
    "PrincipalizationError",
]


class PrincipalizationError(RuntimeError):
    """Raised when principalization exhausts its step budget or ends on a
    non-principal cone, or when the Segre class it feeds could pass
    MAX_SEGRE_TERMS terms.

    The budget is not a proof of a bug: the step count grows with the
    offsets. On the 2-ray chart with offsets (a^N b, a^2 b^5), normalized
    per ray, the rule takes 128 steps at N = 1000, 1250 at N = 9990 and 2503
    at both N = 10001 and N = 20000, and N = 40001 exhausts MAX_STEPS.
    """


MAX_STEPS = 10000
"""The most subdivisions ``principalize`` makes; read at each call."""


MAX_SEGRE_TERMS = 10**6
"""The largest term bound a Segre class may have; ``_segre`` refuses a larger
one before any work. A class through codim m on c has at most
1 + sum_tau C(m, |tau|) terms, over the nonempty cones tau of c: C(m, |tau|)
monomials of degree 1..m have support exactly tau. On f1-blowup the bound is
4711 at m = 30 and 50701 at m = 100."""


class PuncturingData(_Record):
    """Puncturing offsets: one nonnegative integer PL function per negative direction.

    Offset ids follow the "p{i}.{j}" convention for marking i, coordinate j,
    but any distinct ids are accepted.
    """

    def __init__(self, offsets: tuple[tuple[str, PLFunction], ...]) -> None:
        ids = [pid for pid, _ in offsets]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate puncture ids in offsets")
        for pid, f in offsets:
            if not f.nonnegative:
                raise ValueError(f"offset {pid!r} takes a negative value")
            for rid, v in f.values:
                if v.denominator != 1:
                    raise ValueError(f"offset {pid!r} is not integral at ray {rid!r}")
        object.__setattr__(self, "offsets", offsets)

    @property
    def k_P(self) -> int:
        return len(self.offsets)


def puncturing_data(offsets: Mapping[str, Mapping[str, int]]) -> PuncturingData:
    """Build puncturing data from an id -> (ray -> value) mapping."""
    items = tuple(
        (pid, pl_function(vals)) for pid, vals in sorted(offsets.items())
    )
    return PuncturingData(items)


class MonomialIdealOnComplex(_Record):
    """A monomial ideal presented by generators, one exponent vector per generator.

    Each generator is a nonnegative integer PL-data vector on the rays; its
    monomial is the product of ray variables to those exponents.
    """

    def __init__(self, complex: ConeComplex, generators: tuple[PLFunction, ...]) -> None:
        if not generators:
            raise ValueError("monomial ideal needs at least one generator")
        for g in generators:
            for rid, v in g.values:
                if v < 0 or v.denominator != 1:
                    raise ValueError("generator exponents must be nonnegative integers")
                if rid not in complex._ray_index():
                    raise ValueError(f"generator mentions unknown ray {rid!r}")
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "generators", generators)


def monomial_ideal(
    c: ConeComplex, generators: Iterable[Mapping[str, int] | PLFunction]
) -> MonomialIdealOnComplex:
    gens = tuple(
        g if isinstance(g, PLFunction) else pl_function(g) for g in generators
    )
    return MonomialIdealOnComplex(c, gens)


def normalized_ideal(c: ConeComplex, pd: PuncturingData) -> MonomialIdealOnComplex:
    """Offsets ideal after per-ray normalization.

    Each ray's exponents are divided by the gcd of all offset values there;
    rays where every offset vanishes keep their zeros. This strips the
    multiplicity that separates source and target lengths while preserving
    the relative exponent pattern that drives the subdivisions.
    """
    if not pd.offsets:
        raise ValueError("no offsets: the empty ideal is not representable")
    per_ray: dict[str, int] = {}
    for rid in c.ray_ids:
        g = 0
        for _, f in pd.offsets:
            g = gcd(g, f.get(rid))
        per_ray[rid] = g if g else 1
    gens = []
    for _, f in pd.offsets:
        vals = {rid: f.get(rid) // per_ray[rid] for rid in c.ray_ids if f.get(rid)}
        gens.append(pl_function(vals))
    return MonomialIdealOnComplex(c, tuple(gens))


def puncturing_components(
    c: ConeComplex, pd: PuncturingData
) -> tuple[tuple[str, ...], ...]:
    """Minimal cones on whose relative interior every offset is positive.

    A cone qualifies when each offset has a strictly positive value on at
    least one of its rays; the components are the minimal qualifying cones
    in the face order. With no offsets the zero cone qualifies vacuously.
    Qualifying is inherited by larger cones, so on a face-closed complex a
    qualifying cone is minimal exactly when none of its facets qualifies.
    """
    good = {
        cone
        for cone in c.cones
        if all(any(f.get(r) > 0 for r in cone) for _, f in pd.offsets)
    }
    minimal = [
        cone
        for cone in good
        if not any(cone[:i] + cone[i + 1 :] in good for i in range(len(cone)))
    ]
    return tuple(sorted(minimal, key=lambda t: (len(t), t)))


def _crossing_faces(
    table: Mapping[str, Sequence[int]], a: int, b: int, c: ConeComplex
) -> dict[tuple[str, str], int]:
    """Crossing two-cones of generators a and b, mapped to their excess.

    The difference d = g_a - g_b lives on rays, so a two-cone (i, j) crosses
    when d_i d_j < 0, and its excess |d_i - d_j| does not depend on any
    cone around it.
    """
    d = {r: row[a] - row[b] for r, row in table.items()}
    return {
        cone: abs(d[cone[0]] - d[cone[1]])
        for cone in c.cones
        if len(cone) == 2 and d[cone[0]] * d[cone[1]] < 0
    }


def principalize(
    c: ConeComplex,
    ideal: MonomialIdealOnComplex,
) -> tuple[ConeComplex, tuple[SubdivisionStep, ...], PLFunction]:
    """Subdivide until one generator divides all others on every maximal cone.

    Generator pairs are settled one at a time, in index order. A pair is
    settled when it is comparable on every two-cone: its difference d has
    d_i d_j >= 0 there. It then stays settled under any further stellar
    subdivision. The new ray gets d_i + d_j, which keeps the common sign of
    the center, and every ray of the center's link agrees with both center
    rays, hence with the new ray. For the active pair the rule blows up the
    crossing face of maximal excess, ties to the lexicographically smallest
    face. The resulting Segre class is independent of the choice, which the
    property suite checks against seeded choices. At most MAX_STEPS
    subdivisions are made.

    The generators are read once into one table of per-ray rows; a new ray's
    row is the sum of the center rows. A generator divides the others on a
    cone when it attains the row minimum on each of its rays. The active
    pair's crossing two-cones come from one scan of the cones when the pair
    becomes active; after that each step updates them. Its only lost
    two-cone is the center, and it gains (x, e), crossing when d_e d_x < 0,
    for x = r1, r2 and each one-face x of the step's link, the only rays
    read. The maximal cones are carried through the steps: a maximal
    tau + center, tau in the link, becomes tau + e + r1 and tau + e + r2,
    and every other maximal cone stays maximal. The closing check reads
    them in (dimension, lex) order, and the refined complex caches them as
    its ``maximal_cones()``, so they are never derived from every cone. New
    rays are named e0, e1, ... from a counter that skips the ids of c.

    Returns the refined complex, the subdivision trace, and the total
    transform as a PL function: the raywise minimum of the generators, which
    is chartwise linear exactly when the ideal is principal on every chart.
    """
    if ideal.complex != c:
        raise ValueError("ideal does not live on the given complex")
    gens = range(len(ideal.generators))
    table = {r: [g.get(r) for g in ideal.generators] for r in c.ray_ids}
    names = _fresh_ray_ids(c)
    current = c
    maximal = set(c.maximal_cones())
    trace: list[SubdivisionStep] = []
    for a, b in itertools.combinations(gens, 2):
        faces = _crossing_faces(table, a, b, current)
        while faces:
            if len(trace) == MAX_STEPS:
                raise PrincipalizationError(f"step budget {MAX_STEPS} exhausted")
            chosen = min(faces, key=lambda f: (-faces[f], f))
            current, step = star_subdivide(current, chosen, next(names))
            r1, r2 = step.center
            e = step.new_ray
            table[e] = row = [x + y for x, y in zip(table[r1], table[r2])]
            trace.append(step)
            del faces[chosen]
            de = row[a] - row[b]
            for x in (r1, r2, *[tau[0] for tau in step.link if len(tau) == 1]):
                dx = table[x][a] - table[x][b]
                if de * dx < 0:
                    faces[tuple(sorted((x, e)))] = abs(de - dx)
            for tau in step.link:
                cone = tuple(sorted(tau + step.center))
                if cone in maximal:
                    maximal.remove(cone)
                    maximal.update(_star([tau], step.center, e)[1:])
    ordered = tuple(sorted(maximal, key=lambda t: (len(t), t)))
    ray_min = {r: min(row) for r, row in table.items()}
    for cone in ordered:
        if not any(all(table[r][i] == ray_min[r] for r in cone) for i in gens):
            raise PrincipalizationError(
                f"non-principal cone {cone} without a crossing pair"
            )
    # the complex's own cache, which maximal_cones() would derive from every cone
    current.__dict__.setdefault("_maximal_cache", ordered)
    total = pl_function({r: v for r, v in ray_min.items() if v})
    return current, tuple(trace), total


def _bending_q(g1: int, g2: int, bend: int, top: int) -> list[list[int]]:
    """Q_d for d = 0..top in the two center rays, as coefficient lists:
    Q_d[j] is the coefficient of x_r1^j x_r2^(d-j).

    The blowdown formula pushes x_e^t down to
    -x_r1 x_r2 h_(t-2)(x_r1, x_r2) = (x_r1 x_r2^t - x_r2 x_r1^t) / (x_r1 - x_r2),
    which is also right for t = 0 (1) and t = 1 (0). With L = g1 x_r1 + g2 x_r2
    and x1, x2 for the center rays, the binomial sum of Q_d is then
        Q_d = sum_(t=0..d) C(d, t) bend^t L^(d-t) pi_s*(x_e^t) - L^d
            = [x1 ((L + bend x2)^d - L^d) - x2 ((L + bend x1)^d - L^d)]
              / (x1 - x2).
    The numerator's coefficient of x1^j x2^(d+1-j) is alpha_(j-1) - beta_j,
    with
        alpha_j = C(d, j) g1^j ((g2 + bend)^(d-j) - g2^(d-j)),
        beta_j = C(d, j) g2^(d-j) ((g1 + bend)^j - g1^j),
    and the division by x1 - x2 is exact, so Q_d[j] is the partial sum
    sum_(i<=j) beta_i - alpha_(i-1): O(d) products per degree from four
    power tables. Q_d[0] = Q_d[d] = 0, as every monomial holds both rays.
    """
    a, b, g, p = (
        [x**i for i in range(top + 1)] for x in (g1, g2 + bend, g2, g1 + bend)
    )
    out = []
    for d in range(top + 1):
        q, run, prev = [], 0, 0
        for j in range(d + 1):
            binom = comb(d, j)
            run += binom * g[d - j] * (p[j] - a[j]) - prev
            prev = binom * a[j] * (b[d - j] - g[d - j])
            q.append(run)
        out.append(q)
    return out


def _bending(
    acc: dict[int, int],
    step: SubdivisionStep,
    bend: int,
    g: Mapping[str, int],
    max_codim: int,
    layout: _Layout,
) -> None:
    """Add one step's R^i = pi_s*(G_s^i) - G_(s-1)^i, i = 2..max_codim, to acc.

    G = -E, so G_s = pi_s^*G_(s-1) + bend x_e (see _segre_by_bending). Write
    G_(s-1) = g1 x_r1 + g2 x_r2 + H, with H on the other rays of the step's
    source; g holds G's coefficients, -total on every ray.
    After the binomial expansion,
        R^i = sum_(m+d=i, d>=2) C(i, m) H^m Q_d,
        Q_d = sum_(t=2..d) C(d, t) bend^t (g1 x_r1 + g2 x_r2)^(d-t) pi_s*(x_e^t),
    and Q_d has the closed form of ``_bending_q``: O(d) coefficients per
    degree, not a sum over t and over the kernel of each x_e^t. Every
    monomial of Q_d has both center rays, so only the terms of H^m on a face
    lam of the step's link survive: () for m = 0, else the link's faces with
    0 < |lam| <= m <= max_codim - 2 and g nonzero on their rays. They are
    written in closed form, as in _power_series_part, and packed in the
    chain's layout: a product of monomials is the sum of their ints. The
    weights C(m + d, m) Q_d over d are folded into one packed list per m,
    once per step.
    """
    r1, r2 = step.center
    shift = layout.shift
    s1, s2 = shift[r1], shift[r2]
    Q = [
        [((j << s1) + (d - j << s2), v) for j, v in enumerate(q) if v]
        for d, q in enumerate(_bending_q(g[r1], g[r2], bend, max_codim))
    ]
    faces = [lam for lam in step.link if lam and all(map(g.get, lam))]
    # H^0 = 1 lives on (), H^m on faces of 1..m rays: faces holds one-faces if any
    for m in range(max_codim - 1 if faces else 1):
        lams = [lam for lam in faces if len(lam) <= m] if m else [()]
        weighted = [
            (q, comb(m + d, m) * v)
            for d in range(2, max_codim - m + 1)
            for q, v in Q[d]
        ]
        for lam in lams:
            for a, multinomial in _compositions(m, len(lam)):
                hv, h = multinomial, 0
                for r, x in zip(lam, a):
                    hv *= g[r] ** x
                    h += x << shift[r]
                for q, w in weighted:
                    acc[h + q] = acc.get(h + q, 0) + hv * w


def _segre_by_bending(
    c: ConeComplex,
    trace: Sequence[SubdivisionStep],
    total: PLFunction,
    max_codim: int,
) -> ChowClass:
    """The pushforward of E/(1+E) through max_codim, with only the steps'
    bendings pushed down.

    E_s is the divisor of total on the complex after step s, and G_s = -E_s,
    so G_0 = -D for D the divisor of total on the base. The pullback along
    step s gives x_e the coefficient g(r1) + g(r2), so
    G_s = pi_s^*G_(s-1) + c_s x_e, with the step's bending
    c_s = total(r1) + total(r2) - total(e) <= 0, since total is a minimum of
    linear functions. Expanding G_s^i and pushing it through step s, with
    pi_s*(pi_s^*a b) = a pi_s*b, pi_s*1 = 1 and pi_s*x_e = 0, gives
    pi_s*(G_s^i) = G_(s-1)^i + R_s^i, with
        R_s^i = sum_(t=2..i) C(i, t) c_s^t G_(s-1)^(i-t) pi_s*(x_e^t),
    so pi_*(G^i) = (-D)^i + sum_s pi_(<s)*(R_s^i), and a step with c_s = 0
    adds nothing. As E^i = (-1)^i G^i,
        s = sum_(i>=1) (-1)^(i-1) pi_*(E^i)
          = D/(1+D) - sum_(i>=2) sum_s pi_(<s)*(R_s^i),
    truncated at max_codim. One dict of packed terms carries every degree of
    the sum, in the layout of the chain at width max_codim: from the last
    bending step down, it is pushed through step s (``chowring._push_step``)
    and gains R_s (``_bending``). It is subtracted from the series of D in
    one ``_finish``; nothing is packed when no step bends.
    """
    series = _power_series_part(divisor_of_pl(total, c), max_codim)
    bends = [
        total.get(s.center[0]) + total.get(s.center[1]) - total.get(s.new_ray)
        for s in trace
    ]
    if not any(bends):
        return series
    layout = _Layout(c.ray_ids, [s.new_ray for s in trace], max_codim)
    # G_s's coefficients: g(e) = g(r1) + g(r2) + c_s keeps g = -total
    g = {r: -total.get(r) for r in layout.names}
    acc: dict[int, int] = {}
    for step, bend in reversed(list(zip(trace, bends))):
        if acc:
            _push_step(acc, step, layout)
        if bend:
            _bending(acc, step, bend, g, max_codim, layout)
    terms = dict(series.terms)
    for m, v in acc.items():
        k = layout.unpack(m)
        terms[k] = terms.get(k, 0) - v
    return _finish(terms, c)


def _segre(
    c: ConeComplex,
    ideal: MonomialIdealOnComplex,
    max_codim: int,
    backend: str,
) -> tuple[ChowClass, tuple[SubdivisionStep, ...]]:
    """Segre class through max_codim and the principalization trace behind it."""
    if backend not in ("resolution", "aluffi-crosscheck"):
        raise ValueError(f"unknown backend {backend!r}")
    if max_codim < 0:
        raise ValueError(f"max_codim must be nonnegative, got {max_codim}")
    bound = 1 + sum(comb(max_codim, len(cone)) for cone in c.cones if cone)
    if bound > MAX_SEGRE_TERMS:
        raise PrincipalizationError(
            f"a Segre class through codim {max_codim} may have {bound} terms, "
            f"over the budget of {MAX_SEGRE_TERMS}"
        )
    _, trace, total = principalize(c, ideal)
    s = _segre_by_bending(c, trace, total, max_codim)
    if backend == "aluffi-crosscheck":
        if aluffi.segre_newton(c, ideal, max_codim) != s:
            raise ArithmeticError(
                "backend disagreement: resolution and newton Segre classes differ"
            )
    return s, trace


def segre_class(
    c: ConeComplex,
    ideal: MonomialIdealOnComplex,
    max_codim: Optional[int] = None,
    backend: str = "resolution",
) -> ChowClass:
    """Segre class of the subscheme cut out by a monomial ideal.

    Principalizes by stellar subdivisions and pushes E/(1+E), for the
    exceptional total transform E, down the trace through max_codim (the
    dimension of c by default): D/(1+D) on the base, for D the divisor of
    the total transform there, corrected by what each step's bending adds to
    the powers of E, pushed down from that step. The aluffi-crosscheck
    backend recomputes the class from the Newton regions of the restricted
    ideal and fails hard on any disagreement. A negative max_codim raises
    ValueError; PrincipalizationError comes before any subdivision for a
    class that could pass MAX_SEGRE_TERMS terms, and after MAX_STEPS of them.
    """
    if max_codim is None:
        max_codim = c.dim()
    return _segre(c, ideal, max_codim, backend)[0]


class RefinedClassResult(_Record):
    """Refined class plus the subdivision trace and puncturing components."""

    def __init__(self, cls: ChowClass, trace: tuple[SubdivisionStep, ...],
                 components: tuple[tuple[str, ...], ...]) -> None:
        object.__setattr__(self, "cls", cls)
        object.__setattr__(self, "trace", trace)
        object.__setattr__(self, "components", components)


def refined_class(
    c: ConeComplex,
    pd: PuncturingData,
    backend: str = "resolution",
) -> RefinedClassResult:
    """Refined virtual class of the puncturing substack.

    The degree-k_P part of prod_p (1 + D_p) * s(Z) on the base complex, with
    D_p the divisor of the raw offset and s(Z) the Segre class of the
    normalized offsets ideal (the projection formula moves the product down
    from the principalized complex). With c = prod_p (1 + D_p), a product
    of ``multiply`` calls, it is the sum over j of c_j * s_(k_P - j): one
    pass pairs each term of c with the terms of s of the complementary
    degree, so no term above degree k_P is built, and one ``_finish``
    normalizes the sum. Empty puncturing data yields the unit; an empty
    puncturing substack yields zero.
    """
    if pd.k_P == 0:
        return RefinedClassResult(unit(c), (), ((),))
    components = puncturing_components(c, pd)
    if not components:
        return RefinedClassResult(zero(c), (), ())
    s, trace = _segre(c, normalized_ideal(c, pd), pd.k_P, backend)
    chern = reduce(multiply, [unit(c) + divisor_of_pl(f, c) for _, f in pd.offsets])
    segre_by_degree: dict[int, list] = {}
    for m, v in s.terms:
        segre_by_degree.setdefault(_mono_degree(m), []).append((m, v))
    acc: dict = {}
    for m1, v1 in chern.terms:
        for m2, v2 in segre_by_degree.get(pd.k_P - _mono_degree(m1), ()):
            m = _mono_mul(m1, m2)
            acc[m] = acc.get(m, 0) + v1 * v2
    return RefinedClassResult(_finish(acc, c), trace, components)


def refined_class_excess(
    c: ConeComplex,
    pd: PuncturingData,
    normal_data: Sequence[Iterable[str]],
) -> ChowClass:
    """Excess-intersection shortcut for a puncturing substack declared as a
    transverse intersection of stratum closures.

    normal_data lists the intersected strata by their ray sets; the normal
    bundle is the sum of the ray line bundles, the excess degree is
    e = k_P - codim, and the class is the degree-e part of
    prod_p (1 + D_p) / prod_rho (1 + x_rho) capped with the stratum class.
    """
    sets = [tuple(sorted(s)) for s in normal_data]
    rays: list[str] = []
    for s in sets:
        for r in s:
            if r in rays:
                raise ValueError(f"normal data not transverse: ray {r!r} repeated")
            rays.append(r)
    sigma = tuple(sorted(rays))
    if sigma and not c.has_cone(sigma):
        raise ValueError(f"normal data rays {sigma} do not span a cone")
    e = pd.k_P - len(sigma)
    if e < 0:
        raise ValueError(
            f"codimension mismatch: codim {len(sigma)} exceeds k_P {pd.k_P}"
        )
    prod = reduce(multiply, [unit(c) + divisor_of_pl(f, c) for _, f in pd.offsets], unit(c))
    for r in sigma:
        # 1 / (1 + x_r) = 1 - x_r / (1 + x_r), through degree e
        prod = multiply(prod, unit(c) - _power_series_part(ray_class(c, r), e))
    return multiply(truncate(prod, e), stratum_class(c, sigma))
