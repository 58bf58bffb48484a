"""Monomial ideals of puncturing offsets, principalization, and refined virtual classes.

The pipeline: puncturing offsets define a monomial ideal on the cone complex;
stellar subdivisions at two-ray centers make its total transform E Cartier;
the Segre class of the puncturing substack is the pushforward of E/(1+E); and
the refined class is the degree-k_P part of the Chern/Segre product. This
module principalizes, builds the ideal and calls the class operations of
``chowring``, the one module that packs and multiplies monomials: the series
of a linear class (``_power_series_part``), the push-down of E/(1+E) along
the trace, which pushes down only what each step's bending adds
(``_segre_by_bending``), and the product in one degree
(``_product_in_degree``). Each D_p upstairs is pulled back from the base, so
by the projection formula that product is formed on the base complex,
against the pushed-down Segre class, in degree k_P alone. The
aluffi-crosscheck backend calls ``aluffi.segre_newton``, which pushes down
the whole series E/(1+E) of its own principalization and needs nothing from
this module at run time. The offsets, ``PuncturingData`` and
``puncturing_data``, and ``PrincipalizationError`` live in ``tropdata``, so a
reader of fixtures loads neither this module nor ``chowring``; this module
binds them too.
"""
from __future__ import annotations

import itertools
from functools import reduce
from math import comb, gcd
from typing import Iterable, Mapping, Optional, Sequence

from . import aluffi, tropdata
from .chowring import (
    ChowClass,
    _power_series_part,
    _product_in_degree,
    _segre_by_bending,
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
    pl_function,
    star_subdivide,
)

__all__ = [
    "MonomialIdealOnComplex",
    "RefinedClassResult",
    "monomial_ideal",
    "normalized_ideal",
    "puncturing_components",
    "principalize",
    "segre_class",
    "refined_class",
    "refined_class_excess",
]

# readable here for callers that build offsets and compute their classes
# through this one module
PrincipalizationError = tropdata.PrincipalizationError
PuncturingData, puncturing_data = tropdata.PuncturingData, tropdata.puncturing_data


MAX_STEPS = 10000
"""The most subdivisions ``principalize`` makes; read at each call."""


MAX_SEGRE_TERMS = 10**6
"""The largest term bound a Segre class may have; ``_segre`` refuses a larger
one before any work. A class through codim m on c has at most
1 + sum_tau C(m, |tau|) terms, over the nonempty cones tau of c: C(m, |tau|)
monomials of degree 1..m have support exactly tau. On f1-blowup the bound is
4711 at m = 30 and 50701 at m = 100."""


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
    read. New rays are named e0, e1, ... from a counter that skips the ids
    of c.

    The loop ends with every pair settled, so no two rays of a cone carry a
    pair's d with strict opposite signs: any two generators compare raywise
    on each cone, and by transitivity one is least there and divides the
    others. So no maximal cone is read. The closing check rescans the final
    complex once per pair with the same crossing rule, which tests the
    update the loop trusts, and raises PrincipalizationError naming a pair
    that still crosses.

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
    # every pair settled <=> on each cone one generator is raywise least
    for a, b in itertools.combinations(gens, 2):
        if _crossing_faces(table, a, b, current):
            raise PrincipalizationError(f"generator pair ({a}, {b}) still crosses")
    ray_min = {r: min(row) for r, row in table.items()}
    total = pl_function({r: v for r, v in ray_min.items() if v})
    return current, tuple(trace), total


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
    of ``multiply`` calls, it is the sum over j of c_j * s_(k_P - j), which
    ``chowring._product_in_degree`` forms without building a term of
    another degree. Empty puncturing data yields the unit; an empty
    puncturing substack yields zero.
    """
    if pd.k_P == 0:
        return RefinedClassResult(unit(c), (), ((),))
    components = puncturing_components(c, pd)
    if not components:
        return RefinedClassResult(zero(c), (), ())
    s, trace = _segre(c, normalized_ideal(c, pd), pd.k_P, backend)
    chern = reduce(multiply, [unit(c) + divisor_of_pl(f, c) for _, f in pd.offsets])
    return RefinedClassResult(_product_in_degree(chern, s, pd.k_P), trace, components)


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
