"""Puncturing data, monomial-ideal principalization, and refined virtual classes.

The pipeline: puncturing offsets define a monomial ideal on the cone complex;
stellar subdivisions at two-ray centers make its total transform Cartier; the
Segre class of the puncturing substack is the pushforward of E/(1+E); and the
refined class is the degree-k_P part of the Chern/Segre product. Each D_p
upstairs is pulled back from the base, so by the projection formula that
product is formed on the base complex, against the pushed-down Segre class.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Mapping, Optional, Sequence

from .chowring import (
    ChowClass,
    _finish,
    divisor_of_pl,
    multiply,
    pushforward,
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
    pl_function,
    pl_pullback,
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
    """Raised when the step budget is exhausted; signals a bug, not an input error."""


@dataclass(frozen=True)
class PuncturingData:
    """Puncturing offsets: one nonnegative integer PL function per negative direction.

    Offset ids follow the "p{i}.{j}" convention for marking i, coordinate j,
    but any distinct ids are accepted.
    """

    offsets: tuple[tuple[str, PLFunction], ...]

    def __post_init__(self) -> None:
        ids = [pid for pid, _ in self.offsets]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate puncture ids in offsets")
        for pid, f in self.offsets:
            if not f.nonnegative:
                raise ValueError(f"offset {pid!r} takes a negative value")
            for rid, v in f.values:
                if v.denominator != 1:
                    raise ValueError(f"offset {pid!r} is not integral at ray {rid!r}")

    @property
    def k_P(self) -> int:
        return len(self.offsets)


def puncturing_data(offsets: Mapping[str, Mapping[str, int]]) -> PuncturingData:
    """Build puncturing data from an id -> (ray -> value) mapping."""
    items = tuple(
        (pid, pl_function(vals)) for pid, vals in sorted(offsets.items())
    )
    return PuncturingData(items)


@dataclass(frozen=True)
class MonomialIdealOnComplex:
    """A monomial ideal presented by generators, one exponent vector per generator.

    Each generator is a nonnegative integer PL-data vector on the rays; its
    monomial is the product of ray variables to those exponents.
    """

    complex: ConeComplex
    generators: tuple[PLFunction, ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValueError("monomial ideal needs at least one generator")
        for g in self.generators:
            for rid, v in g.values:
                if v < 0 or v.denominator != 1:
                    raise ValueError("generator exponents must be nonnegative integers")
                if rid not in self.complex.ray_ids:
                    raise ValueError(f"generator mentions unknown ray {rid!r}")


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
    """
    all_cones: list[tuple[str, ...]] = [()]
    all_cones.extend(c.cones)
    good = []
    for cone in all_cones:
        if all(any(f.get(r) > 0 for r in cone) for _, f in pd.offsets):
            good.append(cone)
    minimal = []
    for cone in good:
        s = set(cone)
        if not any(set(other) < s for other in good):
            minimal.append(cone)
    return tuple(sorted(minimal, key=lambda t: (len(t), t)))


def _restriction(gen: PLFunction, cone: tuple[str, ...]) -> tuple[int, ...]:
    return tuple(gen.get(r) for r in cone)


def _dividing_generator(
    gens: Sequence[PLFunction], cone: tuple[str, ...]
) -> Optional[int]:
    """Index of a generator whose restriction divides all others on the cone."""
    vecs = [_restriction(g, cone) for g in gens]
    for i, v in enumerate(vecs):
        if all(all(x <= y for x, y in zip(v, w)) for w in vecs):
            return i
    return None


def _crossing_faces_for_pair(
    ga: PLFunction, gb: PLFunction, c: ConeComplex
) -> dict[tuple[str, str], int]:
    """Crossing two-faces of one generator pair, mapped to their excess.

    The difference d = ga - gb lives on rays, so a face (i, j) with d_i > 0
    and d_j < 0 crosses in every maximal cone containing it; the excess
    d_i - d_j does not depend on the cone.
    """
    d = {r: ga.get(r) - gb.get(r) for r in c.ray_ids}
    faces: dict[tuple[str, str], int] = {}
    for cone in c.maximal_cones():
        pos = [(r, d[r]) for r in cone if d[r] > 0]
        neg = [(r, d[r]) for r in cone if d[r] < 0]
        for rp, vp in pos:
            for rn, vn in neg:
                faces[tuple(sorted((rp, rn)))] = vp - vn
    return faces


def principalize(
    c: ConeComplex,
    ideal: MonomialIdealOnComplex,
    max_steps: int = 10000,
    choice_seed: Optional[int] = None,
) -> tuple[ConeComplex, tuple[SubdivisionStep, ...], PLFunction]:
    """Subdivide until one generator divides all others on every maximal cone.

    Generator pairs are settled one at a time, in index order: once a pair is
    comparable on every maximal cone it stays comparable under any further
    stellar subdivision, because the new ray's exponent is the sum of the two
    center exponents. For the active pair the default rule blows up the
    crossing face of maximal excess, ties to the lexicographically smallest
    face; a seed replaces that rule by a seeded choice among all crossing
    faces of the active pair. The resulting Segre class is independent of the
    choice, which the property suite checks.

    Returns the refined complex, the subdivision trace, and the total
    transform as a PL function: the raywise minimum of the generators, which
    is chartwise linear exactly when the ideal is principal on every chart.
    """
    if ideal.complex != c:
        raise ValueError("ideal does not live on the given complex")
    rng = random.Random(choice_seed) if choice_seed is not None else None
    gens = list(ideal.generators)
    current = c
    trace: list[SubdivisionStep] = []
    for _ in range(max_steps):
        chosen: Optional[tuple[str, str]] = None
        for a in range(len(gens)):
            for b in range(a + 1, len(gens)):
                faces = _crossing_faces_for_pair(gens[a], gens[b], current)
                if not faces:
                    continue
                if rng is None:
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


def _power_series_part(E: ChowClass, max_codim: int) -> ChowClass:
    """E/(1+E) truncated beyond max_codim: sum of (-1)^(j-1) E^j."""
    acc: dict = {}
    power = unit(E.complex)
    for j in range(1, max_codim + 1):
        power = multiply(power, E)
        if power.is_zero():
            break
        sign = (-1) ** (j - 1)
        for m, v in power.terms:
            acc[m] = acc.get(m, 0) + sign * v
    return _finish(acc, E.complex)


def _segre(
    c: ConeComplex,
    ideal: MonomialIdealOnComplex,
    max_codim: int,
    backend: str,
    choice_seed: Optional[int],
) -> tuple[ChowClass, tuple[SubdivisionStep, ...]]:
    """Segre class through max_codim and the principalization trace behind it."""
    if backend not in ("resolution", "aluffi-crosscheck"):
        raise ValueError(f"unknown backend {backend!r}")
    c2, trace, total = principalize(c, ideal, choice_seed=choice_seed)
    E = divisor_of_pl(total, c2)
    s = pushforward(_power_series_part(E, max_codim), *trace)
    if backend == "aluffi-crosscheck":
        from .aluffi import segre_newton

        if segre_newton(c, ideal, max_codim) != s:
            raise ArithmeticError(
                "backend disagreement: resolution and newton Segre classes differ"
            )
    return s, trace


def segre_class(
    c: ConeComplex,
    ideal: MonomialIdealOnComplex,
    max_codim: Optional[int] = None,
    backend: str = "resolution",
    choice_seed: Optional[int] = None,
) -> ChowClass:
    """Segre class of the subscheme cut out by a monomial ideal.

    Principalizes by stellar subdivisions, forms E/(1+E) for the exceptional
    total transform E, truncates beyond max_codim, and pushes forward along
    the trace in reverse. The aluffi-crosscheck backend recomputes the class
    from the Newton regions of the restricted ideal and fails hard on any
    disagreement.
    """
    if max_codim is None:
        max_codim = c.dim()
    return _segre(c, ideal, max_codim, backend, choice_seed)[0]


@dataclass(frozen=True)
class RefinedClassResult:
    """Refined class plus the subdivision trace and puncturing components."""

    cls: ChowClass
    trace: tuple[SubdivisionStep, ...]
    components: tuple[tuple[str, ...], ...]


def refined_class(
    c: ConeComplex,
    pd: PuncturingData,
    backend: str = "resolution",
) -> RefinedClassResult:
    """Refined virtual class of the puncturing substack.

    The degree-k_P part of prod_p (1 + D_p) * s(Z) on the base complex, with
    D_p the divisor of the raw offset and s(Z) the Segre class of the
    normalized offsets ideal (the projection formula moves the product down
    from the principalized complex). Empty puncturing data yields the unit;
    an empty puncturing substack yields zero.
    """
    if pd.k_P == 0:
        return RefinedClassResult(unit(c), (), ((),))
    components = puncturing_components(c, pd)
    if not components:
        return RefinedClassResult(zero(c), (), ())
    prod, trace = _segre(c, normalized_ideal(c, pd), pd.k_P, backend, None)
    for _, f in pd.offsets:
        prod = multiply(prod, unit(c) + divisor_of_pl(f, c))
    return RefinedClassResult(truncate(prod, pd.k_P), trace, components)


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
    prod = unit(c)
    for _, f in pd.offsets:
        prod = multiply(prod, unit(c) + divisor_of_pl(f, c))
    for r in sigma:
        # 1 / (1 + x_r) = 1 - x_r / (1 + x_r), through degree e
        prod = multiply(prod, unit(c) - _power_series_part(ray_class(c, r), e))
    return multiply(truncate(prod, e), stratum_class(c, sigma))
