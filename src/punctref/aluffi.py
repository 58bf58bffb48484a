"""Alternative Segre backend driven by Newton regions of chart restrictions.

Restricted to complexes whose maximal cones have dimension at most two. On
each two-ray chart the generators' exponent vectors P span a Newton region,
and three identities do the work: a positive primitive u is the inward normal
of a compact edge of conv(P) + R^2_>=0 exactly when two distinct points of P
tie for min u.g; u enters the chart's fan along its Stern-Brocot path from
the chart rays (1, 0) and (0, 1), one mediant stellar subdivision per missing
node; a new ray's generator values are the sums of its center's, and the
total transform is their raywise minimum, the support function.

No generator lifting and no crossing-pair search is involved, which makes
this an independent code path for cross-checking the resolution backend.
The E/(1+E) series it pushes down comes from ``chowring``, so the module
imports nothing from ``puncture`` at run time.
"""
from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from .chowring import ChowClass, _power_series_part, divisor_of_pl, pushforward
from .conecx import (
    ConeComplex,
    PLFunction,
    SubdivisionStep,
    _fresh_ray_ids,
    pl_function,
    star_subdivide,
)
from .lattice import primitive

if TYPE_CHECKING:
    from .puncture import MonomialIdealOnComplex

__all__ = ["AluffiDomainError", "principalize_newton", "segre_newton"]


class AluffiDomainError(ValueError):
    """Input outside the newton backend's supported domain."""


def _newton_normals(points: set[tuple[int, int]]) -> list[tuple[int, int]]:
    """Primitive inward normals of the compact edges of conv(points) + R^2_>=0,
    sorted by (u_y, u_x).

    A positive u has a compact least face, an edge exactly when two distinct
    points p, q attain min u.g. Then u.(q - p) = 0 with u positive, so q - p
    has strictly opposite signs and u = primitive(|q_y - p_y|, |q_x - p_x|).
    """
    normals = set()
    for p, q in itertools.combinations(points, 2):
        dx, dy = q[0] - p[0], q[1] - p[1]
        if dx * dy < 0:
            u = primitive((abs(dy), abs(dx)))
            if u[0] * p[0] + u[1] * p[1] == min(u[0] * x + u[1] * y for x, y in points):
                normals.add(u)
    return sorted(normals, key=lambda n: (n[1], n[0]))


def principalize_newton(
    c: ConeComplex, ideal: MonomialIdealOnComplex
) -> tuple[ConeComplex, tuple[SubdivisionStep, ...], PLFunction]:
    """Newton-region principalization on a complex with charts of dim <= 2.

    On each two-ray chart (r1, r2), each normal of ``_newton_normals``, in
    its order, which fixes the trace's order and the new rays' names, walks
    its Stern-Brocot path down from r1 = (1, 0) and r2 = (0, 1): it passes
    the mediants the chart already has and splits the first it lacks, until
    the mediant is the normal. A fan grown by mediants keeps every adjacent
    pair a Farey pair, with every ancestor on a path a ray, so each split is
    at an adjacent pair of the fan. The ray table holds each ray's generator
    values, a new ray's the sums of its center's (the stellar pullback), and
    the total transform is the raywise row minimum.

    Returns the refined complex, the trace, and that total transform, in the
    same shape as the resolution backend.
    """
    if ideal.complex != c:
        raise ValueError("ideal does not live on the given complex")
    if c.dim() > 2:
        raise AluffiDomainError("newton backend supports charts of dimension at most two")
    table = {r: [g.get(r) for g in ideal.generators] for r in c.ray_ids}
    names = _fresh_ray_ids(c)
    current = c
    trace: list[SubdivisionStep] = []
    for chart in c.maximal_cones():
        if len(chart) != 2:
            continue
        r1, r2 = chart
        rays = {(1, 0): r1, (0, 1): r2}
        for u in _newton_normals(set(zip(table[r1], table[r2]))):
            a, b = (1, 0), (0, 1)
            while True:
                m = (a[0] + b[0], a[1] + b[1])
                if m not in rays:
                    ra, rb = rays[a], rays[b]
                    current, step = star_subdivide(current, (ra, rb), next(names))
                    trace.append(step)
                    rays[m] = step.new_ray
                    table[step.new_ray] = [x + y for x, y in zip(table[ra], table[rb])]
                if m == u:
                    break
                # u lies past m toward (0, 1), or before it
                a, b = (m, b) if m[0] * u[1] > m[1] * u[0] else (a, m)
    total = pl_function({r: v for r, row in table.items() if (v := min(row))})
    return current, tuple(trace), total


def segre_newton(
    c: ConeComplex, ideal: MonomialIdealOnComplex, max_codim: int
) -> ChowClass:
    """Segre class via the Newton-region principalization."""
    c2, trace, total = principalize_newton(c, ideal)
    E = divisor_of_pl(total, c2)
    return pushforward(_power_series_part(E, max_codim), *trace)
