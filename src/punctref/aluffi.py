"""Alternative Segre backend driven by Newton regions of chart restrictions.

Restricted to complexes whose maximal cones have dimension at most two. On
each two-dimensional chart the generators' exponent vectors span a Newton
region; the primitive inward normals of its compact edges are inserted as new
rays by mediant (Stern-Brocot) stellar subdivisions, and the total transform
is read off as the support function, the raywise minimum of the generator
pairings. No generator lifting and no crossing-pair search is involved, which
makes this an independent code path for cross-checking the resolution
backend. The E/(1+E) series it pushes down comes from ``chowring``, so the
module imports nothing from ``puncture`` at run time.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

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


def _cross(u: tuple[int, int], v: tuple[int, int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _staircase_vertices(pts: set[tuple[int, int]]) -> list[tuple[int, int]]:
    """Vertices of the Newton region conv(points + positive orthant)."""
    minimal = [
        p
        for p in pts
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in pts)
    ]
    minimal.sort()
    chain: list[tuple[int, int]] = []
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


def _edge_normals(chain: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Primitive inward normals of the compact edges, in angle order."""
    normals = []
    for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
        n = primitive((y1 - y2, x2 - x1))
        if n[0] <= 0 or n[1] <= 0:
            raise ArithmeticError(f"edge normal {n} is not positive")
        normals.append(n)
    normals.sort(key=lambda n: (n[1], n[0]))
    return normals


def principalize_newton(
    c: ConeComplex, ideal: MonomialIdealOnComplex
) -> tuple[ConeComplex, tuple[SubdivisionStep, ...], PLFunction]:
    """Newton-region principalization on a complex with charts of dim <= 2.

    Returns the refined complex, the trace, and the support-function total
    transform, in the same shape as the resolution backend.
    """
    if ideal.complex != c:
        raise ValueError("ideal does not live on the given complex")
    if c.dim() > 2:
        raise AluffiDomainError(
            "newton backend supports charts of dimension at most two"
        )
    gens = ideal.generators
    names = _fresh_ray_ids(c)
    current = c
    trace: list[SubdivisionStep] = []
    # chart-local coordinates of every ray created inside a chart
    new_vecs: dict[str, tuple[tuple[str, str], tuple[int, int]]] = {}
    for chart in c.maximal_cones():
        if len(chart) != 2:
            continue
        r1, r2 = chart
        pts = {(g.get(r1), g.get(r2)) for g in gens}
        required = _edge_normals(_staircase_vertices(pts))
        # ordered fan of the chart, from (1,0) to (0,1)
        fan: list[tuple[tuple[int, int], str]] = [((1, 0), r1), ((0, 1), r2)]
        for u in required:
            if any(v == u for v, _ in fan):
                continue
            # u's slot: fan[idx] < u < fan[idx + 1] by angle; each mediant
            # lands in the slot and splits it, until one is u
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


def segre_newton(
    c: ConeComplex, ideal: MonomialIdealOnComplex, max_codim: int
) -> ChowClass:
    """Segre class via the Newton-region principalization."""
    c2, trace, total = principalize_newton(c, ideal)
    E = divisor_of_pl(total, c2)
    return pushforward(_power_series_part(E, max_codim), *trace)
