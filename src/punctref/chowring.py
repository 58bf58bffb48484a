"""Chow-operator arithmetic on a smooth cone complex.

Classes are elements of the Stanley-Reisner presentation: rational linear
combinations of monomials in the ray variables, with every monomial whose
ray-support is not a cone reduced to zero. Coefficients are ints while they
are integral and Fractions after a division; no float enters a class.
Pullback along a stellar subdivision step implements the blowup formula for
a two-ray center. ``pushforward(a, *steps)`` pushes down a whole chain of
steps in one dict: per step it rewrites only the terms that meet the center
or the new ray, each through a cached blowdown kernel, a two-variable
integer polynomial in the center rays, and it normalizes once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Mapping

from .conecx import ConeComplex, PLFunction, SubdivisionStep, _exact

__all__ = [
    "Monomial",
    "ChowClass",
    "reduce",
    "multiply",
    "divisor_of_pl",
    "pullback",
    "pushforward",
    "truncate",
    "serialize",
]

Monomial = tuple[tuple[str, int], ...]
"""Sorted tuple of (ray id, exponent >= 1); the unit monomial is ()."""


def _norm_monomial(exps: Mapping[str, int]) -> Monomial:
    return tuple(sorted((r, int(e)) for r, e in exps.items() if e))


def _mono_degree(m: Monomial) -> int:
    return sum([e for _, e in m])


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    # merge of two sorted exponent tuples
    if not a:
        return b
    if not b:
        return a
    out: list[tuple[str, int]] = []
    i, j, la, lb = 0, 0, len(a), len(b)
    while i < la and j < lb:
        ra, ea = a[i]
        rb, eb = b[j]
        if ra == rb:
            out.append((ra, ea + eb))
            i += 1
            j += 1
        elif ra < rb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _term_key(t: tuple[Monomial, int | Fraction]) -> tuple:
    # graded-lex: degree first, then the sorted exponent tuple
    return (_mono_degree(t[0]), t[0])


@dataclass(frozen=True)
class ChowClass:
    """A reduced Stanley-Reisner element attached to its complex."""

    complex: ConeComplex
    terms: tuple[tuple[Monomial, int | Fraction], ...]

    def coeff(self, exps: Mapping[str, int]) -> int | Fraction:
        return dict(self.terms).get(_norm_monomial(exps), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> tuple[int, ...]:
        return tuple(sorted({_mono_degree(m) for m, _ in self.terms}))

    def __add__(self, other: "ChowClass") -> "ChowClass":
        _check_same_complex(self, other)
        acc = dict(self.terms)
        for m, v in other.terms:
            acc[m] = acc.get(m, 0) + v
        return _finish(acc, self.complex)

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return self + other.scale(-1)

    def __mul__(self, other: "ChowClass") -> "ChowClass":
        return multiply(self, other)

    def scale(self, factor: Fraction | int) -> "ChowClass":
        f = _exact(factor)
        return _finish({m: c * f for m, c in self.terms}, self.complex)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChowClass):
            return NotImplemented
        return self.complex == other.complex and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.complex.ray_ids, self.terms))


def _check_same_complex(a: ChowClass, b: ChowClass) -> None:
    if a.complex != b.complex:
        raise ValueError("classes live on different complexes")


def reduce(
    terms: Iterable[tuple[Monomial | Mapping[str, int], Fraction | int]],
    c: ConeComplex,
) -> ChowClass:
    """Stanley-Reisner reduction: kill non-cone monomials, merge, drop zeros."""
    acc: dict[Monomial, int | Fraction] = {}
    for mono, coeff in terms:
        if not isinstance(mono, Mapping):
            # a pair tuple may repeat a ray; its exponents add up
            exps: dict[str, int] = {}
            for r, e in mono:
                exps[r] = exps.get(r, 0) + e
            mono = exps
        m = _norm_monomial(mono)
        acc[m] = acc.get(m, 0) + _exact(coeff)
    return _finish(acc, c)


def _finish(acc: Mapping[Monomial, int | Fraction], c: ConeComplex) -> ChowClass:
    """The class of normalized, merged terms: the one place that drops zero
    and non-cone terms and sorts into graded-lex order."""
    cone_set = c._cone_set()
    kept = [
        (m, v) for m, v in acc.items() if v and tuple([r for r, _ in m]) in cone_set
    ]
    kept.sort(key=_term_key)
    return ChowClass(c, tuple(kept))


def zero(c: ConeComplex) -> ChowClass:
    return ChowClass(c, ())


def unit(c: ConeComplex) -> ChowClass:
    return _finish({(): 1}, c)


def ray_class(c: ConeComplex, ray_id: str) -> ChowClass:
    return _finish({((ray_id, 1),): 1}, c)


def stratum_class(c: ConeComplex, cone: Iterable[str]) -> ChowClass:
    """Class of a stratum closure: the square-free monomial on the cone's rays."""
    return _finish({_norm_monomial(dict.fromkeys(cone, 1)): 1}, c)


def multiply(a: ChowClass, b: ChowClass) -> ChowClass:
    """Product of classes: polynomial product followed by reduction."""
    _check_same_complex(a, b)
    cones = a.complex._cone_supports()
    bt = [(m2, c2, frozenset(r for r, _ in m2)) for m2, c2 in b.terms]
    acc: dict[Monomial, int | Fraction] = {}
    for m1, c1 in a.terms:
        f1 = frozenset(r for r, _ in m1)
        for m2, c2, f2 in bt:
            # support of the product is the union, so dead pairs are cheap
            # to skip before any exponent merging happens
            if f1 | f2 not in cones:
                continue
            m = _mono_mul(m1, m2)
            acc[m] = acc.get(m, 0) + c1 * c2
    return _finish(acc, a.complex)


def divisor_of_pl(f: PLFunction, c: ConeComplex) -> ChowClass:
    """Degree-1 class of a PL function: sum over rays of f(u_rho) x_rho."""
    return _finish({((rid, 1),): f.get(rid) for rid in c.ray_ids}, c)


def _split_center(
    mono: Monomial, r1: str, r2: str, e: str
) -> tuple[Monomial, int, int, int]:
    """The monomial without r1, r2 and e, and the exponents of those three."""
    exps = dict(mono)
    a1, a2, ae = exps.pop(r1, 0), exps.pop(r2, 0), exps.pop(e, 0)
    return tuple(exps.items()), a1, a2, ae


def pullback(a: ChowClass, step: SubdivisionStep) -> ChowClass:
    """Pull a class back along a subdivision step.

    The ring morphism sends x_rho to x_rho + x_e for the two center rays and
    fixes every other ray variable.
    """
    if a.complex != step.pre:
        raise ValueError("class does not live on the step's source complex")
    r1, r2 = step.center
    e = step.new_ray
    center = {r1, r2}
    acc: dict[Monomial, int | Fraction] = {}
    for mono, coeff in a.terms:
        if center.isdisjoint(r for r, _ in mono):
            # the morphism fixes every variable here, and the support is a
            # surviving cone; every expanded term below carries r1, r2 or e,
            # so nothing else lands on this monomial
            acc[mono] = coeff
            continue
        base, a1, a2, _ = _split_center(mono, r1, r2, e)
        for i1 in range(a1 + 1):
            for i2 in range(a2 + 1):
                split = _norm_monomial({r1: a1 - i1, r2: a2 - i2, e: i1 + i2})
                m = _mono_mul(base, split)
                acc[m] = acc.get(m, 0) + coeff * comb(a1, i1) * comb(a2, i2)
    return _finish(acc, step.post)


@lru_cache(maxsize=None)
def _blowdown_kernel(a1: int, a2: int, ae: int) -> tuple[tuple[int, int, int], ...]:
    """The pushforward of x_r1^a1 x_r2^a2 x_e^ae minus its ae = 0 self term,
    as (p1, p2, coeff) for the monomials x_r1^p1 x_r2^p2, p1, p2 >= 1.

    The upstairs monomial is rewritten in the exceptional variable with
    pulled-back coefficients via x_rho = pullback(x_rho) - x_e on the center
    rays; then x_e^j pushes forward to the identity for j = 0, to zero for
    j = 1 and to -h_(j-2)(x_r1, x_r2) x_r1 x_r2 for j >= 2. Every monomial has
    degree a1 + a2 + ae, coefficients are ints and zero ones are dropped.
    The exponents are bounded by the degree of the class pushed down, so the
    cache stays small.
    """
    acc: dict[tuple[int, int], int] = {}
    for i1 in range(a1 + 1):
        for i2 in range(a2 + 1):
            j = ae + i1 + i2
            if j < 2:
                continue
            cf = comb(a1, i1) * comb(a2, i2) * (-1) ** (i1 + i2)
            for t in range(j - 1):
                key = (a1 - i1 + t + 1, a2 - i2 + j - 1 - t)
                acc[key] = acc.get(key, 0) - cf
    return tuple((p1, p2, v) for (p1, p2), v in sorted(acc.items()) if v)


def pushforward(a: ChowClass, *steps: SubdivisionStep) -> ChowClass:
    """Push a class forward along a chain of subdivision steps, last step first.

    The class lives on the last step's refined complex, and each step's
    refined complex is the next step's source. Per step, a term whose support
    misses the center rays r1, r2 and the new ray e stays as it is: its
    support is a cone of the refined complex without e, hence a cone of the
    source. A touched term base x_r1^a1 x_r2^a2 x_e^ae keeps itself when
    ae = 0 and gains base * _blowdown_kernel(a1, a2, ae), a block whose
    monomials all have support supp(base) + {r1, r2}, so one cone check keeps
    or drops the whole block. The terms are normalized once, at the end.
    """
    if not steps:
        return a
    if a.complex != steps[-1].post:
        raise ValueError("class does not live on the step's refined complex")
    for s, t in zip(steps, steps[1:]):
        if s.post != t.pre:
            raise ValueError("steps do not form a chain")
    acc: dict[Monomial, int | Fraction] = dict(a.terms)
    for step in reversed(steps):
        r1, r2 = step.center
        e = step.new_ray
        cone_set = step.pre._cone_set()
        affected = {r1, r2, e}
        touched = []
        for m, v in acc.items():
            for r, _ in m:
                if r in affected:
                    touched.append((m, v))
                    break
        for mono, coeff in touched:
            base, a1, a2, ae = _split_center(mono, r1, r2, e)
            if ae:
                del acc[mono]
            kernel = _blowdown_kernel(a1, a2, ae)
            if not coeff or not kernel:
                continue
            support = tuple(sorted([r for r, _ in base] + [r1, r2]))
            if support not in cone_set:
                continue
            # r1 < r2, so each block monomial is base with (r1, p1) and
            # (r2, p2) slotted in where the support has them
            i1, i2 = support.index(r1), support.index(r2) - 1
            head, mid, tail = base[:i1], base[i1:i2], base[i2:]
            for p1, p2, v in kernel:
                m = head + ((r1, p1),) + mid + ((r2, p2),) + tail
                acc[m] = acc.get(m, 0) + coeff * v
    return _finish(acc, steps[0].pre)


def truncate(a: ChowClass, degree: int) -> ChowClass:
    """Homogeneous part of the given codimension."""
    return ChowClass(
        a.complex,
        tuple((m, c) for m, c in a.terms if _mono_degree(m) == degree),
    )


def serialize(a: ChowClass) -> list[dict]:
    """Deterministic JSON form: graded-lex sorted monomials, "num/den" coefficients."""
    out = []
    for mono, coeff in a.terms:
        out.append(
            {
                "monomial": {r: e for r, e in mono},
                "coeff": f"{coeff.numerator}/{coeff.denominator}",
            }
        )
    return out
