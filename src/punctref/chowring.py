"""Chow-operator arithmetic on a smooth cone complex, in the one module that
packs and multiplies monomials.

Classes are elements of the Stanley-Reisner presentation: rational linear
combinations of monomials in the ray variables, with every monomial whose
ray-support is not a cone reduced to zero. Coefficients are ints when they
are integral and Fractions otherwise; no float enters a class.
``multiply`` is the plain polynomial product, ``_product_in_degree`` its
part in one degree, and ``_finish``, the one place that drops zero and
non-cone terms and turns integral Fractions into ints, reduces them.
Pullback along a stellar subdivision step implements the blowup formula
for a two-ray center; it runs the step on the class's complex.
``_push_step`` is the one push-down through a step. It works in place on a
dict of packed monomials (``_Layout``): each ray of the chain owns a W-bit
field of a Python int, with W the bit length of the chain's top degree, so
an exponent is a shift and a mask and a product of monomials is a sum of
ints. It moves only the terms that hold the new ray or have center degree
at least 2, each through a cached blowdown kernel, a two-variable integer
polynomial in the center rays, decoded once per step for each packed center
part; every other term pushes down to itself. A block is kept when the
support of its base is a face of the step's link, one set lookup of the
base's top-bit key among the link's.
``pushforward(a, *steps)`` undoes and checks its steps by ``conecx._undo``,
runs it once per step on one dict, and unpacks and normalizes once at the end;
the Segre chain, ``_segre_by_bending``, runs it on a packed dict that gains
each step's bending (``_bending``) between steps. ``_power_series_part``
writes the series E/(1+E) of a linear class E term by term, in closed form;
both Segre backends build their classes from it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from typing import Iterable, Mapping, Sequence

from .conecx import ConeComplex, PLFunction, SubdivisionStep, _exact, _Record
from .conecx import _undo, star_subdivide

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
    "unit",
    "zero",
    "ray_class",
    "stratum_class",
]

Monomial = tuple[tuple[str, int], ...]
"""Sorted tuple of (ray id, exponent >= 1); the unit monomial is ()."""


def _norm_monomial(exps: Mapping[str, int]) -> Monomial:
    return tuple(sorted((r, int(e)) for r, e in exps.items() if e))


def _mono_degree(m: Monomial) -> int:
    return sum([e for _, e in m])


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    exps = dict(a)
    for r, e in b:
        exps[r] = exps.get(r, 0) + e
    return tuple(sorted(exps.items()))


def _term_key(t: tuple[Monomial, int | Fraction]) -> tuple:
    # graded-lex: degree first, then the sorted exponent tuple
    return (_mono_degree(t[0]), t[0])


class ChowClass(_Record):
    """A reduced Stanley-Reisner element attached to its complex."""

    def __init__(self, complex: ConeComplex,
                 terms: tuple[tuple[Monomial, int | Fraction], ...]) -> None:
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "terms", terms)

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
    and non-cone terms, holds integral coefficients as ints and sorts into
    graded-lex order."""
    kept = [
        (m, v if type(v) is int or v.denominator != 1 else v.numerator)
        for m, v in acc.items()
        if v and tuple([r for r, _ in m]) in c.cones
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
    """Product of classes: the plain polynomial product; _finish drops the
    terms whose support is not a cone."""
    _check_same_complex(a, b)
    acc: dict[Monomial, int | Fraction] = {}
    for m1, c1 in a.terms:
        for m2, c2 in b.terms:
            m = _mono_mul(m1, m2)
            acc[m] = acc.get(m, 0) + c1 * c2
    return _finish(acc, a.complex)


def _product_in_degree(a: ChowClass, b: ChowClass, degree: int) -> ChowClass:
    """The degree part of a * b: one pass pairs each term of a with the
    terms of b of the complementary degree, so no term of another degree is
    built, and one ``_finish`` normalizes the sum."""
    _check_same_complex(a, b)
    b_by_degree: dict[int, list] = {}
    for m, v in b.terms:
        b_by_degree.setdefault(_mono_degree(m), []).append((m, v))
    acc: dict[Monomial, int | Fraction] = {}
    for m1, c1 in a.terms:
        for m2, c2 in b_by_degree.get(degree - _mono_degree(m1), ()):
            m = _mono_mul(m1, m2)
            acc[m] = acc.get(m, 0) + c1 * c2
    return _finish(acc, a.complex)


def divisor_of_pl(f: PLFunction, c: ConeComplex) -> ChowClass:
    """Degree-1 class of a PL function: sum over rays of f(u_rho) x_rho."""
    return _finish({((rid, 1),): f.get(rid) for rid in c.ray_ids}, c)


@lru_cache(maxsize=None)
def _compositions(j: int, k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Compositions a of j into k positive parts, each with j! / prod a_r!,
    the product of the binomials C(a_r + ... + a_k, a_r)."""
    if not k:
        return (((), 1),) if not j else ()
    out = []
    for cuts in itertools.combinations(range(1, j), k - 1):
        a = tuple(hi - lo for lo, hi in zip((0,) + cuts, cuts + (j,)))
        out.append((a, prod(comb(j - lo, x) for lo, x in zip((0,) + cuts, a))))
    return tuple(out)


def _power_series_part(E: ChowClass, max_codim: int) -> ChowClass:
    """E/(1+E) truncated beyond max_codim: sum of (-1)^(j-1) E^j, in closed form.

    E = sum_r L_r x_r is linear, so E^j is the multinomial expansion with the
    non-cone monomials dropped. Every monomial supported on a cone tau of E's
    support has all its divisors on faces of tau, so no relation touches its
    coefficient: x^a, for a composition a of j over the rays of tau, gets
    (-1)^(j-1) j! / prod a_r! prod L_r^(a_r), an int when it is integral, as
    in ``_finish``. The terms of each degree are distinct, so sorting each
    degree by its monomials gives graded-lex order.
    """
    L: dict = {}
    for m, v in E.terms:
        if len(m) != 1 or m[0][1] != 1:
            raise ValueError("E/(1+E) needs a class of pure degree 1")
        if v:
            L[m[0][0]] = v
    # a bucket per degree that gets a term: max_codim may be huge on no rays
    buckets: dict[int, list] = {}
    for cone in E.complex.cones:
        k = len(cone)
        if not 1 <= k <= max_codim or any(r not in L for r in cone):
            continue
        for j in range(k, max_codim + 1):
            sign = 1 if j % 2 else -1
            for a, multinomial in _compositions(j, k):
                v = sign * multinomial
                for r, e in zip(cone, a):
                    v *= L[r] ** e
                if type(v) is not int and v.denominator == 1:
                    v = v.numerator
                buckets.setdefault(j, []).append((tuple(zip(cone, a)), v))
    terms = []
    for j in sorted(buckets):
        terms.extend(sorted(buckets[j]))
    return ChowClass(E.complex, tuple(terms))


def _split_center(
    mono: Monomial, r1: str, r2: str, e: str
) -> tuple[Monomial, int, int, int]:
    """The monomial without r1, r2 and e, and the exponents of those three."""
    exps = dict(mono)
    a1, a2, ae = exps.pop(r1, 0), exps.pop(r2, 0), exps.pop(e, 0)
    return tuple(exps.items()), a1, a2, ae


def pullback(a: ChowClass, step: SubdivisionStep) -> ChowClass:
    """Pull a class back along a subdivision step, run on its complex.

    The ring morphism sends x_rho to x_rho + x_e for the two center rays and
    fixes every other ray variable.
    """
    try:
        post, made = star_subdivide(a.complex, step.center, step.new_ray)
    except ValueError:
        made = None
    if made != step:
        raise ValueError("class does not live on the step's source complex")
    r1, r2 = step.center
    e = step.new_ray
    acc: dict[Monomial, int | Fraction] = {}
    for mono, coeff in a.terms:
        base, a1, a2, _ = _split_center(mono, r1, r2, e)
        for i1 in range(a1 + 1):
            for i2 in range(a2 + 1):
                split = _norm_monomial({r1: a1 - i1, r2: a2 - i2, e: i1 + i2})
                m = _mono_mul(base, split)
                acc[m] = acc.get(m, 0) + coeff * comb(a1, i1) * comb(a2, i2)
    return _finish(acc, post)


@lru_cache(maxsize=None)
def _blowdown_kernel(a1: int, a2: int, ae: int) -> tuple[tuple[int, int, int], ...]:
    """The pushforward of x_r1^a1 x_r2^a2 x_e^ae minus its ae = 0 self term,
    as (p1, p2, coeff) for the monomials x_r1^p1 x_r2^p2, p1, p2 >= 1.

    Upstairs x_r1 x_r2 = 0, so the pushforward is 0 when a1 and a2 are both
    positive. Else, for r the center ray of exponent a >= 1 and o the other,
        pi_*(x_r^a x_e^b) = x_r x_o^b (x_r - x_o)^(a-1),
        pi_*(x_e^b) = -x_r1 x_r2 h_(b-2)(x_r1, x_r2), b >= 2,
    and pi_*1 = 1, pi_*x_e = 0. Every monomial has degree a1 + a2 + ae,
    coefficients are ints and zero ones are dropped. The exponents are
    bounded by the degree of the class pushed down, so the cache stays small.
    """
    if a1 and a2:
        return () if ae else ((a1, a2, -1),)
    if not a1 and not a2:
        return tuple((i, ae - i, -1) for i in range(1, ae))
    a = a1 or a2
    # x_r^(k+1) x_o^(ae+a-1-k); without x_e, k = a - 1 is the self term x_r^a
    terms = [
        (k + 1, ae + a - 1 - k, (-1) ** (a - 1 - k) * comb(a - 1, k))
        for k in range(a if ae else a - 1)
    ]
    return tuple(sorted(t if a1 else (t[1], t[0], t[2]) for t in terms))


class _Layout:
    """The packed form of the monomials of one chain of subdivision steps.

    Each ray of the chain owns a field of ``width`` bits in a Python int: the
    source complex's rays first, sorted, then the new rays in trace order. So
    a monomial on the source's rays unpacks to sorted pairs, the form cones
    are stored in, whatever order the complex lists its rays in. The width is
    the bit length of the highest degree a term of the chain can have, so no
    exponent overflows its field, and a product of monomials is the sum of
    their ints. Pushing down keeps the degree, so the bound holds down the
    whole chain.
    """

    __slots__ = ("names", "shift", "width", "low", "high")

    def __init__(self, source: Iterable[str], new: Iterable[str], degree: int) -> None:
        self.names = tuple(sorted(source)) + tuple(new)
        self.width = w = max(1, degree.bit_length())
        self.shift = {r: i * w for i, r in enumerate(self.names)}
        # 1 in the lowest bit of every field
        ones = ((1 << len(self.names) * w) - 1) // ((1 << w) - 1)
        self.low = ones * ((1 << w - 1) - 1)
        self.high = ones << w - 1

    def pack(self, mono: Monomial) -> int:
        shift = self.shift
        return sum([e << shift[r] for r, e in mono])

    def unpack(self, m: int) -> Monomial:
        """The (ray, exponent) pairs of a packed monomial, in field order."""
        names, width = self.names, self.width
        out = []
        while m:
            i = (m.bit_length() - 1) // width
            out.append((names[i], m >> i * width))
            m &= (1 << i * width) - 1
        out.reverse()
        return tuple(out)


def _push_step(
    acc: dict[int, int | Fraction], step: SubdivisionStep, layout: _Layout
) -> None:
    """Push the packed terms in acc down one subdivision step, in place.

    The terms are supported on cones of the step's refined complex, and
    afterwards on cones of its source; they are neither merged with zeros
    dropped nor sorted. Write a term as base x_r1^a1 x_r2^a2 x_e^ae, for the
    center rays r1, r2 and the new ray e. It pushes down to itself plus
    base * _blowdown_kernel(a1, a2, ae) when ae = 0, and to that block alone
    when ae > 0. K(a1, a2, 0) = 0 when a1 + a2 <= 1, so a term moves only
    when it holds e or has center degree a1 + a2 >= 2; a term that moves
    nothing stays as it is. The block depends on the term's packed center
    part alone, so each center pattern is decoded and its block built once
    per step. Every block monomial has support supp(base) + {r1, r2}, so one
    test of supp(base) in the step's link keeps or drops the whole block.
    The link's faces are packed once per step as top-bit keys, the top bit of
    each of their rays' fields, so that test is one set lookup of the base's
    own top-bit key. Each block monomial is base plus a packed offset.
    """
    r1, r2 = step.center
    shift, width = layout.shift, layout.width
    mask = (1 << width) - 1
    s1, s2, se = shift[r1], shift[r2], shift[step.new_ray]
    center = mask << s1 | mask << s2 | mask << se
    moving = [(m, v) for m, v in acc.items() if m & center]
    if not moving:
        return
    top = width - 1
    link = {sum([1 << shift[r] + top for r in tau]) for tau in step.link}
    low, high = layout.low, layout.high
    blocks: dict[int, tuple[bool, list[tuple[int, int]]]] = {}
    for m, coeff in moving:
        part = m & center
        block = blocks.get(part)
        if block is None:
            ae = part >> se & mask
            kernel = _blowdown_kernel(part >> s1 & mask, part >> s2 & mask, ae)
            block = blocks[part] = (
                ae > 0, [((p1 << s1) + (p2 << s2), v) for p1, p2, v in kernel]
            )
        holds_e, kernel = block
        if holds_e:
            del acc[m]
        if not coeff or not kernel:
            continue
        base = m - part
        # the top bit of each nonzero field: the adds carry into no next field
        key = ((base & low) + low | base) & high
        if key in link:
            for offset, v in kernel:
                k = base + offset
                acc[k] = acc.get(k, 0) + coeff * v


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
    bending step down, it is pushed through step s (``_push_step``)
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


def pushforward(a: ChowClass, *steps: SubdivisionStep) -> ChowClass:
    """Push a class forward along a chain of subdivision steps, last step first.

    The steps are undone from the class's complex, last first, each by one
    ``conecx._undo``, which refuses a step that did not make the complex it
    is undone from. The terms are packed once in the chain's ``_Layout``,
    whose width comes from the class's top degree, go down in one dict, one
    ``_push_step`` per step, and are unpacked and normalized once, on the
    first step's source.
    """
    if not steps:
        return a
    c = a.complex
    for i, step in enumerate(reversed(steps)):
        try:
            c = _undo(c, step)
        except ValueError:
            if i:
                raise ValueError("steps do not form a chain") from None
            raise ValueError("class does not live on the step's refined complex") from None
    top = max([_mono_degree(m) for m, _ in a.terms], default=0)
    layout = _Layout(c.ray_ids, [s.new_ray for s in steps], top)
    acc = {layout.pack(m): v for m, v in a.terms}
    for step in reversed(steps):
        _push_step(acc, step, layout)
    return _finish({layout.unpack(m): v for m, v in acc.items()}, c)


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
