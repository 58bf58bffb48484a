"""Smooth cone complexes: face-closed simplicial bookkeeping, stellar
subdivision at two-ray centers, and piecewise-linear functions on rays.

A complex is either abstract-smooth (every cone declared unimodular on its
rays) or embedded (rays carry primitive integer vectors and unimodularity is
verified). All values are immutable; every operation is a pure function.
The cones form a set: membership is the one cone test, and an order is
imposed only where output needs one, by ``maximal_cones()`` and
``validate_complex``. Maximal cones are derived from the set, as the cones
that are no cone's facet, a rule that assumes face-closure. A subdivision
step holds its center's link, not a complex; the new ray comes last, and
``_undo`` checks and undoes a step. No other module builds a complex.
"""

from __future__ import annotations

import itertools
from math import gcd
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional, Sequence

from .lattice import is_unimodular

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Ray",
    "ConeComplex",
    "PLFunction",
    "SubdivisionStep",
    "build_complex",
    "validate_complex",
    "star_subdivide",
    "pl_function",
    "pl_pullback",
]


class _Record:
    """An immutable record, the base of every value type of the package.

    The fields are the parameters of the subclass's ``__init__``, which sets
    each one once through ``object.__setattr__``. As for a frozen dataclass,
    records of one class are equal when their field tuples are, the hash is
    the field tuple's, the repr lists the fields outside ``_hidden``, and
    assigning or deleting an attribute raises AttributeError. Instances keep
    a ``__dict__``, where some records cache derived data.
    """

    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        fields = code.co_varnames[1 : code.co_argcount]
        get = attrgetter(*fields)
        # of one field, attrgetter gives the bare value, not a 1-tuple
        cls._key = staticmethod(get if len(fields) > 1 else lambda r: (get(r),))
        cls._shown = tuple(f for f in fields if f not in cls._hidden)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Ray(_Record):
    """A ray of a cone complex: canonical id plus optional primitive vector."""

    def __init__(self, id: str, primitive: Optional[Sequence[int]] = None) -> None:
        if not id:
            raise ValueError("ray id must be a nonempty string")
        if primitive is not None:
            primitive = tuple(int(x) for x in primitive)
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "primitive", primitive)


def _sorted_cone(rays: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(rays))


class ConeComplex(_Record):
    """A face-closed simplicial cone complex on named rays.

    ``cones`` is the set of every cone (including the empty cone and all
    faces), each a sorted tuple of ray ids; any iterable given is coerced to
    a frozenset. Maximal cones are derived from it, so it must be face-closed.
    They are cached when derived, as are the ray index and the mode.
    """

    def __init__(self, rays: tuple[Ray, ...], cones: Iterable[tuple[str, ...]]) -> None:
        object.__setattr__(self, "rays", rays)
        object.__setattr__(self, "cones", frozenset(cones))

    @property
    def mode(self) -> str:
        if "_mode_cache" not in self.__dict__:
            embedded = self.rays and all(r.primitive is not None for r in self.rays)
            self.__dict__["_mode_cache"] = "embedded" if embedded else "abstract-smooth"
        return self.__dict__["_mode_cache"]

    @property
    def ray_ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.rays)

    def _ray_index(self) -> dict[str, Ray]:
        """The rays by id, the first of a repeated id; never changed in place."""
        if "_ray_cache" not in self.__dict__:
            self.__dict__["_ray_cache"] = {r.id: r for r in reversed(self.rays)}
        return self.__dict__["_ray_cache"]

    def ray(self, ray_id: str) -> Ray:
        try:
            return self._ray_index()[ray_id]
        except KeyError:
            raise KeyError(f"no ray {ray_id!r} in complex") from None

    def has_cone(self, support: Iterable[str]) -> bool:
        return _sorted_cone(support) in self.cones

    def maximal_cones(self) -> tuple[tuple[str, ...], ...]:
        """The cones that are no cone's facet, by (dimension, lex). This needs
        face-closure: then a cone c strictly inside a cone d is a facet of the
        cone c plus one ray of d."""
        cached = self.__dict__.get("_maximal_cache")
        if cached is None:
            facets = {c[:i] + c[i + 1 :] for c in self.cones for i in range(len(c))}
            cached = tuple(sorted(self.cones - facets, key=lambda c: (len(c), c)))
            self.__dict__["_maximal_cache"] = cached
        return cached

    def dim(self) -> int:
        return max((len(c) for c in self.cones), default=0)


def _face_closure(cones: Iterable[Iterable[str]]) -> frozenset[tuple[str, ...]]:
    closed: set[tuple[str, ...]] = {()}
    todo = [_sorted_cone(cone) for cone in cones]
    while todo:
        face = todo.pop()
        # a face already in the set has all its faces in the set or in todo
        if face not in closed:
            closed.add(face)
            todo.extend(face[:i] + face[i + 1 :] for i in range(len(face)))
    return frozenset(closed)


def build_complex(
    rays: Sequence[Ray | str],
    cones: Iterable[Iterable[str]],
) -> ConeComplex:
    """Construct a face-closed complex from rays and generating cones.

    Rays may be Ray objects or bare id strings. Raises ValueError on
    malformed input; mathematical violations are left to validate_complex.
    """
    norm_rays: list[Ray] = []
    for r in rays:
        if isinstance(r, Ray):
            norm_rays.append(r)
        elif isinstance(r, str):
            norm_rays.append(Ray(r))
        else:
            raise ValueError(f"cannot interpret ray {r!r}")
    norm_rays.sort(key=lambda r: r.id)
    ids = [r.id for r in norm_rays]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate ray ids")
    id_set = set(ids)
    gen = [list(c) for c in cones]
    for c in gen:
        unknown = [x for x in c if x not in id_set]
        if unknown:
            raise ValueError(f"cone {c} uses unknown rays {unknown}")
        if len(set(c)) != len(c):
            raise ValueError(f"cone {c} repeats a ray")
    all_cones = _face_closure(gen + [[i] for i in ids])
    return ConeComplex(tuple(norm_rays), all_cones)


def validate_complex(c: ConeComplex) -> dict:
    """Check the complex invariants; violations are data, not exceptions.

    Returns {"ok": bool, "violations": [str, ...]}.
    """
    violations: list[str] = []
    index = c._ray_index()
    if len(index) != len(c.rays):
        violations.append("duplicate ray ids")
    if () not in c.cones:
        violations.append("missing empty cone")
    ordered = sorted(c.cones, key=lambda t: (len(t), t))
    for cone in ordered:
        if tuple(sorted(cone)) != cone:
            violations.append(f"cone {cone} not canonically sorted")
        if len(set(cone)) != len(cone):
            violations.append(f"cone {cone} repeats a ray")
        for x in cone:
            if x not in index:
                violations.append(f"cone {cone} uses unknown ray {x}")
        for i in range(len(cone)):
            face = cone[:i] + cone[i + 1 :]
            if face not in c.cones:
                violations.append(
                    f"not face-closed: cone {cone} lacks face {face}"
                )
    with_prim = [r for r in c.rays if r.primitive is not None]
    if with_prim and len(with_prim) != len(c.rays):
        missing = [r.id for r in c.rays if r.primitive is None]
        violations.append(f"mixed mode: rays without primitives {missing}")
    if c.mode == "embedded":
        dims = {len(r.primitive) for r in c.rays}  # type: ignore[arg-type]
        if len(dims) > 1:
            violations.append("primitive vectors of mixed ambient dimension")
        else:
            for r in c.rays:
                g = gcd(*(abs(x) for x in r.primitive)) if any(r.primitive) else 0
                if g != 1:
                    violations.append(f"ray {r.id} primitive {r.primitive} not primitive")
            prim = {r.id: r.primitive for r in c.rays}
            for cone in ordered:
                if len(cone) < 2:
                    continue
                vecs = [prim[x] for x in cone]
                if not is_unimodular(vecs):  # type: ignore[arg-type]
                    violations.append(f"cone {cone} not unimodular")
    return {"ok": not violations, "violations": violations}


class SubdivisionStep(_Record):
    """One stellar subdivision at a two-ray center, by what it changes: each
    sorted cone tau of ``link``, with tau + center a cone of the source, swaps
    tau + center for tau + e, tau + e + r1 and tau + e + r2, for e the new
    ray, and every other cone stays. The repr leaves the link out."""

    _hidden = ("link",)

    def __init__(self, center: tuple[str, str], new_ray: str,
                 link: frozenset[tuple[str, ...]]) -> None:
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "new_ray", new_ray)
        object.__setattr__(self, "link", link)


def _fresh_ray_ids(c: ConeComplex) -> Iterator[str]:
    """The ids e0, e1, ... that c does not use, in order. A chain of steps
    that only adds rays and names them from here gets the names that
    star_subdivide picks by default, without a search from e0 per step."""
    taken = c._ray_index()
    return (r for r in map("e{}".format, itertools.count()) if r not in taken)


def _star(link: Iterable[tuple[str, ...]], center: tuple[str, str], e: str) -> list:
    """The sorted tau + e, tau + e + r1, tau + e + r2 in place of tau + center."""
    rest = [(*tau, e) for tau in link]
    return [_sorted_cone(x + r) for x in rest for r in ((), center[:1], center[1:])]


def _new_ray(c: ConeComplex, center: tuple[str, str], new_ray: str) -> Ray:
    """The ray a step at center adds to c, embedded as the center's sum."""
    prims = [c.ray(r).primitive for r in center] if c.mode == "embedded" else None
    return Ray(new_ray, prims and tuple(a + b for a, b in zip(*prims, strict=True)))


def star_subdivide(
    c: ConeComplex,
    center: Iterable[str],
    new_ray: Optional[str] = None,
) -> tuple[ConeComplex, SubdivisionStep]:
    """Stellar subdivision at a two-ray center.

    Every cone containing both center rays is replaced by the star pattern on
    the new ray, appended last; all other cones survive unchanged. In embedded
    mode the new primitive is the sum of the center primitives.
    """
    ctr = _sorted_cone(center)
    if len(ctr) != 2:
        raise ValueError(f"center must be a two-ray set, got {ctr}")
    if not c.has_cone(ctr):
        raise ValueError(f"center {ctr} is not a cone of the complex")
    r1, r2 = ctr
    if new_ray is None:
        new_ray = next(_fresh_ray_ids(c))
    if new_ray in c._ray_index():
        raise ValueError(f"new ray id {new_ray!r} already present")
    ray = _new_ray(c, ctr, new_ray)
    # the star of the center swaps for that of the new ray; no re-closing
    star = [cone for cone in c.cones if r1 in cone and r2 in cone]
    link = frozenset(tuple(x for x in cone if x != r1 and x != r2) for cone in star)
    cones = c.cones.difference(star).union(_star(link, ctr, new_ray))
    post = ConeComplex((*c.rays, ray), cones)
    # the index grows by the new ray, embedded exactly when c is: c's mode
    post.__dict__.update(_ray_cache={**c._ray_index(), new_ray: ray}, _mode_cache=c.mode)
    return post, SubdivisionStep(ctr, new_ray, link)


def _undo(post: ConeComplex, step: SubdivisionStep) -> ConeComplex:
    """The source of a step, from its refined complex post: drop the last,
    new ray and swap its star back for tau + center, tau in the link.
    ValueError unless star_subdivide on the source gives back post and step;
    on a face-closed post, one scan of its cones checks that: the center is
    sorted, () is in the link, each tau + center less the center gives tau
    back, the cones through e or both center rays are the link's star, and
    then, with the center rays in the source, e is last, alone and by rule."""
    r1, r2 = center = step.center
    e = step.new_ray
    hits = [x for x in post.cones if e in x or r1 in x and r2 in x]
    back = [_sorted_cone(tau + center) for tau in step.link]
    source = ConeComplex(post.rays[:-1], post.cones.difference(hits).union(back))
    if (
        center != _sorted_cone(center) or () not in step.link
        or {tuple(x for x in b if x not in center) for b in back} != step.link
        or set(hits) != set(_star(step.link, center, e))
        or e in source._ray_index() or post.rays[-1:] != (_new_ray(source, center, e),)
    ):
        raise ValueError(f"the step at {center} did not make this complex")
    return source


def _exact(v: int | Fraction | float | str) -> int | Fraction:
    """v as an int when it is integral, else as the exact Fraction of v (0.5 is 1/2)."""
    if type(v) is int:
        return v
    from fractions import Fraction

    f = Fraction(v)
    return f.numerator if f.denominator == 1 else f


class PLFunction(_Record):
    """Integer-or-rational values on rays, one linear function per cone."""

    def __init__(self, values: Iterable[tuple[str, int | Fraction]]) -> None:
        # integral values are held as ints however the function is built
        object.__setattr__(self, "values", tuple((k, _exact(v)) for k, v in values))

    def _map(self) -> dict[str, int | Fraction]:
        m = self.__dict__.get("_map_cache")
        if m is None:
            m = dict(self.values)
            self.__dict__["_map_cache"] = m
        return m

    def value(self, ray_id: str) -> int | Fraction:
        try:
            return self._map()[ray_id]
        except KeyError:
            raise KeyError(f"PL function has no value on ray {ray_id!r}") from None

    def get(self, ray_id: str, default: int | Fraction = 0) -> int | Fraction:
        return self._map().get(ray_id, default)

    def as_dict(self) -> dict[str, int | Fraction]:
        return dict(self.values)

    @property
    def nonnegative(self) -> bool:
        return all(v >= 0 for _, v in self.values)


def pl_function(values: Mapping[str, int | Fraction]) -> PLFunction:
    """Build a PL function from a ray-to-value mapping."""
    return PLFunction(tuple(sorted(values.items())))


def pl_pullback(f: PLFunction, step: SubdivisionStep) -> PLFunction:
    """Pull a PL function back along a subdivision step.

    Old rays keep their values; the new ray receives the sum of the center
    values, the value of the original function at the sum of primitives.
    """
    r1, r2 = step.center
    vals = f.as_dict()
    vals[step.new_ray] = f.get(r1) + f.get(r2)
    return pl_function(vals)
