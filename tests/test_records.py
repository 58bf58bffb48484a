"""The package's records behave as the frozen dataclasses they replaced.

Each library record is a hand-written ``conecx._Record`` subclass. Its twin
below is the frozen dataclass declaration it replaced, with its fields, its
``__post_init__`` checks and the few properties those checks read; other
methods are left out. On records from the fixtures and the seeded charts,
each record and its twin (built from twins of its fields) must agree on
construction, equality, hash, repr, immutability and refused arguments.
"""
import dataclasses
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import pytest

from punctref.blowups import BlowupStep as LibBlowupStep, faithful_lift
from punctref.conecx import (
    ConeComplex as LibConeComplex,
    PLFunction as LibPLFunction,
    Ray as LibRay,
    _exact,
    _Record,
)
from punctref.gerby import RootingData as LibRootingData, rooting_data
from punctref.puncture import (
    MonomialIdealOnComplex as LibMonomialIdealOnComplex,
    PuncturingData as LibPuncturingData,
    normalized_ideal,
    refined_class,
)
from punctref.tropdata import NumericalData as LibNumericalData
from punctref.tropmaps import cone_of_type, enumerate_types

from conftest import FIXTURE_NAMES, ladder_chart, load, random_puncturing


# ------------------------------------------------- the replaced declarations


@dataclass(frozen=True)
class Ray:
    id: str
    primitive: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("ray id must be a nonempty string")
        if self.primitive is not None:
            object.__setattr__(self, "primitive", tuple(int(x) for x in self.primitive))


@dataclass(frozen=True)
class ConeComplex:
    rays: tuple[Ray, ...]
    cones: frozenset[tuple[str, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cones", frozenset(self.cones))

    @property
    def ray_ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.rays)


# the step record that replaced the one holding its two complexes
@dataclass(frozen=True)
class SubdivisionStep:
    center: tuple[str, str]
    new_ray: str
    link: frozenset[tuple[str, ...]] = field(repr=False)


@dataclass(frozen=True)
class PLFunction:
    values: tuple[tuple[str, int | Fraction], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple((k, _exact(v)) for k, v in self.values))

    @property
    def nonnegative(self) -> bool:
        return all(v >= 0 for _, v in self.values)


@dataclass(frozen=True)
class ChowClass:
    complex: ConeComplex
    terms: tuple

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChowClass):
            return NotImplemented
        return self.complex == other.complex and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.complex.ray_ids, self.terms))


@dataclass(frozen=True)
class PuncturingData:
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


@dataclass(frozen=True)
class MonomialIdealOnComplex:
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


@dataclass(frozen=True)
class RefinedClassResult:
    cls: ChowClass
    trace: tuple[SubdivisionStep, ...]
    components: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class NumericalData:
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


@dataclass(frozen=True)
class TargetModel:
    k: int
    strata: tuple


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


@dataclass(frozen=True)
class TypeCone:
    variables: tuple[str, ...]
    rays: tuple[tuple[int, ...], ...]
    dim: int
    ineq_rows: tuple[tuple[int, ...], ...] = field(repr=False)
    positions: tuple[tuple[tuple[int, ...], ...], ...] = field(repr=False)


@dataclass(frozen=True)
class Fixture:
    data: Optional[NumericalData]
    model: Optional[TargetModel]
    complex: Optional[ConeComplex]
    offsets: Optional[PuncturingData]
    trace: Optional[tuple[tuple[tuple[str, ...], Optional[str]], ...]]
    lifted_offsets: Optional[PuncturingData]


@dataclass(frozen=True)
class RootingData:
    target_roots: tuple[int, ...]
    source_roots: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not self.target_roots or any(
            not isinstance(r, int) or r < 1 for r in self.target_roots
        ):
            raise ValueError("target roots must be positive integers")
        if self.source_roots is not None and any(
            not isinstance(s, int) or s < 1 for s in self.source_roots
        ):
            raise ValueError("source roots must be positive integers")


@dataclass(frozen=True)
class BlowupStep:
    center: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.center:
            raise ValueError("blowup center must be nonempty")
        if list(self.center) != sorted(set(self.center)) or self.center[0] < 1:
            raise ValueError("center must be strictly increasing positive indices")


TWINS = {
    cls.__name__: cls
    for cls in (
        Ray, ConeComplex, SubdivisionStep, PLFunction, ChowClass, PuncturingData,
        MonomialIdealOnComplex, RefinedClassResult, NumericalData, TargetModel,
        VertexDecor, EdgeDecor, TropicalType, TypeCone, Fixture, RootingData,
        BlowupStep,
    )
}


# ------------------------------------------------------------------ helpers


def names(twin):
    return [f.name for f in dataclasses.fields(twin)]


def to_twin(x):
    """x with every library record, also inside tuples, replaced by its twin."""
    if isinstance(x, _Record):
        twin = TWINS[type(x).__name__]
        return twin(*(to_twin(getattr(x, n)) for n in names(twin)))
    if type(x) is tuple:
        return tuple(to_twin(v) for v in x)
    return x


def outcome(fn, *args, **kwargs):
    """The value of a call, or the type and message of what it raised."""
    try:
        return ("value", fn(*args, **kwargs))
    except Exception as e:  # the outcome is compared, not handled
        # a frozen dataclass raises FrozenInstanceError, an AttributeError
        return ("AttributeError" if isinstance(e, AttributeError) else type(e).__name__, str(e))


def library_records():
    """Records of every class, from the fixtures and the seeded charts."""
    out = []

    def walk(x):
        if isinstance(x, _Record):
            out.append(x)
            for n in names(TWINS[type(x).__name__]):
                walk(getattr(x, n))
        elif type(x) is tuple:
            for v in x:
                walk(v)

    for name in FIXTURE_NAMES:
        fx = load(name)
        walk(fx)
        walk(normalized_ideal(fx.complex, fx.offsets))
        walk(refined_class(fx.complex, fx.offsets))
        if fx.model is not None:
            types = enumerate_types(fx.data, fx.model)
            walk(types)
            walk(tuple(cone_of_type(fx.data, t) for t in types))
        walk(faithful_lift(fx.data, range(1, fx.data.k + 1)))
    for index in (0, 5, 10, 15, 20):
        c, pd = ladder_chart(index)
        walk(refined_class(c, pd))
    rng = random.Random(7)
    for _ in range(5):
        walk(refined_class(*random_puncturing(rng)))
    walk((rooting_data([2, 3]), rooting_data([5], [1, 5])))
    by_class = {}
    for x in out:
        by_class.setdefault(type(x).__name__, []).append(x)
    return by_class


RECORDS = library_records()


# -------------------------------------------------------------------- tests


def test_every_record_class_has_a_twin_and_instances():
    assert sorted(RECORDS) == sorted(TWINS)
    classes = {type(x) for xs in RECORDS.values() for x in xs}
    assert all(cls.__name__ in TWINS and cls.__bases__ == (_Record,) for cls in classes)


@pytest.mark.parametrize("name", sorted(TWINS))
def test_record_matches_its_dataclass_twin(name):
    twin = TWINS[name]
    fields = names(twin)
    for x in RECORDS[name][:40]:
        cls = type(x)
        vals = [getattr(x, n) for n in fields]
        # construction, positional and by keyword, gives an equal record
        for y in (cls(*vals), cls(**dict(zip(fields, vals)))):
            assert y == x and not (y != x) and y is not x
        tw = to_twin(x)
        assert repr(x) == repr(tw)
        assert outcome(hash, x) == outcome(hash, tw)
        if name == "Fixture" and x.trace:
            # a trace of (center, new) pairs hashes, as the whole fixture does
            assert outcome(hash, x)[0] == "value"
        if name != "ChowClass":
            assert outcome(hash, x) == outcome(hash, tuple(vals))
        # another class with equal fields is never equal, a twin or a record
        other = type(name, (_Record,), {"__init__": cls.__init__})(*vals)
        for y in (tw, other):
            assert x.__eq__(y) is NotImplemented and x != y and not (x == y)
        for n in fields + ["not_a_field"]:
            assert outcome(setattr, x, n, None) == outcome(setattr, tw, n, None)
            assert outcome(delattr, x, n) == outcome(delattr, tw, n)
            assert outcome(setattr, x, n, None)[0] == "AttributeError"
            assert outcome(delattr, x, n)[0] == "AttributeError"
        assert [getattr(x, n) for n in fields] == vals


@pytest.mark.parametrize("name", sorted(TWINS))
def test_record_equality_matches_its_twin_across_pairs(name):
    xs = RECORDS[name][:12]
    for a, b in itertools.product(xs, repeat=2):
        ta, tb = to_twin(a), to_twin(b)
        assert (a == b, a != b) == (ta == tb, ta != tb)


def test_defaults_match():
    assert repr(LibRay("a")) == repr(Ray("a")) and LibRay("a") == LibRay("a", None)
    assert repr(LibRay("a", [1, 0])) == repr(Ray("a", [1, 0]))
    assert repr(LibNumericalData(1, (1,), ((1,),))) == repr(NumericalData(1, (1,), ((1,),)))
    assert repr(LibRootingData((2, 3))) == repr(RootingData((2, 3)))
    assert LibRootingData(target_roots=(2,)) == LibRootingData((2,), None)


def test_refusals_match_the_former_post_init_checks():
    f = LibPLFunction((("a", 1),))
    tf = PLFunction((("a", 1),))
    c = LibConeComplex((LibRay("a"),), [(), ("a",)])
    tc = ConeComplex((Ray("a"),), [(), ("a",)])
    cases = [
        (LibRay, Ray, ("",)),
        (LibNumericalData, NumericalData, (1, (1,), (), 1)),
        (LibNumericalData, NumericalData, (2, (1,), ())),
        (LibNumericalData, NumericalData, (1, (1,), ((1, 2),))),
        (LibPuncturingData, PuncturingData, None),
        (LibMonomialIdealOnComplex, MonomialIdealOnComplex, None),
        (LibRootingData, RootingData, ((),)),
        (LibRootingData, RootingData, ((2, 0),)),
        (LibRootingData, RootingData, ((2,), (0,))),
        (LibRootingData, RootingData, ((2.0,),)),
        (LibBlowupStep, BlowupStep, ((),)),
        (LibBlowupStep, BlowupStep, ((2, 1),)),
        (LibBlowupStep, BlowupStep, ((0, 1),)),
    ]
    pd_args = [
        (((("p", f), ("p", f)),), ((("p", tf), ("p", tf)),)),
        (((("p", LibPLFunction((("a", -1),))),),), ((("p", PLFunction((("a", -1),))),),)),
        (
            ((("p", LibPLFunction((("a", Fraction(1, 2)),))),),),
            ((("p", PLFunction((("a", Fraction(1, 2)),))),),),
        ),
    ]
    ideal_args = [
        ((c, ()), (tc, ())),
        ((c, (LibPLFunction((("a", -1),)),)), (tc, (PLFunction((("a", -1),)),))),
        ((c, (LibPLFunction((("b", 1),)),)), (tc, (PLFunction((("b", 1),)),))),
    ]
    checked = 0
    for lib, twin, args in cases:
        pairs = {"PuncturingData": pd_args, "MonomialIdealOnComplex": ideal_args}.get(
            twin.__name__, [(args, args)]
        )
        for lib_args, twin_args in pairs:
            got, want = outcome(lib, *lib_args), outcome(twin, *twin_args)
            assert got == want and got[0] != "value", (twin.__name__, got, want)
            checked += 1
    assert checked == 17
