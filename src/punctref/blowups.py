"""Target stratum blowups and what refined classes do under them.

A blowup of the corner stratum cut out by the divisors in J prepends an
exceptional direction; a tangency vector lifts faithfully through one
exceptional entry, read off its entries over J, and iterating over punctures
of rank two or more drives every puncturing rank to zero or one. Slope
sensitivity asks a fan refining the orthant, an embedded ``ConeComplex``, to
contain every edge slope of the induced rank-two problems as a ray;
comparison under a subdivision trace computes both refined classes and their
difference, which need not vanish.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Optional, Sequence

from .chowring import pushforward as chow_pushforward, serialize
from .conecx import ConeComplex, Ray, SubdivisionStep, _Record, build_complex
from .conecx import star_subdivide
from .lattice import is_unimodular, primitive
from .tropdata import EnumerationBoundError, NumericalData, PuncturingData, TargetModel
from .tropdata import target_model

__all__ = [
    "BlowupStep",
    "faithful_lift",
    "stabilize_rank",
    "SubdivisionError",
    "subdivision",
    "trivial_subdivision",
    "barycentric_subdivision",
    "check_slope_sensitivity",
    "compare_under_subdivision",
]


class BlowupStep(_Record):
    """Blowup of the stratum cut out by the divisors in ``center``.

    The exceptional divisor is prepended: direction 0 of a lifted vector is
    the exceptional one, and old direction j sits at position j. Vectors push
    forward by a_j = a'_j + a'_0 for j in the center and a_j = a'_j else.
    """

    def __init__(self, center: tuple[int, ...]) -> None:
        if not center:
            raise ValueError("blowup center must be nonempty")
        if list(center) != sorted(set(center)) or center[0] < 1:
            raise ValueError("center must be strictly increasing positive indices")
        object.__setattr__(self, "center", center)

    def push_vector(self, lifted: Sequence[int]) -> tuple[int, ...]:
        k = len(lifted) - 1
        cen = set(self.center)
        return tuple(
            lifted[j] + (lifted[0] if j in cen else 0) for j in range(1, k + 1)
        )


def faithful_lift(
    nd: NumericalData, center: Iterable[int]
) -> tuple[BlowupStep, NumericalData]:
    """Lift tangency vectors along the blowup of a corner stratum.

    A lifted row is (a0, alpha_j - a0 for j in the center, alpha_j off it),
    so it is fixed by its exceptional entry a0: the smallest nonnegative
    center entry of the marking (Case 1) or, when every center entry is
    negative, the largest (Case 2). Which divisor holds a0 does not show in
    the row. Case 2 changes the multiplicity, the sum of -a over negative
    entries, by (|center| - 1) a0, so it strictly drops when the center has
    two or more divisors. Degrees of the lifted data are recomputed from
    global balancing, so the input must be balanced. Returns the step and
    the lifted data.
    """
    step = BlowupStep(tuple(sorted(set(int(j) for j in center))))
    if step.center[-1] > nd.k:
        raise ValueError(f"center {step.center} exceeds k = {nd.k}")
    if any(sum(a[j] for a in nd.markings) != nd.degrees[j] for j in range(nd.k)):
        raise ValueError("faithful lift needs balanced numerical data")
    rows: list[tuple[int, ...]] = []
    for alpha in nd.markings:
        on_center = [alpha[j - 1] for j in step.center]
        a0 = min((v for v in on_center if v >= 0), default=max(on_center))
        rows.append((a0,) + tuple(
            a - a0 if j in step.center else a for j, a in enumerate(alpha, 1)
        ))
    degrees = tuple(sum(r[j] for r in rows) for j in range(nd.k + 1))
    lifted = NumericalData(nd.k + 1, degrees, tuple(rows), nd.genus)
    if step.push_vector(degrees) != nd.degrees:
        raise ArithmeticError("lifted degrees do not push forward to the degrees")
    if any(step.push_vector(r) != a for r, a in zip(rows, nd.markings)):
        raise ArithmeticError("a lifted marking does not push forward to its marking")
    return step, lifted


def stabilize_rank(nd: NumericalData) -> tuple[tuple[BlowupStep, ...], NumericalData]:
    """Blow up negative supports until every puncturing rank is 0 or 1.

    Each round picks the lowest-index marking of rank at least two and blows
    up its negative support; multiplicity strictly decreases at every step,
    so the loop terminates. Step centers refer to the divisor indexing of
    their own stage.
    """
    steps: list[BlowupStep] = []
    current = nd
    while True:
        target = next(
            (
                i
                for i in range(1, len(current.markings) + 1)
                if current.rank(i) >= 2
            ),
            None,
        )
        if target is None:
            return tuple(steps), current
        J = tuple(
            j for j in range(1, current.k + 1) if current.markings[target - 1][j - 1] < 0
        )
        step, current = faithful_lift(current, J)
        steps.append(step)


def _fan(rays: Sequence[tuple[int, ...]], cones: Iterable[Iterable[int]]) -> ConeComplex:
    """The embedded complex on primitive rays ``r<i>`` spanned by index cones."""
    ids = [f"r{i}" for i in range(len(rays))]
    return build_complex(list(map(Ray, ids, rays)), ([ids[i] for i in c] for c in cones))


class SubdivisionError(ValueError):
    """A fan ``subdivision`` or a trace replay refuses; ``entry`` names the
    part at fault: ``rays[i]``, ``rays``, ``cones[i]`` or ``trace[i]``."""

    def __init__(self, entry: str, message: str) -> None:
        super().__init__(message)
        self.entry = entry


def subdivision(
    k: int, rays: Sequence[Sequence[int]], cones: Sequence[Sequence[int]]
) -> ConeComplex:
    """Validate a fan of unimodular cones on the orthant as an embedded complex.

    Rays are normalized to primitive vectors; every coordinate axis must
    appear (any refinement of the orthant keeps its one-dimensional faces)
    and every cone must be unimodular. A refusal is a SubdivisionError that
    names the entry at fault. Full coverage of the orthant is the caller's
    responsibility.
    """
    prim = []
    for i, r in enumerate(rays):
        v = tuple(int(x) for x in r)
        if len(v) != k or any(x < 0 for x in v) or all(x == 0 for x in v):
            raise SubdivisionError(
                f"rays[{i}]", f"ray {r} is not a nonzero nonnegative vector of length {k}"
            )
        prim.append(primitive(v))
    seen: set[tuple[int, ...]] = set()
    for i, p in enumerate(prim):
        if p in seen:
            raise SubdivisionError(f"rays[{i}]", "duplicate rays after normalization")
        seen.add(p)
    for axis in (tuple(int(i == j) for i in range(k)) for j in range(k)):
        if axis not in prim:
            raise SubdivisionError("rays", f"missing coordinate axis ray {axis}")
    norm_cones = []
    for n, cone in enumerate(cones):
        idx = {int(i) for i in cone}
        if any(i < 0 or i >= len(prim) for i in idx):
            raise SubdivisionError(f"cones[{n}]", f"cone {cone} references a missing ray")
        if not is_unimodular([prim[i] for i in idx]):
            raise SubdivisionError(f"cones[{n}]", f"cone {cone} is not unimodular")
        norm_cones.append(idx)
    return _fan(prim, norm_cones)


def trivial_subdivision(k: int) -> ConeComplex:
    return _fan([tuple(int(i == j) for i in range(k)) for j in range(k)], [range(k)])


MAX_BARYCENTRIC_RANK = 8
"""The largest k ``barycentric_subdivision`` builds; it refuses a larger one
before any flag. The fan has k! cones: 40320 at k = 8, and at k = 9 their
face closure ran out of a 600 MB address space."""


def barycentric_subdivision(k: int) -> ConeComplex:
    """Rays are indicators of nonempty subsets; cones are subset flags, each
    unimodular since every ray of a flag adds one coordinate to the last."""
    if k > MAX_BARYCENTRIC_RANK:
        raise EnumerationBoundError(
            f"barycentric subdivision in rank {k} is past its cap of rank {MAX_BARYCENTRIC_RANK}"
        )
    subsets = [s for n in range(1, k + 1) for s in itertools.combinations(range(k), n)]
    index = {s: i for i, s in enumerate(subsets)}
    rays = [tuple(int(j in s) for j in range(k)) for s in subsets]
    flags = itertools.permutations(range(k))
    cones = ([index[tuple(sorted(f[: i + 1]))] for i in range(k)] for f in flags)
    return _fan(rays, cones)


def _restrict_data(nd: NumericalData, J: tuple[int, int]) -> NumericalData:
    return NumericalData(
        2,
        tuple(nd.degrees[j - 1] for j in J),
        tuple(tuple(a[j - 1] for j in J) for a in nd.markings),
        nd.genus,
    )


def _restrict_model(tm: TargetModel, J: tuple[int, int]) -> TargetModel:
    # per restricted face, each restricted pairing keeps its first label
    merged: dict[frozenset, dict[tuple[int, ...], str]] = {}
    for face, classes in tm.strata:
        rf = frozenset(idx + 1 for idx, j in enumerate(J) if j in face)
        labels = merged.setdefault(rf, {})
        for p, lab in classes:
            labels.setdefault(tuple(p[j - 1] for j in J), lab)
    return target_model(2, {f: list(labels.items()) for f, labels in merged.items()})


def check_slope_sensitivity(
    nd: NumericalData, tm: TargetModel, fan: ConeComplex
) -> dict:
    """Does the fan contain every rank-two edge slope as a face ray?

    The fan is an embedded complex on primitive rays of length k. For each
    pair J of divisor directions, the data and model restrict to a rank-two
    problem; all edge slopes of its types in the (closed) positive quadrant
    must be rays of the fan supported on the coordinate face J, read in
    J-coordinates. Rank below two is vacuously sensitive. Enumeration bound
    failures propagate.
    """
    from .tropmaps import enumerate_types

    prims = [r.primitive for r in fan.rays]
    if any(p is None or len(p) != nd.k for p in prims):
        raise ValueError("subdivision rank differs from the data")
    pairs = []
    sensitive = True
    for J in itertools.combinations(range(1, nd.k + 1), 2):
        nd_J = _restrict_data(nd, J)
        tm_J = _restrict_model(tm, J)
        try:
            types = enumerate_types(nd_J, tm_J)
        except EnumerationBoundError as e:
            raise EnumerationBoundError(
                f"restricted enumeration for J = {list(J)} incomplete: {e}"
            ) from e
        slopes = set()
        for t in types:
            for e in t.edges:
                m = e.slope
                if all(x <= 0 for x in m):
                    m = tuple(-x for x in m)
                if any(x < 0 for x in m) or all(x == 0 for x in m):
                    continue
                slopes.add(primitive(m))
        rays_J = {
            tuple(p[j - 1] for j in J)
            for p in prims
            if any(p) and all(x == 0 or j in J for j, x in enumerate(p, 1))
        }
        missing = sorted(s for s in slopes if s not in rays_J)
        pairs.append(
            {
                "J": list(J),
                "slopes": sorted(slopes),
                "rays": sorted(rays_J),
                "missing": missing,
            }
        )
        if missing:
            sensitive = False
    return {"sensitive": sensitive, "pairs": pairs}


def _replay_trace(
    c: ConeComplex, trace: Sequence[tuple[Sequence[str], Optional[str]]]
) -> tuple[ConeComplex, list[SubdivisionStep]]:
    steps = []
    current = c
    for i, (center, new) in enumerate(trace):
        try:
            current, step = star_subdivide(current, center, new_ray=new)
        except ValueError as e:
            raise SubdivisionError(f"trace[{i}]", str(e)) from e
        steps.append(step)
    return current, steps


def compare_under_subdivision(
    c: ConeComplex,
    pd: PuncturingData,
    trace: Sequence[tuple[Sequence[str], Optional[str]]],
    lifted_pd: PuncturingData,
) -> dict:
    """Refined class downstairs versus pushforward of the lifted one.

    The trace, star subdivisions as (center, new) pairs with new None for
    the default name, is replayed on the complex; the lifted offsets live on
    the result. A step the complex refuses raises SubdivisionError with
    entry ``trace[i]``. Reports both classes, the difference (pushed minus
    original), and equality.
    """
    from .puncture import refined_class

    upstairs_complex, steps = _replay_trace(c, trace)
    original = refined_class(c, pd).cls
    pushed = chow_pushforward(refined_class(upstairs_complex, lifted_pd).cls, *steps)
    difference = pushed - original
    return {
        "original": serialize(original),
        "pushed": serialize(pushed),
        "difference": serialize(difference),
        "equal": difference.is_zero(),
    }
