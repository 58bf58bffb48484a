"""Target stratum blowups and what refined classes do under them.

A blowup of the corner stratum cut out by the divisors in J prepends an
exceptional direction; tangency vectors lift faithfully by the case split on
their sign over J, and iterating over punctures of rank two or more drives
every puncturing rank to zero or one. Slope sensitivity asks a fan refining
the orthant to contain every edge slope of the induced rank-two problems as
a ray; comparison under a given subdivision trace computes both refined
classes and their difference, which the counterexample shows need not vanish.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .chowring import pushforward as chow_pushforward, serialize
from .conecx import ConeComplex, SubdivisionStep, star_subdivide
from .lattice import is_unimodular, primitive
from .puncture import PuncturingData, refined_class
from .tropmaps import (
    EnumerationBoundError,
    NumericalData,
    TargetModel,
    enumerate_types,
    target_model,
)

__all__ = [
    "BlowupStep",
    "LiftedData",
    "Subdivision",
    "faithful_lift",
    "stabilize_rank",
    "subdivision",
    "trivial_subdivision",
    "barycentric_subdivision",
    "check_slope_sensitivity",
    "compare_under_subdivision",
]


@dataclass(frozen=True)
class BlowupStep:
    """Blowup of the stratum cut out by the divisors in ``center``.

    The exceptional divisor is prepended: direction 0 of a lifted vector is
    the exceptional one, and old direction j sits at position j. Vectors push
    forward by a_j = a'_j + a'_0 for j in the center and a_j = a'_j else.
    """

    center: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.center:
            raise ValueError("blowup center must be nonempty")
        if list(self.center) != sorted(set(self.center)) or self.center[0] < 1:
            raise ValueError("center must be strictly increasing positive indices")

    def push_vector(self, lifted: Sequence[int]) -> tuple[int, ...]:
        k = len(lifted) - 1
        cen = set(self.center)
        return tuple(
            lifted[j] + (lifted[0] if j in cen else 0) for j in range(1, k + 1)
        )


@dataclass(frozen=True)
class LiftedData:
    """A faithful lift: the new data plus per-marking bookkeeping."""

    step: BlowupStep
    nd: NumericalData
    cases: tuple[str, ...]
    chosen: tuple[int, ...]
    mult_before: tuple[int, ...]
    mult_after: tuple[int, ...]


def _multiplicity(alpha: Sequence[int]) -> int:
    return sum(-a for a in alpha if a < 0)


def faithful_lift(
    nd: NumericalData,
    center: Iterable[int],
    override: Optional[Mapping[int, Sequence[int]]] = None,
) -> LiftedData:
    """Lift tangency vectors along the blowup of a corner stratum.

    Markings with a nonnegative entry over the center take the smallest such
    value as the exceptional tangency (Case 1); all-negative markings take
    the largest (Case 2), which strictly reduces puncturing multiplicity when
    the center has two or more divisors. Ties resolve to the lowest divisor
    index. Alternative lifts may be forced per marking via ``override``
    (1-based marking index to a full lifted row); they must still push
    forward to the original vector. Degrees of the lifted data are recomputed
    from global balancing, so the input must be balanced.
    """
    step = BlowupStep(tuple(sorted(set(int(j) for j in center))))
    if step.center[-1] > nd.k:
        raise ValueError(f"center {step.center} exceeds k = {nd.k}")
    if any(sum(a[j] for a in nd.markings) != nd.degrees[j] for j in range(nd.k)):
        raise ValueError("faithful lift needs balanced numerical data")
    rows: list[tuple[int, ...]] = []
    cases: list[str] = []
    chosen: list[int] = []
    for i, alpha in enumerate(nd.markings, start=1):
        if override and i in override:
            row = tuple(int(x) for x in override[i])
            if len(row) != nd.k + 1 or step.push_vector(row) != alpha:
                raise ValueError(
                    f"override for marking {i} does not push forward to {alpha}"
                )
            rows.append(row)
            cases.append("override")
            chosen.append(0)
            continue
        on_center = [(alpha[j - 1], j) for j in step.center]
        nonneg = [(v, j) for v, j in on_center if v >= 0]
        if nonneg:
            val, l = min(nonneg)
            cases.append("case1")
        else:
            val, negl = max((v, -j) for v, j in on_center)
            l = -negl
            cases.append("case2")
        chosen.append(l)
        a_l = alpha[l - 1]
        row = (a_l,) + tuple(
            alpha[j - 1] - (a_l if j in step.center else 0) for j in range(1, nd.k + 1)
        )
        rows.append(row)
    degrees = tuple(sum(r[j] for r in rows) for j in range(nd.k + 1))
    lifted = NumericalData(nd.k + 1, degrees, tuple(rows), nd.genus)
    if step.push_vector(degrees) != nd.degrees:
        raise ArithmeticError("lifted degrees do not push forward to the degrees")
    if any(step.push_vector(r) != a for r, a in zip(rows, nd.markings)):
        raise ArithmeticError("a lifted marking does not push forward to its marking")
    return LiftedData(
        step=step,
        nd=lifted,
        cases=tuple(cases),
        chosen=tuple(chosen),
        mult_before=tuple(_multiplicity(a) for a in nd.markings),
        mult_after=tuple(_multiplicity(r) for r in rows),
    )


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
        lifted = faithful_lift(current, J)
        steps.append(lifted.step)
        current = lifted.nd


@dataclass(frozen=True)
class Subdivision:
    """A simplicial fan refining the orthant, given by rays and ray-index cones."""

    k: int
    rays: tuple[tuple[int, ...], ...]
    cones: tuple[tuple[int, ...], ...]

    def rays_in_face(self, J: Sequence[int]) -> set[tuple[int, ...]]:
        """Primitive rays supported on the coordinate face J, in J-coordinates."""
        face = set(J)
        out = set()
        for r in self.rays:
            support = {j + 1 for j, x in enumerate(r) if x}
            if support and support <= face:
                out.add(primitive([r[j - 1] for j in J]))
        return out


def subdivision(
    k: int, rays: Sequence[Sequence[int]], cones: Sequence[Sequence[int]]
) -> Subdivision:
    """Validate and normalize a fan of unimodular cones on the orthant.

    Rays are normalized to primitive vectors; every coordinate axis must
    appear (any refinement of the orthant keeps its one-dimensional faces)
    and every cone must be unimodular. Full coverage of the orthant is the
    caller's responsibility.
    """
    prim = []
    for r in rays:
        v = tuple(int(x) for x in r)
        if len(v) != k or any(x < 0 for x in v) or all(x == 0 for x in v):
            raise ValueError(f"ray {r} is not a nonzero nonnegative vector of length {k}")
        prim.append(primitive(v))
    if len(set(prim)) != len(prim):
        raise ValueError("duplicate rays after normalization")
    for j in range(k):
        axis = tuple(1 if i == j else 0 for i in range(k))
        if axis not in prim:
            raise ValueError(f"missing coordinate axis ray {axis}")
    norm_cones = []
    for cone in cones:
        idx = tuple(sorted(set(int(i) for i in cone)))
        if any(i < 0 or i >= len(prim) for i in idx):
            raise ValueError(f"cone {cone} references a missing ray")
        if not is_unimodular([prim[i] for i in idx]):
            raise ValueError(f"cone {cone} is not unimodular")
        norm_cones.append(idx)
    return Subdivision(k, tuple(prim), tuple(sorted(set(norm_cones))))


def trivial_subdivision(k: int) -> Subdivision:
    rays = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
    return subdivision(k, rays, [tuple(range(k))])


def barycentric_subdivision(k: int) -> Subdivision:
    """Rays are indicators of nonempty subsets; cones are subset flags."""
    subsets = [
        s
        for size in range(1, k + 1)
        for s in itertools.combinations(range(1, k + 1), size)
    ]
    index = {s: i for i, s in enumerate(subsets)}
    rays = [tuple(1 if j in s else 0 for j in range(1, k + 1)) for s in subsets]
    cones = []
    for perm in itertools.permutations(range(1, k + 1)):
        chain = [tuple(sorted(perm[: i + 1])) for i in range(k)]
        cones.append(tuple(index[s] for s in chain))
    return subdivision(k, rays, cones)


def _restrict_data(nd: NumericalData, J: tuple[int, int]) -> NumericalData:
    return NumericalData(
        2,
        tuple(nd.degrees[j - 1] for j in J),
        tuple(tuple(a[j - 1] for j in J) for a in nd.markings),
        nd.genus,
    )


def _restrict_model(tm: TargetModel, J: tuple[int, int]) -> TargetModel:
    merged: dict[frozenset, list[tuple[tuple[int, ...], str]]] = {}
    seen: dict[frozenset, set] = {}
    for face, classes in tm.strata:
        rf = frozenset(
            idx + 1 for idx, j in enumerate(J) if j in face
        )
        merged.setdefault(rf, [])
        seen.setdefault(rf, set())
        for p, lab in classes:
            rp = tuple(p[j - 1] for j in J)
            if rp not in seen[rf]:
                seen[rf].add(rp)
                merged[rf].append((rp, lab))
    return target_model(2, {f: cls for f, cls in merged.items()})


def check_slope_sensitivity(
    nd: NumericalData, tm: TargetModel, subdiv: Subdivision
) -> dict:
    """Does the fan contain every rank-two edge slope as a face ray?

    For each pair of divisor directions, the data and model restrict to a
    rank-two problem; all edge slopes of its types lying in the (closed)
    positive quadrant must be rays of the fan supported on that coordinate
    face. Rank below two is vacuously sensitive. Enumeration bound failures
    propagate.
    """
    if subdiv.k != nd.k:
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
        rays_J = subdiv.rays_in_face(J)
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
    c: ConeComplex, trace: Sequence[Mapping | SubdivisionStep]
) -> tuple[ConeComplex, list[SubdivisionStep]]:
    steps = []
    current = c
    for entry in trace:
        if isinstance(entry, SubdivisionStep):
            center, new = entry.center, entry.new_ray
        else:
            center, new = tuple(entry["center"]), entry.get("new")
        current, step = star_subdivide(current, center, new_ray=new)
        steps.append(step)
    return current, steps


def compare_under_subdivision(
    c: ConeComplex,
    pd: PuncturingData,
    trace: Sequence[Mapping | SubdivisionStep],
    lifted_pd: PuncturingData,
) -> dict:
    """Refined class downstairs versus pushforward of the lifted one.

    The trace (star subdivisions with optional names for the new rays) is
    replayed on the complex; the lifted offsets live on the result. Reports
    both classes, the difference (pushed minus original), and equality.
    """
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
