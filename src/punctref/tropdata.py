"""The data of a genus-zero punctured-map problem and of its tropical types.

Numerical data (degrees and tangency vectors), the target model of admissible
vertex classes per face, the vertex and edge decorations of a tropical type,
the puncturing offsets on a cone complex, the errors of enumeration, assembly
and principalization, and the degree shift to positive tangency. Enumeration
and assembly live in ``tropmaps``, the classes of the offsets in
``puncture``; a caller that only reads or checks data loads neither.
"""
from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .conecx import PLFunction, _Record, pl_function

__all__ = [
    "NumericalData", "TargetModel", "VertexDecor", "EdgeDecor", "TropicalType",
    "PuncturingData", "EnumerationBoundError", "BalancingError",
    "NonSmoothConeError", "PrincipalizationError", "numerical_data",
    "target_model", "validate_numerical_data", "positivize", "puncturing_data",
]


class EnumerationBoundError(RuntimeError):
    """Enumeration cannot certify completeness; never silent."""


class BalancingError(ValueError):
    """A decorated graph admits no consistent slope assignment."""


class NonSmoothConeError(RuntimeError):
    """A type cone is not simplicial-unimodular; carries the offending type."""

    def __init__(self, message: str, tp: "TropicalType"):
        super().__init__(message)
        self.type = tp


class PrincipalizationError(RuntimeError):
    """Raised when principalization exhausts its step budget or ends while
    a generator pair still crosses, or when the Segre class it feeds could
    pass ``puncture.MAX_SEGRE_TERMS`` terms.

    The budget is not a proof of a bug: the step count grows with the
    offsets. On the 2-ray chart with offsets (a^N b, a^2 b^5), normalized
    per ray, the rule takes 128 steps at N = 1000, 1250 at N = 9990 and 2503
    at both N = 10001 and N = 20000, and N = 40001 exhausts ``puncture.MAX_STEPS``.
    """


class NumericalData(_Record):
    """Degrees and tangency vectors of a genus-zero punctured-map problem."""

    def __init__(self, k: int, degrees: tuple[int, ...],
                 markings: tuple[tuple[int, ...], ...], genus: int = 0) -> None:
        if genus != 0:
            raise ValueError("only genus zero is supported")
        if len(degrees) != k:
            raise ValueError("degree vector length differs from k")
        for a in markings:
            if len(a) != k:
                raise ValueError("marking vector length differs from k")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "markings", markings)
        object.__setattr__(self, "genus", genus)

    @property
    def ordinary(self) -> tuple[int, ...]:
        return tuple(
            i + 1 for i, a in enumerate(self.markings) if all(x >= 0 for x in a)
        )

    @property
    def punctures(self) -> tuple[int, ...]:
        return tuple(
            i + 1 for i, a in enumerate(self.markings) if any(x < 0 for x in a)
        )

    def rank(self, i: int) -> int:
        """Number of negative tangency coordinates of marking i (1-based)."""
        if not 1 <= i <= len(self.markings):
            raise ValueError(f"marking index {i} outside 1..{len(self.markings)}")
        return sum(1 for x in self.markings[i - 1] if x < 0)

    @property
    def k_P(self) -> int:
        return sum(self.rank(i) for i in range(1, len(self.markings) + 1))


def numerical_data(
    k: int, degrees: Iterable[int], markings: Iterable[Iterable[int]]
) -> NumericalData:
    return NumericalData(
        k, tuple(int(x) for x in degrees), tuple(tuple(int(x) for x in a) for a in markings)
    )


def validate_numerical_data(nd: NumericalData) -> dict:
    """Check global balancing and report the marking partition and ranks."""
    violations = [
        j + 1
        for j in range(nd.k)
        if sum(a[j] for a in nd.markings) != nd.degrees[j]
    ]
    ranks = {i: nd.rank(i) for i in range(1, len(nd.markings) + 1)}
    return {
        "ok": not violations,
        "violations": violations,
        "O": list(nd.ordinary),
        "P": list(nd.punctures),
        "k_i": ranks,
        "k_P": nd.k_P,
        "virtual_codimension": nd.k_P,
    }


_Classes = tuple[tuple[tuple[int, ...], str], ...]
"""The (pairing vector, label) pairs of the classes listed at one face."""


class TargetModel(_Record):
    """Admissible vertex classes per face of the orthant, as pairing vectors."""

    def __init__(self, k: int, strata: tuple[tuple[frozenset, _Classes], ...]) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "strata", strata)

    def classes_at(self, face: frozenset) -> _Classes:
        for f, classes in self.strata:
            if f == face:
                return classes
        return ()


def target_model(
    k: int,
    strata: Mapping[frozenset, Sequence[tuple[Sequence[int], str]]]
    | Sequence[tuple[Iterable[int], Sequence[tuple[Sequence[int], str]]]],
) -> TargetModel:
    items = strata.items() if isinstance(strata, Mapping) else strata
    rows = []
    for face, classes in items:
        fs = frozenset(int(j) for j in face)
        if any(j < 1 or j > k for j in fs):
            raise ValueError(f"face {sorted(fs)} outside 1..{k}")
        if any(fs == f for f, _ in rows):
            raise ValueError(f"face {sorted(fs)} listed twice")
        cl = tuple((tuple(int(x) for x in p), str(lab)) for p, lab in classes)
        for p, _ in cl:
            if len(p) != k:
                raise ValueError("pairing vector length differs from k")
        rows.append((fs, cl))
    rows.sort(key=lambda r: (len(r[0]), sorted(r[0])))
    return TargetModel(k, tuple(rows))


class VertexDecor(_Record):
    def __init__(self, face: frozenset, pairing: tuple[int, ...], label: str,
                 legs: tuple[int, ...]) -> None:
        object.__setattr__(self, "face", face)
        object.__setattr__(self, "pairing", pairing)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "legs", legs)


class EdgeDecor(_Record):
    def __init__(self, ends: tuple[int, int], face: frozenset,
                 slope: tuple[int, ...]) -> None:
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "face", face)
        object.__setattr__(self, "slope", slope)


class TropicalType(_Record):
    def __init__(self, k: int, vertices: tuple[VertexDecor, ...],
                 edges: tuple[EdgeDecor, ...]) -> None:
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)


def positivize(nd: NumericalData) -> NumericalData:
    """Zero out puncture tangencies and absorb them into the degrees."""
    markings = tuple(tuple(max(x, 0) for x in a) for a in nd.markings)
    degrees = tuple(
        nd.degrees[j] - sum(min(a[j], 0) for a in nd.markings) for j in range(nd.k)
    )
    return NumericalData(nd.k, degrees, markings, nd.genus)


class PuncturingData(_Record):
    """Puncturing offsets: one nonnegative integer PL function per negative direction.

    Offset ids follow the "p{i}.{j}" convention for marking i, coordinate j,
    but any distinct ids are accepted.
    """

    def __init__(self, offsets: tuple[tuple[str, PLFunction], ...]) -> None:
        ids = [pid for pid, _ in offsets]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate puncture ids in offsets")
        for pid, f in offsets:
            if not f.nonnegative:
                raise ValueError(f"offset {pid!r} takes a negative value")
            for rid, v in f.values:
                if v.denominator != 1:
                    raise ValueError(f"offset {pid!r} is not integral at ray {rid!r}")
        object.__setattr__(self, "offsets", offsets)

    @property
    def k_P(self) -> int:
        return len(self.offsets)


def puncturing_data(offsets: Mapping[str, Mapping[str, int]]) -> PuncturingData:
    """Build puncturing data from an id -> (ray -> value) mapping."""
    items = tuple(
        (pid, pl_function(vals)) for pid, vals in sorted(offsets.items())
    )
    return PuncturingData(items)
