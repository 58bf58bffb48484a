"""Root-stack twisting of puncturing data and the pushforward identity.

Rooting the target along its divisors with orders r_1..r_k refines the ray
lattice chartwise: each ray acquires a scaling c_rho (the least common
rescaling that keeps every twisted offset integral), offsets divide by r_j,
and pushing the twisted refined class back down multiplies each monomial by
the inverse scalings. The headline identity says the result is the original
refined class times 1 / prod_j r_j^{n_j}, with n_j the number of punctures
in direction j.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .chowring import ChowClass, reduce as chow_reduce, serialize
from .conecx import ConeComplex, _Record
from .puncture import refined_class
from .tropdata import NumericalData, PuncturingData, TargetModel, puncturing_data

__all__ = [
    "RootingData",
    "rooting_data",
    "derive_source_roots",
    "validate_rooting",
    "twist_complex",
    "root_pushforward",
    "root_pullback",
    "check_pushforward_identity",
    "check_pushforward_identity_on_complex",
]

_OFFSET_ID = re.compile(r"^p(\d+)\.(\d+)$")


class RootingData(_Record):
    """Rooting orders r_j per target divisor, optional source orders s_i."""

    def __init__(self, target_roots: tuple[int, ...],
                 source_roots: Optional[tuple[int, ...]] = None) -> None:
        if not target_roots or any(not isinstance(r, int) or r < 1 for r in target_roots):
            raise ValueError("target roots must be positive integers")
        if source_roots is not None and any(
            not isinstance(s, int) or s < 1 for s in source_roots
        ):
            raise ValueError("source roots must be positive integers")
        object.__setattr__(self, "target_roots", target_roots)
        object.__setattr__(self, "source_roots", source_roots)


def rooting_data(
    target_roots: Sequence[int], source_roots: Optional[Sequence[int]] = None
) -> RootingData:
    return RootingData(
        tuple(int(r) for r in target_roots),
        None if source_roots is None else tuple(int(s) for s in source_roots),
    )


def derive_source_roots(nd: NumericalData, target_roots: Sequence[int]) -> tuple[int, ...]:
    """Minimal source orders: s_i = lcm_j r_j / gcd(r_j, a_ij) over the
    divisors the marking touches."""
    out = []
    for alpha in nd.markings:
        touched = [j for j in range(nd.k) if alpha[j] != 0]
        s = 1
        for j in touched:
            s = lcm(s, target_roots[j] // gcd(target_roots[j], abs(alpha[j])))
        out.append(s)
    return tuple(out)


def validate_rooting(nd: NumericalData, rd: RootingData) -> dict:
    """Check divisibility, coprimality (minimality of s), and size bounds.

    Violations carry the condition name and the (marking, divisor) pair. The
    size condition r_j > |a_ij| is advisory for the pushforward identity and
    is also reported separately as warnings.
    """
    if len(rd.target_roots) != nd.k:
        raise ValueError("need one target root per divisor direction")
    minimal = derive_source_roots(nd, rd.target_roots)
    source = rd.source_roots if rd.source_roots is not None else minimal
    if len(source) != len(nd.markings):
        raise ValueError("need one source root per marking")
    violations = []
    for i, alpha in enumerate(nd.markings, start=1):
        s = source[i - 1]
        for j in range(1, nd.k + 1):
            a = alpha[j - 1]
            r = rd.target_roots[j - 1]
            if a == 0:
                continue
            if (a * s) % r != 0:
                violations.append(
                    {
                        "condition": "divisibility",
                        "marking": i,
                        "divisor": j,
                        "detail": f"r_{j} = {r} does not divide a*s = {a * s}",
                    }
                )
            if r <= abs(a):
                violations.append(
                    {
                        "condition": "size",
                        "marking": i,
                        "divisor": j,
                        "detail": f"r_{j} = {r} <= |a_{i}{j}| = {abs(a)}",
                    }
                )
        if s != minimal[i - 1]:
            violations.append(
                {
                    "condition": "coprimality",
                    "marking": i,
                    "divisor": 0,
                    "detail": f"s_{i} = {s} is not the minimal choice {minimal[i - 1]}",
                }
            )
    warnings = [v for v in violations if v["condition"] == "size"]
    return {
        "ok": not violations,
        "violations": violations,
        "source_roots": tuple(source),
        "size_warnings": warnings,
    }


def _checked_rooting(nd: NumericalData, rd: RootingData) -> dict:
    """validate_rooting's report; ValueError on any violation but size."""
    report = validate_rooting(nd, rd)
    hard = [v for v in report["violations"] if v["condition"] != "size"]
    if hard:
        raise ValueError(f"rooting data invalid: {hard}")
    return report


def _offset_direction(offset_id: str) -> tuple[int, int]:
    m = _OFFSET_ID.match(offset_id)
    if not m:
        raise ValueError(
            f"offset id {offset_id!r} does not follow the p<marking>.<divisor> convention"
        )
    return int(m.group(1)), int(m.group(2))


def twist_complex(
    c: ConeComplex, pd: PuncturingData, rd: RootingData
) -> tuple[PuncturingData, dict[str, int]]:
    """Offsets and ray scalings on the rooted target.

    Each ray is rescaled by c_rho = lcm of r_j / gcd(r_j, f(rho)) over the
    offsets not vanishing there, after which every twisted offset value
    c_rho * f(rho) / r_j is a nonnegative integer. The combinatorial complex
    is unchanged, so the twisted offsets live on c; the scaling dictionary
    carries the lattice refinement.
    """
    roots = rd.target_roots
    directions = {}
    for oid, _ in pd.offsets:
        _, j = _offset_direction(oid)
        if j < 1 or j > len(roots):
            raise ValueError(f"offset {oid} names divisor {j} outside the rooting data")
        directions[oid] = j
    scaling: dict[str, int] = {}
    for rid in c.ray_ids:
        m = 1
        for oid, f in pd.offsets:
            v = f.get(rid)
            if v:
                r = roots[directions[oid] - 1]
                m = lcm(m, r // gcd(r, v))
        scaling[rid] = m
    twisted: dict[str, dict[str, int]] = {}
    for oid, f in pd.offsets:
        r = roots[directions[oid] - 1]
        vals = {}
        for rid in c.ray_ids:
            v = f.get(rid)
            if v:
                num = scaling[rid] * v
                if num % r:
                    raise ArithmeticError(f"twisted offset {num}/{r} is not integral")
                vals[rid] = num // r
        twisted[oid] = vals
    return puncturing_data(twisted), scaling


def root_pushforward(a: ChowClass, scaling: dict[str, int], target: ConeComplex) -> ChowClass:
    """Push a class on the rooted complex down: monomials persist, each ray
    exponent contributes the inverse scaling c_rho^-e."""
    terms = []
    for mono, coeff in a.terms:
        den = 1
        for rid, e in mono:
            den *= scaling[rid] ** e
        terms.append((mono, Fraction(coeff, den)))
    return chow_reduce(terms, target)


def root_pullback(a: ChowClass, scaling: dict[str, int], source: ConeComplex) -> ChowClass:
    """Pull a class back to the rooted complex: x_rho = c_rho * x~_rho."""
    terms = []
    for mono, coeff in a.terms:
        for rid, e in mono:
            coeff *= scaling[rid] ** e
        terms.append((mono, coeff))
    return chow_reduce(terms, source)


def _observed_factor(rhs: ChowClass, lhs: ChowClass) -> Optional[Fraction]:
    if not lhs.terms or not rhs.terms:
        return None
    if [m for m, _ in lhs.terms] != [m for m, _ in rhs.terms]:
        return None
    ratios = {Fraction(cr) / Fraction(cl) for (_, cl), (_, cr) in zip(lhs.terms, rhs.terms)}
    return ratios.pop() if len(ratios) == 1 else None


def check_pushforward_identity_on_complex(
    c: ConeComplex, pd: PuncturingData, rd: RootingData, backend: str = "resolution"
) -> dict:
    """The pushforward identity on an explicit complex with offsets: both
    sides, the observed and the expected factor, and no size warnings.

    The puncture count per direction is read off the offset ids, so offsets
    must follow the p<marking>.<divisor> naming convention. Without numerical
    data there is nothing to check source roots against, so a rooting that
    carries them raises ValueError.
    """
    if rd.source_roots is not None:
        raise ValueError("source roots s need numerical data to check against")
    n_by_direction: dict[int, int] = {}
    for oid, _ in pd.offsets:
        _, j = _offset_direction(oid)
        n_by_direction[j] = n_by_direction.get(j, 0) + 1
    lhs = refined_class(c, pd, backend=backend).cls
    twisted_pd, scaling = twist_complex(c, pd, rd)
    upstairs = refined_class(c, twisted_pd, backend=backend).cls
    rhs = root_pushforward(upstairs, scaling, c)
    expected = Fraction(1)
    for j, n in n_by_direction.items():
        expected /= Fraction(rd.target_roots[j - 1]) ** n
    factor = _observed_factor(rhs, lhs)
    return {
        "lhs": serialize(lhs),
        "rhs": serialize(rhs),
        "scaling": dict(sorted(scaling.items())),
        "factor": None if factor is None else str(factor),
        "expected_factor": str(expected),
        "equal": rhs == lhs.scale(expected),
        "size_warnings": [],
    }


def check_pushforward_identity(
    nd: NumericalData,
    tm: TargetModel,
    rd: RootingData,
    backend: str = "resolution",
) -> dict:
    """Enumerate, assemble, twist, and compare against the predicted factor.

    Divisibility or coprimality failures of the rooting data abort; size
    violations only annotate the report, since the identity holds regardless
    on the examples of record.
    """
    from .tropmaps import assemble_complex, enumerate_types

    report = _checked_rooting(nd, rd)
    types = enumerate_types(nd, tm)
    c, pd = assemble_complex(nd, types)
    out = check_pushforward_identity_on_complex(
        c, pd, RootingData(rd.target_roots), backend
    )
    out["size_warnings"] = report["size_warnings"]
    return out
