"""Exact integer and rational linear algebra: primitive vectors, row
reduction, kernels, and the unimodularity test for simplicial cones."""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Sequence

__all__ = ["primitive", "rref", "nullspace", "is_unimodular"]


def primitive(vec: Sequence[int | Fraction]) -> tuple[int, ...]:
    """The primitive integer vector on the ray of a rational vector; the zero
    vector maps to itself."""
    den = 1
    for x in vec:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g else tuple(ints)


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form without zero rows, and the pivot columns."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [x / pv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def nullspace(rows: list[list[Fraction]], n: int) -> list[list[Fraction]]:
    """A basis of the kernel of the matrix with n columns, one vector per free
    column."""
    if not rows:
        return [[Fraction(i == j) for j in range(n)] for i in range(n)]
    red, pivots = rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every division is exact, so entries stay integers."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def is_unimodular(vectors: Sequence[Sequence[int]]) -> bool:
    """True if the integer vectors span a unimodular simplicial cone.

    That holds exactly when the gcd of the maximal minors is 1, which is the
    product of the Smith invariants. A dependent set has only zero minors, and
    so fails too; the empty set spans the unimodular zero cone.
    """
    m = len(vectors)
    n = len(vectors[0]) if m else 0
    g = 0
    for cols in combinations(range(n), m):
        g = gcd(g, _det([[v[j] for j in cols] for v in vectors]))
        if g == 1:
            return True
    return g == 1
