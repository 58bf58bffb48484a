"""Exact integer linear algebra: primitive vectors, rank, kernels, and the
unimodularity test for simplicial cones, all over one fraction-free
elimination routine."""
from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Sequence

__all__ = ["primitive", "rank", "kernel", "is_unimodular"]


def primitive(vec: Sequence[int]) -> tuple[int, ...]:
    """The primitive integer vector on the ray of an integer vector; the zero
    vector maps to itself."""
    g = gcd(*vec)
    return tuple(x // g for x in vec) if g else tuple(vec)


def _eliminate(rows: Sequence[Sequence[int]], n: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of an integer matrix
    with n columns: the nonzero rows of d * RREF, d the last pivot, and the
    pivot columns. Every entry is a minor of the input, so each division is
    exact, and every pivot entry of the result equals d."""
    mat = [list(r) for r in rows]
    pivots: list[int] = []
    d = 1
    for c in range(n):
        r = len(pivots)
        if r == len(mat):
            break
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        mat[r], mat[p] = mat[p], mat[r]
        top = mat[r]
        piv = top[c]
        for i, row in enumerate(mat):
            if i != r:
                f = row[c]
                mat[i] = [(piv * x - f * y) // d for x, y in zip(row, top)]
        pivots.append(c)
        d = piv
    return mat[: len(pivots)], pivots


def rank(rows: Sequence[Sequence[int]], n: int) -> int:
    """Rank of an integer matrix with n columns."""
    return len(_eliminate(rows, n)[1])


def kernel(rows: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """An integer basis of the kernel of the matrix with n columns, one vector
    per free column: d there and minus the row's entry at each pivot column."""
    red, pivots = _eliminate(rows, n)
    d = red[0][pivots[0]] if pivots else 1
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        vec = [0] * n
        vec[fc] = d
        for row, pc in zip(red, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def is_unimodular(vectors: Sequence[Sequence[int]]) -> bool:
    """True if the integer vectors span a unimodular simplicial cone.

    That holds exactly when the gcd of the maximal minors is 1, which is the
    product of the Smith invariants. Each nonzero minor is the last pivot of
    its square block up to sign. A dependent set has only zero minors, and
    so fails too; the empty set spans the unimodular zero cone.
    """
    m = len(vectors)
    if not m:
        return True
    g = 0
    for cols in combinations(range(len(vectors[0])), m):
        red, pivots = _eliminate([[v[j] for j in cols] for v in vectors], m)
        if len(pivots) == m:
            g = gcd(g, red[-1][-1])
            if g == 1:
                return True
    return False
