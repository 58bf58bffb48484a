"""Exact lattice helpers: primitive vectors, rank, kernels, and unimodularity."""
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import punctref
from punctref.lattice import _eliminate, is_unimodular, kernel, primitive, rank


def test_primitive_clears_denominators_and_content():
    assert primitive((4, -6, 0)) == (2, -3, 0)
    assert primitive((0, 0)) == (0, 0)


def reference_rref(rows):
    """Reduced row echelon form over the rationals without zero rows, and
    the pivot columns."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
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


def reference_nullspace(rows, n):
    """A rational kernel basis, one vector per free column with 1 there."""
    if not rows:
        return [[Fraction(i == j) for j in range(n)] for i in range(n)]
    red, pivots = reference_rref(rows)
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def check_against_reference(rows, n):
    red, pivots = _eliminate(rows, n)
    ref_red, ref_pivots = reference_rref(rows)
    assert pivots == ref_pivots, rows
    assert rank(rows, n) == len(ref_pivots)
    d = red[-1][pivots[-1]] if pivots else 1
    assert red == [[d * x for x in r] for r in ref_red], rows
    kern = kernel(rows, n)
    ref = reference_nullspace(rows, n)
    assert len(kern) == len(ref) == n - len(pivots)
    for vec, ref_vec in zip(kern, ref):
        assert all(type(x) is int for x in vec)
        assert all(sum(a * b for a, b in zip(r, vec)) == 0 for r in rows)
        # ref_vec is 1 at its free column: vec is a nonzero multiple of it
        scale = next(x for x, y in zip(vec, ref_vec) if y == 1)
        assert scale != 0 and vec == [scale * y for y in ref_vec], rows


def test_elimination_on_every_small_matrix():
    for flat in itertools.product(range(-1, 2), repeat=6):
        check_against_reference([flat[:3], flat[3:]], 3)


def test_elimination_on_random_matrices():
    rng = random.Random(20)
    for _ in range(2000):
        m, n = rng.randint(0, 5), rng.randint(1, 6)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
        check_against_reference(rows, n)


def test_elimination_keeps_pinned_cases():
    assert _eliminate([[1, 2, 3], [2, 4, 7]], 3) == ([[1, 2, 0], [0, 0, 1]], [0, 2])
    assert kernel([[1, 2, 3], [2, 4, 7]], 3) == [[-2, 1, 0]]
    # the last pivot is 5: it scales every row and sits in the kernel vector
    rows = [[2, 1, 0], [1, 3, 1]]
    assert _eliminate(rows, 3) == ([[5, 0, -1], [0, 5, 2]], [0, 1])
    assert rank(rows, 3) == 2
    assert kernel(rows, 3) == [[1, -2, 5]]
    assert kernel([], 2) == [[1, 0], [0, 1]]
    assert kernel([[0, 0]], 2) == [[1, 0], [0, 1]]
    assert rank([], 2) == 0


def _sympy_is_unimodular(vectors):
    """Reference: full rank and every Smith invariant a unit."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form

    m = Matrix([list(v) for v in vectors])
    if m.rank() != len(vectors):
        return False
    snf = smith_normal_form(m.T)
    return all(abs(snf[i, i]) == 1 for i in range(len(vectors)))


@pytest.mark.parametrize(
    "rows, cols, entries",
    [
        (1, 3, range(-2, 3)),
        (2, 2, range(-2, 3)),
        (2, 3, range(-1, 2)),
        (3, 3, range(0, 2)),
    ],
)
def test_is_unimodular_matches_smith_normal_form(rows, cols, entries):
    pytest.importorskip("sympy")
    checked = 0
    for flat in itertools.product(entries, repeat=rows * cols):
        vectors = [flat[i * cols : (i + 1) * cols] for i in range(rows)]
        assert is_unimodular(vectors) == _sympy_is_unimodular(vectors), vectors
        checked += 1
    assert checked == len(entries) ** (rows * cols)


def test_import_does_not_load_sympy():
    src = os.path.dirname(os.path.dirname(punctref.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", "import punctref, sys; assert 'sympy' not in sys.modules"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
