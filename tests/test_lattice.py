"""Exact lattice helpers: primitive vectors, kernels, and unimodularity."""
import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import punctref
from punctref.lattice import is_unimodular, nullspace, primitive, rref


def test_primitive_clears_denominators_and_content():
    assert primitive((Fraction(1, 2), Fraction(-3, 4))) == (2, -3)
    assert primitive((4, -6, 0)) == (2, -3, 0)
    assert primitive((0, 0)) == (0, 0)


def test_rref_and_nullspace():
    rows = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(7)]]
    red, pivots = rref(rows)
    assert pivots == [0, 2]
    assert red == [[1, 2, 0], [0, 0, 1]]
    assert nullspace(rows, 3) == [[-2, 1, 0]]
    assert nullspace([], 2) == [[1, 0], [0, 1]]


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
