"""Newton-region backend: staircases, mediant insertion, and cross-checks."""
import random
from fractions import Fraction

import pytest

from punctref.aluffi import (
    AluffiDomainError,
    _edge_normals,
    _staircase_vertices,
    principalize_newton,
    segre_newton,
)
from punctref.conecx import build_complex
from punctref.puncture import monomial_ideal, normalized_ideal, segre_class

from conftest import random_complex


def test_newton_names_new_rays_past_the_base_ids():
    # the base already holds e0 and e2, so the new rays are e1, e3, e4, ...
    c = build_complex(["e0", "e2"], [["e0", "e2"]])
    ideal = monomial_ideal(c, [{"e0": 3, "e2": 1}, {"e0": 1, "e2": 4}])
    trace = principalize_newton(c, ideal)[1]
    assert len(trace) >= 3
    assert [s.new_ray for s in trace] == ["e1"] + [
        f"e{k}" for k in range(3, len(trace) + 2)
    ]


def test_staircase_drops_dominated_points():
    assert _staircase_vertices({(2, 0), (0, 1), (5, 5)}) == [(0, 1), (2, 0)]
    assert _staircase_vertices({(2, 2), (1, 0)}) == [(1, 0)]


def test_staircase_keeps_strict_vertices():
    chain = _staircase_vertices({(3, 0), (0, 2), (1, 1)})
    assert chain == [(0, 2), (1, 1), (3, 0)]
    assert _edge_normals(chain) == [(1, 1), (1, 2)]


def test_edge_normals_reject_a_rising_chain():
    with pytest.raises(ArithmeticError, match="not positive"):
        _edge_normals([(0, 0), (1, 1)])


def test_staircase_flattens_collinear_points():
    # (1, 1) lies on the segment from (0, 2) to (2, 0): one edge, one normal.
    chain = _staircase_vertices({(0, 2), (1, 1), (2, 0)})
    assert chain == [(0, 2), (2, 0)]
    assert _edge_normals(chain) == [(1, 1)]


def test_principalize_newton_single_mediant():
    c = build_complex(["x", "y"], [["x", "y"]])
    ideal = monomial_ideal(c, [{"x": 1}, {"y": 1}])
    c2, trace, total = principalize_newton(c, ideal)
    assert len(trace) == 1
    assert total.as_dict() == {trace[0].new_ray: Fraction(1)}


def test_principalize_newton_stern_brocot_path():
    c = build_complex(["x", "y"], [["x", "y"]])
    ideal = monomial_ideal(c, [{"x": 2}, {"y": 1}])
    c2, trace, total = principalize_newton(c, ideal)
    assert [s.center for s in trace] == [("x", "y"), ("e0", "y")]
    assert total.as_dict() == {"e0": Fraction(1), "e1": Fraction(2)}
    assert c2.has_cone(("e0", "e1"))


def test_principalize_newton_principal_chart_is_noop(p2):
    ideal = normalized_ideal(p2.complex, p2.offsets)
    c2, trace, total = principalize_newton(p2.complex, ideal)
    assert trace == ()
    assert total.as_dict() == {"Z0": Fraction(1)}


def test_newton_rejects_high_dimension():
    c = build_complex(["a", "b", "c"], [["a", "b", "c"]])
    ideal = monomial_ideal(c, [{"a": 1}])
    with pytest.raises(AluffiDomainError):
        principalize_newton(c, ideal)


def test_segre_newton_matches_resolution_on_fixtures(p2, f1, f1ce):
    for fx in (p2, f1, f1ce):
        ideal = normalized_ideal(fx.complex, fx.offsets)
        dim = fx.complex.dim()
        assert segre_newton(fx.complex, ideal, dim) == segre_class(
            fx.complex, ideal, max_codim=dim
        )


def test_segre_newton_matches_resolution_seeded():
    rng = random.Random(20260816)
    for _ in range(25):
        c = random_complex(rng)
        gens = []
        for _ in range(rng.randint(1, 3)):
            vals = {
                r: rng.randint(0, 3) for r in c.ray_ids if rng.random() < 0.7
            }
            gens.append({r: v for r, v in vals.items() if v})
        if not gens or not any(gens):
            gens = [{c.ray_ids[0]: 1}]
        ideal = monomial_ideal(c, gens)
        assert segre_newton(c, ideal, 2) == segre_class(c, ideal, max_codim=2)


@pytest.mark.ladder
@pytest.mark.parametrize("n", [1000, 5000, 10001])
def test_crosscheck_matches_resolution_on_large_offset_charts(n):
    """(a^N b, a^2 b^5) on the 2-ray chart: the resolution backend takes 128
    steps at N = 1000 and 2503 at N = 10001; the newton backend pushes its
    own trace down through the public pushforward."""
    c = build_complex(["a", "b"], [["a", "b"]])
    ideal = monomial_ideal(c, [{"a": n, "b": 1}, {"a": 2, "b": 5}])
    expected = segre_class(c, ideal)
    assert segre_class(c, ideal, backend="aluffi-crosscheck") == expected
