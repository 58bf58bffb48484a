"""Newton-region backend: tied normals, Stern-Brocot paths, and cross-checks.

The staircase helpers are the references in ``conftest``; their rising-chain
refusal lives only there, since a tie-rule normal is positive by construction.
"""
import itertools
import random
from fractions import Fraction

import pytest

from punctref.aluffi import (
    AluffiDomainError,
    _newton_normals,
    principalize_newton,
    segre_newton,
)
from punctref.conecx import build_complex
from punctref.puncture import monomial_ideal, normalized_ideal, segre_class

from conftest import (
    FIXTURE_NAMES,
    load,
    random_complex,
    reference_edge_normals,
    reference_principalize_newton,
    reference_staircase_vertices,
)


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
    assert reference_staircase_vertices({(2, 0), (0, 1), (5, 5)}) == [(0, 1), (2, 0)]
    assert reference_staircase_vertices({(2, 2), (1, 0)}) == [(1, 0)]


def test_staircase_keeps_strict_vertices():
    chain = reference_staircase_vertices({(3, 0), (0, 2), (1, 1)})
    assert chain == [(0, 2), (1, 1), (3, 0)]
    assert reference_edge_normals(chain) == [(1, 1), (1, 2)]


def test_edge_normals_reject_a_rising_chain():
    with pytest.raises(ArithmeticError, match="not positive"):
        reference_edge_normals([(0, 0), (1, 1)])


def test_staircase_flattens_collinear_points():
    # (1, 1) lies on the segment from (0, 2) to (2, 0): one edge, one normal.
    chain = reference_staircase_vertices({(0, 2), (1, 1), (2, 0)})
    assert chain == [(0, 2), (2, 0)]
    assert reference_edge_normals(chain) == [(1, 1)]


def point_sets(side, sizes):
    """Every set of the given sizes of points in [0, side]^2."""
    grid = list(itertools.product(range(side + 1), repeat=2))
    for n in sizes:
        yield from map(set, itertools.combinations(grid, n))


def assert_newton_matches_reference(c, ideal):
    """The same complex, trace and total as the reference; steps compare by
    every field, the link included."""
    assert principalize_newton(c, ideal) == reference_principalize_newton(c, ideal)


def test_tied_normals_match_the_staircase_on_small_sets():
    for pts in point_sets(4, (1, 2, 3)):
        assert _newton_normals(pts) == reference_edge_normals(
            reference_staircase_vertices(pts)
        ), pts


def test_principalize_newton_matches_reference_on_fixtures_and_seeded_charts():
    for name in FIXTURE_NAMES:
        fx = load(name)
        assert_newton_matches_reference(fx.complex, normalized_ideal(fx.complex, fx.offsets))
    rng = random.Random(20261021)
    for _ in range(200):
        c = random_complex(rng)
        gens = []
        for _ in range(rng.randint(1, 4)):
            vals = {r: rng.randint(0, 6) for r in c.ray_ids if rng.random() < 0.7}
            gens.append({r: v for r, v in vals.items() if v})
        assert_newton_matches_reference(c, monomial_ideal(c, gens))


@pytest.mark.ladder
def test_principalize_newton_matches_reference_on_every_small_ideal():
    c = build_complex(["a", "b"], [["a", "b"]])
    for pts in point_sets(5, (1, 2, 3, 4)):
        ideal = monomial_ideal(c, [{"a": x, "b": y} for x, y in sorted(pts)])
        assert_newton_matches_reference(c, ideal)


@pytest.mark.ladder
@pytest.mark.parametrize("n", [1000, 5000, 10001])
def test_principalize_newton_matches_reference_on_large_offset_charts(n):
    """(a^N b, a^2 b^5) has one normal. b^20 adds a normal whose path shares
    the mediant (1, 1) with it, and a generator pair, b^20 and a^N b, that
    spans no edge."""
    c = build_complex(["a", "b"], [["a", "b"]])
    gens = [{"a": n, "b": 1}, {"a": 2, "b": 5}]
    assert_newton_matches_reference(c, monomial_ideal(c, gens))
    assert_newton_matches_reference(c, monomial_ideal(c, gens + [{"b": 20}]))


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
