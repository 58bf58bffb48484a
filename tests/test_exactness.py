"""Coefficients stay exact: ints while integral, Fractions only after a division."""
import random
from fractions import Fraction

import pytest

from punctref.chowring import ray_class, reduce
from punctref.conecx import PLFunction, build_complex, pl_function
from punctref.gerby import (
    check_pushforward_identity,
    root_pushforward,
    rooting_data,
    twist_complex,
)
from punctref.puncture import normalized_ideal, refined_class, segre_class

from conftest import FIXTURE_NAMES, load, p2_data_model, pr_data_model, random_puncturing


def coefficient_types(cls):
    return {type(v) for _, v in cls.terms}


def check_integral_classes(c, pd):
    refined = refined_class(c, pd).cls
    segre = segre_class(c, normalized_ideal(c, pd))
    assert coefficient_types(refined) <= {int}
    assert coefficient_types(segre) <= {int}
    return refined, segre


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_classes_have_int_coefficients(name):
    fx = load(name)
    refined, segre = check_integral_classes(fx.complex, fx.offsets)
    assert refined.terms and segre.terms
    for _, f in fx.offsets.offsets:
        assert {type(v) for _, v in f.values} <= {int}


def test_random_chart_classes_have_int_coefficients():
    nonzero = 0
    for seed in range(120):
        c, pd = random_puncturing(random.Random(seed))
        refined, _ = check_integral_classes(c, pd)
        nonzero += not refined.is_zero()
    assert nonzero >= 100


@pytest.mark.parametrize(
    "name, data_model, roots",
    [("pr-hyperplane", pr_data_model, [3]), ("p2-two-lines", p2_data_model, [5, 7])],
)
def test_gerby_identity_divides_only_in_the_root_pushforward(name, data_model, roots):
    rd = rooting_data(roots)
    report = check_pushforward_identity(*data_model(), rd)
    assert report["equal"]
    assert all(t["coeff"].endswith("/1") for t in report["lhs"])
    assert not any(t["coeff"].endswith("/1") for t in report["rhs"])
    fx = load(name)
    twisted_pd, scaling = twist_complex(fx.complex, fx.offsets, rd)
    upstairs = refined_class(fx.complex, twisted_pd).cls
    assert coefficient_types(upstairs) == {int}
    assert coefficient_types(root_pushforward(upstairs, scaling, fx.complex)) == {Fraction}


def test_floats_convert_exactly_at_the_public_entries():
    c = build_complex(["a", "b"], [["a", "b"]])
    f = pl_function({"a": 0.5, "b": 2.0})
    assert f.get("a") == Fraction(1, 2) and type(f.get("a")) is Fraction
    assert f.get("b") == 2 and type(f.get("b")) is int
    assert type(PLFunction((("a", Fraction(4, 2)),)).get("a")) is int
    cls = reduce([({"a": 1}, 0.5), ({"b": 1}, 3.0)], c)
    assert cls.terms == (((("a", 1),), Fraction(1, 2)), ((("b", 1),), 3))
    assert coefficient_types(cls) == {Fraction, int}
    half = ray_class(c, "a").scale(0.5)
    assert half.terms == (((("a", 1),), Fraction(1, 2)),)
    assert coefficient_types(ray_class(c, "a").scale(2.0)) == {int}


def test_reduce_accepts_every_monomial_form():
    c = build_complex(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    expected = reduce([({"a": 2, "b": 1}, 3), ({"c": 1}, -1)], c)
    normalized = reduce([((("a", 2), ("b", 1)), 3), ((("c", 1),), -1)], c)
    swapped = (("b", 1), ("a", 2))
    unsorted = reduce([(swapped, 1), (swapped, 2), ((("c", 1),), -1)], c)
    assert normalized == expected and unsorted == expected
    assert coefficient_types(expected) == {int}
    # (a, c) is not a cone, so the monomial dies in any form
    assert reduce([((("c", 1), ("a", 1)), 4)], c).is_zero()
    # a ray repeated in a pair tuple adds its exponents
    assert reduce([((("a", 1), ("a", 1)), 1)], c) == reduce([({"a": 2}, 1)], c)
    repeated = reduce([((("b", 1), ("a", 1), ("b", 2)), 3)], c)
    assert repeated.terms == (((("a", 1), ("b", 3)), 3),)
