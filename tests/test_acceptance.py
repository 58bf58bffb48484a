"""Acceptance gate: one test and one printed pass/fail line per criterion.

Everything runs in exact rational arithmetic, so every comparison below is
an equality check with zero tolerance. Runtime bounds are asserted where a
criterion states one.
"""
import functools
import random
import time
from fractions import Fraction

from punctref.blowups import compare_under_subdivision
from punctref.chowring import (
    multiply,
    pullback,
    pushforward,
    ray_class,
    reduce,
    truncate,
)
from punctref.gerby import check_pushforward_identity, rooting_data
from punctref.puncture import (
    normalized_ideal,
    refined_class,
    refined_class_excess,
    segre_class,
)
from punctref.tropdata import numerical_data, positivize
from punctref.tropmaps import (
    assemble_complex,
    canonical_key,
    cone_of_type,
    enumerate_types,
    positivize_type,
    realizable,
)

import conftest
from conftest import (
    lifts_by_case2,
    load,
    multiplicity,
    p2_data_model,
    pr_data_model,
    random_class,
    random_complex,
    random_step,
    random_triple,
    random_wide_ideal,
    seeded_segre,
)


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num}: FAIL  {label}")
                raise
            print(f"criterion {num}: PASS  {label}")

        return wrapper

    return deco


@criterion(1, "p2 refined class via general formula and excess shortcut, under 1s")
def test_criterion_1_p2_refined_both_formulas(p2):
    expected = reduce(
        [({"Z0": 2}, 1), ({"Z0": 1, "Z1": 1}, 1), ({"Z0": 1, "Z2": 1}, 1)],
        p2.complex,
    )
    t0 = time.monotonic()
    general = refined_class(p2.complex, p2.offsets).cls
    shortcut = refined_class_excess(p2.complex, p2.offsets, [("Z0",)])
    elapsed = time.monotonic() - t0
    assert general == expected
    assert shortcut == expected
    assert elapsed < 1.0


@criterion(2, "pr rank-one refined class and the k_P = 1 identity")
def test_criterion_2_pr_rank_one(pr):
    res = refined_class(pr.complex, pr.offsets)
    assert res.cls == ray_class(pr.complex, "ray1") + ray_class(pr.complex, "ray2")
    assert res.components == (("ray1",), ("ray2",))
    ideal = normalized_ideal(pr.complex, pr.offsets)
    assert res.cls == truncate(segre_class(pr.complex, ideal), 1)


@criterion(3, "f1 twelve-term refined class with pinned Segre intermediates, under 10s")
def test_criterion_3_f1_twelve_terms(f1):
    t0 = time.monotonic()
    res = refined_class(f1.complex, f1.offsets)
    ideal = normalized_ideal(f1.complex, f1.offsets)
    segre = segre_class(f1.complex, ideal)
    elapsed = time.monotonic() - t0
    expected = reduce(
        [
            ({"Z1": 2}, 3),
            ({"Z2": 2}, 1),
            ({"Z1": 1, "Z2": 1}, 4),
            ({"W0a": 1, "W0b": 1}, 1),
            ({"Z1": 1, "R1": 1}, 3),
            ({"Z1": 1, "R2": 1}, 1),
            ({"Z1": 1, "R3": 1}, 3),
            ({"Z1": 1, "R4": 1}, 1),
            ({"Z2": 1, "R5": 1}, 3),
            ({"Z2": 1, "R6": 1}, 1),
            ({"Z2": 1, "R7": 1}, 3),
            ({"Z2": 1, "R8": 1}, 1),
        ],
        f1.complex,
    )
    assert res.cls == expected
    assert len(res.cls.terms) == 12
    # resolution starts at the W0 ray pair, forced here by the center rule
    assert res.trace[0].center == ("W0a", "W0b")
    assert truncate(segre, 1) == reduce(
        [({"Z1": 1}, 1), ({"Z2": 1}, 1)], f1.complex
    )
    assert truncate(segre, 2) == reduce(
        [
            ({"Z1": 2}, -1),
            ({"Z2": 2}, -1),
            ({"Z1": 1, "Z2": 1}, -2),
            ({"W0a": 1, "W0b": 1}, 1),
        ],
        f1.complex,
    )
    assert elapsed < 10.0


@criterion(4, "counterexample: refined class is not preserved by the blowup")
def test_criterion_4_counterexample_inequality(f1ce):
    original = refined_class(f1ce.complex, f1ce.offsets).cls
    assert original == reduce([({"Z1": 2}, 1)], f1ce.complex)
    report = compare_under_subdivision(
        f1ce.complex, f1ce.offsets, f1ce.trace, f1ce.lifted_offsets
    )
    assert not report["equal"]
    pushed = {tuple(sorted(t["monomial"].items())): t["coeff"] for t in report["pushed"]}
    assert pushed == {
        (("Z1", 2),): "1/1",
        (("Z1", 1), ("Z2", 1)): "-1/1",
    }


@criterion(5, "gerby pushforward identity with the predicted rooting factors")
def test_criterion_5_gerby_factors():
    nd_pr, tm_pr = pr_data_model()
    for r in (2, 3, 5, 7):
        report = check_pushforward_identity(nd_pr, tm_pr, rooting_data([r]))
        assert report["equal"]
        assert report["factor"] == str(Fraction(1, r))
        assert report["expected_factor"] == str(Fraction(1, r))
    nd_p2, tm_p2 = p2_data_model()
    report = check_pushforward_identity(nd_p2, tm_p2, rooting_data([5, 7]))
    assert report["equal"]
    assert report["factor"] == "1/35"
    assert report["expected_factor"] == "1/35"


@criterion(6, "property suites at the stated scales")
def test_criterion_6_property_suites(small_lifts):
    # (a) pushforward after pullback is the identity, 1000 triples
    for seed in range(1000):
        rng = random.Random(seed)
        c, a, post, step = random_triple(rng)
        assert pushforward(pullback(a, step), step) == a

    # (b) Segre classes do not depend on the resolution order, 100 ideals
    for seed in range(100):
        rng = random.Random(seed)
        c, ideal = random_wide_ideal(rng)
        reference = segre_class(c, ideal)
        for choice_seed in (seed % 97, seed % 101 + 1):
            assert seeded_segre(c, ideal, choice_seed) == reference

    # (c) refined classes are homogeneous of degree k_P on the whole corpus
    for name in conftest.FIXTURE_NAMES:
        fx = load(name)
        res = refined_class(fx.complex, fx.offsets)
        assert res.cls.degrees() == (fx.offsets.k_P,)

    # (d) projection formula on random triples
    for seed in range(300):
        rng = random.Random(seed)
        c = random_complex(rng)
        post, step = random_step(rng, c)
        alpha = random_class(rng, c)
        beta = random_class(rng, post)
        lhs = pushforward(multiply(pullback(alpha, step), beta), step)
        rhs = multiply(alpha, pushforward(beta, step))
        assert lhs == rhs

    # (e) faithful-lift invariants, exhaustive entries in [-3, 3] for k <= 3
    lifts, stabilized = small_lifts
    checked = 0
    for alpha, center, step, lifted in lifts:
        row = lifted.markings[0]
        assert lifted.k == len(alpha) + 1
        # the lift pushes forward to the original tangency vector
        assert step.push_vector(row) == alpha
        # the marking keeps its sign class, with no more negative entries
        assert any(x < 0 for x in row) == any(x < 0 for x in alpha)
        assert sum(x < 0 for x in row) <= sum(x < 0 for x in alpha)
        # the exceptional entry a0 is the least nonnegative center
        # entry, or in Case 2 the largest, which moves the multiplicity
        # by (|center| - 1) a0
        a0, m0, m1 = row[0], multiplicity(alpha), multiplicity(row)
        if not lifts_by_case2(alpha, center):
            assert a0 == min(alpha[j - 1] for j in center if alpha[j - 1] >= 0)
        else:
            assert a0 == max(alpha[j - 1] for j in center) < 0
            assert m1 == m0 + (len(center) - 1) * a0
            if len(center) >= 2:
                assert m1 < m0
        checked += 1
    for alpha, stable, again, fixed in stabilized:
        assert all(stable.rank(i) <= 1 for i in range(1, len(stable.markings) + 1))
        assert again == ()
        assert fixed == stable
    assert checked == 7 + 49 * 3 + 343 * 7


@criterion(7, "enumerator finds the six types and rebuilds the p2 class from data")
def test_criterion_7_enumerator_end_to_end():
    nd, tm = p2_data_model()
    types = enumerate_types(nd, tm)
    assert len(types) == 6
    assert sorted(cone_of_type(nd, t).dim for t in types) == [0, 1, 1, 1, 2, 2]
    cx, pd = assemble_complex(nd, types)
    res = refined_class(cx, pd)
    expected = reduce(
        [({"r3": 2}, 1), ({"r1": 1, "r3": 1}, 1), ({"r2": 1, "r3": 1}, 1)],
        cx,
    )
    assert res.cls == expected


@criterion(8, "positivisation pins the shifted datum and the type bijection")
def test_criterion_8_positivisation():
    nd = numerical_data(1, (1,), [(4,), (-1,), (-2,)])
    pos = positivize(nd)
    assert pos.degrees == (4,)
    assert pos.markings == ((4,), (0,), (0,))
    for model in (p2_data_model, pr_data_model):
        nd, tm = model()
        nd_pos = positivize(nd)
        types = enumerate_types(nd, tm)
        images = set()
        for t in types:
            tp = positivize_type(nd, t)
            assert realizable(nd_pos, tp)
            images.add(canonical_key(tp))
        # the degree shift is injective on types, so the counts agree
        assert len(images) == len(types)
