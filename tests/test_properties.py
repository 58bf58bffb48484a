"""Invariant properties: blowup calculus, Segre independence, lift algebra."""
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from punctref.chowring import multiply, pullback, pushforward
from punctref.puncture import monomial_ideal, puncturing_data, refined_class, segre_class

import conftest
from conftest import (
    lifts_by_case2,
    multiplicity,
    random_class,
    random_complex,
    random_step,
    random_triple,
    random_wide_ideal,
    seeded_segre,
)

BULK = settings(derandomize=True, deadline=None, max_examples=150)


@BULK
@given(st.integers(0, 2**32 - 1))
def test_pushforward_after_pullback_is_identity(seed):
    rng = random.Random(seed)
    c, a, post, step = random_triple(rng)
    assert pushforward(pullback(a, step), step) == a


@BULK
@given(st.integers(0, 2**32 - 1))
def test_pushforward_is_linear(seed):
    rng = random.Random(seed)
    c = random_complex(rng)
    post, step = random_step(rng, c)
    a = random_class(rng, post)
    b = random_class(rng, post)
    assert pushforward(a, step) + pushforward(b, step) == pushforward(a + b, step)


@BULK
@given(st.integers(0, 2**32 - 1))
def test_pullback_is_a_ring_map(seed):
    rng = random.Random(seed)
    c = random_complex(rng)
    post, step = random_step(rng, c)
    a = random_class(rng, c)
    b = random_class(rng, c)
    assert pullback(a, step) + pullback(b, step) == pullback(a + b, step)
    assert multiply(pullback(a, step), pullback(b, step)) == pullback(
        multiply(a, b), step
    )


@BULK
@given(st.integers(0, 2**32 - 1))
def test_projection_formula(seed):
    rng = random.Random(seed)
    c = random_complex(rng)
    post, step = random_step(rng, c)
    alpha = random_class(rng, c)
    beta = random_class(rng, post)
    lhs = pushforward(multiply(pullback(alpha, step), beta), step)
    rhs = multiply(alpha, pushforward(beta, step))
    assert lhs == rhs


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_segre_is_independent_of_center_choices(seed):
    rng = random.Random(seed)
    c, ideal = random_wide_ideal(rng)
    reference = segre_class(c, ideal)
    for choice_seed in (seed % 97, seed % 101 + 1):
        assert seeded_segre(c, ideal, choice_seed) == reference


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_refined_class_is_homogeneous(seed):
    rng = random.Random(seed)
    cx = conftest.load(rng.choice(["p2-two-lines", "f1-counterexample"])).complex
    n_off = rng.randint(1, 2)
    offsets = {}
    for i in range(n_off):
        vals = {r: rng.randint(0, 3) for r in cx.ray_ids if rng.random() < 0.6}
        vals = {r: v for r, v in vals.items() if v}
        if not vals:
            vals = {sorted(cx.ray_ids)[0]: 1}
        offsets[f"p{i + 1}.1"] = vals
    pd = puncturing_data(offsets)
    res = refined_class(cx, pd)
    assert res.cls.is_zero() or res.cls.degrees() == (pd.k_P,)


def test_faithful_lift_exhaustive_small_entries(small_lifts):
    """Every vector with entries in [-3, 3] for k <= 3, every center."""
    checked = 0
    for alpha, center, step, lifted in small_lifts[0]:
        row = lifted.markings[0]
        assert step.push_vector(row) == alpha
        assert lifted.k == len(alpha) + 1
        # the marking partition is preserved
        assert (any(x < 0 for x in row)) == (any(x < 0 for x in alpha))
        m0, m1 = multiplicity(alpha), multiplicity(row)
        if not lifts_by_case2(alpha, center):
            a_l = row[0]
            assert a_l >= 0
            assert a_l == min(
                alpha[j - 1] for j in center if alpha[j - 1] >= 0
            )
        else:
            a_l = row[0]
            assert a_l < 0
            assert a_l == max(alpha[j - 1] for j in center)
            assert m1 == m0 + (len(center) - 1) * a_l
            if len(center) >= 2:
                assert m1 < m0
        checked += 1
    assert checked == 7 + 49 * 3 + 343 * 7


def test_stabilize_reaches_a_fixed_point_exhaustively(small_lifts):
    for alpha, stable, again, fixed in small_lifts[1]:
        assert all(
            stable.rank(i) <= 1 for i in range(1, len(stable.markings) + 1)
        )
        assert again == ()
        assert fixed == stable
