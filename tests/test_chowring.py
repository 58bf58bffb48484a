"""Stanley-Reisner arithmetic and the blowup pullback/pushforward pair."""
import random
from fractions import Fraction
from math import comb

import pytest

from punctref.chowring import (
    ChowClass,
    _blowdown_kernel,
    _finish,
    _mono_mul,
    _norm_monomial,
    _split_center,
    divisor_of_pl,
    multiply,
    pullback,
    pushforward,
    ray_class,
    reduce,
    serialize,
    stratum_class,
    truncate,
    unit,
    zero,
)
from punctref.conecx import build_complex, pl_function, star_subdivide
from punctref.puncture import (
    _power_series_part,
    normalized_ideal,
    principalize,
    puncturing_data,
    refined_class,
    segre_class,
)

from conftest import FIXTURE_NAMES, load


@pytest.fixture()
def square():
    # Two adjacent 2-cones; (a, c) is not a cone.
    return build_complex(["a", "b", "c"], [["a", "b"], ["b", "c"]])


def test_reduce_kills_non_cone_monomials(square):
    cls = reduce([({"a": 1, "c": 1}, 5), ({"a": 1, "b": 1}, 2)], square)
    assert cls.coeff({"a": 1, "c": 1}) == 0
    assert cls.coeff({"a": 1, "b": 1}) == 2


def test_reduce_merges_and_drops_zeros(square):
    cls = reduce([({"a": 1}, 3), ({"a": 1}, -3), ({"b": 1}, Fraction(1, 2))], square)
    assert cls.terms == (((("b", 1),), Fraction(1, 2)),)


def test_terms_sorted_graded_lex(square):
    cls = reduce([({"b": 2}, 1), ({"c": 1}, 1), ({"a": 1}, 1), ({}, 1)], square)
    monos = [m for m, _ in cls.terms]
    assert monos == [(), (("a", 1),), (("c", 1),), (("b", 2),)]


def test_algebra_operations(square):
    a = ray_class(square, "a")
    b = ray_class(square, "b")
    assert (a + b) - a == b
    assert a.scale(0).is_zero()
    assert zero(square).is_zero()
    prod = multiply(a + b, b)
    assert prod.coeff({"a": 1, "b": 1}) == 1
    assert prod.coeff({"b": 2}) == 1
    assert multiply(a, ray_class(square, "c")).is_zero()
    assert multiply(unit(square), a) == a


def test_cross_complex_arithmetic_rejected(square):
    other = build_complex(["a"], [["a"]])
    with pytest.raises(ValueError, match="different complexes"):
        multiply(ray_class(square, "a"), ray_class(other, "a"))


def test_stratum_class_squarefree(square):
    w = stratum_class(square, ("b", "c"))
    assert w.coeff({"b": 1, "c": 1}) == 1
    assert len(w.terms) == 1


def test_divisor_of_pl_uses_sparse_values(square):
    f = pl_function({"a": 2})
    d = divisor_of_pl(f, square)
    assert d.coeff({"a": 1}) == 2
    assert d.coeff({"b": 1}) == 0
    assert len(d.terms) == 1


def test_truncate_picks_homogeneous_part(square):
    cls = reduce([({}, 7), ({"a": 1}, 1), ({"a": 2}, 3), ({"b": 2}, 4)], square)
    assert truncate(cls, 2).degrees() == (2,)
    assert truncate(cls, 0).coeff({}) == 7
    assert truncate(cls, 5).is_zero()


def test_serialize_format(square):
    cls = reduce([({"a": 1}, Fraction(-3, 2)), ({}, 1)], square)
    assert serialize(cls) == [
        {"monomial": {}, "coeff": "1/1"},
        {"monomial": {"a": 1}, "coeff": "-3/2"},
    ]


@pytest.fixture()
def blown():
    pre = build_complex(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    post, step = star_subdivide(pre, ("a", "b"), new_ray="e")
    return pre, post, step


def test_pullback_substitutes_center_rays(blown):
    pre, post, step = blown
    xa = pullback(ray_class(pre, "a"), step)
    assert xa.coeff({"a": 1}) == 1
    assert xa.coeff({"e": 1}) == 1
    xc = pullback(ray_class(pre, "c"), step)
    assert xc == ray_class(post, "c")


def test_pullback_kills_center_stratum(blown):
    pre, _, step = blown
    # (a, b) is no longer a cone upstairs: (x_a + x_e)(x_b + x_e) reduces to
    # the pure exceptional square plus the two mixed terms.
    w = pullback(stratum_class(pre, ("a", "b")), step)
    assert w.coeff({"a": 1, "b": 1}) == 0
    assert w.coeff({"e": 2}) == 1
    assert w.coeff({"a": 1, "e": 1}) == 1
    assert w.coeff({"b": 1, "e": 1}) == 1


def test_pushforward_degree_rules(blown):
    pre, post, step = blown
    assert pushforward(unit(post), step) == unit(pre)
    assert pushforward(ray_class(post, "e"), step).is_zero()
    e2 = multiply(ray_class(post, "e"), ray_class(post, "e"))
    down = pushforward(e2, step)
    assert down.coeff({"a": 1, "b": 1}) == -1
    assert len(down.terms) == 1


def test_pushforward_cubic_exceptional(blown):
    pre, post, step = blown
    e = ray_class(post, "e")
    e3 = multiply(multiply(e, e), e)
    down = pushforward(e3, step)
    # -h_1(x_a, x_b) x_a x_b, truncated by the Stanley-Reisner relations of
    # the base: both surviving monomials have support {a, b}.
    assert down.coeff({"a": 2, "b": 1}) == -1
    assert down.coeff({"a": 1, "b": 2}) == -1


def test_push_pull_identity(blown):
    pre, _, step = blown
    for cls in (
        unit(pre),
        ray_class(pre, "a"),
        ray_class(pre, "b"),
        stratum_class(pre, ("b", "c")),
        reduce([({"a": 2}, Fraction(3, 4)), ({"c": 1}, -2)], pre),
    ):
        assert pushforward(pullback(cls, step), step) == cls


def test_projection_formula_instance(blown):
    pre, post, step = blown
    alpha = ray_class(pre, "b")
    beta = ray_class(post, "e")
    lhs = pushforward(multiply(pullback(alpha, step), beta), step)
    rhs = multiply(alpha, pushforward(beta, step))
    assert lhs == rhs


def test_domain_checks(blown):
    pre, post, step = blown
    with pytest.raises(ValueError, match="source"):
        pullback(unit(post), step)
    with pytest.raises(ValueError, match="refined"):
        pushforward(unit(pre), step)


def reference_pushforward(a, step):
    """The one-step pushforward as a triple loop over (i1, i2, t), the form
    the chain pushforward replaced; kept as the reference it is checked
    against."""
    if a.complex != step.post:
        raise ValueError("class does not live on the step's refined complex")
    r1, r2 = step.center
    e = step.new_ray
    affected = {r1, r2, e}
    acc = {}
    for mono, coeff in a.terms:
        if affected.isdisjoint(r for r, _ in mono):
            acc[mono] = coeff
            continue
        base, a1, a2, ae = _split_center(mono, r1, r2, e)
        for i1 in range(a1 + 1):
            for i2 in range(a2 + 1):
                j = ae + i1 + i2
                if j == 1:
                    continue
                cf = coeff * comb(a1, i1) * comb(a2, i2) * (-1) ** (i1 + i2)
                down = _mono_mul(base, _norm_monomial({r1: a1 - i1, r2: a2 - i2}))
                if j == 0:
                    acc[down] = acc.get(down, 0) + cf
                    continue
                for t in range(j - 1):
                    m = _mono_mul(down, _norm_monomial({r1: t + 1, r2: j - 1 - t}))
                    acc[m] = acc.get(m, 0) - cf
    return _finish(acc, step.pre)


def reference_push_down(a, trace):
    for step in reversed(trace):
        a = reference_pushforward(a, step)
    return a


def test_blowdown_kernel_matches_the_triple_loop(blown):
    pre, post, step = blown
    r1, r2 = step.center
    e = step.new_ray
    for a1 in range(7):
        for a2 in range(7):
            for ae in range(7):
                kernel = _blowdown_kernel(a1, a2, ae)
                assert all(type(v) is int and v for _, _, v in kernel)
                assert all(p1 >= 1 and p2 >= 1 for p1, p2, _ in kernel)
                assert all(p1 + p2 == a1 + a2 + ae for p1, p2, _ in kernel)
                # a lone monomial, unreduced upstairs, so that every
                # (a1, a2, ae) reaches the loop
                mono = _norm_monomial({r1: a1, r2: a2, e: ae})
                pushed = {((r1, p1), (r2, p2)): v for p1, p2, v in kernel}
                if not ae:
                    pushed[mono] = pushed.get(mono, 0) + 1
                expected = reference_pushforward(ChowClass(post, ((mono, 1),)), step)
                assert _finish(pushed, pre) == expected, (a1, a2, ae)


def upstairs_series(c, pd, max_codim, choice_seed=None):
    """E/(1+E) on the principalized complex of the normalized offsets, and
    the trace below it."""
    c2, trace, total = principalize(c, normalized_ideal(c, pd), choice_seed=choice_seed)
    return _power_series_part(divisor_of_pl(total, c2), max_codim), trace


def orthant_chart(rng, k, n, v):
    rays = [f"z{j}" for j in range(k)]
    offsets = {
        f"p{i + 1}.1": {r: rng.randint(1, v) for r in rays} for i in range(n)
    }
    return build_complex(rays, [rays]), puncturing_data(offsets)


def test_chain_pushforward_matches_steps_on_fixtures():
    for name in FIXTURE_NAMES:
        fx = load(name)
        for max_codim in {fx.complex.dim(), fx.offsets.k_P}:
            up, trace = upstairs_series(fx.complex, fx.offsets, max_codim)
            assert pushforward(up, *trace) == reference_push_down(up, trace), name


def test_chain_pushforward_matches_steps_on_seeded_charts():
    rng = random.Random(0)
    seeded = scaled = 0
    for i in range(120):
        k = 2 + i % 4
        c, pd = orthant_chart(rng, k, rng.randint(2, 3), (8, 5, 3, 2)[k - 2])
        seed = rng.randrange(1000) if i % 3 == 0 else None
        up, trace = upstairs_series(c, pd, max(k, pd.k_P), choice_seed=seed)
        # Fraction arithmetic makes the reference slow on the wide charts
        if i % 2 and k <= 3:
            up = up.scale(Fraction(rng.choice([-3, 1, 2]), rng.choice([2, 5, 7])))
            scaled += 1
        seeded += seed is not None
        assert pushforward(up, *trace) == reference_push_down(up, trace), i
    assert seeded >= 30 and scaled >= 30


def test_chain_pushforward_checks_its_chain(blown):
    pre, post, step = blown
    cls = ray_class(pre, "a")
    assert pushforward(cls) is cls
    top, step2 = star_subdivide(post, ("a", "e"), new_ray="f")
    x = multiply(ray_class(top, "f"), ray_class(top, "f"))
    assert pushforward(x, step, step2) == pushforward(pushforward(x, step2), step)
    _, other = star_subdivide(pre, ("b", "c"))
    with pytest.raises(ValueError, match="chain"):
        pushforward(x, other, step2)
    with pytest.raises(ValueError, match="refined"):
        pushforward(ray_class(post, "e"), step, step2)


# the benchmark's chart pool: (rays k, offsets n, values in [1, v]), four
# charts a rung, drawn from random.Random(0); the anchor from random.Random(1)
RUNGS = ((2, 4, 10), (3, 3, 6), (4, 3, 4), (4, 2, 6), (5, 2, 3), (5, 3, 2))


def ladder_charts():
    rng = random.Random(0)
    pool = [
        [[rng.randint(1, v) for _ in range(k)] for _ in range(n)]
        for k, n, v in RUNGS
        for _ in range(4)
    ]
    rng = random.Random(1)
    return pool + [[[rng.randint(1, 10) for _ in range(4)] for _ in range(3)]]


@pytest.mark.ladder
@pytest.mark.parametrize("index", range(25))
def test_chain_pushforward_matches_steps_on_ladder(index):
    values = ladder_charts()[index]
    rays = [f"z{j}" for j in range(len(values[0]))]
    c = build_complex(rays, [rays])
    pd = puncturing_data(
        {f"p{i + 1}.1": dict(zip(rays, row)) for i, row in enumerate(values)}
    )
    ideal = normalized_ideal(c, pd)
    full = None
    for max_codim in (c.dim(), pd.k_P):
        up, trace = upstairs_series(c, pd, max_codim)
        expected = reference_push_down(up, trace)
        assert pushforward(up, *trace) == expected
        assert segre_class(c, ideal, max_codim) == expected
        full = expected
    prod = full
    for _, f in pd.offsets:
        prod = multiply(prod, unit(c) + divisor_of_pl(f, c))
    assert refined_class(c, pd).cls == truncate(prod, pd.k_P)
