"""Stanley-Reisner arithmetic and the blowup pullback/pushforward pair."""
import random
from fractions import Fraction
from math import comb

import pytest

from punctref.chowring import (
    ChowClass,
    _blowdown_kernel,
    _finish,
    _Layout,
    _mono_mul,
    _norm_monomial,
    _push_step,
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
from punctref.blowups import _replay_trace
from punctref.conecx import ConeComplex, build_complex, pl_function, star_subdivide
from punctref.puncture import (
    _power_series_part,
    normalized_ideal,
    principalize,
    refined_class,
    segre_class,
)

from conftest import (
    FIXTURE_NAMES,
    LADDER_SIZE,
    ladder_chart,
    load,
    orthant_chart,
    principalized,
    replay,
)


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


def test_integral_coefficients_are_held_as_ints(square):
    half = ray_class(square, "a").scale(Fraction(1, 2))
    assert half.terms == (((("a", 1),), Fraction(1, 2)),)
    whole = [
        half + half,
        half.scale(2),
        half - half.scale(-1),
        multiply(half, ray_class(square, "b").scale(Fraction(4))),
        reduce([({"a": 1}, Fraction(3, 3)), ({"b": 1}, Fraction(-4, 2))], square),
    ]
    for x in whole:
        assert all(type(v) is int for _, v in x.terms), x.terms


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


def reference_pushforward(a, step, pre):
    """The one-step pushforward as a triple loop over (i1, i2, t), the form
    the chain pushforward replaced; kept as the reference it is checked
    against. pre is the step's source complex."""
    post, replayed = star_subdivide(pre, step.center, step.new_ray)
    if a.complex != post or replayed != step:
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
    return _finish(acc, pre)


def reference_push_down(a, trace, base):
    """a pushed down the trace, step by step, to base, its first source."""
    for step, pre in reversed(list(zip(trace, replay(base, trace)))):
        a = reference_pushforward(a, step, pre)
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
                expected = reference_pushforward(ChowClass(post, ((mono, 1),)), step, pre)
                assert _finish(pushed, pre) == expected, (a1, a2, ae)


def test_push_step_moves_only_what_the_step_changes():
    pre = build_complex(["a", "b", "c", "d"], [["a", "b", "c"], ["b", "d"]])
    _, step = star_subdivide(pre, ("a", "b"), new_ray="e")
    layout = _Layout(pre.ray_ids, ["e"], 3)
    assert layout.width == 2
    pack = layout.pack
    kept = Fraction(5, 3)
    acc = {
        pack((("a", 1), ("c", 1))): kept,  # center degree 1: K(1, 0, 0) = 0
        pack((("a", 2), ("c", 1))): 2,  # gains -2 x_a x_b x_c
        pack((("c", 1), ("e", 2))): 7,  # replaced by -7 x_a x_b x_c
        pack((("c", 1), ("e", 1))): 4,  # pi_* x_e = 0
        pack((("b", 2), ("d", 1))): 3,  # its block x_a x_b x_d is no cone
    }
    _push_step(acc, step, layout)
    assert acc[pack((("a", 1), ("c", 1)))] is kept
    assert {layout.unpack(m): v for m, v in acc.items()} == {
        (("a", 1), ("c", 1)): kept,
        (("a", 2), ("c", 1)): 2,
        (("a", 1), ("b", 1), ("c", 1)): -9,
        (("b", 2), ("d", 1)): 3,
    }


def seeded_chain(rng, k, steps):
    """The k-ray orthant subdivided at seeded two-cones: the orthant, the top
    complex and the trace."""
    rays = [f"z{j}" for j in range(k)]
    base = c = build_complex(rays, [rays])
    trace = []
    for _ in range(steps):
        c, step = star_subdivide(c, rng.choice(sorted(x for x in c.cones if len(x) == 2)))
        trace.append(step)
    return base, c, trace


def test_chain_pushforward_matches_steps_at_the_field_width_edges():
    # a class of top degree 2^w - 1 fills its w-bit fields; one of degree 2^w
    # needs w + 1 bits
    rng = random.Random(11)
    for i in range(18):
        base, top, trace = seeded_chain(rng, 2 + i % 3, rng.randint(1, 6))
        cones = top.maximal_cones()
        for w in (1, 2, 3):
            for degree in (2**w - 1, 2**w):
                terms = []
                for cone in rng.sample(cones, min(3, len(cones))):
                    terms.append(({rng.choice(cone): degree}, rng.choice([1, -2])))
                    exps = dict.fromkeys(cone, 0)
                    for _ in range(degree):
                        exps[rng.choice(cone)] += 1
                    terms.append((exps, rng.choice([3, Fraction(-1, 2)])))
                    terms.append(({rng.choice(cone): degree - 1}, 1))
                up = reduce(terms, top)
                expected = reference_push_down(up, trace, base)
                assert same_class(pushforward(up, *trace), expected), i


def test_chain_pushforward_on_rays_listed_out_of_order():
    # cones are sorted tuples whatever order a complex lists its rays in
    rng = random.Random(5)
    for i in range(8):
        k = 3 + i % 2
        c = build_complex([f"z{j}" for j in range(k)], [[f"z{j}" for j in range(k)]])
        base = top = ConeComplex(tuple(reversed(c.rays)), c.cones)
        trace = []
        for _ in range(rng.randint(1, 4)):
            two_cones = sorted(x for x in top.cones if len(x) == 2)
            top, step = star_subdivide(top, rng.choice(two_cones))
            trace.append(step)
        terms = []
        for cone in top.maximal_cones():
            exps = dict.fromkeys(cone, 0)
            for _ in range(k):
                exps[rng.choice(cone)] += 1
            terms.append((exps, rng.choice([1, -2, 3])))
        up = reduce(terms, top)
        got = pushforward(up, *trace)
        assert got == reference_push_down(up, trace, base), i
        assert any(len(m) > 1 for m, _ in got.terms), i


def upstairs_series(c, pd, max_codim, choice_seed=None):
    """E/(1+E) on the principalized complex of the normalized offsets, and
    the trace below it."""
    c2, trace, total = principalized(c, normalized_ideal(c, pd), choice_seed)
    return _power_series_part(divisor_of_pl(total, c2), max_codim), trace


def test_chain_pushforward_matches_steps_on_fixtures():
    for name in FIXTURE_NAMES:
        fx = load(name)
        for max_codim in {fx.complex.dim(), fx.offsets.k_P}:
            up, trace = upstairs_series(fx.complex, fx.offsets, max_codim)
            expected = reference_push_down(up, trace, fx.complex)
            assert pushforward(up, *trace) == expected, name


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
        assert pushforward(up, *trace) == reference_push_down(up, trace, c), i
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


@pytest.mark.ladder
@pytest.mark.parametrize("index", range(LADDER_SIZE))
def test_chain_pushforward_matches_steps_on_ladder(index):
    c, pd = ladder_chart(index)
    ideal = normalized_ideal(c, pd)
    full = None
    for max_codim in (c.dim(), pd.k_P):
        up, trace = upstairs_series(c, pd, max_codim)
        expected = reference_push_down(up, trace, c)
        assert pushforward(up, *trace) == expected
        assert segre_class(c, ideal, max_codim) == expected
        full = expected
    prod = full
    for _, f in pd.offsets:
        prod = multiply(prod, unit(c) + divisor_of_pl(f, c))
    assert refined_class(c, pd).cls == truncate(prod, pd.k_P)


def reference_mono_mul(a, b):
    """The two-pointer merge of two sorted exponent tuples, the form the dict
    merge of _mono_mul replaced."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i, j, la, lb = 0, 0, len(a), len(b)
    while i < la and j < lb:
        ra, ea = a[i]
        rb, eb = b[j]
        if ra == rb:
            out.append((ra, ea + eb))
            i += 1
            j += 1
        elif ra < rb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def reference_multiply(a, b):
    """The product that skipped a pair whose joint support is not a cone
    before merging exponents, the form the plain product replaced."""
    if a.complex != b.complex:
        raise ValueError("classes live on different complexes")
    cones = frozenset(frozenset(cone) for cone in a.complex.cones)
    bt = [(m2, c2, frozenset(r for r, _ in m2)) for m2, c2 in b.terms]
    acc = {}
    for m1, c1 in a.terms:
        f1 = frozenset(r for r, _ in m1)
        for m2, c2, f2 in bt:
            if f1 | f2 not in cones:
                continue
            m = reference_mono_mul(m1, m2)
            acc[m] = acc.get(m, 0) + c1 * c2
    return _finish(acc, a.complex)


def reference_pullback(a, step, pre):
    """The pullback that kept a term missing both center rays as it was,
    the form the one general loop replaced. pre is the step's source
    complex."""
    post, replayed = star_subdivide(pre, step.center, step.new_ray)
    if a.complex != pre or replayed != step:
        raise ValueError("class does not live on the step's source complex")
    r1, r2 = step.center
    e = step.new_ray
    acc = {}
    for mono, coeff in a.terms:
        if {r1, r2}.isdisjoint(r for r, _ in mono):
            acc[mono] = coeff
            continue
        base, a1, a2, _ = _split_center(mono, r1, r2, e)
        for i1 in range(a1 + 1):
            for i2 in range(a2 + 1):
                split = _norm_monomial({r1: a1 - i1, r2: a2 - i2, e: i1 + i2})
                m = reference_mono_mul(base, split)
                acc[m] = acc.get(m, 0) + coeff * comb(a1, i1) * comb(a2, i2)
    return _finish(acc, post)


def same_class(x, y):
    """== on classes, and the same coefficient type (int or Fraction) term by term."""
    return x == y and [type(v) for _, v in x.terms] == [type(v) for _, v in y.terms]


def dead_pairs(a, b):
    """The term pairs of a * b whose joint support is not a cone."""
    return sum(
        tuple(sorted({r for r, _ in m1 + m2})) not in a.complex.cones
        for m1, _ in a.terms
        for m2, _ in b.terms
    )


def random_cone_class(rng, c, fractions):
    """Up to six terms on random cones of c, with int or Fraction coefficients."""
    cones = sorted(c.cones)
    terms = []
    for _ in range(rng.randint(1, 6)):
        mono = {r: rng.randint(1, 2) for r in rng.choice(cones)}
        coeff = rng.choice([-3, -1, 1, 2, 5])
        if fractions:
            coeff = Fraction(coeff, rng.choice([2, 3, 7]))
        terms.append((mono, coeff))
    return reduce(terms, c)


def check_pullbacks(classes, steps, base):
    """Pull each class back along the chain from base, and a unit, ray and
    stratum class at every step, against the reference."""
    for step, pre in zip(steps, replay(base, steps)):
        fresh = [zero(pre), unit(pre)] + [ray_class(pre, r) for r in pre.ray_ids]
        fresh += [stratum_class(pre, cone) for cone in sorted(pre.cones)]
        for cls in fresh:
            assert same_class(pullback(cls, step), reference_pullback(cls, step, pre))
        pulled = [pullback(cls, step) for cls in classes]
        for cls, up in zip(classes, pulled):
            assert same_class(up, reference_pullback(cls, step, pre))
        classes = pulled


def test_plain_product_and_pullback_match_the_references_on_fixtures():
    for name in FIXTURE_NAMES:
        fx = load(name)
        c, pd = fx.complex, fx.offsets
        ideal = normalized_ideal(c, pd)
        classes = [zero(c), unit(c), reduce([({}, Fraction(2, 3))], c)]
        classes += [ray_class(c, r) for r in c.ray_ids]
        classes += [stratum_class(c, cone) for cone in sorted(c.cones) if cone]
        divisors = [divisor_of_pl(f, c) for _, f in pd.offsets]
        classes += divisors + [unit(c) + d for d in divisors]
        classes += [segre_class(c, ideal, m) for m in {c.dim(), pd.k_P}]
        for a in classes:
            for b in classes:
                assert same_class(multiply(a, b), reference_multiply(a, b)), name
        c2, trace, total = principalize(c, ideal)
        up = _power_series_part(divisor_of_pl(total, c2), c2.dim())
        assert same_class(multiply(up, up), reference_multiply(up, up)), name
        check_pullbacks(divisors + [zero(c), classes[-1]], trace, c)
        if fx.trace:
            check_pullbacks(divisors + [zero(c)], _replay_trace(c, fx.trace)[1], c)


def test_plain_product_and_pullback_match_the_references_on_seeded_charts():
    rng = random.Random(7)
    dead = 0
    for i in range(24):
        k = 2 + i % 4
        c, pd = orthant_chart(rng, k, rng.randint(2, 3), (8, 5, 3, 2)[k - 2])
        c2, trace, _ = principalize(c, normalized_ideal(c, pd))
        classes = [zero(c2), unit(c2)]
        classes += [random_cone_class(rng, c2, f) for f in (False, False, True, True)]
        for a in classes:
            for b in classes:
                assert same_class(multiply(a, b), reference_multiply(a, b)), i
                dead += dead_pairs(a, b)
        base = [random_cone_class(rng, c, f) for f in (False, True)]
        check_pullbacks(base + [divisor_of_pl(f, c) for _, f in pd.offsets], trace, c)
    # the retired support skip had pairs to skip
    assert dead > 0
