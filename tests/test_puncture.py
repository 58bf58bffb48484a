"""Offsets, principalization, Segre classes, and refined classes."""
import inspect
import random
from fractions import Fraction
from math import comb

import pytest

import punctref.aluffi
import punctref.chowring
import punctref.puncture
from punctref.chowring import (
    _bending_q,
    _blowdown_kernel,
    _finish,
    divisor_of_pl,
    multiply,
    pullback,
    pushforward,
    ray_class,
    reduce,
    truncate,
    unit,
    zero,
)
from punctref.conecx import (
    ConeComplex,
    PLFunction,
    build_complex,
    pl_function,
    pl_pullback,
    star_subdivide,
)
from punctref.puncture import (
    PrincipalizationError,
    PuncturingData,
    _power_series_part,
    _segre_by_bending,
    monomial_ideal,
    normalized_ideal,
    principalize,
    puncturing_components,
    puncturing_data,
    refined_class,
    refined_class_excess,
    segre_class,
)

from conftest import (
    FIXTURE_NAMES,
    LADDER_SIZE,
    ladder_chart,
    load,
    orthant_chart,
    principalized,
    random_puncturing,
    reference_principalize,
    replay,
    seeded_segre,
)


def test_puncturing_data_validation():
    pd = puncturing_data({"p1.1": {"x": 2}, "p1.2": {"y": 0}})
    assert pd.k_P == 2
    assert pd.offsets[0][0] == "p1.1"
    with pytest.raises(ValueError, match="duplicate"):
        PuncturingData(((("p"), pl_function({})), (("p"), pl_function({}))))
    with pytest.raises(ValueError, match="negative"):
        puncturing_data({"p": {"x": -1}})
    with pytest.raises(ValueError, match="integral"):
        PuncturingData((("p", PLFunction((("x", Fraction(1, 2)),))),))


def test_monomial_ideal_validation():
    c = build_complex(["x", "y"], [["x", "y"]])
    with pytest.raises(ValueError, match="at least one"):
        monomial_ideal(c, [])
    with pytest.raises(ValueError, match="unknown ray"):
        monomial_ideal(c, [{"zzz": 1}])
    with pytest.raises(ValueError, match="nonnegative"):
        monomial_ideal(c, [pl_function({"x": -2})])


def test_normalized_ideal_divides_by_per_ray_gcd():
    c = build_complex(["x", "y"], [["x", "y"]])
    pd = puncturing_data({"a": {"x": 4, "y": 2}, "b": {"x": 2}})
    ideal = normalized_ideal(c, pd)
    assert ideal.generators[0].as_dict() == {"x": 2, "y": 1}
    assert ideal.generators[1].as_dict() == {"x": 1}


def test_normalized_ideal_keeps_unit_gcd_rays(f1):
    ideal = normalized_ideal(f1.complex, f1.offsets)
    g1, g2 = ideal.generators
    assert g1.as_dict() == {k: 1 for k in ("Z1", "Z2", "R1", "R2", "R5", "R6", "W0a")}
    assert g2.as_dict() == {k: 1 for k in ("Z1", "Z2", "R3", "R4", "R7", "R8", "W0b")}


def test_normalized_ideal_requires_offsets():
    c = build_complex(["x"], [["x"]])
    with pytest.raises(ValueError, match="no offsets"):
        normalized_ideal(c, puncturing_data({}))


def test_components_p2(p2):
    assert puncturing_components(p2.complex, p2.offsets) == (("Z0",),)


def test_components_pr(pr):
    assert puncturing_components(pr.complex, pr.offsets) == (("ray1",), ("ray2",))


def test_components_f1(f1):
    assert puncturing_components(f1.complex, f1.offsets) == (
        ("Z1",),
        ("Z2",),
        ("W0a", "W0b"),
    )


def test_empty_components_give_zero_class():
    c = build_complex(["x", "y"], [["x"], ["y"]])
    pd = puncturing_data({"p1": {"x": 1}, "p2": {"y": 1}})
    assert puncturing_components(c, pd) == ()
    res = refined_class(c, pd)
    assert res.cls.is_zero()
    assert res.components == ()


def test_no_offsets_give_unit_class():
    c = build_complex(["x"], [["x"]])
    res = refined_class(c, puncturing_data({}))
    assert res.cls == unit(c)
    assert res.components == ((),)


def test_no_offsets_list_the_zero_cone_once():
    c = build_complex(["x", "y"], [["x", "y"]])
    assert puncturing_components(c, PuncturingData(())) == ((),)


def reference_puncturing_components(c, pd):
    """Minimal qualifying cones by an all-pairs subset test, the form the
    facet rule replaced; kept as the reference it is checked against."""
    good = [
        cone
        for cone in c.cones
        if all(any(f.get(r) > 0 for r in cone) for _, f in pd.offsets)
    ]
    minimal = []
    for cone in good:
        s = set(cone)
        if not any(set(other) < s for other in good):
            minimal.append(cone)
    return tuple(sorted(minimal, key=lambda t: (len(t), t)))


def assert_components_match_reference(c, pd):
    """On the chart, and on its principalization with the offsets pulled back."""
    assert puncturing_components(c, pd) == reference_puncturing_components(c, pd)
    if pd.k_P < 2:
        return
    c2, trace, _ = principalize(c, normalized_ideal(c, pd))
    lifted = pd
    for step in trace:
        lifted = PuncturingData(
            tuple((pid, pl_pullback(f, step)) for pid, f in lifted.offsets)
        )
    assert puncturing_components(c2, lifted) == reference_puncturing_components(
        c2, lifted
    )


def test_components_match_reference_on_fixtures():
    for name in FIXTURE_NAMES:
        fx = load(name)
        assert_components_match_reference(fx.complex, fx.offsets)
        assert puncturing_components(fx.complex, PuncturingData(())) == ((),)


def test_components_match_reference_on_seeded_charts():
    rng = random.Random(11)
    found = set()
    for i in range(96):
        if i % 2:
            c, pd = random_puncturing(rng)
        else:
            k = 2 + i % 3
            c, pd = orthant_chart(rng, k, rng.randint(2, 4), (8, 4, 3)[k - 2])
        assert_components_match_reference(c, pd)
        found.add(len(puncturing_components(c, pd)))
    # empty, single and several components all occur
    assert {0, 1} <= found and max(found) > 1


@pytest.mark.ladder
@pytest.mark.parametrize("index", range(LADDER_SIZE))
def test_components_match_reference_on_ladder(index):
    assert_components_match_reference(*ladder_chart(index))


def test_principalize_toy_cross():
    c = build_complex(["x", "y"], [["x", "y"]])
    ideal = monomial_ideal(c, [{"x": 1}, {"y": 1}])
    c2, trace, total = principalize(c, ideal)
    assert len(trace) == 1
    assert trace[0].center == ("x", "y")
    assert total.as_dict() == {trace[0].new_ray: Fraction(1)}
    assert not c2.has_cone(("x", "y"))


def test_principalize_noop_on_principal_ideal(p2):
    ideal = normalized_ideal(p2.complex, p2.offsets)
    c2, trace, total = principalize(p2.complex, ideal)
    assert trace == ()
    assert c2 == p2.complex
    assert total.as_dict() == {"Z0": Fraction(1)}


def test_principalize_f1_deterministic_center(f1):
    ideal = normalized_ideal(f1.complex, f1.offsets)
    c2, trace, total = principalize(f1.complex, ideal)
    assert len(trace) == 1
    assert trace[0].center == ("W0a", "W0b")
    assert total.as_dict() == {
        "Z1": Fraction(1),
        "Z2": Fraction(1),
        trace[0].new_ray: Fraction(1),
    }


def test_principalize_budget_exhaustion(monkeypatch):
    c = build_complex(["x", "y"], [["x", "y"]])
    ideal = monomial_ideal(c, [{"x": 1}, {"y": 1}])
    monkeypatch.setattr(punctref.puncture, "MAX_STEPS", 0)
    with pytest.raises(PrincipalizationError, match="budget"):
        principalize(c, ideal)


def test_principalize_ends_on_a_rescan_of_every_pair(monkeypatch):
    # a seed scan that misses the crossing face (a, b) leaves pair (0, 1)
    # unsettled, and the closing rescan of the final complex names it
    c = build_complex(["a", "b"], [["a", "b"]])
    ideal = monomial_ideal(c, [{"a": 2}, {"b": 2}])
    real = punctref.puncture._crossing_faces
    pairs = []

    def miss_the_seed_scan(table, a, b, complex_):
        pairs.append((a, b))
        return {} if len(pairs) == 1 else real(table, a, b, complex_)

    monkeypatch.setattr(punctref.puncture, "_crossing_faces", miss_the_seed_scan)
    with pytest.raises(PrincipalizationError) as info:
        principalize(c, ideal)
    assert str(info.value) == "generator pair (0, 1) still crosses"
    assert pairs == [(0, 1), (0, 1)]


def test_principalize_budget_allows_exactly_max_steps(monkeypatch):
    c = build_complex(["x", "y"], [["x", "y"]])
    ideal = monomial_ideal(c, [{"x": 3}, {"y": 2}])
    _, trace, _ = principalize(c, ideal)
    assert len(trace) == 3
    monkeypatch.setattr(punctref.puncture, "MAX_STEPS", len(trace))
    assert principalize(c, ideal)[1] == trace
    monkeypatch.setattr(punctref.puncture, "MAX_STEPS", len(trace) - 1)
    with pytest.raises(PrincipalizationError, match="budget 2 exhausted"):
        principalize(c, ideal)


def assert_principalize_matches_reference(c, ideal):
    c2, trace, total = principalize(c, ideal)
    r2, rtrace, rtotal = reference_principalize(c, ideal)
    assert [(s.center, s.new_ray) for s in trace] == [
        (s.center, s.new_ray) for s in rtrace
    ]
    assert total == rtotal
    assert c2.maximal_cones() == r2.maximal_cones()
    assert c2 == r2


def test_principalize_matches_reference_on_fixtures():
    for name in FIXTURE_NAMES:
        fx = load(name)
        ideal = normalized_ideal(fx.complex, fx.offsets)
        assert_principalize_matches_reference(fx.complex, ideal)


def test_principalize_matches_reference_on_seeded_charts():
    rng = random.Random(7)
    for i in range(48):
        k = 2 + i % 3
        c, pd = orthant_chart(rng, k, rng.randint(2, 4), (9, 5, 3)[k - 2])
        if i % 3 == 1:
            rng.randrange(1000)  # the draw a choice seed took keeps the charts
        assert_principalize_matches_reference(c, normalized_ideal(c, pd))


@pytest.mark.ladder
@pytest.mark.parametrize("index", range(LADDER_SIZE))
def test_principalize_matches_reference_on_ladder(index):
    c, pd = ladder_chart(index)
    assert_principalize_matches_reference(c, normalized_ideal(c, pd))


def test_principalize_matches_reference_on_a_non_pure_complex():
    # maximal cones of three dimensions; the first center (w, y) is a
    # maximal two-cone, and a later one, (x, y), a non-maximal face of the
    # three-cone (x, y, z): its link holds () and (z,), and only
    # (x, y, z) is a maximal cone through it
    c = build_complex(["v", "w", "x", "y", "z"], [["x", "y", "z"], ["w", "y"], ["v"]])
    ideal = monomial_ideal(c, [{"x": 1, "w": 2, "v": 1}, {"y": 1, "z": 1}, {"y": 3}])
    trace = principalize(c, ideal)[1]
    links = {s.center: s.link for s in trace}
    assert trace[0].center == ("w", "y") and links["w", "y"] == {()}
    assert links["x", "y"] == {(), ("z",)}
    assert_principalize_matches_reference(c, ideal)


def test_principalize_names_new_rays_past_the_base_ids():
    # the base already holds e0 and e2, so the new rays are e1, e3, e4, ...
    c = build_complex(["e0", "e2", "z"], [["e0", "e2", "z"]])
    pd = puncturing_data(
        {
            "p1.1": {"e0": 3, "e2": 1, "z": 2},
            "p2.1": {"e0": 1, "e2": 4, "z": 1},
            "p3.1": {"e0": 2, "e2": 2, "z": 3},
        }
    )
    ideal = normalized_ideal(c, pd)
    trace = principalize(c, ideal)[1]
    assert len(trace) >= 3
    assert [s.new_ray for s in trace] == ["e1"] + [
        f"e{k}" for k in range(3, len(trace) + 2)
    ]
    assert_principalize_matches_reference(c, ideal)


@pytest.mark.ladder
def test_principalize_matches_reference_on_a_long_two_ray_chart():
    # (a^5000 b, a^2 b^5) normalizes to (a^2500 b, a b^5): 628 steps
    c = build_complex(["a", "b"], [["a", "b"]])
    pd = puncturing_data({"p1.1": {"a": 5000, "b": 1}, "p2.1": {"a": 2, "b": 5}})
    ideal = normalized_ideal(c, pd)
    assert len(principalize(c, ideal)[1]) == 628
    assert_principalize_matches_reference(c, ideal)


def test_principalization_entry_points_take_no_test_only_option():
    # one choice rule and one step budget, MAX_STEPS: a seeded rule lives in
    # conftest's reference_principalize, and a budget test patches the module
    params = {
        principalize: ["c", "ideal"],
        punctref.puncture._segre: ["c", "ideal", "max_codim", "backend"],
        segre_class: ["c", "ideal", "max_codim", "backend"],
        refined_class: ["c", "pd", "backend"],
    }
    for f, names in params.items():
        assert list(inspect.signature(f).parameters) == names, f.__name__


def reference_power_series(E, max_codim):
    """E/(1+E) through max_codim by repeated multiply, the form the closed
    form replaced; kept as the reference it is checked against."""
    acc = {}
    power = unit(E.complex)
    for j in range(1, max_codim + 1):
        power = multiply(power, E)
        if power.is_zero():
            break
        sign = (-1) ** (j - 1)
        for m, v in power.terms:
            acc[m] = acc.get(m, 0) + sign * v
    return _finish(acc, E.complex)


def assert_same_class(got, expected):
    assert got == expected
    # == on Fractions forgives 2 == Fraction(2); the types must agree too
    assert [(m, type(v)) for m, v in got.terms] == [
        (m, type(v)) for m, v in expected.terms
    ]


def assert_series_matches_reference(E, max_codim):
    assert_same_class(
        _power_series_part(E, max_codim), reference_power_series(E, max_codim)
    )


def principalized_divisor(c, pd):
    c2, _, total = principalize(c, normalized_ideal(c, pd))
    return divisor_of_pl(total, c2)


def test_series_matches_reference_on_fixtures():
    for name in FIXTURE_NAMES:
        fx = load(name)
        c = fx.complex
        divisors = [principalized_divisor(c, fx.offsets)]
        divisors += [divisor_of_pl(f, c) for _, f in fx.offsets.offsets]
        for E in divisors:
            for max_codim in range(c.dim() + 3):
                assert_series_matches_reference(E, max_codim)


def test_series_matches_reference_on_seeded_charts():
    rng = random.Random(11)
    for i in range(120):
        k = 2 + i % 3
        c, pd = orthant_chart(rng, k, rng.randint(2, 3), (7, 4, 3)[k - 2])
        E = principalized_divisor(c, pd)
        for max_codim in range(k + 3):
            assert_series_matches_reference(E, max_codim)


def test_series_matches_reference_on_fraction_and_edge_cases():
    c = build_complex(["a", "b", "c", "d"], [["a", "b", "c"], ["c", "d"]])
    mixed = reduce(
        [({"a": 1}, Fraction(1, 2)), ({"b": 1}, -3), ({"c": 1}, Fraction(-2, 3))], c
    )
    assert any(type(v) is int for _, v in mixed.terms)
    for E in (
        mixed,
        mixed.scale(Fraction(3, 7)),
        reduce([({"b": 1}, 2), ({"d": 1}, 5)], c),
        zero(c),
        ray_class(c, "a"),
        ray_class(c, "d").scale(Fraction(-1, 2)),
    ):
        for max_codim in range(-1, 7):
            assert_series_matches_reference(E, max_codim)
    assert _power_series_part(zero(c), 4).is_zero()
    assert _power_series_part(mixed, 0).is_zero()


def test_series_rejects_non_linear_classes():
    c = build_complex(["a", "b"], [["a", "b"]])
    a = ray_class(c, "a")
    for E in (unit(c), multiply(a, a), a + unit(c), a + multiply(a, ray_class(c, "b"))):
        with pytest.raises(ValueError, match="degree 1"):
            _power_series_part(E, 3)


@pytest.mark.ladder
@pytest.mark.parametrize("index", range(LADDER_SIZE))
def test_series_matches_reference_on_ladder(index):
    c, pd = ladder_chart(index)
    E = principalized_divisor(c, pd)
    for max_codim in (c.dim(), pd.k_P):
        assert_series_matches_reference(E, max_codim)


def test_segre_makes_no_multiply_call(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return multiply(a, b)

    monkeypatch.setattr(punctref.chowring, "multiply", counting)
    monkeypatch.setattr(punctref.puncture, "multiply", counting)
    c, pd = orthant_chart(random.Random(3), 3, 3, 5)
    ideal = normalized_ideal(c, pd)
    assert principalize(c, ideal)[1]
    s = segre_class(c, ideal)
    assert calls == []
    # the refined product pairs degrees, so no product exceeds degree k_P
    res = refined_class(c, pd)
    assert calls and all(
        max(a.degrees() + (0,)) + max(b.degrees() + (0,)) <= pd.k_P for a, b in calls
    )
    assert not s.is_zero() and not res.cls.is_zero()


def test_segre_seed_independence():
    c = build_complex(["x", "y", "z"], [["x", "y"], ["y", "z"]])
    ideal = monomial_ideal(c, [{"x": 2, "y": 1}, {"y": 1, "z": 2}, {"y": 3}])
    base = segre_class(c, ideal)
    for seed in (1, 2, 3, 11):
        assert seeded_segre(c, ideal, seed) == base


def test_segre_p2(p2):
    ideal = normalized_ideal(p2.complex, p2.offsets)
    s = segre_class(p2.complex, ideal)
    expected = reduce([({"Z0": 1}, 1), ({"Z0": 2}, -1)], p2.complex)
    assert s == expected
    assert segre_class(p2.complex, ideal, backend="aluffi-crosscheck") == expected


def test_segre_f1_intermediates(f1):
    ideal = normalized_ideal(f1.complex, f1.offsets)
    s = segre_class(f1.complex, ideal)
    assert truncate(s, 1) == reduce([({"Z1": 1}, 1), ({"Z2": 1}, 1)], f1.complex)
    assert truncate(s, 2) == reduce(
        [
            ({"Z1": 2}, -1),
            ({"Z2": 2}, -1),
            ({"Z1": 1, "Z2": 1}, -2),
            ({"W0a": 1, "W0b": 1}, 1),
        ],
        f1.complex,
    )


def test_segre_max_codim_truncates(p2):
    ideal = normalized_ideal(p2.complex, p2.offsets)
    s1 = segre_class(p2.complex, ideal, max_codim=1)
    assert s1 == reduce([({"Z0": 1}, 1)], p2.complex)


def test_segre_term_budget_refuses_before_principalizing(f1, monkeypatch):
    """On f1-blowup the class through codim 30 has at most 4711 terms: the
    budget admits it at 4711 and refuses it, without a subdivision, at 4710."""
    ideal = normalized_ideal(f1.complex, f1.offsets)
    expected = segre_class(f1.complex, ideal, max_codim=30)
    assert len(expected.terms) <= 4711
    monkeypatch.setattr(punctref.puncture, "MAX_SEGRE_TERMS", 4711)
    assert segre_class(f1.complex, ideal, max_codim=30) == expected
    monkeypatch.setattr(punctref.puncture, "MAX_SEGRE_TERMS", 4710)
    monkeypatch.setattr(punctref.puncture, "principalize", None)
    with pytest.raises(PrincipalizationError, match="may have 4711 terms"):
        segre_class(f1.complex, ideal, max_codim=30)


def test_segre_rejects_unknown_backend(p2):
    ideal = normalized_ideal(p2.complex, p2.offsets)
    with pytest.raises(ValueError, match="backend"):
        segre_class(p2.complex, ideal, backend="magic")
    with pytest.raises(ValueError, match="backend"):
        refined_class(p2.complex, p2.offsets, backend="magic")


def test_segre_rejects_negative_max_codim(p2):
    ideal = normalized_ideal(p2.complex, p2.offsets)
    for backend in ("resolution", "aluffi-crosscheck"):
        with pytest.raises(ValueError, match="max_codim must be nonnegative, got -1"):
            segre_class(p2.complex, ideal, max_codim=-1, backend=backend)
    assert segre_class(p2.complex, ideal, max_codim=0).is_zero()


def reference_bending_q(g1, g2, bend, d):
    """Q_d = sum_(t=2..d) C(d, t) bend^t (g1 x1 + g2 x2)^(d-t) pi*(x_e^t)
    as {(p1, p2): coefficient}, summed over t, over the binomial terms j and
    over the blowdown kernel of each x_e^t: the loop the closed form of
    _bending_q replaced; kept as the reference it is checked against."""
    out = {}
    for t in range(2, d + 1):
        w = comb(d, t) * bend**t
        for j in range(d - t + 1):
            u = w * comb(d - t, j) * g1**j * g2 ** (d - t - j)
            for p1, p2, v in _blowdown_kernel(0, 0, t):
                key = (p1 + j, p2 + d - t - j)
                out[key] = out.get(key, 0) + u * v
    return {k: v for k, v in out.items() if v}


def test_bending_q_closed_form_matches_reference():
    rng = random.Random(22)
    for case in range(400):
        # zeros in g1 and g2 come up often; the bending is never zero
        g1, g2 = (rng.choice((0, 0, rng.randint(-9, -1))) for _ in range(2))
        bend = rng.randint(-9, -1)
        top = rng.randint(0, 12)
        Q = _bending_q(g1, g2, bend, top)
        assert len(Q) == top + 1
        for d, q in enumerate(Q):
            assert len(q) == d + 1
            got = {(j, d - j): v for j, v in enumerate(q) if v}
            assert got == reference_bending_q(g1, g2, bend, d), (g1, g2, bend, d)


def reference_segre(c, ideal, max_codim, choice_seed=None):
    """The whole series E/(1+E) formed upstairs and pushed down the trace,
    the form the projection-formula split replaced; kept as the reference
    it is checked against."""
    c2, trace, total = principalized(c, ideal, choice_seed)
    E = divisor_of_pl(total, c2)
    return pushforward(_power_series_part(E, max_codim), *trace), trace


def assert_segre_matches_reference(c, ideal, max_codim, choice_seed=None):
    """Checks the class and returns the length of the trace behind it."""
    if choice_seed is None:
        got = segre_class(c, ideal, max_codim)
    else:
        got = seeded_segre(c, ideal, choice_seed, max_codim)
    expected, trace = reference_segre(c, ideal, max_codim, choice_seed)
    assert_same_class(got, expected)
    return len(trace)


def bendings(trace, total):
    """Each step's bending c_s = total(r1) + total(r2) - total(e)."""
    return [
        total.get(s.center[0]) + total.get(s.center[1]) - total.get(s.new_ray)
        for s in trace
    ]


def bends_over_base_rays(c, trace, total):
    """Whether a bending step's center has a base ray with nonzero total in
    its link: there G = -E is nonzero on a ray the step did not make, so
    _bending grows the link faces over it."""
    return any(
        bend
        and any(
            total.get(r) and tuple(sorted((r, *step.center))) in pre.cones
            for r in c.ray_ids
            if r not in step.center
        )
        for step, pre, bend in zip(trace, replay(c, trace), bendings(trace, total))
    )


def assert_pushed_part_matches_reference(c, ideal, max_codim, choice_seed=None):
    """Checks the part the steps' bendings add to D/(1+D), for D the divisor
    of total on the base, against reference_segre - D/(1+D), and the sign of
    every bending; returns the bendings."""
    _, trace, total = principalized(c, ideal, choice_seed)
    bends = bendings(trace, total)
    assert all(b <= 0 for b in bends)
    series_D = _power_series_part(divisor_of_pl(total, c), max_codim)
    pushed = _segre_by_bending(c, trace, total, max_codim) - series_D
    expected = reference_segre(c, ideal, max_codim, choice_seed)[0] - series_D
    assert_same_class(pushed, expected)
    if not any(bends):
        assert pushed.is_zero()
    return bends


def test_segre_matches_reference_on_fixtures():
    for name in FIXTURE_NAMES:
        fx = load(name)
        c = fx.complex
        ideal = normalized_ideal(c, fx.offsets)
        for max_codim in {*range(c.dim() + 2), fx.offsets.k_P}:
            assert_segre_matches_reference(c, ideal, max_codim)
            assert_pushed_part_matches_reference(c, ideal, max_codim)


def test_segre_matches_reference_at_every_field_width():
    # the chain packs each exponent in bit_length(max_codim) bits: these
    # codims sit on both sides of each width from 1 to 5 bits, and 40 runs
    # the bending recursion well past the class dimension
    widths = (1, 2, 3, 4, 7, 8, 15, 16, 31, 32, 40)
    for name in FIXTURE_NAMES:
        fx = load(name)
        ideal = normalized_ideal(fx.complex, fx.offsets)
        for max_codim in widths:
            assert_segre_matches_reference(fx.complex, ideal, max_codim)
    rng = random.Random(3)
    kinds = set()
    for i in range(6):
        k = 2 + i % 2
        c, pd = orthant_chart(rng, k, rng.randint(2, 3), (9, 5)[k - 2])
        ideal = normalized_ideal(c, pd)
        for max_codim in widths[:6]:
            assert_segre_matches_reference(c, ideal, max_codim)
            bends = assert_pushed_part_matches_reference(c, ideal, max_codim)
            kinds.add(sum(b != 0 for b in bends) > 1)
    # some chain pushes one bending through another
    assert True in kinds


def test_segre_does_not_depend_on_the_order_rays_are_listed_in():
    for name in FIXTURE_NAMES:
        fx = load(name)
        c = fx.complex
        listed = ConeComplex(tuple(reversed(c.rays)), c.cones)
        for max_codim in (2, c.dim() + 1):
            expected = segre_class(c, normalized_ideal(c, fx.offsets), max_codim)
            got = segre_class(listed, normalized_ideal(listed, fx.offsets), max_codim)
            assert got.terms == expected.terms, (name, max_codim)
            assert_segre_matches_reference(listed, normalized_ideal(listed, fx.offsets), max_codim)


def test_segre_matches_reference_on_seeded_charts():
    rng = random.Random(7)
    seeded = 0
    kinds = set()
    for i in range(48):
        k = 2 + i % 3
        c, pd = orthant_chart(rng, k, rng.randint(2, 4), (9, 5, 3)[k - 2])
        seed = rng.randrange(1000) if i % 3 == 1 else None
        seeded += seed is not None
        ideal = normalized_ideal(c, pd)
        for max_codim in {c.dim(), pd.k_P}:
            steps = assert_segre_matches_reference(c, ideal, max_codim, seed)
            bends = assert_pushed_part_matches_reference(c, ideal, max_codim, seed)
            _, trace, total = principalized(c, ideal, seed)
            kinds.add((steps > 0, any(bends), bends_over_base_rays(c, trace, total)))
    assert seeded >= 16
    # no trace, a trace without a bending step and a trace with one all
    # occur, and some bending step has a base ray with nonzero total in its
    # link
    assert {kind[:2] for kind in kinds} == {(False, False), (True, False), (True, True)}
    assert (True, True, True) in kinds


def test_trace_without_bending_pushes_nothing(monkeypatch):
    pushes = []
    push_step = punctref.chowring._push_step

    def counting(*args):
        pushes.append(args[1])
        push_step(*args)

    monkeypatch.setattr(punctref.chowring, "_push_step", counting)
    # (x^2 y, x y^2, x y) = (x y): the first pair crosses, but x y divides
    # both, so total is linear on every cone the trace makes
    c = build_complex(["x", "y"], [["x", "y"]])
    ideal = monomial_ideal(c, [{"x": 2, "y": 1}, {"x": 1, "y": 2}, {"x": 1, "y": 1}])
    _, trace, total = principalize(c, ideal)
    assert trace and bendings(trace, total) == [0] * len(trace)
    D = divisor_of_pl(total, c)
    for max_codim in range(5):
        assert_same_class(
            segre_class(c, ideal, max_codim), _power_series_part(D, max_codim)
        )
    assert pushes == []
    # the patched helper is the one a trace with two bending steps reads
    c, pd = orthant_chart(random.Random(1), 3, 2, 3)
    ideal = normalized_ideal(c, pd)
    _, trace, total = principalize(c, ideal)
    assert sum(b != 0 for b in bendings(trace, total)) >= 2
    segre_class(c, ideal)
    assert pushes


@pytest.mark.ladder
@pytest.mark.parametrize("index", range(LADDER_SIZE))
def test_segre_matches_reference_on_ladder(index):
    c, pd = ladder_chart(index)
    ideal = normalized_ideal(c, pd)
    for max_codim in {c.dim(), pd.k_P}:
        assert_segre_matches_reference(c, ideal, max_codim)
        assert_pushed_part_matches_reference(c, ideal, max_codim)


def tied_choice(seed):
    """A seeded choice among the crossing faces of maximal excess."""
    rng = random.Random(seed)

    def choose(faces):
        top = max(faces.values())
        return rng.choice(sorted(f for f, v in faces.items() if v == top))

    return choose


@pytest.mark.ladder
@pytest.mark.parametrize("index", range(LADDER_SIZE))
def test_segre_order_independence_on_ladder(index):
    # the reference's seeded rule, a choice among all crossing faces, runs
    # away on the anchor (seeds 1, 2, 3 and 5 exhaust 1500 steps); seeded
    # ties among the faces of maximal excess end
    c, pd = ladder_chart(index)
    ideal = normalized_ideal(c, pd)
    for seed in range(1, 6):
        _, trace, total = reference_principalize(c, ideal, choose=tied_choice(seed))
        for max_codim in {c.dim(), pd.k_P}:
            assert_same_class(
                _segre_by_bending(c, trace, total, max_codim),
                segre_class(c, ideal, max_codim),
            )


@pytest.mark.ladder
def test_segre_matches_reference_on_a_long_two_ray_chart():
    c = build_complex(["a", "b"], [["a", "b"]])
    pd = puncturing_data({"p1.1": {"a": 5000, "b": 1}, "p2.1": {"a": 2, "b": 5}})
    assert_segre_matches_reference(c, normalized_ideal(c, pd), 2)
    assert_pushed_part_matches_reference(c, normalized_ideal(c, pd), 2)


def pulled_back(a, trace):
    for step in trace:
        a = pullback(a, step)
    return a


def assert_projection_formula_along_trace(c, pd, choice_seed=None):
    """pi_*(pi^*a b) = a pi_*b down the whole trace, for classes the Segre
    chain and the refined class rest on: a in {1, D, D^2, each offset
    divisor} and b in {G/(1+G), E/(1+E)}, with G = pi^*D - E, which lives
    on the new rays. Both sides are graded, so b is cut at the degree the
    product needs, max_codim - deg a."""
    c2, trace, total = principalized(c, normalized_ideal(c, pd), choice_seed)
    max_codim = max(c.dim(), pd.k_P)
    E = divisor_of_pl(total, c2)
    D = divisor_of_pl(total, c)  # total's values on the base rays
    G = pulled_back(D, trace) - E
    new_rays = {step.new_ray for step in trace}
    assert all(len(m) == 1 and m[0][0] in new_rays for m, _ in G.terms)
    bases = [(unit(c), 0), (D, 1), (multiply(D, D), 2)]
    bases += [(divisor_of_pl(f, c), 1) for _, f in pd.offsets]
    for a, degree in bases:
        up = pulled_back(a, trace)
        for b in (G, E):
            b = _power_series_part(b, max_codim - degree)
            lhs = pushforward(multiply(up, b), *trace)
            assert lhs == multiply(a, pushforward(b, *trace))
    assert pushforward(unit(c2), *trace) == unit(c)
    for e in new_rays:
        assert pushforward(ray_class(c2, e), *trace).is_zero()


def test_projection_formula_along_traces_on_fixtures():
    for name in FIXTURE_NAMES:
        fx = load(name)
        assert_projection_formula_along_trace(fx.complex, fx.offsets)


def test_projection_formula_along_traces_on_seeded_charts():
    rng = random.Random(5)
    seeded = 0
    for i in range(24):
        k = 2 + i % 3
        c, pd = orthant_chart(rng, k, rng.randint(2, 3), (7, 4, 3)[k - 2])
        seed = rng.randrange(1000) if i % 3 == 1 else None
        seeded += seed is not None
        assert_projection_formula_along_trace(c, pd, seed)
    assert seeded >= 8


@pytest.mark.ladder
@pytest.mark.parametrize("index", range(LADDER_SIZE))
def test_projection_formula_along_traces_on_ladder(index):
    assert_projection_formula_along_trace(*ladder_chart(index))


def test_crosscheck_catches_wrong_resolution_segre(p2, monkeypatch):
    right = punctref.puncture._segre_by_bending

    def wrong(c, trace, total, max_codim):
        return right(c, trace, total, max_codim) + unit(c)

    monkeypatch.setattr(punctref.puncture, "_segre_by_bending", wrong)
    # p2 has an empty trace; this k = 2 chart a trace of 3 steps that bends
    chart = orthant_chart(random.Random(3), 2, 3, 6)
    for c, pd in ((p2.complex, p2.offsets), chart):
        ideal = normalized_ideal(c, pd)
        # the patched helper is the one the resolution backend reads
        assert segre_class(c, ideal) == reference_segre(c, ideal, c.dim())[0] + unit(c)
        with pytest.raises(ArithmeticError, match="backend disagreement"):
            segre_class(c, ideal, backend="aluffi-crosscheck")
        with pytest.raises(ArithmeticError, match="backend disagreement"):
            refined_class(c, pd, backend="aluffi-crosscheck")


def p2_refined_expected(c):
    return reduce(
        [({"Z0": 2}, 1), ({"Z0": 1, "Z1": 1}, 1), ({"Z0": 1, "Z2": 1}, 1)], c
    )


def test_refined_p2(p2):
    res = refined_class(p2.complex, p2.offsets)
    assert res.cls == p2_refined_expected(p2.complex)
    assert res.trace == ()
    assert res.components == (("Z0",),)
    crossed = refined_class(p2.complex, p2.offsets, backend="aluffi-crosscheck")
    assert crossed.cls == res.cls


def test_refined_p2_excess_shortcut(p2):
    cls = refined_class_excess(p2.complex, p2.offsets, [("Z0",)])
    assert cls == p2_refined_expected(p2.complex)


def test_refined_pr_is_sum_of_component_rays(pr):
    res = refined_class(pr.complex, pr.offsets)
    assert res.cls == ray_class(pr.complex, "ray1") + ray_class(pr.complex, "ray2")
    # k_P = 1: the refined class agrees with the plain Segre truncation
    ideal = normalized_ideal(pr.complex, pr.offsets)
    assert res.cls == truncate(segre_class(pr.complex, ideal), 1)


def test_refined_f1_twelve_terms(f1):
    res = refined_class(f1.complex, f1.offsets)
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


def test_refined_counterexample_original(f1ce):
    res = refined_class(f1ce.complex, f1ce.offsets)
    assert res.cls == reduce([({"Z1": 2}, 1)], f1ce.complex)


def test_refined_homogeneous_of_degree_k_P(p2, pr, f1, f1ce):
    for fx in (p2, pr, f1, f1ce):
        res = refined_class(fx.complex, fx.offsets)
        assert res.cls.degrees() == (fx.offsets.k_P,)


def test_excess_error_paths(p2):
    with pytest.raises(ValueError, match="transverse"):
        refined_class_excess(p2.complex, p2.offsets, [("Z0",), ("Z0",)])
    with pytest.raises(ValueError, match="do not span"):
        refined_class_excess(p2.complex, p2.offsets, [("Z1", "Z2")])
    with pytest.raises(ValueError, match="codimension mismatch"):
        one = puncturing_data({"p1.1": {"Z0": 1}})
        refined_class_excess(p2.complex, one, [("Z0", "Z1")])


def test_excess_zero_excess_degree():
    # k_P punctures across k_P transverse divisors: pure stratum class.
    c = build_complex(["a", "b"], [["a", "b"]])
    pd = puncturing_data({"p1.1": {"a": 1}, "p1.2": {"b": 1}})
    cls = refined_class_excess(c, pd, [("a",), ("b",)])
    assert cls == multiply(ray_class(c, "a"), ray_class(c, "b"))


def refined_upstairs(c, pd):
    """The refined class formed upstairs: pull each offset back along the
    trace, multiply on the principalized complex, truncate, push down."""
    c2, trace, total = principalize(c, normalized_ideal(c, pd))
    E = divisor_of_pl(total, c2)
    prod, power = zero(c2), unit(c2)
    for j in range(1, pd.k_P + 1):
        power = multiply(power, E)
        prod = prod + power.scale((-1) ** (j - 1))
    for _, f in pd.offsets:
        for step in trace:
            f = pl_pullback(f, step)
        prod = multiply(prod, unit(c2) + divisor_of_pl(f, c2))
    prod = truncate(prod, pd.k_P)
    for step in reversed(trace):
        prod = pushforward(prod, step)
    return prod, trace


def test_refined_matches_upstairs_on_fixtures():
    for name in FIXTURE_NAMES:
        fx = load(name)
        res = refined_class(fx.complex, fx.offsets)
        assert (res.cls, res.trace) == refined_upstairs(fx.complex, fx.offsets), name


def test_refined_matches_upstairs_on_random_charts():
    compared = 0
    for seed in range(120):
        c, pd = random_puncturing(random.Random(seed))
        res = refined_class(c, pd)
        if not res.components:
            assert res.cls.is_zero()
            continue
        assert (res.cls, res.trace) == refined_upstairs(c, pd), seed
        compared += 1
    assert compared >= 100


@pytest.mark.ladder
@pytest.mark.parametrize("index", range(LADDER_SIZE))
def test_refined_matches_upstairs_on_ladder(index):
    c, pd = ladder_chart(index)
    res = refined_class(c, pd)
    assert (res.cls, res.trace) == refined_upstairs(c, pd)


def test_refined_crosscheck_catches_wrong_segre(p2, monkeypatch):
    degrees = []

    def wrong(c, ideal, max_codim):
        degrees.append(max_codim)
        return segre_class(c, ideal, max_codim) + unit(c)

    monkeypatch.setattr(punctref.aluffi, "segre_newton", wrong)
    with pytest.raises(ArithmeticError, match="backend disagreement"):
        refined_class(p2.complex, p2.offsets, backend="aluffi-crosscheck")
    assert degrees == [p2.offsets.k_P]
