"""Cone complex construction, validation, and stellar subdivision."""
import itertools
import random
from fractions import Fraction

import pytest

from punctref.blowups import _replay_trace
from punctref.chowring import pushforward, unit
from punctref.conecx import (
    ConeComplex,
    Ray,
    SubdivisionStep,
    _face_closure,
    _undo,
    build_complex,
    pl_function,
    pl_pullback,
    star_subdivide,
    validate_complex,
)
from punctref.lattice import is_unimodular as _is_unimodular
from punctref.puncture import normalized_ideal

from conftest import (
    FIXTURE_NAMES,
    LADDER_SIZE,
    ladder_chart,
    load,
    orthant_chart,
    principalized,
    replay,
)


def test_face_closure_and_lookup():
    c = build_complex(["b", "a", "c"], [["a", "b"], ["b", "c"]])
    assert c.ray_ids == ("a", "b", "c")
    assert c.has_cone(())
    assert c.has_cone(("a",))
    assert c.has_cone(("b", "a"))
    assert not c.has_cone(("a", "c"))
    assert c.maximal_cones() == (("a", "b"), ("b", "c"))
    assert c.dim() == 2


def brute_force_closure(cones):
    return frozenset(
        face
        for cone in cones
        for n in range(len(cone) + 1)
        for face in itertools.combinations(sorted(cone), n)
    ) | {()}


def test_face_closure_matches_brute_force_on_seeded_cones():
    rng = random.Random(16)
    for _ in range(300):
        ids = [f"r{i}" for i in range(rng.randint(0, 9))]
        cones = [
            rng.sample(ids, rng.randint(0, len(ids)))
            for _ in range(rng.randint(0, 8))
        ]
        # cones may repeat, and may sit inside one another
        cones += rng.sample(cones, min(len(cones), 2))
        cones += [cone[: len(cone) // 2] for cone in cones[:2]]
        assert _face_closure(cones) == brute_force_closure(cones)


def test_cones_sorted_canonically():
    c = build_complex(["x", "y", "z"], [["z", "x", "y"]])
    assert ("x", "y", "z") in c.cones
    assert all(type(cone) is tuple and tuple(sorted(cone)) == cone for cone in c.cones)


def test_ray_input_forms():
    c = build_complex([Ray("x", (1, 0)), Ray("y", (0, 1))], [["x", "y"]])
    assert c.mode == "embedded"
    assert c.ray("y").primitive == (0, 1)
    with pytest.raises(KeyError):
        c.ray("missing")
    assert build_complex(["y", Ray("x")], [["x", "y"]]).ray_ids == ("x", "y")
    for bad in ({"id": "y", "primitive": (0, 1)}, 5):
        with pytest.raises(ValueError, match="cannot interpret ray"):
            build_complex([Ray("x"), bad], [])


def test_abstract_mode_without_primitives():
    c = build_complex(["a", "b"], [["a", "b"]])
    assert c.mode == "abstract-smooth"


def test_empty_complex():
    c = build_complex([], [])
    assert c.ray_ids == ()
    assert c.cones == frozenset({()})
    assert c.dim() == 0
    assert validate_complex(c)["ok"]


def test_duplicate_ray_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        build_complex(["a", "a"], [])


def test_unknown_ray_in_cone_rejected():
    with pytest.raises(ValueError, match="unknown"):
        build_complex(["a"], [["a", "ghost"]])


def test_repeated_ray_in_cone_rejected():
    with pytest.raises(ValueError, match="repeats"):
        build_complex(["a", "b"], [["a", "a"]])


def test_validate_clean_complex():
    c = build_complex(["a", "b", "c"], [["a", "b"], ["a", "c"]])
    assert validate_complex(c) == {"ok": True, "violations": []}


def test_validate_reports_missing_face():
    broken = ConeComplex(
        rays=(Ray("a"), Ray("b")),
        cones=((), ("a",), ("a", "b")),
    )
    report = validate_complex(broken)
    assert not report["ok"]
    assert any("face" in v for v in report["violations"])


@pytest.mark.parametrize(
    "ray_ids,cones,violation",
    [
        (("a", "a"), [(), ("a",)], "duplicate ray ids"),
        (("a",), [("a",)], "missing empty cone"),
        (
            ("a", "b"),
            [(), ("a",), ("b",), ("b", "a")],
            "cone ('b', 'a') not canonically sorted",
        ),
        (("a",), [(), ("a",), ("a", "a")], "cone ('a', 'a') repeats a ray"),
        (("a",), [(), ("a",), ("z",)], "cone ('z',) uses unknown ray z"),
    ],
)
def test_validate_reports_structural_violations(ray_ids, cones, violation):
    # build_complex refuses each of these, so only a direct ConeComplex has them
    report = validate_complex(ConeComplex(tuple(map(Ray, ray_ids)), cones))
    assert not report["ok"] and violation in report["violations"]


def test_validate_reports_nonprimitive_vector():
    broken = ConeComplex(rays=(Ray("a", (2, 0)),), cones=((), ("a",)))
    report = validate_complex(broken)
    assert any("not primitive" in v for v in report["violations"])


def test_validate_reports_nonunimodular_cone():
    c = build_complex([Ray("a", (1, 0)), Ray("b", (1, 2))], [["a", "b"]])
    report = validate_complex(c)
    assert any("unimodular" in v for v in report["violations"])


def test_unimodularity():
    assert _is_unimodular([])
    assert _is_unimodular([(1, 0, 0), (0, 0, 1)])
    assert _is_unimodular([(1, 1), (0, 1)])
    assert not _is_unimodular([(1, 2), (0, 3)])
    assert not _is_unimodular([(1, 1), (1, -1)])
    assert not _is_unimodular([(1, 0), (2, 0)])


def test_star_subdivide_replaces_cones():
    c = build_complex(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    post, step = star_subdivide(c, ("a", "b"))
    assert step.new_ray == "e0"
    assert step.center == ("a", "b")
    assert not post.has_cone(("a", "b"))
    assert post.has_cone(("a", "e0"))
    assert post.has_cone(("b", "e0"))
    assert post.has_cone(("b", "c"))
    assert step.link == {()}
    assert post.rays == c.rays + (Ray("e0"),)


def test_star_subdivide_auto_name_skips_existing():
    c = build_complex(["e0", "x"], [["e0", "x"]])
    post, step = star_subdivide(c, ("e0", "x"))
    assert step.new_ray == "e1"


def test_star_subdivide_custom_name_and_embedded_sum():
    c = build_complex([Ray("a", (1, 0)), Ray("b", (0, 1))], [["a", "b"]])
    post, step = star_subdivide(c, ("a", "b"), new_ray="mid")
    assert post.ray("mid").primitive == (1, 1)
    assert validate_complex(post)["ok"]


def test_star_subdivide_rejects_bad_centers():
    c = build_complex(["a", "b", "c"], [["a", "b"]])
    with pytest.raises(ValueError, match="two-ray"):
        star_subdivide(c, ("a",))
    with pytest.raises(ValueError, match="not a cone"):
        star_subdivide(c, ("a", "c"))
    with pytest.raises(ValueError, match="already present"):
        star_subdivide(c, ("a", "b"), new_ray="c")


def test_star_subdivide_three_cone():
    c = build_complex(["a", "b", "c"], [["a", "b", "c"]])
    post, _ = star_subdivide(c, ("a", "b"), new_ray="e")
    assert post.has_cone(("a", "c", "e"))
    assert post.has_cone(("b", "c", "e"))
    assert not post.has_cone(("a", "b", "c"))
    assert validate_complex(post)["ok"]


def test_star_subdivide_rejects_primitives_of_mixed_length():
    c = build_complex([Ray("a", (1, 0)), Ray("b", (0, 1, 0))], [["a", "b"]])
    assert not validate_complex(c)["ok"]
    with pytest.raises(ValueError):
        star_subdivide(c, ("a", "b"))


def test_pl_function_access():
    f = pl_function({"a": 2, "b": Fraction(1, 2)})
    assert f.value("a") == 2
    assert f.get("zzz") == 0
    with pytest.raises(KeyError):
        f.value("zzz")
    assert f.as_dict() == {"a": Fraction(2), "b": Fraction(1, 2)}
    assert f.nonnegative
    assert not pl_function({"a": -1}).nonnegative


def test_pl_pullback_new_ray_gets_center_sum():
    c = build_complex(["a", "b"], [["a", "b"]])
    _, step = star_subdivide(c, ("a", "b"))
    f = pl_function({"a": 3, "b": 5})
    g = pl_pullback(f, step)
    assert g.value("e0") == 8
    assert g.value("a") == 3
    sparse = pl_pullback(pl_function({"a": 3}), step)
    assert sparse.value("e0") == 3


def reference_maximal_cones(c):
    """Maximal cones by a subset scan, longest first, the form the facet rule
    replaced; kept as the reference it is checked against."""
    maximal, max_sets = [], []
    for cone in sorted(c.cones, key=len, reverse=True):
        cs = frozenset(cone)
        if not any(cs < s for s in max_sets):
            maximal.append(cone)
            max_sets.append(cs)
    maximal.sort(key=lambda t: (len(t), t))
    return tuple(maximal)


def assert_facet_rule_along_principalization(c, pd, choice_seed=None):
    top, trace, _ = principalized(c, normalized_ideal(c, pd), choice_seed)
    complexes = replay(c, trace)
    assert complexes[-1] == top
    for cx in complexes:
        assert cx.maximal_cones() == reference_maximal_cones(cx)


def test_facet_rule_matches_reference_on_fixtures():
    for name in FIXTURE_NAMES:
        fx = load(name)
        assert_facet_rule_along_principalization(fx.complex, fx.offsets)


def test_facet_rule_matches_reference_on_seeded_charts():
    # values up to 8, 4, 3 keep every chart under 200 maximal cones; the
    # anchor's 449 come in the ladder test
    rng = random.Random(9)
    for i in range(48):
        k = 2 + i % 3
        c, pd = orthant_chart(rng, k, rng.randint(2, 4), (8, 4, 3)[k - 2])
        seed = rng.randrange(1000) if i % 3 == 1 else None
        assert_facet_rule_along_principalization(c, pd, seed)


def test_facet_rule_on_the_empty_cone_alone():
    c = build_complex([], [])
    assert c.maximal_cones() == reference_maximal_cones(c) == ((),)


@pytest.mark.ladder
@pytest.mark.parametrize("index", range(LADDER_SIZE))
def test_facet_rule_matches_reference_on_ladder(index):
    assert_facet_rule_along_principalization(*ladder_chart(index))


def reference_star_subdivide(c, center, new_ray=None):
    """Stellar subdivision building a set for every cone of the complex, the
    form the one-copy star swap replaced; kept as the reference it is checked
    against."""
    r1, r2 = sorted(center)
    if new_ray is None:
        k = 0
        existing = set(c.ray_ids)
        while f"e{k}" in existing:
            k += 1
        new_ray = f"e{k}"
    prim = None
    if c.mode == "embedded":
        prim = tuple(a + b for a, b in zip(c.ray(r1).primitive, c.ray(r2).primitive))
    # the new ray comes last, and the step records the link of its center
    new_rays = c.rays + (Ray(new_ray, prim),)
    new_cones = set()
    link = set()
    for cone in c.cones:
        s = set(cone)
        if r1 in s and r2 in s:
            new_cones.add(tuple(sorted((s - {r1}) | {new_ray})))
            new_cones.add(tuple(sorted((s - {r2}) | {new_ray})))
            new_cones.add(tuple(sorted((s - {r1, r2}) | {new_ray})))
            link.add(tuple(sorted(s - {r1, r2})))
        else:
            new_cones.add(cone)
    post = ConeComplex(tuple(new_rays), frozenset(new_cones))
    return post, SubdivisionStep(center=(r1, r2), new_ray=new_ray, link=frozenset(link))


def assert_step_record(source, post, step):
    """The step holds the link of its center in source, post lists the rays
    of source and then the new ray, and undoing the step from post gives
    source back."""
    center = set(step.center)
    assert step.link == {
        tuple(x for x in cone if x not in center) for cone in source.cones if center <= set(cone)
    }
    assert post.rays == source.rays + (post.ray(step.new_ray),)
    assert pushforward(unit(post), step).complex == source


def assert_star_subdivide_along_principalization(c, pd, choice_seed=None):
    top, trace, _ = principalized(c, normalized_ideal(c, pd), choice_seed)
    for step in trace:
        post, ref_step = reference_star_subdivide(c, step.center)
        assert star_subdivide(c, step.center, step.new_ray) == (post, step)
        assert step == ref_step
        assert_step_record(c, post, step)
        c = post
    assert c == top
    return len(trace)


def test_star_subdivide_matches_reference_on_fixtures():
    for name in FIXTURE_NAMES:
        fx = load(name)
        assert_star_subdivide_along_principalization(fx.complex, fx.offsets)


def test_star_subdivide_matches_reference_on_seeded_charts():
    rng = random.Random(7)
    steps = 0
    for i in range(48):
        k = 2 + i % 3
        c, pd = orthant_chart(rng, k, rng.randint(2, 4), (9, 5, 3)[k - 2])
        seed = rng.randrange(1000) if i % 3 == 1 else None
        steps += assert_star_subdivide_along_principalization(c, pd, seed)
    assert steps > 48


def test_star_subdivide_matches_reference_on_embedded_and_named_centers():
    c = build_complex(
        [Ray("a", (1, 0, 0)), Ray("b", (0, 1, 0)), Ray("c", (0, 0, 1)), Ray("d", (1, 1, 1))],
        [["a", "b", "c"], ["a", "b", "d"]],
    )
    for center, name in ((("b", "a"), None), (("a", "d"), "m")):
        post, step = star_subdivide(c, center, new_ray=name)
        assert (post, step) == reference_star_subdivide(c, center, new_ray=name)
        assert_step_record(c, post, step)
        c = post
    assert c.ray("m").primitive == (2, 1, 1)
    assert validate_complex(c)["ok"]


@pytest.mark.ladder
@pytest.mark.parametrize("index", range(LADDER_SIZE))
def test_star_subdivide_matches_reference_on_ladder(index):
    assert_star_subdivide_along_principalization(*ladder_chart(index))


def reference_undo(post, step):
    """The source of a step by undo-then-replay, the form _undo replaced:
    drop the new ray's cones, put tau + center back for tau in the link, and
    replay the step on the result; None when the replay fails or gives
    another complex or step. Kept as the reference it is checked against.
    On an embedded complex that is the step's source, the last ray dropped
    is a center ray, and the replay's primitive lookup raised KeyError out
    of pushforward; that counts as a refusal here."""
    cones = [x for x in post.cones if step.new_ray not in x]
    cones += [tuple(sorted(t + step.center)) for t in step.link]
    source = ConeComplex(post.rays[:-1], cones)
    try:
        replayed = star_subdivide(source, step.center, step.new_ray)
    except (ValueError, KeyError):
        return None
    return source if replayed == (post, step) else None


def assert_undo_matches_reference(post, step):
    """_undo gives the reference's source, or refuses exactly when it does;
    returns the reference's answer."""
    expected = reference_undo(post, step)
    if expected is None:
        with pytest.raises(ValueError):
            _undo(post, step)
    else:
        assert _undo(post, step) == expected
    return expected


def mutations(post, step):
    """(post, step) pairs that break one condition of a step's undo each:
    a link face dropped or added, an unsorted center, another new ray, an
    extra cone through the new ray, the center left in post, and a changed
    embedded primitive."""
    r1, r2 = step.center
    e = step.new_ray
    link = step.link
    out = []
    for tau in sorted(link)[:3]:
        out.append((post, SubdivisionStep(step.center, e, link - {tau})))
    others = sorted(r for r in post.ray_ids if r not in (r1, r2, e))
    faces = [(x,) for x in others] + list(itertools.combinations(others, 2))
    for tau in [tau for tau in faces if tau not in link][:3]:
        out.append((post, SubdivisionStep(step.center, e, link | {tau})))
        extra = ConeComplex(post.rays, post.cones | {tuple(sorted(tau + (e,)))})
        out.append((extra, step))
    out.append((post, SubdivisionStep((r2, r1), e, link)))
    for name in ("zz", r1, post.ray_ids[0]):
        out.append((post, SubdivisionStep(step.center, name, link)))
    out.append((ConeComplex(post.rays, post.cones | {step.center}), step))
    last = post.rays[-1]
    if last.primitive is not None:
        moved = Ray(e, (last.primitive[0] + 1, *last.primitive[1:]))
        out.append((ConeComplex((*post.rays[:-1], moved), post.cones), step))
    return out


def assert_undo_along_trace(c, trace, mutate=False):
    """Undo each step of trace from its refined complex, as the reference
    does, and each mutation of it when mutate is set; a class on the step's
    source makes pushforward refuse with its own message. Returns the number
    of refusals seen on mutated steps."""
    complexes = replay(c, trace)
    refused = 0
    for source, post, step in zip(complexes, complexes[1:], trace):
        assert assert_undo_matches_reference(post, step) == source
        assert assert_undo_matches_reference(source, step) is None
        with pytest.raises(ValueError, match="class does not live on the step's refined complex"):
            pushforward(unit(source), step)
        if mutate:
            for bad_post, bad in mutations(post, step):
                refused += assert_undo_matches_reference(bad_post, bad) is None
    return refused


def principalization_trace(c, pd, choice_seed=None):
    return principalized(c, normalized_ideal(c, pd), choice_seed)[1]


def embedded_orthant_chart(rng, k, n, v):
    """orthant_chart with the unit vectors as the ray primitives."""
    c, pd = orthant_chart(rng, k, n, v)
    rays = [Ray(r.id, tuple(int(i == j) for i in range(k))) for j, r in enumerate(c.rays)]
    return build_complex(rays, c.maximal_cones()), pd


def test_undo_matches_reference_on_fixture_traces():
    refused = 0
    for name in FIXTURE_NAMES:
        fx = load(name)
        refused += assert_undo_along_trace(
            fx.complex, principalization_trace(fx.complex, fx.offsets), mutate=True
        )
        if fx.trace:
            refused += assert_undo_along_trace(
                fx.complex, _replay_trace(fx.complex, fx.trace)[1], mutate=True
            )
    assert refused


def test_undo_matches_reference_on_seeded_charts():
    rng = random.Random(7)
    steps = refused = 0
    for i in range(48):
        k = 2 + i % 3
        chart = embedded_orthant_chart if i % 4 == 3 else orthant_chart
        c, pd = chart(rng, k, rng.randint(2, 4), (9, 5, 3)[k - 2])
        seed = rng.randrange(1000) if i % 3 == 1 else None
        trace = principalization_trace(c, pd, seed)
        refused += assert_undo_along_trace(c, trace, mutate=i % 2 == 0)
        steps += len(trace)
    assert steps > 48 and refused > 48


def test_undo_refuses_each_mutation_as_the_reference_does():
    c = build_complex(
        [Ray("a", (1, 0, 0)), Ray("b", (0, 1, 0)), Ray("c", (0, 0, 1)), Ray("d", (1, 1, 1))],
        [["a", "b", "c"], ["a", "b", "d"]],
    )
    post, step = star_subdivide(c, ("a", "b"), new_ray="e")
    bad = mutations(post, step)
    assert len(bad) == 11
    assert all(assert_undo_matches_reference(p, s) is None for p, s in bad)
    # the new ray's whole star gone, with an empty link
    bare = ConeComplex(post.rays, [x for x in post.cones if "e" not in x])
    assert assert_undo_matches_reference(bare, SubdivisionStep(step.center, "e", frozenset())) is None
    # a link face through a center ray, with the star it would have
    through = SubdivisionStep(step.center, "e", step.link | {("a",)})
    grown = ConeComplex(post.rays, post.cones | {("a", "a", "e"), ("a", "b", "e")})
    assert assert_undo_matches_reference(grown, through) is None
    # the new ray listed twice
    twice = ConeComplex((post.rays[-1], *post.rays), post.cones)
    assert assert_undo_matches_reference(twice, step) is None
    # a face of the link listed unsorted
    square = build_complex(["a", "b", "c", "d"], [["a", "b", "c", "d"]])
    post, step = star_subdivide(square, ("a", "b"), new_ray="e")
    unsorted = SubdivisionStep(step.center, "e", step.link - {("c", "d")} | {("d", "c")})
    assert assert_undo_matches_reference(post, unsorted) is None
    assert assert_undo_matches_reference(post, step) == square
    # an abstract post whose new ray carries a primitive
    abstract = build_complex(["a", "b"], [["a", "b"]])
    up, st = star_subdivide(abstract, ("a", "b"))
    wrong = ConeComplex((*abstract.rays, Ray(st.new_ray, (1, 1))), up.cones)
    assert assert_undo_matches_reference(wrong, st) is None


def test_pushforward_keeps_its_messages_on_mutated_chains():
    c = build_complex(["a", "b", "c"], [["a", "b", "c"]])
    mid, first = star_subdivide(c, ("a", "b"), new_ray="e")
    top, last = star_subdivide(mid, ("a", "e"), new_ray="f")
    assert pushforward(unit(top), first, last) == unit(c)
    for bad_top, bad in mutations(top, last):
        assert reference_undo(bad_top, bad) is None
        with pytest.raises(ValueError, match="class does not live on the step's refined complex"):
            pushforward(unit(bad_top), first, bad)
    # a mutated complex in the middle of a chain cannot be passed in
    for bad_mid, bad in mutations(mid, first):
        if bad_mid is mid:
            assert reference_undo(mid, bad) is None
            with pytest.raises(ValueError, match="steps do not form a chain"):
                pushforward(unit(top), bad, last)


@pytest.mark.ladder
@pytest.mark.parametrize("index", range(LADDER_SIZE))
def test_undo_matches_reference_on_ladder(index):
    c, pd = ladder_chart(index)
    trace = principalization_trace(c, pd)
    # an unsorted center at least is refused at each step
    assert assert_undo_along_trace(c, trace, mutate=True) >= len(trace)
