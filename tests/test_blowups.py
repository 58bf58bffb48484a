"""Faithful lifts, rank stabilization, slope sensitivity, and comparisons."""
import math

import pytest

from punctref.blowups import (
    BlowupStep,
    SubdivisionError,
    barycentric_subdivision,
    check_slope_sensitivity,
    compare_under_subdivision,
    faithful_lift,
    stabilize_rank,
    subdivision,
    trivial_subdivision,
)
from punctref.conecx import validate_complex
from punctref.tropdata import EnumerationBoundError, numerical_data, target_model

from conftest import lifts_by_case2, multiplicity, p2_data_model, pr_data_model


def test_blowup_step_validation():
    step = BlowupStep((1, 2))
    assert step.push_vector((5, 1, 2, 3)) == (6, 7, 3)
    with pytest.raises(ValueError, match="nonempty"):
        BlowupStep(())
    with pytest.raises(ValueError, match="strictly increasing"):
        BlowupStep((2, 1))
    with pytest.raises(ValueError, match="strictly increasing"):
        BlowupStep((0, 1))


def test_faithful_lift_p2_case_split():
    nd, _ = p2_data_model()
    step, lifted = faithful_lift(nd, (1, 2))
    assert step.center == (1, 2)
    assert [lifts_by_case2(a, step.center) for a in nd.markings] == [False, True]
    assert lifted.markings == ((2, 0, 0), (-1, 0, 0))
    assert lifted.degrees == (1, 0, 0)
    assert [multiplicity(a) for a in nd.markings] == [0, 2]
    assert [multiplicity(r) for r in lifted.markings] == [0, 1]


def test_faithful_lift_case2_argmax_breaks_ties_low():
    nd = numerical_data(3, (0, 0, 0), [(-2, -1, -1), (2, 1, 1)])
    step, lifted = faithful_lift(nd, (1, 2, 3))
    # the all-negative marking lifts through its largest entry, the
    # nonnegative one through its smallest
    assert [lifts_by_case2(a, step.center) for a in nd.markings] == [True, False]
    assert lifted.markings == ((-1, -1, 0, 0), (1, 1, 0, 0))
    assert [multiplicity(r) for r in lifted.markings] == [2, 0]
    assert multiplicity(nd.markings[0]) == 4
    # both entries tie at divisors 2 and 3, and either one gives the same row
    for row, alpha in zip(lifted.markings, nd.markings):
        for l in (2, 3):
            assert row == (alpha[l - 1],) + tuple(a - alpha[l - 1] for a in alpha)


def test_faithful_lift_case1_zero_exceptional():
    nd = numerical_data(2, (-3, 0), [(0, -3), (-3, 3)])
    step, lifted = faithful_lift(nd, (1, 2))
    assert not lifts_by_case2(nd.markings[0], step.center)
    assert lifted.markings[0] == (0, 0, -3)
    assert multiplicity(lifted.markings[0]) == multiplicity(nd.markings[0]) == 3


def test_faithful_lift_input_errors():
    nd, _ = p2_data_model()
    with pytest.raises(ValueError, match="exceeds k"):
        faithful_lift(nd, (1, 3))
    bad = numerical_data(2, (9, 9), [(2, 2), (-1, -1)])
    with pytest.raises(ValueError, match="balanced"):
        faithful_lift(bad, (1, 2))


def test_stabilize_rank_p2():
    nd, _ = p2_data_model()
    steps, stable = stabilize_rank(nd)
    assert [s.center for s in steps] == [(1, 2)]
    assert [stable.rank(i) for i in (1, 2)] == [0, 1]
    again, fixed = stabilize_rank(stable)
    assert again == ()
    assert fixed == stable


def test_stabilize_rank_two_rounds():
    nd = numerical_data(3, (0, 0, 0), [(-2, -1, -1), (2, 1, 1)])
    steps, stable = stabilize_rank(nd)
    assert [s.center for s in steps] == [(1, 2, 3), (1, 2)]
    assert stable.k == 5
    assert all(stable.rank(i) <= 1 for i in (1, 2))
    assert stable.markings[0] == (-1, 0, 0, 0, 0)


def ray_primitives(fan):
    return {r.primitive for r in fan.rays}


def cone_primitives(fan):
    """Each maximal cone as the set of its ray primitives."""
    return {frozenset(fan.ray(x).primitive for x in c) for c in fan.maximal_cones()}


def face_rays(fan, J=(1, 2)):
    """The fan's rays on the coordinate face J, as check_slope_sensitivity
    reports them for data without markings."""
    k = len(next(iter(ray_primitives(fan))))
    nd = numerical_data(k, (0,) * k, [])
    tm = target_model(k, [((), [])])
    report = check_slope_sensitivity(nd, tm, fan)
    return next(p["rays"] for p in report["pairs"] if p["J"] == list(J))


def test_trivial_subdivision_shape():
    fan = trivial_subdivision(2)
    assert fan.mode == "embedded"
    assert ray_primitives(fan) == {(1, 0), (0, 1)}
    assert cone_primitives(fan) == {frozenset({(1, 0), (0, 1)})}
    assert face_rays(fan) == [(0, 1), (1, 0)]


def test_barycentric_subdivision_shape():
    fan = barycentric_subdivision(2)
    assert ray_primitives(fan) == {(1, 0), (0, 1), (1, 1)}
    assert cone_primitives(fan) == {
        frozenset({(1, 0), (1, 1)}),
        frozenset({(0, 1), (1, 1)}),
    }
    assert face_rays(fan) == [(0, 1), (1, 0), (1, 1)]
    fan3 = barycentric_subdivision(3)
    assert ray_primitives(fan3) == {
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)
    }
    assert len(fan3.maximal_cones()) == 6
    assert frozenset({(1, 0, 0), (1, 1, 0), (1, 1, 1)}) in cone_primitives(fan3)
    # restriction, not projection: only rays supported on the face count
    assert face_rays(fan3) == [(0, 1), (1, 0), (1, 1)]


def test_face_rays_are_a_restriction():
    # the star of the orthant at (1, 1, 1) projects (1, 1, 1) onto (1, 1) on
    # the face {1, 2}, but has no ray supported there besides the axes
    fan = subdivision(
        3,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
        [(0, 1, 3), (0, 2, 3), (1, 2, 3)],
    )
    assert validate_complex(fan)["ok"]
    assert face_rays(fan, (1, 2)) == [(0, 1), (1, 0)]
    assert face_rays(fan, (2, 3)) == [(0, 1), (1, 0)]


@pytest.mark.parametrize("k", range(6))
def test_generated_fans_are_valid_complexes(k):
    trivial, bary = trivial_subdivision(k), barycentric_subdivision(k)
    assert validate_complex(trivial)["ok"] and validate_complex(bary)["ok"]
    assert len(trivial.rays) == k and len(bary.rays) == 2**k - 1
    assert len(trivial.maximal_cones()) == 1
    assert len(bary.maximal_cones()) == math.factorial(k)
    assert trivial.dim() == bary.dim() == k


def test_subdivision_validator():
    fan = subdivision(2, [(2, 0), (0, 1), (3, 3)], [(0, 2), (1, 2)])
    assert fan.mode == "embedded" and validate_complex(fan)["ok"]
    assert ray_primitives(fan) == {(1, 0), (0, 1), (1, 1)}
    assert fan == barycentric_subdivision(2)
    # a repeated index names one ray; a repeated cone is one cone
    assert subdivision(2, [(1, 0), (0, 1), (1, 1)], [(0, 2, 2), (2, 1), (1, 2)]) == fan
    # each refusal is a ValueError that names the entry at fault
    refusals = [
        ([(1, 0), (1, 1)], [(0, 1)], "missing coordinate axis", "rays"),
        ([(1, 0), (2, 0), (0, 1)], [], "duplicate rays", "rays[1]"),
        ([(1, 0), (0, 1), (-1, 2)], [], "nonzero nonnegative", "rays[2]"),
        ([(1, 0), (0, 1), (0, 0)], [], "nonzero nonnegative", "rays[2]"),
        ([(1, 0), (0, 1)], [(0, 1), (0, 5)], "missing ray", "cones[1]"),
        ([(1, 0), (0, 1), (1, 2)], [(0, 2)], "not unimodular", "cones[0]"),
    ]
    for rays, cones, message, entry in refusals:
        with pytest.raises(ValueError, match=message) as info:
            subdivision(2, rays, cones)
        assert isinstance(info.value, SubdivisionError) and info.value.entry == entry


def test_sensitivity_p2_verdicts():
    nd, tm = p2_data_model()
    coarse = check_slope_sensitivity(nd, tm, trivial_subdivision(2))
    assert not coarse["sensitive"]
    assert coarse["pairs"][0]["J"] == [1, 2]
    assert coarse["pairs"][0]["slopes"] == [(1, 1)]
    assert coarse["pairs"][0]["missing"] == [(1, 1)]
    fine = check_slope_sensitivity(nd, tm, barycentric_subdivision(2))
    assert fine["sensitive"]
    assert fine["pairs"][0]["missing"] == []


def test_sensitivity_rank_one_is_vacuous():
    nd, tm = pr_data_model()
    report = check_slope_sensitivity(nd, tm, trivial_subdivision(1))
    assert report["sensitive"]
    assert report["pairs"] == []


def test_sensitivity_rank_mismatch():
    nd, tm = p2_data_model()
    with pytest.raises(ValueError, match="rank"):
        check_slope_sensitivity(nd, tm, trivial_subdivision(3))


def test_sensitivity_propagates_enumeration_bounds():
    nd = numerical_data(2, (0, 0), [])
    tm = target_model(2, [((), [((1, 0), "a")]), ((1,), [((-1, 0), "b")])])
    with pytest.raises(EnumerationBoundError, match="J = \\[1, 2\\]"):
        check_slope_sensitivity(nd, tm, trivial_subdivision(2))


def coeffs(serialized):
    return {tuple(sorted(t["monomial"].items())): t["coeff"] for t in serialized}


def test_compare_counterexample(f1ce):
    report = compare_under_subdivision(
        f1ce.complex, f1ce.offsets, f1ce.trace, f1ce.lifted_offsets
    )
    assert not report["equal"]
    assert coeffs(report["original"]) == {(("Z1", 2),): "1/1"}
    assert coeffs(report["pushed"]) == {
        (("Z1", 2),): "1/1",
        (("Z1", 1), ("Z2", 1)): "-1/1",
    }
    assert coeffs(report["difference"]) == {(("Z1", 1), ("Z2", 1)): "-1/1"}


def test_compare_pullback_offsets_agree(f1ce):
    from punctref.puncture import puncturing_data

    lifted = puncturing_data(
        {
            "p1.2": {"Z1": 1, "Z0": 1},
            "p2.2": {"Z1": 1, "Z0": 1},
        }
    )
    report = compare_under_subdivision(
        f1ce.complex, f1ce.offsets, f1ce.trace, lifted
    )
    assert report["equal"]
    assert report["difference"] == []
    assert coeffs(report["pushed"]) == {(("Z1", 2),): "1/1"}


def test_compare_rejects_bad_trace(f1ce):
    with pytest.raises(ValueError, match="not a cone"):
        compare_under_subdivision(
            f1ce.complex,
            f1ce.offsets,
            [(("Z2", "Z3"), "Q")],
            f1ce.lifted_offsets,
        )
