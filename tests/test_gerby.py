"""Root-stack twisting and the gerby pushforward identity."""
from fractions import Fraction

import pytest

from punctref.chowring import reduce
from punctref.gerby import (
    check_pushforward_identity,
    check_pushforward_identity_on_complex,
    derive_source_roots,
    root_pullback,
    root_pushforward,
    rooting_data,
    twist_complex,
    validate_rooting,
)
from punctref.puncture import puncturing_data
from punctref.tropdata import numerical_data

from conftest import p2_data_model, pr_data_model


def test_rooting_data_validation():
    assert rooting_data([2, 3]).target_roots == (2, 3)
    with pytest.raises(ValueError, match="target roots"):
        rooting_data([0])
    with pytest.raises(ValueError, match="target roots"):
        rooting_data([])
    with pytest.raises(ValueError, match="source roots"):
        rooting_data([2], [2, -1])


def test_derive_source_roots():
    nd, _ = pr_data_model()
    assert derive_source_roots(nd, (5,)) == (5, 5)
    assert derive_source_roots(nd, (4,)) == (2, 4)
    nd2, _ = p2_data_model()
    assert derive_source_roots(nd2, (5, 7)) == (35, 35)
    untouched = numerical_data(1, (1,), [(1,), (0,)])
    assert derive_source_roots(untouched, (6,)) == (6, 1)


def test_validate_rooting_clean():
    nd, _ = pr_data_model()
    report = validate_rooting(nd, rooting_data([5]))
    assert report["ok"]
    assert report["source_roots"] == (5, 5)
    assert report["size_warnings"] == []


def test_validate_rooting_size_warning():
    nd, _ = pr_data_model()
    report = validate_rooting(nd, rooting_data([2]))
    assert not report["ok"]
    assert all(v["condition"] == "size" for v in report["violations"])
    assert report["size_warnings"] == report["violations"]
    assert report["size_warnings"][0]["marking"] == 1


def test_validate_rooting_divisibility_and_coprimality():
    nd, _ = pr_data_model()
    report = validate_rooting(nd, rooting_data([5], [1, 1]))
    conditions = {v["condition"] for v in report["violations"]}
    assert "divisibility" in conditions
    assert "coprimality" in conditions


def test_validate_rooting_shape_errors():
    nd, _ = pr_data_model()
    with pytest.raises(ValueError, match="per divisor"):
        validate_rooting(nd, rooting_data([5, 5]))
    with pytest.raises(ValueError, match="per marking"):
        validate_rooting(nd, rooting_data([5], [5]))


def test_twist_complex_pr(pr):
    twisted, scaling = twist_complex(pr.complex, pr.offsets, rooting_data([5]))
    assert scaling == {"ray1": 5, "ray2": 5}
    (oid, f), = twisted.offsets
    assert oid == "p2.1"
    assert f.as_dict() == {"ray1": Fraction(1), "ray2": Fraction(1)}


def test_twist_complex_p2_scalings(p2):
    twisted, scaling = twist_complex(p2.complex, p2.offsets, rooting_data([5, 7]))
    assert scaling == {"Z0": 35, "Z1": 5, "Z2": 7}
    offs = {oid: {r: int(v) for r, v in f.as_dict().items()} for oid, f in twisted.offsets}
    assert offs == {
        "p2.1": {"Z0": 7, "Z1": 1},
        "p2.2": {"Z0": 5, "Z2": 1},
    }


def test_twist_rejects_nonconforming_offset_ids(p2):
    bad = puncturing_data({"weird": {"Z0": 1}})
    with pytest.raises(ValueError, match="convention"):
        twist_complex(p2.complex, bad, rooting_data([5, 7]))
    outside = puncturing_data({"p1.3": {"Z0": 1}})
    with pytest.raises(ValueError, match="outside"):
        twist_complex(p2.complex, outside, rooting_data([5, 7]))


def test_twist_checks_integrality_explicitly(p2, monkeypatch):
    # with every scaling forced to 1, the offset 1 at Z1 cannot divide by 5
    monkeypatch.setattr("punctref.gerby.lcm", lambda *args: 1)
    with pytest.raises(ArithmeticError, match="not integral"):
        twist_complex(p2.complex, p2.offsets, rooting_data([5, 7]))


def test_root_push_pull_roundtrip(p2):
    cls = reduce(
        [({"Z0": 2}, 1), ({"Z0": 1, "Z1": 1}, Fraction(3, 2)), ({}, -2)],
        p2.complex,
    )
    scaling = {"Z0": 35, "Z1": 5, "Z2": 7}
    up = root_pullback(cls, scaling, p2.complex)
    assert up.coeff({"Z0": 2}) == 35 * 35
    assert root_pushforward(up, scaling, p2.complex) == cls


def test_identity_on_p2_complex(p2):
    report = check_pushforward_identity_on_complex(
        p2.complex, p2.offsets, rooting_data([5, 7])
    )
    assert report["equal"]
    assert report["factor"] == "1/35"
    assert report["expected_factor"] == "1/35"
    assert report["scaling"] == {"Z0": 35, "Z1": 5, "Z2": 7}
    assert report["size_warnings"] == []


def test_identity_pr_prime_family():
    nd, tm = pr_data_model()
    for r in (2, 3, 5, 7):
        report = check_pushforward_identity(nd, tm, rooting_data([r]))
        assert report["equal"], r
        assert report["factor"] == f"1/{r}"
        assert report["expected_factor"] == f"1/{r}"
        if r == 2:
            assert report["size_warnings"]
        else:
            assert report["size_warnings"] == []


def test_identity_p2_end_to_end():
    nd, tm = p2_data_model()
    report = check_pushforward_identity(nd, tm, rooting_data([5, 7]))
    assert report["equal"]
    assert report["factor"] == "1/35"
    lhs_monos = [tuple(sorted(t["monomial"].items())) for t in report["lhs"]]
    assert (("r3", 2),) in lhs_monos


def test_identity_rejects_invalid_rooting():
    nd, tm = pr_data_model()
    with pytest.raises(ValueError, match="rooting data invalid"):
        check_pushforward_identity(nd, tm, rooting_data([5], [1, 1]))


def test_identity_on_complex_refuses_source_roots(pr):
    """Offsets alone carry no tangencies to check s against, so the rooting
    that the data refuses for divisibility is refused here too."""
    with pytest.raises(ValueError) as err:
        check_pushforward_identity_on_complex(
            pr.complex, pr.offsets, rooting_data([5], [1, 1])
        )
    assert str(err.value) == "source roots s need numerical data to check against"
    nd, tm = pr_data_model()
    minimal = rooting_data([5], derive_source_roots(nd, [5]))
    assert check_pushforward_identity(nd, tm, minimal) == (
        check_pushforward_identity(nd, tm, rooting_data([5]))
    )
