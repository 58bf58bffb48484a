"""Command-line interface: envelopes, exit codes, and determinism."""
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys

import pytest

import punctref.puncture
from punctref import __version__
from punctref.cli import _HANDLERS, main

from conftest import FIXTURE_NAMES, fixture_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert out, f"no stdout (stderr: {err!r})"
    doc = json.loads(out)
    return code, doc, err


def write_fixture(tmp_path, doc, name="fx.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_p2(capsys):
    code, doc, _ = run_json(capsys, "validate", fixture_path("p2-two-lines"))
    assert code == 0
    assert doc["command"] == "validate"
    assert doc["version"] == __version__
    assert len(doc["input_sha256"]) == 64
    assert doc["result"]["ok"]
    assert doc["result"]["complex"]["ok"]
    assert doc["result"]["data"]["k_P"] == 2


def test_validate_unbalanced_exits_1(capsys, tmp_path):
    path = write_fixture(
        tmp_path, {"data": {"k": 1, "degrees": [5], "markings": [[1]]}}
    )
    code, doc, _ = run_json(capsys, "validate", path)
    assert code == 1
    assert not doc["result"]["ok"]
    assert doc["result"]["data"]["violations"] == [1]


def test_enumerate_p2(capsys):
    code, doc, _ = run_json(capsys, "enumerate", fixture_path("p2-two-lines"))
    assert code == 0
    assert doc["result"]["count"] == 6
    rays = [r["id"] for r in doc["result"]["complex"]["rays"]]
    assert rays == ["r1", "r2", "r3"]
    assert len(doc["result"]["types"]) == 6
    dims = sorted(t["dim"] for t in doc["result"]["types"])
    assert dims == [0, 1, 1, 1, 2, 2]


def test_enumerate_needs_strata(capsys):
    code, out, err = run_cli(capsys, "enumerate", fixture_path("f1-blowup"))
    assert code == 2
    assert out == ""
    assert "strata" in err


def test_refined_class_p2_pinned_output(capsys):
    code, doc, _ = run_json(capsys, "refined-class", fixture_path("p2-two-lines"))
    assert code == 0
    assert doc["result"] == {
        "class": [
            {"coeff": "1/1", "monomial": {"Z0": 1, "Z1": 1}},
            {"coeff": "1/1", "monomial": {"Z0": 1, "Z2": 1}},
            {"coeff": "1/1", "monomial": {"Z0": 2}},
        ],
        "k_P": 2,
        "components": [["Z0"]],
    }


def test_refined_class_from_data_alone(capsys, tmp_path):
    original = json.loads(open(fixture_path("p2-two-lines")).read())
    path = write_fixture(
        tmp_path, {"data": original["data"], "strata": original["strata"]}
    )
    code, doc, _ = run_json(capsys, "refined-class", path)
    assert code == 0
    monos = [t["monomial"] for t in doc["result"]["class"]]
    assert {"r3": 2} in monos
    assert {"r1": 1, "r3": 1} in monos
    assert {"r2": 1, "r3": 1} in monos
    assert len(monos) == 3


def test_refined_class_trace_f1(capsys):
    code, doc, _ = run_json(
        capsys, "refined-class", fixture_path("f1-blowup"), "--trace"
    )
    assert code == 0
    assert doc["result"]["trace"] == [{"center": ["W0a", "W0b"], "new": "e0"}]
    assert len(doc["result"]["class"]) == 12
    by_mono = {
        tuple(sorted(t["monomial"].items())): t["coeff"]
        for t in doc["result"]["class"]
    }
    assert by_mono[(("Z1", 2),)] == "3/1"
    assert by_mono[(("Z1", 1), ("Z2", 1))] == "4/1"
    assert by_mono[(("W0a", 1), ("W0b", 1))] == "1/1"


def test_refined_class_crosscheck_backend(capsys):
    code, doc, _ = run_json(
        capsys,
        "refined-class",
        fixture_path("p2-two-lines"),
        "--backend",
        "aluffi-crosscheck",
    )
    assert code == 0
    assert len(doc["result"]["class"]) == 3


def test_segre_f1(capsys):
    code, doc, _ = run_json(capsys, "segre", fixture_path("f1-blowup"))
    assert code == 0
    gens = {g["puncture"]: g["values"] for g in doc["result"]["generators"]}
    assert gens["p1.1"] == {
        "R1": 1, "R2": 1, "R5": 1, "R6": 1, "W0a": 1, "Z1": 1, "Z2": 1
    }
    by_mono = {
        tuple(sorted(t["monomial"].items())): t["coeff"]
        for t in doc["result"]["class"]
    }
    assert by_mono[(("Z1", 1),)] == "1/1"
    assert by_mono[(("Z1", 1), ("Z2", 1))] == "-2/1"
    assert by_mono[(("W0a", 1), ("W0b", 1))] == "1/1"


def test_segre_max_codim(capsys):
    code, doc, _ = run_json(
        capsys, "segre", fixture_path("f1-blowup"), "--max-codim", "1"
    )
    assert code == 0
    assert [t["monomial"] for t in doc["result"]["class"]] == [
        {"Z1": 1},
        {"Z2": 1},
    ]


def test_twisted_check_pr_pinned(capsys):
    code, doc, _ = run_json(
        capsys, "twisted-check", fixture_path("pr-hyperplane"), "--r", "5"
    )
    assert code == 0
    assert doc["result"]["equal"] is True
    assert doc["result"]["factor"] == "1/5"
    assert doc["result"]["expected_factor"] == "1/5"


def test_twisted_check_p2(capsys):
    code, doc, _ = run_json(
        capsys, "twisted-check", fixture_path("p2-two-lines"), "--r", "5", "7"
    )
    assert code == 0
    assert doc["result"]["factor"] == "1/35"
    assert doc["result"]["scaling"] == {"Z0": 35, "Z1": 5, "Z2": 7}


def test_twisted_check_rooting_file(capsys, tmp_path):
    rooting = tmp_path / "rooting.json"
    rooting.write_text(json.dumps({"r": [3]}))
    code, doc, _ = run_json(
        capsys,
        "twisted-check",
        fixture_path("pr-hyperplane"),
        "--rooting",
        str(rooting),
    )
    assert code == 0
    assert doc["result"]["factor"] == "1/3"


def test_twisted_check_argument_exclusivity(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "twisted-check", fixture_path("pr-hyperplane")
    )
    assert code == 2 and out == "" and "exactly one" in err
    rooting = tmp_path / "rooting.json"
    rooting.write_text(json.dumps({"r": [3]}))
    code, out, err = run_cli(
        capsys,
        "twisted-check",
        fixture_path("pr-hyperplane"),
        "--r",
        "3",
        "--rooting",
        str(rooting),
    )
    assert code == 2 and out == "" and "exactly one" in err


def test_twisted_check_rejects_a_rooting_count_other_than_k(capsys, tmp_path):
    # pr has k = 1 and p2 has k = 2; surplus orders used to be ignored
    rooting = tmp_path / "rooting.json"
    rooting.write_text(json.dumps({"r": [3, 5]}))
    for name, orders in (
        ("pr-hyperplane", ["--r", "2", "3", "4", "5"]),
        ("pr-hyperplane", ["--rooting", str(rooting)]),
        ("p2-two-lines", ["--r", "2", "3", "5"]),
        ("p2-two-lines", ["--r", "5"]),
    ):
        code, out, err = run_cli(capsys, "twisted-check", fixture_path(name), *orders)
        assert code == 2 and out == "", (name, orders)
        assert err.startswith("error: need one target root per divisor direction")
        assert err.count("\n") == 1


def test_twisted_check_without_data_reads_k_off_the_offset_ids(capsys, tmp_path):
    # surplus orders were ignored here, since nothing stated k
    pr = fixture_path("pr-hyperplane")
    _, pinned, _ = run_json(capsys, "twisted-check", pr, "--r", "2")
    for name, k, good, bad in (
        ("pr-hyperplane", 1, ["2"], (["2", "3", "4", "5"], ["2", "3"])),
        ("p2-two-lines", 2, ["5", "7"], (["5"], ["5", "7", "11"])),
    ):
        with open(fixture_path(name)) as f:
            doc = json.load(f)
        del doc["data"], doc["strata"]
        path = write_fixture(tmp_path, doc)
        code, report, _ = run_json(capsys, "twisted-check", path, "--r", *good)
        assert code == 0
        if name == "pr-hyperplane":
            assert report["result"] == pinned["result"]
        for orders in bad:
            code, out, err = run_cli(capsys, "twisted-check", path, "--r", *orders)
            assert code == 2 and out == ""
            assert err == (
                "error: need one target root per divisor direction: "
                f"offsets name divisors up to k = {k}, got {len(orders)}\n"
            )
    # divisor 0 is no divisor: the twist refuses it, as with data
    doc["complex"]["offsets"] = [{"puncture": "p2.0", "values": {"Z0": 1}}]
    path = write_fixture(tmp_path, doc)
    code, out, err = run_cli(capsys, "twisted-check", path, "--r", "2")
    assert (code, out) == (2, "")
    assert err == "error: offset p2.0 names divisor 0 outside the rooting data\n"


def test_twisted_check_checks_source_roots_against_the_data(capsys, tmp_path):
    # s used to be read and then ignored, so [7, 7] passed as equal: true
    pr = fixture_path("pr-hyperplane")
    rooting = tmp_path / "rooting.json"
    rooting.write_text(json.dumps({"r": [5], "s": [7, 7]}))
    code, out, err = run_cli(capsys, "twisted-check", pr, "--rooting", str(rooting))
    assert (code, out) == (2, "")
    assert err.startswith("error: rooting data invalid: ") and err.count("\n") == 1
    assert "divisibility" in err and "coprimality" in err
    # the derived orders pass and print the bytes of --r alone
    rooting.write_text(json.dumps({"r": [5], "s": [5, 5]}))
    assert run_cli(capsys, "twisted-check", pr, "--rooting", str(rooting)) == run_cli(
        capsys, "twisted-check", pr, "--r", "5"
    )
    # one source root per marking
    rooting.write_text(json.dumps({"r": [5], "s": [5]}))
    code, out, err = run_cli(capsys, "twisted-check", pr, "--rooting", str(rooting))
    assert (code, out, err) == (2, "", "error: need one source root per marking\n")
    # without data nothing states the markings, so s cannot be checked
    with open(pr) as f:
        doc = json.load(f)
    del doc["data"], doc["strata"]
    path = write_fixture(tmp_path, doc)
    rooting.write_text(json.dumps({"r": [5], "s": [5, 5]}))
    code, out, err = run_cli(capsys, "twisted-check", path, "--rooting", str(rooting))
    assert (code, out) == (2, "")
    assert "data section" in err and err.count("\n") == 1


def invalid_complexes():
    """Fixture complexes that validate rejects, each with its first violation."""
    offsets = [{"puncture": "p1.1", "values": {"a": 1}}]
    yield {
        "rays": [{"id": "a", "primitive": [1, 0]}, {"id": "b", "primitive": [1, 2]}],
        "cones": [["a", "b"]],
        "offsets": offsets,
    }, "cone ('a', 'b') not unimodular"
    yield {
        "rays": [{"id": "a", "primitive": [1, 0]}, {"id": "b", "primitive": [0, 1, 0]}],
        "cones": [["a", "b"]],
        "offsets": offsets,
    }, "primitive vectors of mixed ambient dimension"
    yield {
        "rays": [{"id": "a", "primitive": []}],
        "cones": [["a"]],
        "offsets": offsets,
    }, "ray a primitive () not primitive"
    yield {
        "rays": [{"id": "a", "primitive": [1, 0]}, {"id": "b"}],
        "cones": [["a", "b"]],
        "offsets": offsets,
    }, "mixed mode: rays without primitives ['b']"


@pytest.mark.parametrize(
    "command", ["refined-class", "segre", "twisted-check", "compare-blowup"]
)
def test_commands_refuse_a_complex_that_validate_rejects(capsys, tmp_path, command):
    flags = {"twisted-check": ["--r", "2"]}.get(command, [])
    for cx, first in invalid_complexes():
        doc = {"complex": cx}
        if command == "compare-blowup":
            doc["trace"] = [{"center": ["a", "b"], "new": "e"}] if len(cx["rays"]) > 1 else []
            doc["lifted_offsets"] = cx["offsets"]
        path = write_fixture(tmp_path, doc)
        code, doc_out, _ = run_json(capsys, "validate", path)
        assert code == 1 and doc_out["result"]["complex"]["violations"][0] == first
        code, out, err = run_cli(capsys, command, path, *flags)
        assert (code, out) == (1, "")
        assert err == f"inconsistency: complex fails validation: {first}\n"


def test_compare_blowup_counterexample_exits_0(capsys):
    code, doc, _ = run_json(
        capsys, "compare-blowup", fixture_path("f1-counterexample")
    )
    assert code == 0
    assert doc["result"]["equal"] is False
    assert doc["result"]["difference"] == [
        {"coeff": "-1/1", "monomial": {"Z1": 1, "Z2": 1}}
    ]


def test_positivize_pinned(capsys, tmp_path):
    path = write_fixture(
        tmp_path,
        {"data": {"k": 1, "degrees": [1], "markings": [[4], [-1], [-2]]}},
    )
    code, doc, _ = run_json(capsys, "positivize", path)
    assert code == 0
    assert doc["result"]["positivized"] == {
        "k": 1,
        "degrees": [4],
        "markings": [[4], [0], [0]],
    }


def test_sensitivity_verdict_exit_codes(capsys):
    code, doc, _ = run_json(
        capsys,
        "sensitivity",
        fixture_path("p2-two-lines"),
        "--subdivision",
        "trivial",
    )
    assert code == 1
    assert doc["result"]["sensitive"] is False
    code, doc, _ = run_json(
        capsys,
        "sensitivity",
        fixture_path("p2-two-lines"),
        "--subdivision",
        "barycentric",
    )
    assert code == 0
    assert doc["result"]["sensitive"] is True


def test_sensitivity_subdivision_file(capsys, tmp_path):
    fan = tmp_path / "fan.json"
    fan.write_text(
        json.dumps(
            {"rays": [[1, 0], [0, 1], [1, 1]], "cones": [[0, 2], [1, 2]]}
        )
    )
    code, doc, _ = run_json(
        capsys,
        "sensitivity",
        fixture_path("p2-two-lines"),
        "--subdivision",
        str(fan),
    )
    assert code == 0
    assert doc["result"]["sensitive"] is True


def test_sensitivity_bad_subdivision_file(capsys, tmp_path):
    fan = tmp_path / "fan.json"
    fan.write_text(json.dumps({"rays": [[1, 0]]}))
    code, out, err = run_cli(
        capsys,
        "sensitivity",
        fixture_path("p2-two-lines"),
        "--subdivision",
        str(fan),
    )
    assert (code, out, err) == (2, "", "error: $.cones: missing\n")


K0_DATUM = {
    "data": {"k": 0, "degrees": [], "markings": [[], []]},
    "strata": [{"face": [], "classes": []}],
}

# input, --subdivision (keyword or fan document), exit code, and the sha256
# of [code, stdout, stderr], pinned from the output of the dataclass fan type
# that embedded cone complexes replaced
SENSITIVITY_EDGE_CASES = {
    "repeated-index": (
        "p2-two-lines",
        {"rays": [[1, 0], [0, 1], [1, 1]], "cones": [[0, 2, 2], [1, 2]]},
        0,
        "3cdd010e2147787d44c25a13cd49624d715e59a57d33fe0d87420c9ac037105b",
    ),
    "repeated-cone": (
        "p2-two-lines",
        {"rays": [[1, 0], [0, 1]], "cones": [[0, 1], [0, 1]]},
        1,
        "99240b98b21fec5eb3958430195a6d8fae00afc439ccbb20412383577a35c68b",
    ),
    "k0-trivial": (
        K0_DATUM,
        "trivial",
        0,
        "79a21a7add1ba90b2426bb972abe2c9d765e4728493594a8b9b88e9f357a813e",
    ),
    "k0-barycentric": (
        K0_DATUM,
        "barycentric",
        0,
        "79a21a7add1ba90b2426bb972abe2c9d765e4728493594a8b9b88e9f357a813e",
    ),
}


@pytest.mark.parametrize("case", sorted(SENSITIVITY_EDGE_CASES))
def test_sensitivity_edge_cases_keep_their_bytes(capsys, tmp_path, case):
    source, fan, expected_code, digest = SENSITIVITY_EDGE_CASES[case]
    if isinstance(source, dict):
        path = write_fixture(tmp_path, source)
    else:
        path = fixture_path(source)
    if isinstance(fan, dict):
        fan = write_fixture(tmp_path, fan, "fan.json")
    code, out, err = run_cli(capsys, "sensitivity", path, "--subdivision", fan)
    assert code == expected_code and err == ""
    if source is K0_DATUM:
        assert json.loads(out)["result"] == {"pairs": [], "sensitive": True}
    encoded = json.dumps([code, out, err]).encode()
    assert hashlib.sha256(encoded).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ("sensitivity", fixture_path("p2-two-lines"), "--subdivision", "/no/fan.json"),
        ("twisted-check", fixture_path("pr-hyperplane"), "--rooting", "/no/roots.json"),
    ],
)
def test_missing_option_file_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read input:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("sensitivity", fixture_path("p2-two-lines"), "--subdivision"),
        ("twisted-check", fixture_path("pr-hyperplane"), "--rooting"),
    ],
)
def test_invalid_option_file_json_exits_2(capsys, tmp_path, argv):
    path = tmp_path / "option.json"
    path.write_text("{not json")
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: $: invalid JSON:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("validate",),
        ("twisted-check", fixture_path("pr-hyperplane"), "--rooting"),
        ("sensitivity", fixture_path("p2-two-lines"), "--subdivision"),
    ],
)
def test_deeply_nested_json_exits_2(capsys, tmp_path, argv):
    """Past the recursion limit the decoder raises RecursionError, not a
    decode error; each of the three readers refuses it in one line."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: $: invalid JSON:") and err.count("\n") == 1


def test_repeated_stratum_face_exits_2(capsys, tmp_path):
    path = write_fixture(
        tmp_path,
        {
            "data": {"k": 1, "degrees": [1], "markings": [[2], [-1]]},
            "strata": [
                {"face": [], "classes": [{"pairing": [1], "label": "line"}]},
                {"face": [1], "classes": []},
                {"face": [1], "classes": [{"pairing": [1], "label": "line-in-H"}]},
            ],
        },
    )
    code, out, err = run_cli(capsys, "enumerate", path)
    assert code == 2 and out == ""
    assert err == "error: $.strata: face [1] listed twice\n"


def test_enumeration_bound_maps_to_exit_1(capsys, tmp_path):
    path = write_fixture(
        tmp_path,
        {
            "data": {"k": 1, "degrees": [0], "markings": []},
            "strata": [
                {"face": [], "classes": [{"pairing": [1], "label": "a"}]},
                {"face": [1], "classes": [{"pairing": [-1], "label": "b"}]},
            ],
        },
    )
    code, out, err = run_cli(capsys, "enumerate", path)
    assert code == 1
    assert out == ""
    assert err.startswith("inconsistency:")
    assert "both signs" in err


def test_vertex_bound_past_the_canonical_form_exits_1_at_once(tmp_path):
    """pr in degree 5 with markings (6), (-1) has the vertex bound 10; the
    enumeration ran for minutes before canonical_key refused a type."""
    path = write_fixture(
        tmp_path,
        {
            "data": {"k": 1, "degrees": [5], "markings": [[6], [-1]]},
            "strata": [
                {"face": [], "classes": [{"pairing": [1], "label": "line"}]},
                {"face": [1], "classes": [{"pairing": [1], "label": "line-in-H"}]},
            ],
        },
    )
    proc = run_capped(600_000, "enumerate", path, timeout=20)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == (
        b"inconsistency: vertex bound 10 is past the canonical form's cap of 8 vertices\n"
    )


def test_tree_labelings_past_the_walk_cap_exit_1_at_once(tmp_path):
    """Seven extra zero markings on a line keep the vertex bound at 8, the key
    cap, but the walk would visit 88 919 160 875 labelings; it had not ended
    after 20 s."""
    path = write_fixture(
        tmp_path,
        {
            "data": {"k": 1, "degrees": [1], "markings": [[1]] + [[0]] * 7},
            "strata": [{"face": [], "classes": [{"pairing": [1], "label": "line"}]}],
        },
    )
    proc = run_capped(600_000, "enumerate", path, timeout=20)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == (
        b"inconsistency: vertex bound 8 and 8 markings give 88919160875 tree "
        b"labelings, past the walk's cap of 1000000\n"
    )


def test_barycentric_subdivision_past_its_rank_cap_exits_1_at_once(tmp_path):
    """k = 9 with degrees all 1 and one marking (1, ..., 1): face-closing the
    9! flags ran out of a 600 MB address space after 19 s, and the
    interpreter's fatal MemoryError report took six lines."""
    ones = [1] * 9
    path = write_fixture(
        tmp_path,
        {
            "data": {"k": 9, "degrees": ones, "markings": [ones]},
            "strata": [{"face": [], "classes": [{"pairing": ones, "label": "line"}]}],
        },
    )
    proc = run_capped(600_000, "sensitivity", path, "--subdivision", "barycentric", timeout=10)
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == (
        b"inconsistency: barycentric subdivision in rank 9 is past its cap of rank 8\n"
    )


def test_missing_file_exits_2(capsys):
    code, out, err = run_cli(capsys, "validate", "/nonexistent/fx.json")
    assert code == 2 and out == "" and "cannot read input" in err


def test_invalid_json_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2 and out == "" and "invalid JSON" in err
    # bytes that decode as no text at all
    path.write_bytes(b"\xff\xfe{")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1


TWO_RAYS = {"rays": [{"id": "a"}, {"id": "b"}], "cones": [["a", "b"]]}
with open(fixture_path("f1-counterexample")) as _f:
    F1CE = json.load(_f)


@pytest.mark.parametrize(
    "command,doc,err",
    [
        (
            "validate",
            {"complex": {**TWO_RAYS, "offsets": [{"puncture": "p1.1", "values": {"a": -1}}]}},
            "$.complex.offsets[0].values.a: offset value -1 is negative",
        ),
        ("validate", {"complex": TWO_RAYS, "trace": [{"new": "e"}]}, "$.trace[0].center: missing"),
        ("validate", {"trace": []}, "$.trace: a trace needs a complex"),
        (
            "validate",
            {"complex": TWO_RAYS, "lifted_offsets": []},
            "$.lifted_offsets: lifted offsets need a complex and a trace",
        ),
        (
            "validate",
            {"complex": TWO_RAYS, "trace": [{"center": ["a", "b"]}], "lifted_offsets": []},
            "$.trace[0].new: steps must name new rays when lifted offsets are given",
        ),
        (
            "refined-class",
            {"data": {"k": 1, "degrees": [1], "markings": [[2], [-1]]}},
            "$: need either complex with offsets or data with strata",
        ),
        (
            "validate",
            {"complex": {"rays": [{"id": ""}], "cones": []}},
            "$.complex.rays[0].id: ray id must be a nonempty string",
        ),
        (
            "validate",
            {
                "complex": {
                    **TWO_RAYS,
                    "offsets": [
                        {"puncture": "p2.1", "values": {"a": 1}},
                        {"puncture": "p2.1", "values": {"b": 1}},
                    ],
                }
            },
            "$.complex.offsets[1].puncture: duplicate offset id 'p2.1'",
        ),
        (
            ("sensitivity", "p2-two-lines", "--subdivision"),
            {"rays": [[1, 0], [0, 1], [1, 2]], "cones": [[0, 2], [1, 2]]},
            "$.cones[0]: cone [0, 2] is not unimodular",
        ),
        (
            ("sensitivity", "p2-two-lines", "--subdivision"),
            {"rays": [[1, 0], [1, 1]], "cones": [[0, 1]]},
            "$.rays: missing coordinate axis ray (0, 1)",
        ),
        (
            ("sensitivity", "p2-two-lines", "--subdivision"),
            {"rays": [[1, 0], [0, 1], [2, 0]], "cones": []},
            "$.rays[2]: duplicate rays after normalization",
        ),
        *(
            (
                "enumerate",
                {
                    "data": {"k": 1, "degrees": [1], "markings": [[2], [-1]]},
                    "strata": [{"face": [], "classes": [{"pairing": [1], "label": label}]}],
                },
                f"$.strata[0].classes[0].label: expected a string, got {kind}",
            )
            for label, kind in ((None, "NoneType"), ({"a": 1}, "dict"), (7, "int"))
        ),
        # a trace step the complex refuses is named at its index
        (
            "compare-blowup",
            {**F1CE, "trace": [{"center": ["Z2", "Z3"], "new": "Z0"}]},
            "$.trace[0]: center ('Z2', 'Z3') is not a cone of the complex",
        ),
        (
            "compare-blowup",
            {**F1CE, "trace": [{"center": ["Z1", "Z2", "Z3"], "new": "Z0"}]},
            "$.trace[0]: center must be a two-ray set, got ('Z1', 'Z2', 'Z3')",
        ),
        (
            "compare-blowup",
            {**F1CE, "trace": [{"center": ["Z1", "Z2"], "new": "Z3"}]},
            "$.trace[0]: new ray id 'Z3' already present",
        ),
        (
            "compare-blowup",
            {
                **F1CE,
                "trace": [
                    {"center": ["Z1", "Z2"], "new": "Z0"},
                    {"center": ["Z2", "Z3"], "new": "W"},
                ],
            },
            "$.trace[1]: center ('Z2', 'Z3') is not a cone of the complex",
        ),
    ],
)
def test_schema_refusals_name_their_json_path(capsys, tmp_path, command, doc, err):
    # a (command, fixture, option) triple reads the document as the option's file
    if isinstance(command, tuple):
        command, fixture, option = command
        argv = (command, fixture_path(fixture), option, write_fixture(tmp_path, doc))
    else:
        argv = (command, write_fixture(tmp_path, doc))
    code, out, stderr = run_cli(capsys, *argv)
    assert (code, out, stderr) == (2, "", f"error: {err}\n")


def test_rooting_file_without_r_exits_2(capsys, tmp_path):
    rooting = tmp_path / "roots.json"
    rooting.write_text(json.dumps({"s": [1]}))
    code, out, err = run_cli(
        capsys, "twisted-check", fixture_path("pr-hyperplane"), "--rooting", str(rooting)
    )
    assert (code, out, err) == (2, "", "error: $.r: missing\n")


def test_schema_error_carries_json_path(capsys, tmp_path):
    path = write_fixture(
        tmp_path, {"complex": {"rays": [{"id": 5}], "cones": []}}
    )
    code, out, err = run_cli(capsys, "validate", path)
    assert code == 2 and out == ""
    assert "$.complex.rays[0].id" in err


def test_bad_flag_values_exit_2(capsys):
    code, out, err = run_cli(
        capsys, "validate", fixture_path("p2-two-lines"), "--threads", "0"
    )
    assert code == 2 and "threads" in err
    code, out, err = run_cli(
        capsys, "segre", fixture_path("f1-blowup"), "--max-codim", "-1"
    )
    assert code == 2 and "max-codim" in err


@pytest.mark.parametrize("fixture,max_codim,bound", [
    ("p2-two-lines", "2147483648000", "4611686018431682871296001"),
    ("f1-blowup", "999999999", "4999999996999999999"),
])
def test_oversized_max_codim_is_refused_in_one_line(capsys, fixture, max_codim, bound):
    """The term bound of the class refuses it before any subdivision, where
    these values used to run out of memory."""
    code, out, err = run_cli(capsys, "segre", fixture_path(fixture), "--max-codim", max_codim)
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"inconsistency: a Segre class through codim {max_codim} may have {bound} "
        "terms, over the budget of 1000000"
    ]


def test_large_orders_end_at_the_step_budget_in_one_line(capsys, monkeypatch):
    """The twisted offsets grow with r, and so does the principalization's
    step count: --r 5 7 takes 2 steps, --r 1009 7 1002, and --r 100003 7
    passes the 10000 of MAX_STEPS after about 20 s. A small budget refuses
    it in the same one line."""
    monkeypatch.setattr(punctref.puncture, "MAX_STEPS", 64)
    p2 = fixture_path("p2-two-lines")
    assert run_cli(capsys, "twisted-check", p2, "--r", "5", "7")[0] == 0
    code, out, err = run_cli(capsys, "twisted-check", p2, "--r", "100003", "7")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["inconsistency: step budget 64 exhausted"]


def run_capped(limit_kib, *argv, timeout=120):
    """The CLI in a fresh process under an address-space limit of limit_kib
    KiB, killed after timeout seconds."""
    limit = limit_kib * 1024

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "punctref.cli", *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=path),
        preexec_fn=cap_memory,
        timeout=timeout,
    )


def test_max_codim_within_the_bound_runs_in_bounded_memory():
    """f1-blowup through codim 100 passes the term bound (50701); its
    10100-term class once ran out of a 600 MB address space on the
    intermediates of the Segre product."""
    proc = run_capped(600_000, "segre", fixture_path("f1-blowup"), "--max-codim", "100")
    assert proc.returncode == 0, proc.stderr[-400:]
    assert len(json.loads(proc.stdout)["result"]["class"]) == 10100


def test_max_codim_250_runs_in_bounded_time_and_memory():
    """f1-blowup through codim 250 (62750 terms): while each Q_d of the
    bending step summed blowdown kernels over t and j, the time grew like
    m^4 and passed the timeout; the closed form grows with the output."""
    proc = run_capped(
        600_000, "segre", fixture_path("f1-blowup"), "--max-codim", "250", timeout=20
    )
    assert proc.returncode == 0, proc.stderr[-400:]
    assert len(json.loads(proc.stdout)["result"]["class"]) == 62750


def test_max_codim_on_an_empty_complex_runs_in_bounded_memory(tmp_path):
    """With no ray the term bound is 1 for any --max-codim; the power series
    then kept a list per degree up to it, and ran out of memory."""
    path = write_fixture(tmp_path, {"complex": {
        "rays": [], "cones": [], "offsets": [{"puncture": "p1.1", "values": {}}],
    }})
    for backend in ("resolution", "aluffi-crosscheck"):
        proc = run_capped(
            600_000, "segre", path, "--max-codim", "999999999", "--backend", backend,
            timeout=20,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert json.loads(proc.stdout)["result"]["class"] == []


def test_long_trace_runs_in_bounded_memory(tmp_path):
    """(a^10001 b, a^2 b^5) on the 2-ray chart takes 2503 subdivision steps.
    A trace that kept every step's two complexes ran out of a 200 MB address
    space; a step that holds its center's link does not."""
    path = write_fixture(tmp_path, {"complex": {
        "rays": [{"id": "a"}, {"id": "b"}],
        "cones": [["a", "b"]],
        "offsets": [
            {"puncture": "p1.1", "values": {"a": 10001, "b": 1}},
            {"puncture": "p2.1", "values": {"a": 2, "b": 5}},
        ],
    }})
    proc = run_capped(200_000, "segre", path)
    assert proc.returncode == 0, proc.stderr[-400:]
    assert json.loads(proc.stdout)["command"] == "segre"


def run_usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    captured = capsys.readouterr()
    return exit_.value.code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("segre",),
        ("segre", fixture_path("f1-blowup"), "--max-codim", "x"),
        ("bogus",),
        (),
        # argparse echoes an unrecognized argument as it is
        ("validate", fixture_path("p2-two-lines"), "x\ny"),
    ],
)
def test_usage_errors_are_one_line(capsys, argv):
    code, out, err = run_usage_error(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "p2-two-lines", "--backend", "aluffi-crosscheck"),
        ("enumerate", "p2-two-lines", "--trace"),
        ("refined-class", "f1-blowup", "--max-codim", "1"),
        ("segre", "f1-blowup", "--rooting", "roots.json"),
        ("twisted-check", "pr-hyperplane", "--r", "5", "--trace"),
        ("compare-blowup", "f1-counterexample", "--backend", "aluffi-crosscheck"),
        ("positivize", "p2-two-lines", "--max-codim", "1"),
        ("sensitivity", "p2-two-lines", "--trace"),
    ],
)
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    command, name, *flags = argv
    code, out, err = run_usage_error(capsys, command, fixture_path(name), *flags)
    rejected = flags[2:] if command == "twisted-check" else flags
    assert code == 2 and out == ""
    assert err == f"error: unrecognized arguments: {' '.join(rejected)}\n"


def test_help_still_exits_0(capsys):
    for argv in (["-h"], ["segre", "-h"]):
        code, out, err = run_usage_error(capsys, *argv)
        assert code == 0 and out.startswith("usage: punctref") and err == ""


def test_byte_determinism_across_runs_and_threads(capsys):
    _, out1, _ = run_cli(capsys, "refined-class", fixture_path("f1-blowup"))
    _, out2, _ = run_cli(capsys, "refined-class", fixture_path("f1-blowup"))
    _, out3, _ = run_cli(
        capsys, "refined-class", fixture_path("f1-blowup"), "--threads", "8"
    )
    assert out1 == out2 == out3


def test_subprocess_entry_point(tmp_path):
    exe = shutil.which("punctref")
    if exe:
        cmd = [exe]
    else:
        cmd = [sys.executable, "-m", "punctref.cli"]
    proc = subprocess.run(
        cmd + ["refined-class", fixture_path("p2-two-lines")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["result"]["k_P"] == 2


def run_under_hash_seed(seed, *argv):
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "punctref.cli", *argv],
        capture_output=True,
        env=env,
        timeout=120,
    )
    return proc.returncode, proc.stdout


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # cones are a set of str tuples, whose iteration order follows the
    # hash seed; four non-unimodular cones exercise validate's message order
    square = {
        "complex": {
            "rays": [
                {"id": "a", "primitive": [1, 0]},
                {"id": "b", "primitive": [1, 2]},
                {"id": "c", "primitive": [-1, 0]},
                {"id": "d", "primitive": [-1, -2]},
            ],
            "cones": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
        }
    }
    runs = [
        (cmd, fixture_path(name), "--trace")
        for name in FIXTURE_NAMES
        for cmd in ("refined-class", "segre")
    ]
    # enumerate's type order and ray names come from canonical_key
    runs += [("enumerate", fixture_path(name)) for name in ("p2-two-lines", "pr-hyperplane")]
    runs.append(("validate", write_fixture(tmp_path, square)))
    for argv in runs:
        assert run_under_hash_seed(0, *argv) == run_under_hash_seed(1, *argv), argv
    code, out = run_under_hash_seed(0, *runs[-1])
    assert code == 1
    violations = json.loads(out)["result"]["complex"]["violations"]
    assert len(violations) == 4


# twisted-check orders, one per divisor direction of each fixture's data
CORPUS_ROOTS = {
    "p2-two-lines": ("2", "3"),
    "pr-hyperplane": ("3",),
    "f1-blowup": ("3",),
    "f1-counterexample": ("2", "3"),
}

# sha256 of [exit code, stdout, stderr] per argv of corpus_argvs, fixture
# paths shortened to their file names
CORPUS_DIGESTS = {
    "validate p2-two-lines.json":
        "db3cdc27eb1b136f2a52a08c8dc75b534b025a5c19e041ce682c1540f119a39f",
    "enumerate p2-two-lines.json":
        "cd54d903ffebbcbd6efef76fc0e41373f43c4815cd1e425fb69382e04e4da49b",
    "refined-class p2-two-lines.json":
        "ccbd712c80b5b9f905077d65bf6d6ba38d2c99a679f50c68e5b98ba1097bf8a3",
    "segre p2-two-lines.json":
        "404bbbc40c31bcc04a4a8f9fbcd1b694f14356406a08a974956981307582d296",
    "twisted-check p2-two-lines.json":
        "9899809d96b0b1a613ceece6a07f329f0e7068b0ac4eebd60653980e4f1d301f",
    "compare-blowup p2-two-lines.json":
        "db5d8d068c39bc6de2a2d39365b2c368b819834fa4ff93a760aa38e62b637a15",
    "positivize p2-two-lines.json":
        "8be6102e8ca34efa8470a9e73ca26217b830560fdeea5e1779bd9ceb4b58702c",
    "sensitivity p2-two-lines.json":
        "99240b98b21fec5eb3958430195a6d8fae00afc439ccbb20412383577a35c68b",
    "refined-class p2-two-lines.json --trace":
        "d580c235367d415a3993466cc646ae7df20fd41b612fa8316137ae0e792e072b",
    "segre p2-two-lines.json --trace":
        "4d5bdb04fd0971428b1c72729162a71c8b49f746ca7e7c60a57f4560bfdc02aa",
    "refined-class p2-two-lines.json --backend aluffi-crosscheck":
        "ccbd712c80b5b9f905077d65bf6d6ba38d2c99a679f50c68e5b98ba1097bf8a3",
    "segre p2-two-lines.json --backend aluffi-crosscheck":
        "404bbbc40c31bcc04a4a8f9fbcd1b694f14356406a08a974956981307582d296",
    "twisted-check p2-two-lines.json --backend aluffi-crosscheck --r 2 3":
        "a461c404720522949c4434726274eeb1ae35972c362c57d020c28209ad0e0163",
    "sensitivity p2-two-lines.json --subdivision barycentric":
        "3cdd010e2147787d44c25a13cd49624d715e59a57d33fe0d87420c9ac037105b",
    "validate pr-hyperplane.json":
        "431387f6eccd639a652cf87759ba90edf21d0724751f13ecf97d099e7235615d",
    "enumerate pr-hyperplane.json":
        "cd0205727f77b4db1f7ed3f920fecbe18979997663395bb7ce93534851ae0ceb",
    "refined-class pr-hyperplane.json":
        "9421b6dbb729d9c65e587c2c9d4ba69fa8944714e775e08fa595a0a7856552d1",
    "segre pr-hyperplane.json":
        "1150e9986e058192fb094fe87c1d0189a41f7f065f39624735f275eeb47848e1",
    "twisted-check pr-hyperplane.json":
        "9899809d96b0b1a613ceece6a07f329f0e7068b0ac4eebd60653980e4f1d301f",
    "compare-blowup pr-hyperplane.json":
        "db5d8d068c39bc6de2a2d39365b2c368b819834fa4ff93a760aa38e62b637a15",
    "positivize pr-hyperplane.json":
        "ef4046e9b673f5f5a12547bf09588f343b3249dc40cb39a782cf172aeba1d7f3",
    "sensitivity pr-hyperplane.json":
        "de3524acc32b619cba64b88beedae6a1f785cb8fd96e5d4ee5cfdc9bed039ab9",
    "refined-class pr-hyperplane.json --trace":
        "fd44704d293f8574ce67e0903dea1c111ed8af17b34de43bbe8fbf3716288905",
    "segre pr-hyperplane.json --trace":
        "15227dab0db513bd70dc1d9ffb511a9d5c2cf36a808dd2cbc3bcc6faf691dd41",
    "refined-class pr-hyperplane.json --backend aluffi-crosscheck":
        "9421b6dbb729d9c65e587c2c9d4ba69fa8944714e775e08fa595a0a7856552d1",
    "segre pr-hyperplane.json --backend aluffi-crosscheck":
        "1150e9986e058192fb094fe87c1d0189a41f7f065f39624735f275eeb47848e1",
    "twisted-check pr-hyperplane.json --backend aluffi-crosscheck --r 3":
        "c788db674b88ead417523ca4419cb0dafbe854b14e460e2ae080ec0eb4db9013",
    "sensitivity pr-hyperplane.json --subdivision barycentric":
        "de3524acc32b619cba64b88beedae6a1f785cb8fd96e5d4ee5cfdc9bed039ab9",
    "validate f1-blowup.json":
        "2b985f649af54ec57164902aa2bdda227bae26bedfe82cc11ec8196b43bed127",
    "enumerate f1-blowup.json":
        "0c3686de4f765b9c370c5e98c01390e48d0e384eac572a7cb8abfbf223d6a131",
    "refined-class f1-blowup.json":
        "26fd31159f1434327d0cc03265527b85ff9f7138694d25db8b2b86dd91502fae",
    "segre f1-blowup.json":
        "2d6c000de9717f862c0a97ad7864ae15ea9ab63b2ca5d6198786dbf6407cf6af",
    "twisted-check f1-blowup.json":
        "9899809d96b0b1a613ceece6a07f329f0e7068b0ac4eebd60653980e4f1d301f",
    "compare-blowup f1-blowup.json":
        "db5d8d068c39bc6de2a2d39365b2c368b819834fa4ff93a760aa38e62b637a15",
    "positivize f1-blowup.json":
        "645928abdf7e62df8c81433f5a3544e3fbf30822c4c16f03479c769aa6b39b6d",
    "sensitivity f1-blowup.json":
        "0c3686de4f765b9c370c5e98c01390e48d0e384eac572a7cb8abfbf223d6a131",
    "refined-class f1-blowup.json --trace":
        "b585944da0918de2a0d1e3264a910602cc19e021d60f095c284dea1a05d71734",
    "segre f1-blowup.json --trace":
        "b691e3baefe98a7335de67456e8f29175d6c3dcc8beebc8b28f72d6a865b4010",
    "refined-class f1-blowup.json --backend aluffi-crosscheck":
        "26fd31159f1434327d0cc03265527b85ff9f7138694d25db8b2b86dd91502fae",
    "segre f1-blowup.json --backend aluffi-crosscheck":
        "2d6c000de9717f862c0a97ad7864ae15ea9ab63b2ca5d6198786dbf6407cf6af",
    "twisted-check f1-blowup.json --backend aluffi-crosscheck --r 3":
        "f353708fbf6a06539fce9c9798ad5afe4210b6c07af9f85ec1097dc78bbe24bb",
    "sensitivity f1-blowup.json --subdivision barycentric":
        "0c3686de4f765b9c370c5e98c01390e48d0e384eac572a7cb8abfbf223d6a131",
    "validate f1-counterexample.json":
        "9e516258d0ee36216824aba645b534367daca724864e9aaf10a932e78ccffa0e",
    "enumerate f1-counterexample.json":
        "0c3686de4f765b9c370c5e98c01390e48d0e384eac572a7cb8abfbf223d6a131",
    "refined-class f1-counterexample.json":
        "360d42e76a602616e70125215eb400a3e3f073b05b0c4c65a8e0d3159709af68",
    "segre f1-counterexample.json":
        "e4bc440637a3d63d56f9166cd99837957dbc050f49b39392bee0a43760d3c956",
    "twisted-check f1-counterexample.json":
        "9899809d96b0b1a613ceece6a07f329f0e7068b0ac4eebd60653980e4f1d301f",
    "compare-blowup f1-counterexample.json":
        "dedc07ddcd5058f7b7ff214c315327ab24748a134ae042c38b02b8c0a417f05f",
    "positivize f1-counterexample.json":
        "dfbdedffda8077300a0af4d16f48ebc679718c321bbd46aed00593f8906629f1",
    "sensitivity f1-counterexample.json":
        "0c3686de4f765b9c370c5e98c01390e48d0e384eac572a7cb8abfbf223d6a131",
    "refined-class f1-counterexample.json --trace":
        "9d113c56faf6119d2eeb1af28b7d3dc4517299c2cd519a3cea6dd91c983e2d6f",
    "segre f1-counterexample.json --trace":
        "121af6e5889d9877eb696a1c6d6735e4df7422a4431e2954e4fb6050727a9472",
    "refined-class f1-counterexample.json --backend aluffi-crosscheck":
        "360d42e76a602616e70125215eb400a3e3f073b05b0c4c65a8e0d3159709af68",
    "segre f1-counterexample.json --backend aluffi-crosscheck":
        "e4bc440637a3d63d56f9166cd99837957dbc050f49b39392bee0a43760d3c956",
    "twisted-check f1-counterexample.json --backend aluffi-crosscheck --r 2 3":
        "01523df98753c89005d796396521e814663213d36de1000f241c3ad458ab5f8b",
    "sensitivity f1-counterexample.json --subdivision barycentric":
        "0c3686de4f765b9c370c5e98c01390e48d0e384eac572a7cb8abfbf223d6a131",
    "twisted-check pr-hyperplane.json --r 2":
        "3922a5ff4b7639c19fd6066432ae4a42ea64c2eb5846e998a18203f546045648",
    "twisted-check pr-hyperplane.json --r 3":
        "c788db674b88ead417523ca4419cb0dafbe854b14e460e2ae080ec0eb4db9013",
    "twisted-check pr-hyperplane.json --r 4":
        "8ffbd87b5d727cc24245b1301badc24d5d971e76927a323d3d5be27695c5a66d",
    "twisted-check pr-hyperplane.json --r 5":
        "ae0e87309444c1a9e37faf125355cf5a1591b5f886b0e9e6520be517c9da136f",
    "twisted-check pr-hyperplane.json --r 6":
        "a2fab57873e14bffa85e37052d0ac9d20297c6e8ecb303ecfa6d2c76f1e4370e",
    "twisted-check pr-hyperplane.json --r 7":
        "ed034ba876bbe4d876ca3ee88b9d5c7feb31138b149adfabf775f54f0ee64f6c",
    "twisted-check pr-hyperplane.json --r 8":
        "8f3a53035366a7769ab7d8d75d3bb1094164f319e0498862c6e48ad2a4c2b043",
    "twisted-check pr-hyperplane.json --r 9":
        "7f061fac24c76da4b3950efbb8baab190fcf5ea07eb10f0b36b1feba4c706e21",
}


def corpus_argvs():
    """Every subcommand on every fixture; per fixture --trace, the
    aluffi-crosscheck backend and the barycentric fan; then twisted-check on
    the hyperplane at each order 2..9."""
    argvs = []
    for name in FIXTURE_NAMES:
        fx = name + ".json"
        argvs += [[cmd, fx] for cmd in _HANDLERS]
        argvs += [["refined-class", fx, "--trace"], ["segre", fx, "--trace"]]
        backend = ["--backend", "aluffi-crosscheck"]
        argvs += [["refined-class", fx, *backend], ["segre", fx, *backend]]
        argvs.append(["twisted-check", fx, *backend, "--r", *CORPUS_ROOTS[name]])
        argvs.append(["sensitivity", fx, "--subdivision", "barycentric"])
    argvs += [["twisted-check", "pr-hyperplane.json", "--r", str(r)] for r in range(2, 10)]
    return argvs


def test_corpus_output_digests(capsys):
    digests = {}
    for argv in corpus_argvs():
        path = fixture_path(argv[1].removesuffix(".json"))
        code, out, err = run_cli(capsys, argv[0], path, *argv[2:])
        encoded = json.dumps([code, out, err]).encode()
        digests[" ".join(argv)] = hashlib.sha256(encoded).hexdigest()
    assert digests == CORPUS_DIGESTS
