"""Fixture JSON loading, schema diagnostics, and serialization.

A fixture file may carry any of: numerical data, target strata, an explicit
cone complex with puncturing offsets, and a subdivision trace with lifted
offsets. Loaders validate shapes eagerly and report failures with JSON-path
diagnostics, each rule stated once: ``_object`` refuses a value that is not
an object, or else its first missing required member at that member's path;
``_array`` pairs each array entry with its indexed path; ``_int_list`` and
``_id_list`` type the entries of integer and ray-id arrays. ``_require``
names the sections a command needs that a fixture lacks. Serializers emit
the same shapes the loaders accept: ``trace_to_json`` writes a subdivision
trace as the steps ``_load_trace`` reads.
"""
from __future__ import annotations

import json
from typing import Any, Optional, Sequence

from .conecx import ConeComplex, Ray, SubdivisionStep, _Record, build_complex
from .tropdata import NumericalData, PuncturingData, TargetModel, TropicalType
from .tropdata import numerical_data, puncturing_data, target_model

__all__ = [
    "SchemaError",
    "Fixture",
    "load_fixture",
    "load_fixture_file",
    "load_rooting_file",
    "load_subdivision_arg",
    "complex_to_json",
    "offsets_to_json",
    "trace_to_json",
    "data_to_json",
    "types_to_json",
]


class SchemaError(ValueError):
    """Malformed fixture input; carries the JSON path of the offense."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


class Fixture(_Record):
    def __init__(self, data: Optional[NumericalData], model: Optional[TargetModel],
                 complex: Optional[ConeComplex], offsets: Optional[PuncturingData],
                 trace: Optional[tuple[tuple, ...]],
                 lifted_offsets: Optional[PuncturingData]) -> None:
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "complex", complex)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "trace", trace)
        object.__setattr__(self, "lifted_offsets", lifted_offsets)


def _expect(obj: Any, kind: type, path: str, what: str) -> Any:
    if not isinstance(obj, kind) or (kind is int and isinstance(obj, bool)):
        raise SchemaError(path, f"expected {what}, got {type(obj).__name__}")
    return obj


def _object(obj: Any, path: str, what: str, *required: str) -> dict:
    """obj as a JSON object; the first missing required member, in the order
    given, is refused at its own path."""
    _expect(obj, dict, path, what)
    for key in required:
        if key not in obj:
            raise SchemaError(f"{path}.{key}", "missing")
    return obj


def _array(obj: Any, path: str, what: str) -> list[tuple[str, Any]]:
    """The (path, entry) pairs of a JSON array."""
    _expect(obj, list, path, what)
    return [(f"{path}[{i}]", x) for i, x in enumerate(obj)]


def _int_list(obj: Any, path: str) -> list[int]:
    pairs = _array(obj, path, "an array of integers")
    return [_expect(x, int, p, "an integer") for p, x in pairs]


def _id_list(obj: Any, path: str) -> list[str]:
    pairs = _array(obj, path, "an array of ray ids")
    return [_expect(x, str, p, "a ray id string") for p, x in pairs]


def _load_data(obj: Any, path: str) -> NumericalData:
    _object(obj, path, "an object", "k", "degrees", "markings")
    k = _expect(obj["k"], int, f"{path}.k", "an integer")
    degrees = _int_list(obj["degrees"], f"{path}.degrees")
    rows = _array(obj["markings"], f"{path}.markings", "an array")
    markings = [_int_list(row, p) for p, row in rows]
    try:
        return numerical_data(k, degrees, markings)
    except ValueError as e:
        raise SchemaError(path, str(e)) from e


def _load_model(obj: Any, k: int, path: str) -> TargetModel:
    rows = []
    for p, entry in _array(obj, path, "an array of strata"):
        _object(entry, p, "an object", "face", "classes")
        face = _int_list(entry["face"], f"{p}.face")
        classes = []
        for j, (cp, cl) in enumerate(_array(entry["classes"], f"{p}.classes", "an array")):
            _object(cl, cp, "an object", "pairing")
            pairing = _int_list(cl["pairing"], f"{cp}.pairing")
            label = _expect(cl.get("label", f"c{j}"), str, f"{cp}.label", "a string")
            classes.append((pairing, label))
        rows.append((face, classes))
    try:
        return target_model(k, rows)
    except ValueError as e:
        raise SchemaError(path, str(e)) from e


def _load_offsets(obj: Any, ray_ids: Sequence[str], path: str) -> PuncturingData:
    mapping: dict[str, dict[str, int]] = {}
    known = set(ray_ids)
    for p, entry in _array(obj, path, "an array of offsets"):
        _object(entry, p, "an object", "puncture", "values")
        pid = _expect(entry["puncture"], str, f"{p}.puncture", "a string")
        if pid in mapping:
            raise SchemaError(f"{p}.puncture", f"duplicate offset id {pid!r}")
        vals = {}
        for ray, v in _object(entry["values"], f"{p}.values", "an object").items():
            vp = f"{p}.values.{ray}"
            if ray not in known:
                raise SchemaError(vp, f"unknown ray {ray!r}")
            _expect(v, int, vp, "an integer")
            if v < 0:
                raise SchemaError(vp, f"offset value {v} is negative")
            vals[ray] = v
        mapping[pid] = vals
    try:
        return puncturing_data(mapping)
    except ValueError as e:
        raise SchemaError(path, str(e)) from e


def _load_complex(obj: Any, path: str) -> tuple[ConeComplex, Any]:
    _object(obj, path, "an object", "rays", "cones")
    rays = []
    for p, entry in _array(obj["rays"], f"{path}.rays", "an array"):
        _object(entry, p, "an object", "id")
        rid = _expect(entry["id"], str, f"{p}.id", "a string")
        prim = None
        if entry.get("primitive") is not None:
            prim = tuple(_int_list(entry["primitive"], f"{p}.primitive"))
        try:
            rays.append(Ray(rid, prim))
        except ValueError as e:
            raise SchemaError(f"{p}.id", str(e)) from e
    cones_obj = _array(obj["cones"], f"{path}.cones", "an array")
    cones = [_id_list(cone, p) for p, cone in cones_obj]
    try:
        c = build_complex(rays, cones)
    except ValueError as e:
        raise SchemaError(path, str(e)) from e
    return c, obj.get("offsets")


def _load_trace(obj: Any, path: str) -> tuple[tuple, ...]:
    steps = []
    for p, entry in _array(obj, path, "an array of steps"):
        _object(entry, p, "an object", "center")
        center = _id_list(entry["center"], f"{p}.center")
        new = entry.get("new")
        if new is not None:
            _expect(new, str, f"{p}.new", "a string")
        steps.append((tuple(center), new))
    return tuple(steps)


def trace_to_json(trace: Sequence[SubdivisionStep]) -> list[dict]:
    return [{"center": list(s.center), "new": s.new_ray} for s in trace]


def load_fixture(doc: Any) -> Fixture:
    _object(doc, "$", "a fixture object")
    data = _load_data(doc["data"], "$.data") if "data" in doc else None
    model = None
    if "strata" in doc:
        if data is None:
            raise SchemaError("$.strata", "strata need accompanying data")
        model = _load_model(doc["strata"], data.k, "$.strata")
    cx = offsets = None
    offsets_obj = None
    if "complex" in doc:
        cx, offsets_obj = _load_complex(doc["complex"], "$.complex")
        if offsets_obj is not None:
            offsets = _load_offsets(offsets_obj, cx.ray_ids, "$.complex.offsets")
    trace = None
    lifted = None
    if "trace" in doc:
        if cx is None:
            raise SchemaError("$.trace", "a trace needs a complex")
        trace = _load_trace(doc["trace"], "$.trace")
    if "lifted_offsets" in doc:
        if cx is None or trace is None:
            raise SchemaError(
                "$.lifted_offsets", "lifted offsets need a complex and a trace"
            )
        upstairs_ids = list(cx.ray_ids)
        paths = [p for p, _ in _array(doc["trace"], "$.trace", "an array of steps")]
        for p, (_, name) in zip(paths, trace):
            if name is None:
                raise SchemaError(
                    f"{p}.new", "steps must name new rays when lifted offsets are given"
                )
            upstairs_ids.append(name)
        lifted = _load_offsets(doc["lifted_offsets"], upstairs_ids, "$.lifted_offsets")
    return Fixture(data, model, cx, offsets, trace, lifted)


_SECTION_NAMES = {
    "data": "data",
    "model": "strata",
    "complex": "complex",
    "offsets": "complex.offsets",
    "trace": "trace",
    "lifted_offsets": "lifted_offsets",
}


def _require(fixture: Fixture, what: str) -> None:
    """Refuse a fixture without each of the "+"-joined sections in what."""
    missing = [name for name in what.split("+") if getattr(fixture, name) is None]
    if missing:
        raise SchemaError(
            "$",
            "this command needs fixture sections: "
            + ", ".join(_SECTION_NAMES[m] for m in missing),
        )


def _read_json(filename: str) -> tuple[Any, bytes]:
    """The parsed document and the raw bytes of a JSON file."""
    with open(filename, "rb") as fh:
        raw = fh.read()
    try:
        return json.loads(raw), raw
    # a document nested past the recursion limit is refused as malformed too
    except (json.JSONDecodeError, RecursionError) as e:
        raise SchemaError("$", f"invalid JSON: {e}") from e


def load_fixture_file(filename: str) -> tuple[Fixture, bytes]:
    doc, raw = _read_json(filename)
    return load_fixture(doc), raw


def load_rooting_file(filename: str) -> tuple[tuple[int, ...], Optional[tuple[int, ...]]]:
    doc, _ = _read_json(filename)
    _object(doc, "$", "a rooting object", "r")
    r = tuple(_int_list(doc["r"], "$.r"))
    s = tuple(_int_list(doc["s"], "$.s")) if "s" in doc else None
    return r, s


def load_subdivision_arg(arg: str, k: int) -> ConeComplex:
    """Resolve a --subdivision argument, keyword or file path, to an embedded
    fan complex. A file holds ``{"rays": [[int]], "cones": [[ray index]]}``."""
    from .blowups import SubdivisionError, barycentric_subdivision, subdivision
    from .blowups import trivial_subdivision

    if arg == "trivial":
        return trivial_subdivision(k)
    if arg == "barycentric":
        return barycentric_subdivision(k)
    doc, _ = _read_json(arg)
    _object(doc, "$", "a subdivision object", "rays", "cones")
    rays = [_int_list(r, p) for p, r in _array(doc["rays"], "$.rays", "an array")]
    cones = [_int_list(c, p) for p, c in _array(doc["cones"], "$.cones", "an array")]
    try:
        return subdivision(k, rays, cones)
    except SubdivisionError as e:
        raise SchemaError(f"$.{e.entry}", str(e)) from e


def offsets_to_json(pd: PuncturingData) -> list[dict]:
    return [
        {"puncture": oid, "values": dict(sorted(f.as_dict().items()))}
        for oid, f in pd.offsets
    ]


def complex_to_json(c: ConeComplex, pd: PuncturingData) -> dict:
    rays = []
    for rid in c.ray_ids:
        ray = c.ray(rid)
        entry: dict[str, Any] = {"id": rid}
        if ray.primitive is not None:
            entry["primitive"] = list(ray.primitive)
        rays.append(entry)
    return {
        "rays": rays,
        "cones": [list(cone) for cone in c.maximal_cones() if cone],
        "offsets": offsets_to_json(pd),
    }


def data_to_json(nd: NumericalData) -> dict:
    return {
        "k": nd.k,
        "degrees": list(nd.degrees),
        "markings": [list(a) for a in nd.markings],
    }


def types_to_json(nd: NumericalData, types: Sequence[TropicalType]) -> list[dict]:
    from .tropmaps import cone_of_type

    out = []
    for t in types:
        cone = cone_of_type(nd, t)
        out.append(
            {
                "vertices": [
                    {
                        "face": sorted(v.face),
                        "pairing": list(v.pairing),
                        "label": v.label,
                        "legs": list(v.legs),
                    }
                    for v in t.vertices
                ],
                "edges": [
                    {
                        "ends": list(e.ends),
                        "face": sorted(e.face),
                        "slope": list(e.slope),
                    }
                    for e in t.edges
                ],
                "dim": cone.dim,
            }
        )
    return out
