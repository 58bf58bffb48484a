"""Fixture JSON loading, schema diagnostics, and serialization.

A fixture file may carry any of: numerical data, target strata, an explicit
cone complex with puncturing offsets, and a subdivision trace with lifted
offsets. Loaders validate shapes eagerly and report failures with JSON-path
diagnostics; serializers emit the same shapes the loaders accept.
"""
from __future__ import annotations

import json
from typing import Any, Optional, Sequence

from .conecx import ConeComplex, Ray, _Record, build_complex
from .puncture import PuncturingData, puncturing_data
from .tropdata import NumericalData, TargetModel, TropicalType
from .tropdata import numerical_data, target_model

__all__ = [
    "SchemaError",
    "Fixture",
    "load_fixture",
    "load_fixture_file",
    "load_rooting_file",
    "load_subdivision_arg",
    "complex_to_json",
    "offsets_to_json",
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


def _int_list(obj: Any, path: str) -> list[int]:
    _expect(obj, list, path, "an array of integers")
    return [
        _expect(x, int, f"{path}[{i}]", "an integer") for i, x in enumerate(obj)
    ]


def _load_data(obj: Any, path: str) -> NumericalData:
    _expect(obj, dict, path, "an object")
    for key in ("k", "degrees", "markings"):
        if key not in obj:
            raise SchemaError(f"{path}.{key}", "missing")
    k = _expect(obj["k"], int, f"{path}.k", "an integer")
    degrees = _int_list(obj["degrees"], f"{path}.degrees")
    markings_obj = _expect(obj["markings"], list, f"{path}.markings", "an array")
    markings = [
        _int_list(row, f"{path}.markings[{i}]") for i, row in enumerate(markings_obj)
    ]
    try:
        return numerical_data(k, degrees, markings)
    except ValueError as e:
        raise SchemaError(path, str(e)) from e


def _load_model(obj: Any, k: int, path: str) -> TargetModel:
    _expect(obj, list, path, "an array of strata")
    rows = []
    for i, entry in enumerate(obj):
        p = f"{path}[{i}]"
        _expect(entry, dict, p, "an object")
        if "face" not in entry or "classes" not in entry:
            raise SchemaError(p, "needs face and classes")
        face = _int_list(entry["face"], f"{p}.face")
        classes_obj = _expect(entry["classes"], list, f"{p}.classes", "an array")
        classes = []
        for j, cl in enumerate(classes_obj):
            cp = f"{p}.classes[{j}]"
            _expect(cl, dict, cp, "an object")
            if "pairing" not in cl:
                raise SchemaError(f"{cp}.pairing", "missing")
            pairing = _int_list(cl["pairing"], f"{cp}.pairing")
            label = str(cl.get("label", f"c{j}"))
            classes.append((pairing, label))
        rows.append((face, classes))
    try:
        return target_model(k, rows)
    except ValueError as e:
        raise SchemaError(path, str(e)) from e


def _load_offsets(obj: Any, ray_ids: Sequence[str], path: str) -> PuncturingData:
    _expect(obj, list, path, "an array of offsets")
    mapping: dict[str, dict[str, int]] = {}
    known = set(ray_ids)
    for i, entry in enumerate(obj):
        p = f"{path}[{i}]"
        _expect(entry, dict, p, "an object")
        if "puncture" not in entry or "values" not in entry:
            raise SchemaError(p, "needs puncture and values")
        pid = _expect(entry["puncture"], str, f"{p}.puncture", "a string")
        if pid in mapping:
            raise SchemaError(f"{p}.puncture", f"duplicate offset id {pid!r}")
        values = _expect(entry["values"], dict, f"{p}.values", "an object")
        vals = {}
        for ray, v in values.items():
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
    _expect(obj, dict, path, "an object")
    if "rays" not in obj or "cones" not in obj:
        raise SchemaError(path, "needs rays and cones")
    rays_obj = _expect(obj["rays"], list, f"{path}.rays", "an array")
    rays = []
    for i, entry in enumerate(rays_obj):
        p = f"{path}.rays[{i}]"
        _expect(entry, dict, p, "an object")
        if "id" not in entry:
            raise SchemaError(f"{p}.id", "missing")
        rid = _expect(entry["id"], str, f"{p}.id", "a string")
        prim = None
        if entry.get("primitive") is not None:
            prim = tuple(_int_list(entry["primitive"], f"{p}.primitive"))
        try:
            rays.append(Ray(rid, prim))
        except ValueError as e:
            raise SchemaError(f"{p}.id", str(e)) from e
    cones_obj = _expect(obj["cones"], list, f"{path}.cones", "an array")
    cones = []
    for i, cone in enumerate(cones_obj):
        p = f"{path}.cones[{i}]"
        _expect(cone, list, p, "an array of ray ids")
        cones.append(
            [_expect(x, str, f"{p}[{j}]", "a ray id string") for j, x in enumerate(cone)]
        )
    try:
        c = build_complex(rays, cones)
    except ValueError as e:
        raise SchemaError(path, str(e)) from e
    return c, obj.get("offsets")


def _load_trace(obj: Any, path: str) -> tuple[tuple, ...]:
    _expect(obj, list, path, "an array of steps")
    steps = []
    for i, entry in enumerate(obj):
        p = f"{path}[{i}]"
        _expect(entry, dict, p, "an object")
        if "center" not in entry:
            raise SchemaError(f"{p}.center", "missing")
        center = _expect(entry["center"], list, f"{p}.center", "an array of ray ids")
        for j, x in enumerate(center):
            _expect(x, str, f"{p}.center[{j}]", "a ray id string")
        new = entry.get("new")
        if new is not None:
            _expect(new, str, f"{p}.new", "a string")
        steps.append((tuple(center), new))
    return tuple(steps)


def load_fixture(doc: Any) -> Fixture:
    _expect(doc, dict, "$", "a fixture object")
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
        for i, (_, name) in enumerate(trace):
            if name is None:
                raise SchemaError(
                    f"$.trace[{i}].new",
                    "steps must name new rays when lifted offsets are given",
                )
            upstairs_ids.append(name)
        lifted = _load_offsets(doc["lifted_offsets"], upstairs_ids, "$.lifted_offsets")
    return Fixture(data, model, cx, offsets, trace, lifted)


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
    _expect(doc, dict, "$", "a rooting object")
    if "r" not in doc:
        raise SchemaError("$.r", "missing")
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
    _expect(doc, dict, "$", "a subdivision object")
    if "rays" not in doc or "cones" not in doc:
        raise SchemaError("$", "needs rays and cones")
    rays_obj = _expect(doc["rays"], list, "$.rays", "an array")
    rays = [_int_list(r, f"$.rays[{i}]") for i, r in enumerate(rays_obj)]
    cones_obj = _expect(doc["cones"], list, "$.cones", "an array")
    cones = [_int_list(c, f"$.cones[{i}]") for i, c in enumerate(cones_obj)]
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
