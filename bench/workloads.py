"""The three workloads: inputs drawn from the seed, ops, and output checks.

A workload's passes are drawn one at a time from the seed, as the run reaches
them; a pass is a list of groups; a group is one or more ops whose outputs
are checked together once the last of them has run.
The library is imported only by the in-process workloads, so that building
the cli-cold inputs costs no ``import punctref``.

Reference digests live in ``refs/<workload>.json``; ``make_refs.py`` wrote
them from the library as it stood when the benchmark was added. A digest is
the first 16 hex digits of a sha256.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"

WORKLOADS = ("chart-ladder", "type-enum", "cli-cold")

# chart-ladder: (rays k, offsets n, offset values uniform in [1, v])
RUNGS = ((2, 4, 10), (3, 3, 6), (4, 3, 4), (4, 2, 6), (5, 2, 3), (5, 3, 2))
POOL_SEED = 0
POOL_PER_RUNG = 4
ANCHOR = (4, 3, 10)  # drawn from random.Random(1): 155 subdivisions, 449 cones
REF_SEEDS = (1, 2)
REF_PASSES = 8

# type-enum: degree-1 markings on the plane with two lines, and the degree-2 datum
DEG1_MARKINGS = (
    ((2, 2), (-1, -1)),
    ((3, 3), (-2, -2)),
    ((2, 1), (-1, 0)),
    ((1, 2), (0, -1)),
)
DEG2 = ((2, 2), ((3, 3), (-1, -1)), 5)  # degrees, markings, max_vertices
PR_ROOTS = tuple(range(2, 10))
P2_ROOTS = (2, 3, 5, 7)
PR_DRAWS = 4
P2_DRAWS = 6

# cli-cold
COMMANDS = (
    "validate",
    "enumerate",
    "refined-class",
    "segre",
    "twisted-check",
    "compare-blowup",
    "positivize",
    "sensitivity",
)
MALFORMED = ("truncated", "negative-offset", "unknown-ray", "wrong-type")
CLI_TIMEOUT_S = 120


def digest(obj) -> str:
    if not isinstance(obj, bytes):
        obj = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str).encode()
    return hashlib.sha256(obj).hexdigest()[:16]


@dataclass
class Group:
    """Ops checked together: ``check`` maps their outputs (None where an op
    raised) to one (digest, ok) pair per op."""

    keys: tuple[str, ...]
    calls: tuple[Callable[[], object], ...]
    check: Callable[[list], list[tuple[str, bool]]]


@dataclass
class Workload:
    warmup: list[Group]
    passes: Iterator[list[Group]]  # endless; each pass is built when it is reached
    traced_extra: list[Group]  # run once before the passes, traced runs only


def load_refs(workload: str, refs_dir: Path = REFS) -> dict:
    path = Path(refs_dir) / f"{workload}.json"
    if not path.is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- chart-ladder


def chart_pool() -> list[tuple[int, int, int, list[list[int]]]]:
    """The fixed charts, drawn once from POOL_SEED and never filtered."""
    rng = random.Random(POOL_SEED)
    return [
        (k, n, v, [[rng.randint(1, v) for _ in range(k)] for _ in range(n)])
        for k, n, v in RUNGS
        for _ in range(POOL_PER_RUNG)
    ]


def anchor_values() -> list[list[int]]:
    k, n, v = ANCHOR
    rng = random.Random(1)
    return [[rng.randint(1, v) for _ in range(k)] for _ in range(n)]


def present(values, rng) -> tuple[list[list[int]], list[int]]:
    """A seeded presentation of a chart: its rays in a random order, every
    ray's offset values scaled by a factor in 1..3.

    Presented ray j is canonical ray cols[j]. The normalized ideal, hence
    the Segre class up to that relabeling, does not change; the raw offsets,
    hence the refined class, do. Offsets keep their order, which fixes the
    order in which principalization settles generator pairs.
    """
    n, k = len(values), len(values[0])
    cols = rng.sample(range(k), k)
    mult = [rng.randint(1, 3) for _ in range(k)]
    return [[row[cols[j]] * mult[j] for j in range(k)] for row in values], cols


def _serialize_terms(terms) -> list[dict]:
    """Same JSON shape as chowring.serialize, from (monomial, coeff) pairs."""
    return [
        {"monomial": dict(mono), "coeff": f"{c.numerator}/{c.denominator}"}
        for mono, c in terms
    ]


def _relabel(terms, names: dict[str, str]):
    """Rename rays and restore the graded-lex term order of ChowClass."""
    out = []
    for mono, c in terms:
        m = tuple(sorted((names[r], e) for r, e in mono))
        out.append((m, c))
    out.sort(key=lambda t: (sum(e for _, e in t[0]), t[0]))
    return out


def _mono_mul(a, b):
    exps = dict(a)
    for r, e in b:
        exps[r] = exps.get(r, 0) + e
    return tuple(sorted(exps.items()))


def projection_class(values, segre_terms, k_p: int) -> dict:
    """[prod_p (1 + D_p) * s(Z)] in degree k_P, on a single full cone.

    Every monomial is supported on the cone, so this is plain polynomial
    arithmetic; by the projection formula it equals the refined class
    computed upstairs and pushed down.
    """
    prod = {(): Fraction(1)}
    for row in values:
        factor = [((), Fraction(1))] + [
            (((f"z{j}", 1),), Fraction(x)) for j, x in enumerate(row) if x
        ]
        nxt: dict = {}
        for m, c in prod.items():
            for m2, c2 in factor:
                mm = _mono_mul(m, m2)
                if sum(e for _, e in mm) <= k_p:
                    nxt[mm] = nxt.get(mm, 0) + c * c2
        prod = nxt
    out: dict = {}
    for m, c in prod.items():
        d = sum(e for _, e in m)
        for m2, c2 in segre_terms:
            if d + sum(e for _, e in m2) == k_p:
                mm = _mono_mul(m, m2)
                out[mm] = out.get(mm, 0) + c * c2
    return {m: c for m, c in out.items() if c}


def _chart_group(key, values, cols, pool_ref, seed_refs):
    from punctref import conecx, puncture

    k, n = len(values[0]), len(values)
    rays = [f"z{j}" for j in range(k)]
    c = conecx.build_complex(rays, [rays])
    pd = puncture.puncturing_data(
        {f"p{i + 1}.1": dict(zip(rays, row)) for i, row in enumerate(values)}
    )
    backend = "aluffi-crosscheck" if k == 2 else "resolution"
    canonical = {f"z{j}": f"z{cols[j]}" for j in range(k)}
    keys = (f"{key}/refined", f"{key}/segre")

    def refined():
        return puncture.refined_class(c, pd, backend=backend).cls

    def segre():
        return puncture.segre_class(c, puncture.normalized_ideal(c, pd), backend=backend)

    def class_digest(terms, names=None):
        return digest(_serialize_terms(_relabel(terms, names) if names else terms))

    def verdict(key, out, ok):
        if out is None:
            return ("", False)
        d = class_digest(out.terms)
        return (d, ok and seed_refs.get(key, d) == d)

    def check(outs):
        cls, seg = outs
        if seg is None:  # nothing to check the refined class against
            return [verdict(keys[0], cls, False), ("", False)]
        seg_ok = class_digest(seg.terms, canonical) == pool_ref.get("segre")
        full = seg
        if n > k:  # s(Z) up to degree k_P = n, for the projection formula
            full = puncture.segre_class(c, puncture.normalized_ideal(c, pd), max_codim=n)
            seg_ok = seg_ok and class_digest(full.terms, canonical) == pool_ref.get("segre_kP")
        refined_ok = cls is not None and dict(cls.terms) == projection_class(values, full.terms, n)
        return [verdict(keys[0], cls, refined_ok), verdict(keys[1], seg, seg_ok)]

    return Group(keys, (refined, segre), check)


def build_chart_ladder(seed: int, refs: dict) -> Workload:
    pool = chart_pool()
    pool_refs = refs.get("pool") or [{}] * len(pool)
    seed_refs = refs.get("seeds", {}).get(str(seed), {})

    def passes():
        rng = random.Random(seed)
        for p in itertools.count():
            groups = []
            for i, (k, n, v, values) in enumerate(pool):
                vals, cols = present(values, rng)
                key = f"pass{p}/{k}x{n}x{v}#{i % POOL_PER_RUNG}"
                groups.append(_chart_group(key, vals, cols, pool_refs[i], seed_refs))
            rng.shuffle(groups)  # spread each rung over the pass
            yield groups
    # warm-up: the identity presentation of one chart per rung
    warmup = [
        _chart_group(f"warmup/{i}", values, list(range(k)), pool_refs[i], {})
        for i, (k, n, v, values) in enumerate(pool)
        if i % POOL_PER_RUNG == 0
    ]
    k = ANCHOR[0]
    anchor = _chart_group("anchor", anchor_values(), list(range(k)), refs.get("anchor", {}), {})
    return Workload(warmup, passes(), [anchor])


# ------------------------------------------------------------------- type-enum


def p2_model():
    from punctref import tropmaps

    return tropmaps.target_model(2, [
        ((), [((1, 1), "line")]),
        ((1,), [((1, 1), "line")]),
        ((2,), [((1, 1), "line")]),
        ((1, 2), []),
    ])


def pr_data_model():
    from punctref import tropmaps

    nd = tropmaps.numerical_data(1, (1,), [(2,), (-1,)])
    tm = tropmaps.target_model(1, [
        ((), [((1,), "line")]),
        ((1,), [((1,), "line-in-H")]),
    ])
    return nd, tm


def _ref_check(key, refs, ok_of=lambda out: True):
    expected = refs.get("ops", {}).get(key)

    def check(outs):
        out = outs[0]
        if out is None:
            return [("", False)]
        d = digest(out)
        return [(d, d == expected and ok_of(out))]

    return check


def type_enum_ops(pr_roots, p2_roots) -> list[tuple[str, Callable[[], object]]]:
    """One pass: four degree-1 pipelines, the degree-2 one, a gerby identity
    per rooting order, and the two sensitivity checks."""
    from punctref import blowups, chowring, gerby, puncture, tropmaps

    tm = p2_model()
    pr_nd, pr_tm = pr_data_model()
    p2_nd = tropmaps.numerical_data(2, (1, 1), DEG1_MARKINGS[0])

    def pipeline(nd, bounds=None):
        def call():
            types = tropmaps.enumerate_types(nd, tm, bounds=bounds)
            c, pd = tropmaps.assemble_complex(nd, types)
            cls = puncture.refined_class(c, pd).cls
            return {"types": len(types), "class": chowring.serialize(cls)}

        return call

    def identity(nd, model, roots):
        rd = gerby.rooting_data(roots)
        return lambda: gerby.check_pushforward_identity(nd, model, rd)

    def sensitivity(subdiv):
        return lambda: blowups.check_slope_sensitivity(p2_nd, tm, subdiv)

    ops = []
    for marks in DEG1_MARKINGS:
        nd = tropmaps.numerical_data(2, (1, 1), marks)
        key = "enum/deg1/" + ";".join(",".join(map(str, a)) for a in marks)
        ops.append((key, pipeline(nd)))
    degrees, marks, max_v = DEG2
    nd = tropmaps.numerical_data(2, degrees, marks)
    ops.append((f"enum/deg2/max_vertices={max_v}", pipeline(nd, {"max_vertices": max_v})))
    for r in pr_roots:
        ops.append((f"gerby/pr/r={r}", identity(pr_nd, pr_tm, [r])))
    for roots in p2_roots:
        ops.append(("gerby/p2/r=" + ",".join(map(str, roots)), identity(p2_nd, tm, list(roots))))
    ops.append(("sensitivity/p2/trivial", sensitivity(blowups.trivial_subdivision(2))))
    ops.append(("sensitivity/p2/barycentric", sensitivity(blowups.barycentric_subdivision(2))))
    return ops


def type_enum_groups(rng, refs) -> list[Group]:
    pr_roots = [rng.choice(PR_ROOTS) for _ in range(PR_DRAWS)]
    p2_roots = [(rng.choice(P2_ROOTS), rng.choice(P2_ROOTS)) for _ in range(P2_DRAWS)]
    groups = []
    for key, call in type_enum_ops(pr_roots, p2_roots):
        # a gerby report must also state that the identity holds
        ok_of = (lambda out: out["equal"]) if key.startswith("gerby/") else (lambda out: True)
        groups.append(Group((key,), (call,), _ref_check(key, refs, ok_of)))
    rng.shuffle(groups)
    return groups


def build_type_enum(seed: int, refs: dict) -> Workload:
    """Passes of the degree-1 pipelines, gerby identities and sensitivity
    checks. The degree-2 pipeline runs once, in traced runs only: at 12-18 s
    on its own it would fill a timed run, and one op cannot give a steady
    median."""
    def is_deg2(g):
        return g.keys[0].startswith("enum/deg2/")

    def passes():
        rng = random.Random(seed)
        while True:
            yield [g for g in type_enum_groups(rng, refs) if not is_deg2(g)]

    # warm-up: the first degree-1 pipeline and the first cheap identity of pass 0
    groups = type_enum_groups(random.Random(seed), refs)
    first = {g.keys[0].split("/")[1]: g for g in reversed(groups) if not is_deg2(g)}
    warmup = [first["deg1"], first["pr"]]
    return Workload(warmup, passes(), [g for g in groups if is_deg2(g)])


# -------------------------------------------------------------------- cli-cold


def cli_argvs(pr_roots, p2_roots) -> list[list[str]]:
    """Every subcommand on every fixture, then flag variants, then one
    twisted-check per rooting order."""
    fixtures = sorted(p.name for p in (ROOT / "fixtures").glob("*.json"))
    argvs = [[cmd, f"fixtures/{fx}"] for fx in fixtures for cmd in COMMANDS]
    argvs += [
        ["refined-class", "fixtures/f1-blowup.json", "--trace"],
        ["segre", "fixtures/f1-blowup.json", "--trace"],
        ["refined-class", "fixtures/p2-two-lines.json", "--backend", "aluffi-crosscheck"],
        ["segre", "fixtures/p2-two-lines.json", "--backend", "aluffi-crosscheck"],
        ["refined-class", "fixtures/f1-blowup.json", "--backend", "aluffi-crosscheck"],
        ["segre", "fixtures/f1-blowup.json", "--backend", "aluffi-crosscheck"],
        ["sensitivity", "fixtures/p2-two-lines.json", "--subdivision", "barycentric"],
        ["sensitivity", "fixtures/pr-hyperplane.json", "--subdivision", "barycentric"],
    ]
    argvs += [["twisted-check", "fixtures/pr-hyperplane.json", "--r", str(r)] for r in pr_roots]
    argvs += [
        ["twisted-check", "fixtures/p2-two-lines.json", "--r", *map(str, roots)]
        for roots in p2_roots
    ]
    return argvs


def malformed_doc(kind: str, rng) -> bytes:
    """A fixture document the loader must refuse with exit code 2."""
    names = sorted(p.name for p in (ROOT / "fixtures").glob("*.json"))
    raw = (ROOT / "fixtures" / rng.choice(names)).read_bytes()
    if kind == "truncated":
        return raw[: rng.randint(1, len(raw) - 2)]
    doc = json.loads(raw)
    offsets = doc["complex"]["offsets"]
    entry = rng.choice(offsets)
    ray = rng.choice(sorted(entry["values"]))
    if kind == "negative-offset":
        entry["values"][ray] = -rng.randint(1, 9)
    elif kind == "unknown-ray":
        entry["values"][f"zz{rng.randint(0, 99)}"] = rng.randint(1, 9)
    else:
        entry["values"][ray] = str(entry["values"][ray])
    return json.dumps(doc).encode()


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _cli_group(key, argv, expected, tracer, span_dir):
    env = cli_env()

    def call():
        if tracer is None:
            cmd = [sys.executable, "-m", "punctref.cli", *argv]
            spans = None
        else:
            spans = str(span_dir / f"{digest(key)}.json.gz")
            cmd = [sys.executable, str(HERE / "launcher.py"), spans, *argv]
        p = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=CLI_TIMEOUT_S)
        return p.returncode, p.stdout, p.stderr, spans

    def check(outs):
        out = outs[0]
        if out is None:
            return [("", False)]
        code, stdout, stderr, spans = out
        if spans is not None and os.path.exists(spans):
            from tracing import read_spans

            tracer.extend(read_spans(spans), key)
            os.remove(spans)
        d = f"{code}:{digest(stdout)}"
        if expected is None:  # malformed input: a one-line error and exit 2
            lines = stderr.decode(errors="replace").splitlines()
            ok = d == f"2:{digest(b'')}" and len(lines) == 1 and lines[0].startswith("error:")
        else:
            ok = d == expected
        return [(d, ok)]

    return Group((key,), (call,), check)


def build_cli_cold(seed: int, refs: dict, tracer=None, work_dir: Optional[Path] = None) -> Workload:
    ops = refs.get("ops", {})

    def passes():
        rng = random.Random(seed)
        for p in itertools.count():
            groups = []
            roots = [rng.choice(PR_ROOTS)], [(rng.choice(P2_ROOTS), rng.choice(P2_ROOTS))]
            for argv in cli_argvs(*roots):
                key = " ".join(argv)
                groups.append(_cli_group(key, argv, ops.get(key, "missing"), tracer, work_dir))
            for kind in MALFORMED:
                cmd = rng.choice(("validate", "refined-class", "segre"))
                name = f"malformed-{p}-{kind}.json"
                (work_dir / name).write_bytes(malformed_doc(kind, rng))
                argv = [cmd, str((work_dir / name).relative_to(ROOT))]
                groups.append(_cli_group(f"malformed/{kind}/{cmd}", argv, None, tracer, work_dir))
            rng.shuffle(groups)
            yield groups
    warmup_argv = ["validate", "fixtures/pr-hyperplane.json"]
    warmup = [
        _cli_group("warmup", warmup_argv, ops.get(" ".join(warmup_argv), "missing"), None, work_dir)
        for _ in range(2)
    ]
    return Workload(warmup, passes(), [])


def build(workload: str, seed: int, refs_dir: Path = REFS, tracer=None, work_dir=None) -> Workload:
    refs = load_refs(workload, refs_dir)
    if workload == "chart-ladder":
        return build_chart_ladder(seed, refs)
    if workload == "type-enum":
        return build_type_enum(seed, refs)
    if workload == "cli-cold":
        return build_cli_cold(seed, refs, tracer, work_dir)
    raise ValueError(f"unknown workload {workload!r}")
