"""Write the reference digests in ``refs/`` from the library as it stands.

    python3 bench/make_refs.py [chart-ladder|type-enum|cli-cold ...]

Run this only when a change is meant to alter outputs, and say so in the
change: the benchmark counts every op whose output differs from these
digests as failed.

- chart-ladder: the Segre class of every pool chart and of the anchor, on
  the canonical ray names (which covers every seed's presentations), the
  anchor's refined class, and every op's digest for the first REF_PASSES
  passes of the seeds in REF_SEEDS.
- type-enum: every op for every rooting order a seed can draw.
- cli-cold: exit code and stdout digest of every command line a seed can
  draw; malformed documents need none, they must fail with exit code 2.
"""
from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as w  # noqa: E402


def _class_digest(cls) -> str:
    return w.digest(w._serialize_terms(cls.terms))


def _chart_segre(values, max_codim=None) -> str:
    from punctref import conecx, puncture

    k = len(values[0])
    rays = [f"z{j}" for j in range(k)]
    c = conecx.build_complex(rays, [rays])
    pd = puncture.puncturing_data(
        {f"p{i + 1}.1": dict(zip(rays, row)) for i, row in enumerate(values)}
    )
    return _class_digest(puncture.segre_class(c, puncture.normalized_ideal(c, pd), max_codim=max_codim))


def chart_ladder_refs() -> dict:
    pool = []
    for k, n, v, values in w.chart_pool():
        entry = {"rung": [k, n, v], "segre": _chart_segre(values)}
        if n > k:
            entry["segre_kP"] = _chart_segre(values, max_codim=n)
        pool.append(entry)
    refs = {"pool": pool, "anchor": {"segre": _chart_segre(w.anchor_values())}}
    anchor = w.build_chart_ladder(0, refs).traced_extra[0]
    assert all(ok for _, ok in anchor.check([call() for call in anchor.calls]))
    refs["seeds"] = {}
    for seed in w.REF_SEEDS:
        digests = {}
        for groups in itertools.islice(w.build_chart_ladder(seed, refs).passes, w.REF_PASSES):
            for g in groups:
                verdicts = g.check([call() for call in g.calls])
                assert all(ok for _, ok in verdicts), g.keys
                digests.update({key: d for key, (d, _) in zip(g.keys, verdicts)})
        refs["seeds"][str(seed)] = digests
    return refs


def type_enum_refs() -> dict:
    p2_roots = list(itertools.product(w.P2_ROOTS, repeat=2))
    ops = {}
    for key, call in w.type_enum_ops(w.PR_ROOTS, p2_roots):
        out = call()
        assert not key.startswith("gerby/") or out["equal"], key
        ops[key] = w.digest(out)
    return {"ops": ops}


def cli_cold_refs() -> dict:
    p2_roots = list(itertools.product(w.P2_ROOTS, repeat=2))
    ops = {}
    for argv in w.cli_argvs(w.PR_ROOTS, p2_roots):
        p = subprocess.run(
            [sys.executable, "-m", "punctref.cli", *argv],
            cwd=w.ROOT, env=w.cli_env(), capture_output=True, timeout=w.CLI_TIMEOUT_S,
        )
        ops[" ".join(argv)] = f"{p.returncode}:{w.digest(p.stdout)}"
    return {"ops": ops}


MAKERS = {
    "chart-ladder": chart_ladder_refs,
    "type-enum": type_enum_refs,
    "cli-cold": cli_cold_refs,
}


def main(names) -> int:
    w.REFS.mkdir(exist_ok=True)
    for name in names or w.WORKLOADS:
        refs = MAKERS[name]()
        with open(w.REFS / f"{name}.json", "w") as fh:
            json.dump(refs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote refs/{name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
