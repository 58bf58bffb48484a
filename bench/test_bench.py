"""Self-tests of the benchmark: ``python3 -m pytest bench -q``.

The runs here use chart-ladder with a one-second budget, the quickest
workload; each still measures setup in fresh interpreters and checks every
output against the reference digests.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def bench(*args, refs=None):
    argv = [sys.executable, str(HERE / "run.py"), *args]
    if refs is not None:
        argv += ["--refs", str(refs)]
    p = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def quick(trace, refs=None):
    return bench("--workload", "chart-ladder", "--seed", str(SEED), "--seconds", "1",
                 "--trace", str(trace), refs=refs)


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def untraced():
    return quick(0)


@pytest.fixture(scope="module")
def traced(untraced):
    return quick(1)


def test_every_end_to_end_metric_is_printed_with_its_unit(untraced, spec):
    lines, result = untraced
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for m in spec["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split() for line in lines)
    assert any(line.split()[:1] == ["fail_ratio"] for line in lines)


def test_corrupted_reference_digest_makes_ops_fail(tmp_path):
    refs = tmp_path / "refs"
    shutil.copytree(HERE / "refs", refs)
    doc = json.loads((refs / "chart-ladder.json").read_text())
    doc["pool"][0]["segre"] = "0" * 16
    (refs / "chart-ladder.json").write_text(json.dumps(doc))
    lines, result = quick(0, refs=refs)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]
    ratio = next(line for line in lines if line.split()[:1] == ["fail_ratio"])
    assert float(ratio.split()[1]) > 0


def test_traced_run_prints_per_layer_metrics_and_anchor_baselines(traced, spec):
    lines, result = traced
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["anchor.star_subdivide_calls"] == 155
    assert metrics["anchor.max_cones_out"] == 449
    assert metrics["conecx.star_subdivide.calls"] > 0
    assert metrics["chowring.multiply.self_s"] > 0


def test_traced_and_untraced_runs_agree_on_digests(untraced, traced):
    assert run.compare_digests("chart-ladder", SEED)


def passes_run(trace):
    with open(run.OUT / f"chart-ladder-seed{SEED}-trace{trace}.json") as fh:
        return len(json.load(fh)["pass_times"])


def counts(result):
    return {n: m["value"] for n, m in result["metrics"].items() if m["unit"] == "count"}


def test_layer_counts_do_not_grow_with_the_time_budget(traced):
    short_passes = passes_run(1)
    _, longer = bench("--workload", "chart-ladder", "--seed", str(SEED), "--seconds", "8", "--trace", "1")
    assert passes_run(1) > short_passes
    assert counts(longer) == counts(traced[1])
    assert counts(longer)["conecx.star_subdivide.calls"] > 0


def test_wrappers_reach_from_import_aliases():
    code = (
        "import punctref, tracing\n"
        "from punctref import blowups, chowring, gerby\n"
        "t = tracing.Tracer(); tracing.install(t)\n"
        "assert blowups.chow_pushforward is chowring.pushforward\n"
        "assert gerby.chow_reduce is chowring.reduce is punctref.reduce\n"
        "assert chowring.reduce.__wrapped__ is not None\n"
        "c = punctref.build_complex(['a', 'b'], [['a', 'b']])\n"
        "gerby.chow_reduce([({'a': 1}, 1)], c)\n"
        "print(' '.join(s[0] for s in t.spans))\n"
    )
    env = dict(workloads.cli_env(), PYTHONPATH=f"{ROOT / 'src'}:{HERE}")
    p = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr
    assert p.stdout.split() == ["conecx.build_complex", "chowring.reduce"]


def test_layer_stats_subtracts_child_spans():
    spans = [
        ["outer", 0.0, 10.0, -1, "op", None],
        ["inner", 1.0, 4.0, 0, "op", None],
        ["inner", 5.0, 6.0, 0, "op", None],
        ["outer", 6.5, 7.0, 0, "op", None],
    ]
    import tracing

    stats = tracing.layer_stats(spans)
    assert stats["outer.calls"] == 2
    assert stats["outer.self_s"] == pytest.approx(10.0 - 4.5 + 0.5)
    assert stats["outer.total_s"] == pytest.approx(10.0)
    assert stats["inner.self_s"] == pytest.approx(4.0)


def test_tail_interpolates_at_a_fixed_percentile():
    times = [float(i) for i in range(100)]
    assert run.tail(times, 90) == (pytest.approx(89.1), 10)
    assert run.tail(times[:51], 90) == (pytest.approx(45.0), 5)


def test_projection_class_matches_the_library():
    from punctref import conecx, puncture

    values = [[3, 1, 2], [1, 2, 2]]
    rays = ["z0", "z1", "z2"]
    c = conecx.build_complex(rays, [rays])
    pd = puncture.puncturing_data({f"p{i + 1}.1": dict(zip(rays, row)) for i, row in enumerate(values)})
    s = puncture.segre_class(c, puncture.normalized_ideal(c, pd))
    refined = puncture.refined_class(c, pd).cls
    assert dict(refined.terms) == workloads.projection_class(values, s.terms, 2)


@pytest.mark.parametrize("kind", workloads.MALFORMED)
def test_malformed_documents_exit_2(kind, tmp_path, capsys):
    import random

    from punctref.cli import main

    path = tmp_path / "doc.json"
    path.write_bytes(workloads.malformed_doc(kind, random.Random(SEED)))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "chart-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert "{" not in p.stdout
