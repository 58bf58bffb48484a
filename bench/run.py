"""punctref benchmark runner.

    python3 bench/run.py --workload chart-ladder --seed 1 --seconds 25 --trace 0

Runs one workload (or ``all`` of them, each in a fresh process) from the
root of a checkout, checks every output against the reference digests, and
prints the metrics by name with their units. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. Metric names and units come from
``BENCHMARK.json``. Results, per-op digests and spans go to ``bench/out/``.

Timing: after an untimed warm-up, passes over the workload's op list run in
a closed loop with one caller until ``--seconds`` is spent; the pass under
way then completes. A traced run first runs its extra ops (the anchor chart,
the degree-2 datum) outside the budget. Its per-layer figures come from
pass 0 alone, and ``anchor.*`` and ``deg2.*`` from the extra ops, so no
figure grows with the number of passes a run completes. ``wall_s`` is the median pass
time, where a pass time is the sum of its ops' wall times (output checks run
between ops, untimed). ``setup_s`` is the median over fresh interpreters of
the time from process start to the point where the first op could run. All
four times are divided by the host's slowdown, measured between ops by
``HostSpeed``; the raw times are printed beside them and kept in the
results file.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 5  # at least, and more while they add up to under SETUP_MIN_S
SETUP_MIN_S = 2.0
PROBE_REPS = 5
# op_tail_s percentile: a round percentile with at least 10 ops beyond it in
# the shortest 20 s runs measured (chart-ladder 240 ops, type-enum 32,
# cli-cold 46). It is fixed because the op count grows with host and library
# speed: at the highest percentile with 10 ops beyond it, a run that completed
# more passes read a higher percentile, and chart-ladder op_tail_s spread by
# 20 % across seeds.
TAIL_PERCENTILE = {"chart-ladder": 95, "type-enum": 65, "cli-cold": 75}
CHILD_TIMEOUT_S = 170

# host-speed reference tasks, their time at reference speed (the uncontended
# 2-vCPU VM the benchmark was written on), and how often to sample them
REF_VALUES = [[3, 1, 2, 2, 1], [1, 2, 2, 1, 3], [2, 2, 1, 3, 1]]
REF_TERMS = [
    (tuple((f"z{j}", e) for j, e in enumerate(exps) if e), Fraction(1 + sum(exps), 1 + exps[0]))
    for exps in itertools.product(range(3), repeat=5)
    if 0 < sum(exps) <= 3
]
REF_IMPORTS = "import argparse, decimal, email.parser, fractions, http.client, json"
IN_PROCESS_REF_S, IN_PROCESS_EVERY_S = 0.0042, 0.5
LAUNCH_REF_S, LAUNCH_EVERY_S = 0.125, 3.0

_CHART = "chart-ladder"
_ENUM = "type-enum"
_CLI = "cli-cold"
_CL_WALL = ("wall_s, op_tail_s", _CHART)
_ENUM_WALL = ("wall_s, op_tail_s", _ENUM)
_CLI_P50 = ("op_p50_s", _CLI)

# what each per-layer metric should move, and on which workload; BENCHMARK.json
# has no key for this
TARGETS = {
    "conecx.star_subdivide.calls": _CL_WALL,
    "conecx.star_subdivide.self_s": _CL_WALL,
    "conecx.pl_pullback.calls": _CL_WALL,
    "conecx.pl_pullback.self_s": _CL_WALL,
    "conecx.build_complex.self_s": _CL_WALL,
    "conecx.validate_complex.self_s": _CLI_P50,
    "chowring.multiply.calls": _CL_WALL,
    "chowring.multiply.self_s": _CL_WALL,
    "chowring.multiply.terms_out": _CL_WALL,
    "chowring.pushforward.calls": _CL_WALL,
    "chowring.pushforward.self_s": _CL_WALL,
    "chowring.pushforward.terms_in": _CL_WALL,
    "chowring.reduce.calls": _CL_WALL,
    "chowring.reduce.self_s": _CL_WALL,
    "chowring.divisor_of_pl.self_s": _CL_WALL,
    "puncture.principalize.calls": _CL_WALL,
    "puncture.principalize.self_s": _CL_WALL,
    "puncture.principalize.steps": _CL_WALL,
    "puncture.principalize.max_cones_out": _CL_WALL,
    "puncture.refined_class.total_s": _CL_WALL,
    "puncture.segre_class.total_s": _CL_WALL,
    "puncture.normalized_ideal.self_s": _CL_WALL,
    "puncture.puncturing_components.self_s": _CL_WALL,
    "aluffi.principalize_newton.calls": ("op_p50_s", _CHART),
    "aluffi.principalize_newton.self_s": ("op_p50_s", _CHART),
    "aluffi.principalize_newton.steps": ("op_p50_s", _CHART),
    "aluffi.segre_newton.total_s": ("op_p50_s", _CHART),
    "tropmaps.enumerate_types.calls": _ENUM_WALL,
    "tropmaps.enumerate_types.self_s": _ENUM_WALL,
    "tropmaps.enumerate_types.types_out": _ENUM_WALL,
    "tropmaps.slopes_from_balancing.calls": _ENUM_WALL,
    "tropmaps.slopes_from_balancing.self_s": _ENUM_WALL,
    "tropmaps.slopes_from_balancing.ok_ratio": _ENUM_WALL,
    "tropmaps.realizable.calls": _ENUM_WALL,
    "tropmaps.realizable.self_s": _ENUM_WALL,
    "tropmaps.realizable.true_ratio": _ENUM_WALL,
    "tropmaps.canonical_key.calls": _ENUM_WALL,
    "tropmaps.canonical_key.self_s": _ENUM_WALL,
    "tropmaps.cone_of_type.calls": _ENUM_WALL,
    "tropmaps.cone_of_type.self_s": _ENUM_WALL,
    "tropmaps.cone_of_type.distinct_ratio": _ENUM_WALL,
    "tropmaps.specializations.calls": _ENUM_WALL,
    "tropmaps.specializations.self_s": _ENUM_WALL,
    "tropmaps.assemble_complex.self_s": _ENUM_WALL,
    "gerby.check_pushforward_identity.total_s": ("wall_s", _ENUM),
    "gerby.twist_complex.self_s": ("wall_s", _ENUM),
    "gerby.root_pushforward.self_s": ("wall_s", _ENUM),
    "blowups.check_slope_sensitivity.total_s": ("wall_s", _ENUM),
    "blowups.check_slope_sensitivity.self_s": ("wall_s", _ENUM),
    "blowups.compare_under_subdivision.total_s": _CLI_P50,
    "fixtureio.load_fixture_file.self_s": _CLI_P50,
    "fixtureio.types_to_json.self_s": _CLI_P50,
    "fixtureio.complex_to_json.self_s": _CLI_P50,
    "cli.main.total_s": _CLI_P50,
    "cli.interpreter_s": ("op_p50_s; setup_s", "cli-cold; chart-ladder, type-enum"),
    "cli.import_s": ("op_p50_s; setup_s", "cli-cold; chart-ladder, type-enum"),
    "cli.import_share": _CLI_P50,
    "anchor.refined_s": _CL_WALL,
    "anchor.segre_s": _CL_WALL,
    "anchor.star_subdivide_calls": _CL_WALL,
    "anchor.max_cones_out": _CL_WALL,
    "anchor.multiply_share": _CL_WALL,
    "anchor.pushdown_share": _CL_WALL,
    "anchor.principalize_share": _CL_WALL,
    "deg2.pipeline_s": _ENUM_WALL,
    "bench.traced_wall_s": ("wall_s", "all"),
}

ROADMAP = {  # baselines the traced run reports against
    "anchor.star_subdivide_calls": 155,
    "anchor.max_cones_out": 449,
    "anchor.multiply_share": 0.37,
    "anchor.pushdown_share": 0.40,
    "anchor.principalize_share": 0.18,
}


def metric_units(kind: str) -> dict[str, str]:
    """Unit by metric name, for the ``end_to_end`` or ``per_layer`` metrics of
    BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def log(msg: str = "") -> None:
    print(msg, flush=True)


class HostSpeed:
    """How much slower than reference speed the host runs, sampled between ops.

    Shared hosts run the same code up to 1.65x slower for seconds to minutes
    at a time. A sample times a fixed task written in the benchmark's own
    code and divides by its time at reference speed: pure-Python Fraction
    polynomial arithmetic for in-process ops, a fresh interpreter importing
    standard-library modules for subprocesses. Over 7 s windows these tasks
    slowed down with the workloads they stand for (log correlation 0.98 in
    process, 0.85 for cli-cold launches).
    """

    def __init__(self, launch: bool) -> None:
        self.launch = launch
        self.every = LAUNCH_EVERY_S if launch else IN_PROCESS_EVERY_S
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        import workloads

        start = time.perf_counter()
        if self.launch:
            subprocess.run([sys.executable, "-c", REF_IMPORTS], capture_output=True,
                           timeout=CHILD_TIMEOUT_S, check=True)
        else:
            workloads.projection_class(REF_VALUES, REF_TERMS, 3)
        self._last = time.perf_counter()
        ref = LAUNCH_REF_S if self.launch else IN_PROCESS_REF_S
        self.samples.append((self._last - start) / ref)

    def due(self) -> int:
        """Sample if the last sample is older than ``every``; returns its index."""
        if time.perf_counter() - self._last >= self.every:
            self.sample()
        return len(self.samples) - 1


def run_metadata(workload: str, seed: int, trace: int) -> dict:
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            p = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            rev = p.stdout.strip() or rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "punctref").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = "absent"
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_revision": rev,
        "src_sha256": h.hexdigest()[:16],
        "python": platform.python_version(),
        "sympy": sympy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_groups(groups, records, failures, speed, tracer=None) -> tuple[float, float]:
    """Run groups of ops in order and check them; returns the summed op time
    at reference speed, and raw. A group's op times are divided by the mean
    of the host-speed samples just before and just after it."""
    done = []
    for g in groups:
        before = speed.due()
        outs, times = [], []
        for key, call in zip(g.keys, g.calls):
            if tracer is not None:
                tracer.op = key
            start = time.perf_counter()
            try:
                out = call()
            except Exception as e:  # a raising op is a failed op, not a failed run
                out = None
                failures.append(f"{key}: raised {type(e).__name__}: {e}")
            times.append(time.perf_counter() - start)
            outs.append(out)
        if tracer is not None:
            tracer.op, tracer.suspended = None, True
        try:
            verdicts = g.check(outs)
        except Exception as e:
            verdicts = [("", False)] * len(g.keys)
            failures.append(f"{g.keys[0]}: check raised {type(e).__name__}: {e}")
        finally:
            if tracer is not None:
                tracer.suspended = False
        for key, out, dt, (d, ok) in zip(g.keys, outs, times, verdicts):
            ok = ok and out is not None
            if not ok and out is not None:
                failures.append(f"{key}: output digest {d} differs from the reference")
            done.append((before, {"key": key, "raw_s": dt, "digest": d, "ok": ok}))
    speed.sample()
    total = raw_total = 0.0
    for before, rec in done:
        rec["s"] = rec["raw_s"] / statistics.fmean(speed.samples[before:before + 2])
        total += rec["s"]
        raw_total += rec["raw_s"]
        records.append(rec)
    return total, raw_total


def tail(times: list[float], percentile: int) -> tuple[float, int]:
    """Time at a whole percentile, interpolated between ranks, and the number
    of ops beyond it."""
    value = statistics.quantiles(times, n=100, method="inclusive")[percentile - 1]
    return value, sum(t > value for t in times)


def child_seconds(argv, env=None) -> float:
    start = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int, refs: Path) -> tuple[list[float], list[float]]:
    """Process start to first-op readiness in fresh interpreters: the times at
    reference speed (divided by the mean host-speed sample around them), and
    raw."""
    speed = HostSpeed(launch=True)
    raw: list[float] = []
    while len(raw) < SETUP_REPS or (sum(raw) < SETUP_MIN_S and len(raw) < 5 * SETUP_REPS):
        speed.sample()
        start = time.monotonic()
        p = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--refs", str(refs)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        raw.append(float(p.stdout.split()[-1]) - start)
    speed.sample()
    factor = statistics.fmean(speed.samples)
    return [t / factor for t in raw], raw


def import_seconds() -> list[float]:
    """``import punctref.cli`` in fresh interpreters, timed inside the child."""
    import workloads

    code = "import time; t = time.perf_counter(); import punctref.cli; print(time.perf_counter() - t)"
    out = []
    for _ in range(PROBE_REPS):
        p = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=workloads.cli_env(),
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        out.append(float(p.stdout.split()[-1]))
    return out


def anchor_metrics(spans, records) -> dict:
    """The anchor chart's refined op against the ROADMAP profile."""
    import tracing

    op_s = {r["key"]: r["raw_s"] for r in records}
    refined = tracing.layer_stats(spans, op="anchor/refined")
    total = op_s.get("anchor/refined", 0.0)
    pushdown = refined.get("chowring.pushforward.self_s", 0.0) + refined.get("chowring.reduce.self_s", 0.0)
    return {
        "anchor.refined_s": total,
        "anchor.segre_s": op_s.get("anchor/segre", 0.0),
        "anchor.star_subdivide_calls": refined.get("conecx.star_subdivide.calls", 0),
        "anchor.max_cones_out": refined.get("puncture.principalize.max_cones_out", 0),
        "anchor.multiply_share": refined.get("chowring.multiply.self_s", 0.0) / total if total else 0.0,
        "anchor.pushdown_share": pushdown / total if total else 0.0,
        "anchor.principalize_share": refined.get("puncture.principalize.total_s", 0.0) / total if total else 0.0,
    }


def run_workload(args) -> dict:
    import tracing
    import workloads

    meta = run_metadata(args.workload, args.seed, args.trace)
    log(
        f"bench: workload={meta['workload']} seed={meta['seed']} trace={meta['trace']} "
        f"rev={meta['git_revision']} src={meta['src_sha256']} python={meta['python']} "
        f"sympy={meta['sympy']} nproc={meta['nproc']}"
    )
    setup = ([], []) if args.trace else measure_setup(args.workload, args.seed, args.refs)
    speed = HostSpeed(launch=args.workload == _CLI)
    tracer = tracing.Tracer() if args.trace else None
    work_dir = OUT / f"run-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, args.refs, tracer, work_dir)
        if tracer is not None and args.workload != _CLI:
            tracing.install(tracer)
            tracer.suspended = True
        run_groups(wl.warmup, [], [], speed)
        if tracer is not None:
            tracer.suspended = False
        records: list[dict] = []
        failures: list[str] = []
        pass_times: list[tuple[float, float]] = []
        if tracer is not None:
            run_groups(wl.traced_extra, records, failures, speed, tracer)
        start = time.perf_counter()
        for groups in wl.passes:
            first_span = len(tracer.spans) if tracer is not None else 0
            pass_times.append(run_groups(groups, records, failures, speed, tracer))
            if len(pass_times) == 1 and tracer is not None:
                layer_spans = (first_span, len(tracer.spans))
            if time.perf_counter() - start >= args.seconds:
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failed = sum(1 for r in records if not r["ok"])
    if args.workload == _CLI:
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e, raw = (
        {
            "setup_s": statistics.median(setup[i]) if setup[i] else 0.0,
            "wall_s": statistics.median(p[i] for p in pass_times),
            "op_p50_s": statistics.median(r[key] for r in records),
            "op_tail_s": tail([r[key] for r in records], TAIL_PERCENTILE[args.workload])[0],
            "peak_rss_mb": rss_mb,
        }
        for i, key in ((0, "s"), (1, "raw_s"))
    )
    times = [r["s"] for r in records]
    tail_pct = TAIL_PERCENTILE[args.workload]
    notes = {
        "setup_s": f"median of {len(setup[1])} fresh interpreters",
        "wall_s": f"median of {len(pass_times)} passes",
        "op_p50_s": f"{len(times)} ops",
        "op_tail_s": f"p{tail_pct}: {tail(times, tail_pct)[1]} of {len(times)} ops beyond",
        "peak_rss_mb": "max over cli children" if args.workload == _CLI else "this process",
    }
    for line in failures[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    result = {
        "meta": meta,
        "ops": records,
        "fail_ratio": failed / len(records),
        "setup_samples": setup[1],
        "pass_times": pass_times,
        "op_tail_percentile": tail_pct,
        "host_speed": speed.samples,
        "raw_metrics": raw,
    }
    units = metric_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        metrics = layer_metrics(args, tracer, layer_spans, records, e2e, raw)
        tracing.write_spans(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl.gz", tracer.spans)
        log(f"  per-layer figures from the {layer_spans[1] - layer_spans[0]} spans of pass 0, "
            f"of {len(pass_times)} passes; anchor.* and deg2.* from the extra ops")
        for name, value in metrics.items():
            base = f"   (ROADMAP: {ROADMAP[name]})" if name in ROADMAP else ""
            target = "moves {} on {}".format(*TARGETS[name])
            log(f"  {name:44s} {value:12.6g} {units[name]:5s} {target}{base}")
    else:
        metrics = e2e
        log(f"  host slowdown {statistics.fmean(speed.samples):.2f} (1 = reference speed); "
            "times are divided by it per op, raw times in brackets")
        for name, unit in units.items():
            log(f"  {name:12s} {metrics[name]:10.4f} {unit:4s} [{raw[name]:.4f}] ({notes[name]})")
    log(f"  {'fail_ratio':12s} {failed / len(records):10.4f} 1    ({failed} of {len(records)} ops failed)")
    result["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def layer_metrics(args, tracer, pass0, records, e2e, raw) -> dict:
    """Per-layer metrics from the spans of pass 0, which hold raw times; the
    extra ops report on their own (``anchor.*``, ``deg2.*``). A layer that
    the workload does not run reads 0, since every traced run reports every
    per-layer metric."""
    import tracing

    stats = tracing.layer_stats(tracer.spans, start=pass0[0], stop=pass0[1])
    out = {name: stats.get(name, 0.0) for name in metric_units("per_layer")}
    out["cli.interpreter_s"] = statistics.median(
        child_seconds([sys.executable, "-c", "pass"]) for _ in range(PROBE_REPS)
    )
    if args.workload == _CLI:
        imports = [s[2] - s[1] for s in tracer.spans[slice(*pass0)] if s[0] == "cli.import"]
        out["cli.import_s"] = statistics.median(imports) if imports else 0.0
        out["cli.import_share"] = out["cli.import_s"] / raw["op_p50_s"]
    else:
        out["cli.import_s"] = statistics.median(import_seconds())
        out["cli.import_share"] = 0.0
    if args.workload == _CHART:
        out.update(anchor_metrics(tracer.spans, records))
    if args.workload == _ENUM:
        out["deg2.pipeline_s"] = next(r["raw_s"] for r in records if r["key"].startswith("enum/deg2/"))
    out["bench.traced_wall_s"] = e2e["wall_s"]
    return out


def run_all(args) -> dict:
    """Every workload in a fresh process; with --trace 1, untraced then traced."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ("chart-ladder", "type-enum", "cli-cold"):
        results = {}
        for trace in (0, 1) if args.trace else (0,):
            p = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--refs", str(args.refs)],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            sys.stderr.write(p.stderr)
            lines = p.stdout.strip().splitlines()
            if p.returncode or not lines:
                raise SystemExit(f"error: {workload} trace={trace} exited {p.returncode}")
            for line in lines[:-1]:
                log(line)
            res = json.loads(lines[-1])
            results[trace] = res
            total["correct"] &= res["correct"]
            total["attempted"] += res["attempted"]
            total["failed"] += res["failed"]
            for name, m in res["metrics"].items():
                total["metrics"][f"{workload}.{name}"] = m
        if 1 in results:
            traced = results[1]["metrics"]["bench.traced_wall_s"]["value"]
            untraced = results[0]["metrics"]["wall_s"]["value"]
            log(f"  tracing overhead: {traced - untraced:+.4f} s per pass ({traced:.4f} traced, {untraced:.4f} untraced)")
            same = compare_digests(workload, args.seed)
            log(f"  traced and untraced output digests identical: {same}")
            total["correct"] &= same
    return total


def compare_digests(workload: str, seed: int) -> bool:
    """True if every op run by both the traced and the untraced run has one digest."""
    runs = []
    for trace in (0, 1):
        with open(OUT / f"{workload}-seed{seed}-trace{trace}.json") as fh:
            runs.append({r["key"]: r["digest"] for r in json.load(fh)["ops"]})
    common = runs[0].keys() & runs[1].keys()
    return bool(common) and all(runs[0][k] == runs[1][k] for k in common)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["chart-ladder", "type-enum", "cli-cold", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--refs", type=Path, default=HERE / "refs", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "punctref" / "__init__.py").is_file():
        print(f"error: no punctref sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "fixtures").is_dir():
        print(f"error: no fixtures directory under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    if args.setup_probe:
        import workloads

        work_dir = OUT / f"probe-{os.getpid()}"
        work_dir.mkdir(parents=True, exist_ok=True)
        try:
            next(workloads.build(args.workload, args.seed, args.refs, None, work_dir).passes)
            ready = time.monotonic()
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        print(ready)
        return 0
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
