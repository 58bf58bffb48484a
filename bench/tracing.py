"""Spans recorded from outside the library, by wrapping public functions.

``install`` replaces each function named in ``WRAPPED`` with a recording
wrapper in every loaded ``punctref`` module namespace that binds the same
function object. ``from``-imports bind names at import time, so aliases such
as ``blowups.chow_pushforward`` or ``gerby.chow_reduce`` are wrapped too.

A span is ``[name, start, end, parent, op, counts]``: ``parent`` is the index
of the enclosing span (-1 at top level), ``op`` the benchmark op id, and
``counts`` the extra per-call counts of ``COUNTERS``. Spans stay in memory
until ``write_spans`` stores them at the end of a run.
"""
from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

WRAPPED = (
    "conecx.build_complex",
    "conecx.validate_complex",
    "conecx.star_subdivide",
    "conecx.pl_pullback",
    "chowring.multiply",
    "chowring.pushforward",
    "chowring.reduce",
    "chowring.divisor_of_pl",
    "puncture.normalized_ideal",
    "puncture.puncturing_components",
    "puncture.principalize",
    "puncture.segre_class",
    "puncture.refined_class",
    "aluffi.principalize_newton",
    "aluffi.segre_newton",
    "tropmaps.enumerate_types",
    "tropmaps.slopes_from_balancing",
    "tropmaps.realizable",
    "tropmaps.canonical_key",
    "tropmaps.cone_of_type",
    "tropmaps.specializations",
    "tropmaps.assemble_complex",
    "gerby.check_pushforward_identity",
    "gerby.twist_complex",
    "gerby.root_pushforward",
    "blowups.check_slope_sensitivity",
    "blowups.compare_under_subdivision",
    "fixtureio.load_fixture_file",
    "fixtureio.types_to_json",
    "fixtureio.complex_to_json",
    "cli.main",
)


def _principalize_counts(args, out, ok):
    if not ok:
        return None
    return {"steps": len(out[1]), "max_cones_out": len(out[0].maximal_cones())}


# extra per-call counts, taken after the span has ended
COUNTERS = {
    "chowring.multiply": lambda a, out, ok: {"terms_out": len(out.terms)} if ok else None,
    "chowring.pushforward": lambda a, out, ok: {"terms_in": len(a[0].terms)},
    "puncture.principalize": _principalize_counts,
    "aluffi.principalize_newton": lambda a, out, ok: {"steps": len(out[1])} if ok else None,
    "tropmaps.enumerate_types": lambda a, out, ok: {"types_out": len(out)} if ok else None,
    "tropmaps.slopes_from_balancing": lambda a, out, ok: {"ok": int(ok)},
    "tropmaps.realizable": lambda a, out, ok: {"true": int(ok and bool(out))},
    # equal (data, type) pairs are repeated work that a cache would skip
    "tropmaps.cone_of_type": lambda a, out, ok: {"key": hash((a[0], a[1]))},
}

# per-layer ratio name -> (count summed over calls, denominator: calls)
RATIOS = {
    "tropmaps.slopes_from_balancing.ok_ratio": "ok",
    "tropmaps.realizable.true_ratio": "true",
}


class Tracer:
    """Collects nested spans of wrapped calls for the current op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self.suspended = False

    def record(self, name, start, end) -> None:
        """Add a finished span measured by the caller."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.op, None])

    def extend(self, spans, op) -> None:
        """Append the spans of another process, as top-level spans of ``op``."""
        base = len(self.spans)
        for name, start, end, parent, _op, counts in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, op, counts])

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if self.suspended:
                return fn(*args, **kwargs)
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[2] = clock()
                stack.pop()
                if counter is not None:
                    rec[5] = counter(args, None, False)
                raise
            rec[2] = clock()
            stack.pop()
            if counter is not None:
                rec[5] = counter(args, out, True)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every loaded function of ``WRAPPED`` in every namespace binding it."""
    modules = [
        m
        for key, m in sorted(sys.modules.items())
        if m is not None and (key == "punctref" or key.startswith("punctref."))
    ]
    for name in WRAPPED:
        modname, attr = name.split(".")
        home = sys.modules.get(f"punctref.{modname}")
        if home is None:
            continue
        orig = getattr(home, attr)
        wrapper = tracer.wrap(name, orig)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapper)


def layer_stats(spans, op=None, start=0, stop=None) -> dict[str, float]:
    """Per-function calls, self time, total time and extra counts, over the
    spans ``spans[start:stop]``, or over those of one op. Extra counts are
    summed over calls, except that ``max_*`` counts keep the largest.

    Self time is a span's duration minus the durations of its direct child
    spans; spans of one process nest strictly, so children never overlap.
    Total time counts only spans with no enclosing span of the same name.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    out: dict[str, float] = defaultdict(float)
    keys: dict[str, set] = defaultdict(set)
    for i in range(start, len(spans) if stop is None else stop):
        name, t0, t1, parent, span_op, counts = spans[i]
        if op is not None and span_op != op:
            continue
        dur = t1 - t0
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += dur - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[f"{name}.total_s"] += dur
        if counts:
            for key, value in counts.items():
                if key == "key":
                    keys[name].add(value)
                elif key.startswith("max_"):
                    out[f"{name}.{key}"] = max(out[f"{name}.{key}"], value)
                else:
                    out[f"{name}.{key}"] += value
    for name, seen in keys.items():
        out[f"{name}.distinct_ratio"] = len(seen) / out[f"{name}.calls"]
    for ratio, key in RATIOS.items():
        name = ratio.rsplit(".", 1)[0]
        calls = out.get(f"{name}.calls", 0)
        out[ratio] = out.pop(f"{name}.{key}", 0) / calls if calls else 0.0
    return dict(out)


def write_spans(path, spans) -> None:
    with gzip.open(path, "wt") as fh:
        for s in spans:
            fh.write(json.dumps(s) + "\n")


def read_spans(path) -> list[list]:
    with gzip.open(path, "rt") as fh:
        return [json.loads(line) for line in fh]
