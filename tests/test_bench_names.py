"""Every function the benchmark's tracer wraps exists in its home module.

``bench/tracing.py`` names them as ``module.function``. A renamed or deleted
one stops the benchmark's ``install`` with an AttributeError; this test
reports it in the main suite, without running the benchmark's own tests.
"""
import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

TRACING = os.path.join(os.path.dirname(__file__), "..", "bench", "tracing.py")


def wrapped_names():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAPPED


@pytest.mark.parametrize("name", wrapped_names())
def test_wrapped_function_resolves_in_its_home_module(name):
    module, attr = name.split(".")
    home = importlib.import_module(f"punctref.{module}")
    assert callable(getattr(home, attr, None)), name


# One k = 2 chart group, the first degree-1 pipeline, one gerby identity and
# one sensitivity check, run under the tracer; prints, per COUNTERS name, the
# spans whose counts were recorded.
TRACED_OPS = """
import json, sys
sys.path[:0] = sys.argv[1:]
import tracing, workloads
from punctref import blowups, chowring, gerby, puncture, tropmaps

k, n, v, values = workloads.chart_pool()[0]
assert k == 2
chart = workloads._chart_group("chart", values, list(range(k)), {}, {})
ops = dict(workloads.type_enum_ops([2], [(2, 3)]))
tracer = tracing.Tracer()
tracing.install(tracer)
for call in (*chart.calls, ops["enum/deg1/2,2;-1,-1"], ops["gerby/pr/r=2"],
             ops["sensitivity/p2/barycentric"]):
    call()
counted = {name: 0 for name in tracing.COUNTERS}
for name, _, _, _, _, counts in tracer.spans:
    if name in counted and counts:
        counted[name] += 1
print(json.dumps(counted))
"""


def test_every_counter_reads_the_call_shape_it_is_given():
    """The COUNTERS of ``bench/tracing.py`` read the wrapped calls' arguments
    and outputs (a trace at ``out[1]``, maximal cones at ``out[0]``, the
    (data, type) pair of ``cone_of_type``, the class pushed forward); each
    records counts on the ops of the in-process workloads."""
    bench = os.path.dirname(TRACING)
    src = os.path.join(bench, "..", "src")
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_OPS, src, bench],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-800:]
    counted = json.loads(proc.stdout)
    assert [name for name, spans in counted.items() if not spans] == []
