"""Every function the benchmark's tracer wraps exists in its home module.

``bench/tracing.py`` names them as ``module.function``. A renamed or deleted
one stops the benchmark's ``install`` with an AttributeError; this test
reports it in the main suite, without running the benchmark's own tests.
"""
import importlib
import importlib.util
import os

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
