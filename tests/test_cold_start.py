"""Cold start: a fresh interpreter loads only the modules its caller uses.

``import punctref`` loads no submodule; each exported name comes from its
home module on first use. Every probe runs in a fresh interpreter with the
library on PYTHONPATH and reads the ``punctref.*`` keys of ``sys.modules``.
"""
import json
import os
import subprocess
import sys

import pytest

from punctref.cli import main

from conftest import fixture_path

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


def fresh(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def loaded_after(statement, also=()):
    """The punctref submodules, and the modules named in also, that a fresh
    interpreter holds after a statement."""
    proc = fresh("-c", statement + "\nimport sys\nprint(json.dumps(sorted(k[9:] "
                 "for k in sys.modules if k.startswith('punctref.')) + sorted("
                 f"m for m in {tuple(also)!r} if m in sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_import_loads_no_submodule():
    assert loaded_after("import json, punctref") == []


def test_chart_modules_load_only_their_imports():
    assert loaded_after("import json\nfrom punctref import conecx, puncture") == [
        "aluffi", "chowring", "conecx", "lattice", "puncture", "tropdata"
    ]


def test_cli_import_leaves_gerby_and_blowups():
    loaded = loaded_after("import json, punctref.cli")
    assert "cli" in loaded
    assert "gerby" not in loaded and "blowups" not in loaded


def test_cli_import_loads_neither_dataclasses_nor_tropmaps():
    proc = fresh("-c", "import json, sys, punctref.cli\nprint(json.dumps(sorted("
                 "m for m in ('dataclasses', 'inspect', 'punctref.tropmaps') "
                 "if m in sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_cli_import_loads_neither_hashlib_nor_fractions():
    """The input digest imports hashlib on the success path alone, and a
    Fraction is built only where a value is not an int."""
    loaded = loaded_after("import json, punctref.cli", also=("fractions", "hashlib"))
    assert "cli" in loaded
    assert "fractions" not in loaded and "hashlib" not in loaded


def test_namespace_lists_binds_and_refuses():
    code = (
        "import json, punctref\n"
        "names = dir(punctref)\n"
        "ns = {}\n"
        "exec('from punctref import *', ns)\n"
        "try:\n"
        "    punctref.no_such_name\n"
        "    refused = False\n"
        "except AttributeError:\n"
        "    refused = True\n"
        "print(json.dumps({\n"
        "    'unlisted': [n for n in punctref.__all__ if n not in names],\n"
        "    'unbound': [n for n in punctref.__all__\n"
        "                if ns.get(n, ns) is not getattr(punctref, n)],\n"
        "    'homeless': sorted(set(punctref.__all__) ^ set(punctref._HOME)),\n"
        "    'refused': refused,\n"
        "}))\n"
    )
    proc = fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "unlisted": [], "unbound": [], "homeless": ["__version__"], "refused": True
    }


# one run of each subcommand, on fixtures with a complex
ARGVS = [
    ["validate", fixture_path("pr-hyperplane")],
    ["enumerate", fixture_path("pr-hyperplane")],
    ["refined-class", fixture_path("pr-hyperplane")],
    ["segre", fixture_path("pr-hyperplane")],
    ["twisted-check", fixture_path("pr-hyperplane"), "--r", "3"],
    ["compare-blowup", fixture_path("f1-counterexample")],
    ["positivize", fixture_path("pr-hyperplane")],
    ["sensitivity", fixture_path("pr-hyperplane")],
]


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: argv[0])
def test_fresh_subcommand_matches_in_process(argv, capsys):
    proc = fresh("-m", "punctref.cli", *argv)
    code = main(argv)
    assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out)


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: argv[0])
def test_only_enumerating_subcommands_load_tropmaps(argv):
    """The data layer lives in tropdata: a subcommand that enumerates no
    types, on a fixture with a complex, never compiles tropmaps."""
    loaded = loaded_after(
        "import contextlib, io, json\nfrom punctref.cli import main\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    main({argv!r})"
    )
    assert ("tropmaps" in loaded) == (argv[0] in ("enumerate", "sensitivity"))
    assert "tropdata" in loaded


def modules_after_main(argv, code):
    """The punctref submodules, and hashlib if loaded, of a fresh interpreter
    whose one ``main(argv)`` call, its output dropped, returned code."""
    return set(loaded_after(
        "import contextlib, io, json\nfrom punctref.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        f"    if main({argv!r}) != {code}:\n        raise SystemExit('exit code')",
        also=("hashlib",),
    ))


CHOW_LAYERS = {"aluffi", "chowring", "puncture"}
CHECK_LAYERS = {"blowups", "gerby", "tropmaps"}


@pytest.mark.parametrize("command", ["validate", "positivize"])
def test_reading_subcommands_compile_no_chow_layer(command):
    loaded = modules_after_main([command, fixture_path("p2-two-lines")], 0)
    assert not loaded & (CHOW_LAYERS | CHECK_LAYERS)
    assert "hashlib" in loaded


def test_enumerate_compiles_tropmaps_but_no_chow_layer():
    loaded = modules_after_main(["enumerate", fixture_path("p2-two-lines")], 0)
    assert "tropmaps" in loaded and not loaded & CHOW_LAYERS


def test_sensitivity_compiles_no_chow_layer_it_never_runs():
    """``blowups`` imports ``refined_class`` inside the comparison that
    calls it, so a slope-sensitivity check loads neither ``puncture`` nor
    ``aluffi``."""
    # p2-two-lines misses the slope (1, 1), so the check exits 1
    loaded = modules_after_main(["sensitivity", fixture_path("p2-two-lines")], 1)
    assert "blowups" in loaded and "tropmaps" in loaded
    assert not loaded & {"aluffi", "puncture"}


@pytest.mark.parametrize("command", ["segre", "twisted-check", "enumerate"])
def test_a_malformed_document_compiles_no_layer_past_the_reader(command, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"complex": {"rays": [{"id": 1}], "cones": []}}')
    loaded = modules_after_main([command, str(path)], 2)
    assert not loaded & (CHOW_LAYERS | CHECK_LAYERS | {"hashlib"})


# refusals of a missing flag or fixture section; None stands for a document
# that holds only pr-hyperplane's complex
REFUSALS = {
    "twisted-check-without-r": ["twisted-check", fixture_path("pr-hyperplane")],
    "compare-blowup-without-trace": ["compare-blowup", fixture_path("pr-hyperplane")],
    "enumerate-without-data": ["enumerate", None],
    "sensitivity-without-data": ["sensitivity", None],
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals_run_before_the_check_layers_load(case, tmp_path):
    command, path = REFUSALS[case]
    if path is None:
        with open(fixture_path("pr-hyperplane")) as fh:
            doc = {"complex": json.load(fh)["complex"]}
        path = tmp_path / "complex-only.json"
        path.write_text(json.dumps(doc))
    loaded = modules_after_main([command, str(path)], 2)
    assert not loaded & (CHOW_LAYERS | CHECK_LAYERS | {"hashlib"})
