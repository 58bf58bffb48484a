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


def loaded_after(statement):
    """The punctref submodules a fresh interpreter holds after a statement."""
    proc = fresh("-c", statement + "\nimport sys\nprint(json.dumps(sorted(k[9:] "
                 "for k in sys.modules if k.startswith('punctref.'))))")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_import_loads_no_submodule():
    assert loaded_after("import json, punctref") == []


def test_chart_modules_load_only_their_imports():
    assert loaded_after("import json\nfrom punctref import conecx, puncture") == [
        "aluffi", "chowring", "conecx", "lattice", "puncture"
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
