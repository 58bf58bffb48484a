"""Each name the package exports is listed in exactly one module's __all__."""
import importlib
import pkgutil

import pytest

import punctref

SUBMODULES = [
    importlib.import_module(f"punctref.{m.name}")
    for m in pkgutil.iter_modules(punctref.__path__)
]


@pytest.mark.parametrize("name", [n for n in punctref.__all__ if n != "__version__"])
def test_exported_name_comes_from_one_module_list(name):
    owners = [m for m in SUBMODULES if name in getattr(m, "__all__", ())]
    assert len(owners) == 1, (name, [m.__name__ for m in owners])
    assert getattr(punctref, name) is getattr(owners[0], name)
