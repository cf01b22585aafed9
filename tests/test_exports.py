import importlib

import pytest

import splitvar


@pytest.mark.parametrize(
    "module", ["densities", "diagnostics", "duality", "energy", "grid", "solve"]
)
def test_module_all_names_exist(module):
    # a plain import never reads __all__; a star import fails on a stale entry
    namespace = {}
    exec(f"from splitvar.{module} import *", namespace)
    assert set(importlib.import_module(f"splitvar.{module}").__all__) <= set(namespace)


def test_package_all_names_exist():
    assert [n for n in splitvar.__all__ if not hasattr(splitvar, n)] == []


# the package exports these modules' __all__ lists, in this order
PACKAGE_MODULES = ["densities", "grid", "energy", "solve", "duality", "diagnostics"]


def test_module_all_lists_are_disjoint():
    # a name in two lists would be shadowed by the later star import
    names = [n for m in PACKAGE_MODULES for n in importlib.import_module(f"splitvar.{m}").__all__]
    assert len(names) == len(set(names))


def test_package_all_is_the_module_lists():
    modules = [importlib.import_module(f"splitvar.{m}") for m in PACKAGE_MODULES]
    assert splitvar.__all__ == ["__version__", *(n for mod in modules for n in mod.__all__)]
    for mod in modules:
        assert all(getattr(splitvar, n) is getattr(mod, n) for n in mod.__all__)
