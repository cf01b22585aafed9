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
