import dataclasses
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


def test_reference_conjugate_is_a_test_helper():
    # the derivative-free conjugate is a test oracle, tests/reference_conjugate.py
    moved = {
        "conjugate_scalar", "NonConcaveObjectiveError", "ConjugateBoundaryWarning", "young_residual"
    }
    exported = set(splitvar.__all__) | set(dir(splitvar)) | set(dir(splitvar.densities))
    assert not moved & exported


def test_checked_dataclasses_are_frozen():
    # a type that checks its input in __post_init__ keeps the check for its
    # life only if no field can be reassigned after it
    exported = [getattr(splitvar, n) for n in splitvar.__all__]
    checked = [
        cls for cls in exported
        if isinstance(cls, type) and dataclasses.is_dataclass(cls) and hasattr(cls, "__post_init__")
    ]
    assert {"Grid", "GridFunction", "CellField2", "BVCandidate", "SolveConfig"} <= {
        cls.__name__ for cls in checked
    }
    assert [cls.__name__ for cls in checked if not cls.__dataclass_params__.frozen] == []
