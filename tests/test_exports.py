import importlib

import pytest

MODULES = ["ssalign", *(f"ssalign.{name}" for name in
                        ("channel", "dof", "linalg", "units", "relay", "lemmas", "pipeline"))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"


# The single-matrix subspace functions serve only the tests; they live in
# tests/reference.py, and the library keeps the stacked rank rule.
@pytest.mark.parametrize("name", ["numerical_rank", "nullspace_basis", "range_basis",
                                  "intersection_basis", "union_span_dim", "as_complex_matrix"])
def test_single_matrix_subspace_functions_are_not_library_names(name):
    for module in ("ssalign", "ssalign.linalg"):
        assert not hasattr(importlib.import_module(module), name), f"{module}.{name}"
    assert not hasattr(importlib.import_module("ssalign.errors"), "InvalidMatrix")
