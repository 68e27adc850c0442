import importlib

import pytest

MODULES = ["ssalign", *(f"ssalign.{name}" for name in
                        ("channel", "dof", "linalg", "units", "relay", "lemmas", "pipeline"))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
