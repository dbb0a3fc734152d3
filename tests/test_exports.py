import importlib

import pytest

MODULES = ["analytic", "cli", "discrepancy", "experiment", "model", "montecarlo", "power"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"marcsim.{name}")
    assert module.__all__
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"marcsim.{name}.__all__ names undefined {missing}"
