import importlib

import pytest

MODULES = ["effcap", "effcap.asymptotics", "effcap.cli", "effcap.combiner",
           "effcap.errors", "effcap.fading", "effcap.montecarlo",
           "effcap.policies", "effcap.quadrature", "effcap.specfun"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", [])
               if not hasattr(module, n)]
    assert not missing
