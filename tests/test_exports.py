import importlib

import pytest

MODULES = ["fracop", "potential", "layer", "cell", "homog", "hull", "runio"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import(name):
    mod = importlib.import_module(f"fracpn.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing, f"fracpn.{name}.__all__ names undefined attributes {missing}"
    namespace = {}
    exec(f"from fracpn.{name} import *", namespace)
    assert set(mod.__all__) <= set(namespace)
