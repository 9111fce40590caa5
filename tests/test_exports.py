import ast
import importlib
import pathlib

import pytest

import fracpn

MODULES = ["fracop", "potential", "layer", "cell", "homog", "hull", "runio"]
# the package __init__ imports only to re-export
SOURCES = sorted(p for p in pathlib.Path(fracpn.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import(name):
    mod = importlib.import_module(f"fracpn.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing, f"fracpn.{name}.__all__ names undefined attributes {missing}"
    namespace = {}
    exec(f"from fracpn.{name} import *", namespace)
    assert set(mod.__all__) <= set(namespace)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    """Every name a module imports is read in it or listed in its __all__."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    assert not imported - used, f"{path.name} imports unused names {sorted(imported - used)}"
