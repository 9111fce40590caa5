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


# AnisotropyKernel has no command caller until a config can name an
# anisotropic kernel and a direction (ROADMAP item 11)
AWAITING_CALLER = {"AnisotropyKernel"}


def _reads(tree):
    """Names a module reads, as a bare name or an attribute, outside the
    top-level statement that defines them."""
    reads = set()
    for stmt in tree.body:
        own = {getattr(stmt, "name", None)}
        own |= {t.id for t in getattr(stmt, "targets", ()) if isinstance(t, ast.Name)}
        nodes = list(ast.walk(stmt))
        names = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        reads |= names - own
    return reads


@pytest.mark.parametrize("name", MODULES)
def test_every_export_is_read_in_the_package(name):
    """Every name in a module's __all__ is read somewhere in the package
    outside its own definition (the re-exporting __init__ does not count)."""
    mod = importlib.import_module(f"fracpn.{name}")
    read = set().union(*(_reads(ast.parse(p.read_text(encoding="utf-8"))) for p in SOURCES))
    unread = sorted(set(mod.__all__) - read - AWAITING_CALLER)
    assert not unread, f"fracpn.{name}.__all__ names nothing in the package reads: {unread}"
