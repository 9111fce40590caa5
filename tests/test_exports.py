import ast
import importlib
import pathlib

import pytest

import fracpn

MODULES = ["fracop", "potential", "layer", "cell", "homog", "hull", "runio"]
SOURCES = sorted(pathlib.Path(fracpn.__file__).parent.glob("*.py"))


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
    outside its own definition."""
    mod = importlib.import_module(f"fracpn.{name}")
    read = set().union(*(_reads(ast.parse(p.read_text(encoding="utf-8"))) for p in SOURCES))
    unread = sorted(set(mod.__all__) - read - AWAITING_CALLER)
    assert not unread, f"fracpn.{name}.__all__ names nothing in the package reads: {unread}"


def _attribute_reads():
    """(owner, attribute, enclosing function definitions) of every attribute
    read in the package; owner is the name the attribute is taken from, or
    None when that is not a plain name or attribute."""
    reads = []

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node}
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            value = node.value
            owner = getattr(value, "id", None) or getattr(value, "attr", None)
            reads.append((owner, node.attr, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), frozenset())
    return reads


def _members():
    """(class, member, definition, is a class/static method) of every
    non-dunder method or property of a top-level class in the package."""
    for path in SOURCES:
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(cls, ast.ClassDef) or cls.name in AWAITING_CALLER:
                continue
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__"):
                    on_class = any(getattr(d, "id", None) in ("classmethod", "staticmethod")
                                   for d in fn.decorator_list)
                    yield cls.name, fn.name, fn, on_class


def test_every_class_member_is_read_in_the_package():
    """A class or static method is read as <Class>.<name>, and any other
    method or property as an attribute, somewhere in the package outside its
    own body; what only tests reach belongs in tests/."""
    reads = _attribute_reads()
    unread = [
        f"{cls}.{name}" for cls, name, fn, on_class in _members()
        if not any(attr == name and fn not in inside and (owner == cls or not on_class)
                   for owner, attr, inside in reads)
    ]
    assert not unread, f"class members nothing in the package reads: {unread}"
