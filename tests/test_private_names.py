"""No module of the package reaches into another module's private names.

A ``_``-prefixed name is its module's own: another module that imports it
(``from .fock import _x``) or reads it (``fock._x``) depends on what the
owner may change freely.  Such a name is made public instead.
"""
import ast

from test_reachability import SRC, _imports, _module_name


def private_imports(src=SRC) -> list[str]:
    paths = sorted(src.glob("*.py"))
    modules = {_module_name(p) for p in paths} - {"__init__"}
    found = []
    for path in paths:
        module = _module_name(path)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        mod_alias, name_alias = _imports(tree, modules, from_package=True)
        used = [(owner, name) for owner, name in name_alias.values()]
        used += [(mod_alias[node.value.id], node.attr) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in mod_alias]
        found += [f"{module} uses {owner}.{name}" for owner, name in used
                  if owner != module and name.startswith("_") and not name.startswith("__")]
    return sorted(set(found))


def test_the_scan_sees_a_private_import(tmp_path):
    # guards the scan itself, on a three-module package of both kinds of use;
    # c's only import sits inside a function, as the CLI's imports do
    (tmp_path / "a.py").write_text("def _f():\n    pass\n\n\ndef _g():\n    pass\n")
    (tmp_path / "b.py").write_text("from . import a\nfrom .a import _f\n\n"
                                   "def g():\n    return a._f, _f\n")
    (tmp_path / "c.py").write_text("def h():\n    from .a import _g\n    return _g\n")
    assert private_imports(tmp_path) == ["b uses a._f", "c uses a._g"]


def test_no_module_uses_another_modules_private_names():
    found = private_imports()
    assert not found, "; ".join(found)
