"""Every top-level definition of the package is reachable from what runs it.

The roots are ``cli.main``, the functions listed in ``validate.CHECKS``, and
every ``micromacro`` module attribute that the benchmark (``perfbench/*.py``)
references.  Edges follow only references that name their definition without
ambiguity: a bare name defined in the same module, a name imported with
``from .mod import name``, and ``mod.name`` where ``mod`` is an imported
package module.  An attribute of anything else (``result.sigma_max`` on a
dataclass) is not followed, so a field cannot keep a function of the same
name alive.  A definition no root reaches is code that only tests call.
"""
import ast
from pathlib import Path

PACKAGE = "micromacro"
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / PACKAGE
BENCH = ROOT / "perfbench"


def _module_name(path: Path) -> str:
    return "__init__" if path.stem == "__init__" else path.stem


def _top_level_names(tree: ast.Module) -> dict:
    """Name -> node of every def, class and assigned name at module level."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defs[name.id] = node
    return defs


def _imports(tree: ast.Module, modules: set, from_package: bool) -> tuple[dict, dict]:
    """(alias -> module, alias -> (module, name)) for the package's imports.

    ``from_package`` reads relative imports (``from . import x``) as imports
    of the package, as they are inside ``src``.
    """
    mod_alias, name_alias = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and from_package:
                base = node.module
            elif node.level == 0 and node.module and node.module.split(".")[0] == PACKAGE:
                base = node.module.partition(".")[2] or None
            else:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                if base is None and alias.name in modules:
                    mod_alias[bound] = alias.name
                elif base is None:
                    name_alias[bound] = ("__init__", alias.name)
                else:
                    name_alias[bound] = (base, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE and len(parts) == 2 and alias.asname:
                    mod_alias[alias.asname] = parts[1]
    return mod_alias, name_alias


def _references(node: ast.AST, module: str, local: set, mod_alias: dict,
                name_alias: dict) -> set:
    """(module, name) pairs that ``node`` refers to."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name) \
                and sub.value.id in mod_alias:
            refs.add((mod_alias[sub.value.id], sub.attr))
        elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            if sub.id in name_alias:
                refs.add(name_alias[sub.id])
            elif sub.id in local:
                refs.add((module, sub.id))
    return refs


def _package_graph():
    trees = {_module_name(p): ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    modules = set(trees) - {"__init__"}
    defs, edges = {}, {}
    for module, tree in trees.items():
        names = _top_level_names(tree)
        mod_alias, name_alias = _imports(tree, modules, from_package=True)
        for name, node in names.items():
            defs[(module, name)] = node
            edges[(module, name)] = _references(node, module, set(names),
                                                mod_alias, name_alias)
    return trees, modules, defs, edges


def _check_functions(validate_tree: ast.Module) -> set:
    for node in validate_tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CHECKS" for t in node.targets):
            return {("validate", n.id) for n in ast.walk(node.value)
                    if isinstance(n, ast.Name)}
    raise AssertionError("validate.CHECKS not found")


def _benchmark_roots(modules: set) -> set:
    roots = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        mod_alias, name_alias = _imports(tree, modules, from_package=False)
        roots |= _references(tree, "", set(), mod_alias, name_alias)
    return roots


def unreachable_definitions() -> list[str]:
    trees, modules, defs, edges = _package_graph()
    roots = {("cli", "main")} | _check_functions(trees["validate"]) \
        | _benchmark_roots(modules)
    seen, stack = set(), [r for r in roots if r in defs]
    while stack:
        key = stack.pop()
        if key in seen:
            continue
        seen.add(key)
        stack.extend(r for r in edges[key] if r in defs and r not in seen)
    return sorted(f"{m}.{n}" for m, n in defs if (m, n) not in seen
                  and not n.startswith("__"))


def test_scan_sees_the_roots_and_their_callees():
    # guards the scan itself: a root, a callee two modules away, and a name
    # reached only through the benchmark are all found reachable
    _, modules, defs, _ = _package_graph()
    assert ("cli", "main") in defs and ("fock", "coherent_amplitudes") in defs
    assert ("spdc", "detailed_chsh_curve") in _benchmark_roots(modules)
    assert "fock.coherent_amplitudes" not in unreachable_definitions()


def test_every_definition_is_reachable():
    dead = unreachable_definitions()
    assert not dead, "reachable from no root: " + ", ".join(dead)
