"""Static checks on the package source, with the standard library's ast only.

- every imported name is used in its module (``__init__.py`` re-exports and
  ``from __future__`` imports are exempt);
- every ``__all__`` entry is defined in its module;
- ``svlie/__init__.py`` imports from a module only names in that module's ``__all__``;
- every other module imports only from modules before it in ``LAYERS``, so the
  engine (``scalar`` to ``autgroup``) never reaches the reader of outside input;
- at most ``MAX_PRIVATE_IMPORTS`` private names are imported across modules.
"""

import ast
from pathlib import Path

import pytest

import svlie

PACKAGE = Path(svlie.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
LAYERS = ("scalar", "algebra", "derivations", "autgroup", "expr", "verify", "cli")
MAX_PRIVATE_IMPORTS = 8


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds anywhere in the module, with its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def _all(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _defined(tree: ast.Module) -> set[str]:
    """The names a module binds at top level."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return out


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_all(tree))
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported and never used: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_all_entry_is_defined(path):
    tree = _tree(path)
    missing = set(_all(tree)) - _defined(tree)
    assert not missing, f"{path.name}: __all__ lists undefined names {sorted(missing)}"


def test_the_package_imports_only_public_names():
    stray = []
    for node in _tree(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            public = set(_all(_tree(PACKAGE / f"{node.module}.py")))
            stray += [f"{node.module}.{a.name}" for a in node.names if a.name not in public]
    assert not stray, f"svlie/__init__.py imports names outside their module's __all__: {stray}"


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in MODULES if p.name != "__init__.py") == sorted(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_each_module_imports_only_earlier_layers(name):
    earlier = set(LAYERS[: LAYERS.index(name)])
    imported = {
        node.module.split(".")[0]
        for node in ast.walk(_tree(PACKAGE / f"{name}.py"))
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }
    assert imported <= earlier, f"{name}.py imports from later layers {sorted(imported - earlier)}"


def test_few_private_names_cross_modules():
    """The eight: autgroup imports ``_add_into`` from algebra and ``_apply_outer`` and
    ``_bracket_violations`` from derivations; derivations imports ``_add_into`` and
    ``_constraint_system`` from algebra; expr imports ``_MAX_TERMS`` from algebra and
    ``_scan_digits`` and ``_skip_ws`` from scalar."""
    crossing = sorted(
        f"{path.stem} <- {node.module}.{alias.name}"
        for path in MODULES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert len(crossing) <= MAX_PRIVATE_IMPORTS, crossing
