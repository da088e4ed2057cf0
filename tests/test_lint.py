"""Static checks on the package source, with the standard library's ast only,
and one structural start-up check in a fresh interpreter.

- every imported name is used in its module (``__init__.py`` re-exports and
  ``from __future__`` imports are exempt);
- every ``__all__`` entry is defined in its module;
- ``svlie/__init__.py`` imports from a module only names in that module's ``__all__``;
- every other module imports only from modules before it in ``LAYERS``, so the
  engine (``scalar`` to ``autgroup``) never reaches the reader of outside input;
- at most ``MAX_PRIVATE_IMPORTS`` private names are imported across modules;
- only ``scalar.py`` imports ``fractions``: ``Scalar`` is the one number type;
- every module parses with the grammar of the oldest supported Python,
  ``requires-python = ">=3.10"`` in pyproject.toml;
- importing ``svlie.cli`` and ``svlie.verify`` in a fresh interpreter loads none
  of ``HEAVY_STDLIB`` (``dataclasses`` pulls in the other four).

Import checks read relative imports and absolute ones of ``svlie.<module>`` alike.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import svlie

PACKAGE = Path(svlie.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
LAYERS = ("scalar", "algebra", "derivations", "autgroup", "expr", "verify", "cli")
MAX_PRIVATE_IMPORTS = 4
OLDEST_PYTHON = (3, 10)
HEAVY_STDLIB = ("dataclasses", "inspect", "ast", "dis", "tokenize")


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


def _absolute_imports(tree: ast.Module) -> set[str]:
    """The top-level name of each module imported absolutely (``fractions`` for
    ``from fractions import Fraction``)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def _package_imports(tree: ast.Module):
    """``(module, name)`` for each name imported from a package module, written
    relatively or as ``svlie.<module>``.  ``name`` is None where a module itself is
    imported (``import svlie.m``, ``from . import m``, ``from svlie import m``);
    ``import svlie`` gives ``("svlie", None)``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "svlie":
                    yield rest.split(".")[0] or "svlie", None
        elif isinstance(node, ast.ImportFrom):
            if node.level == 1:
                module = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == "svlie":
                module = node.module.partition(".")[2]
            else:
                continue
            for alias in node.names:
                yield (module.split(".")[0], alias.name) if module else (alias.name, None)


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
    stray = [
        f"{module}.{name}"
        for module, name in _package_imports(_tree(PACKAGE / "__init__.py"))
        if name and name not in _all(_tree(PACKAGE / f"{module}.py"))
    ]
    assert not stray, f"svlie/__init__.py imports names outside their module's __all__: {stray}"


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in MODULES if p.name != "__init__.py") == sorted(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_each_module_imports_only_earlier_layers(name):
    earlier = set(LAYERS[: LAYERS.index(name)])
    imported = {module for module, _ in _package_imports(_tree(PACKAGE / f"{name}.py"))}
    assert imported <= earlier, f"{name}.py imports from later layers {sorted(imported - earlier)}"


def test_few_private_names_cross_modules():
    """The four: autgroup imports ``_apply_outer`` from derivations; expr imports
    ``_MAX_TERMS`` from algebra and ``_digit_run`` and ``_skip_ws`` from scalar."""
    crossing = sorted(
        f"{path.stem} <- {module}.{name}"
        for path in MODULES
        for module, name in _package_imports(_tree(path))
        if name and name.startswith("_")
    )
    assert len(crossing) <= MAX_PRIVATE_IMPORTS, crossing


def test_only_scalar_imports_fractions():
    """``Scalar`` is the engine's one number type, and ``Fraction`` appears only at
    its public edge: no other module imports ``fractions`` or binds ``Fraction``."""
    importers = sorted(
        path.name
        for path in MODULES
        if "fractions" in _absolute_imports(_tree(path)) or "Fraction" in _imported(_tree(path))
    )
    assert importers == ["scalar.py"], importers


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_parses_on_the_oldest_supported_python(path):
    # syntax newer than OLDEST_PYTHON (``except*``, for one) is a SyntaxError here
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST_PYTHON)


def test_importing_the_engine_loads_no_heavy_stdlib_module():
    # a structural start-up check: which modules the import adds, not how long it takes
    probe = (
        "import sys; before = set(sys.modules); import svlie.cli, svlie.verify; "
        f"print(sorted(set({HEAVY_STDLIB!r}) & (set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]", f"importing svlie loads {done.stdout.strip()}"
