"""The package holds only routes that production or the acceptance file reaches.

Per-d references that only tests compare against live in `tests/reference.py`.
This walks `src/mdee/*.py` with `ast`: the roots are each module's top-level
statements other than definitions, `cli.main` and the names
`tests/test_acceptance.py` imports from the package. A definition reaches
every name it reads, resolved through the module's own definitions and its
`from .x import y` and `from . import x` imports, and `x.y` for an imported
module x. Every top-level function and class must be reached.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "mdee"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imports(tree: ast.Module, modules: set[str]) -> tuple[dict, dict]:
    """Names bound by package-relative imports: {name: (module, attr)} and {alias: module}."""
    names, aliases = {}, {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module is None and alias.name in modules:
                    aliases[bound] = alias.name
                elif node.module in modules:
                    names[bound] = (node.module, alias.name)
    return names, aliases


def _reads(nodes, module: str, defined: dict, names: dict, aliases: dict) -> set:
    """The package definitions, as (module, name), that the given nodes read."""
    found = set()
    for root in nodes:
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                if node.id in defined[module]:
                    found.add((module, node.id))
                elif node.id in names:
                    found.add(names[node.id])
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in aliases:
                    found.add((aliases[node.value.id], node.attr))
    return found


def acceptance_roots() -> set:
    """The (module, name) pairs `tests/test_acceptance.py` imports from the package."""
    roots = set()
    for node in _parse(TESTS / "test_acceptance.py").body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mdee."):
            roots |= {(node.module.split(".", 1)[1], alias.name) for alias in node.names}
    return roots


def unreached() -> list[str]:
    """Every top-level package definition no root reaches, as 'module.name'."""
    trees = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    defined = {
        module: {node.name: node for node in tree.body if isinstance(node, DEFINITIONS)}
        for module, tree in trees.items()
    }
    edges, pending = {}, {("cli", "main")} | acceptance_roots()
    for module, tree in trees.items():
        names, aliases = _imports(tree, set(trees))
        top = [node for node in tree.body if not isinstance(node, DEFINITIONS)]
        pending |= _reads(top, module, defined, names, aliases)
        for name, node in defined[module].items():
            edges[(module, name)] = _reads([node], module, defined, names, aliases)
    reached = set()
    while pending:
        key = pending.pop()
        if key not in reached:
            reached.add(key)
            pending |= edges.get(key, set())
    return sorted(f"{module}.{name}" for module, name in edges if (module, name) not in reached)


def test_every_package_definition_is_reached():
    left = unreached()
    assert not left, f"{len(left)} definitions no production route reaches: {', '.join(left)}"


def test_acceptance_names_are_package_definitions():
    # a root that names nothing would let the walk pass without reaching anything from it
    trees = {path.stem: _parse(path) for path in PACKAGE.glob("*.py")}
    for module, name in acceptance_roots():
        assert any(
            isinstance(node, DEFINITIONS) and node.name == name for node in trees[module].body
        ), f"{module}.{name}"
