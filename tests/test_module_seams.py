"""Package modules use each other through public names only."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "enclosure2d"


def _is_private(name: str) -> bool:
    # dunders such as __version__ are public by convention
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_private_imports_across_modules():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("enclosure2d")):
                offenders += [f"{path.name}: {alias.name}" for alias in node.names if _is_private(alias.name)]
    assert not offenders, f"private names imported across modules: {offenders}"


def _imported_names(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


def test_no_unused_imports():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exported_names(tree)
        offenders += [f"{path.name}: {name}" for name in _imported_names(tree) if name not in used]
    assert not offenders, f"imported but never used: {offenders}"
