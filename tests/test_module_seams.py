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
