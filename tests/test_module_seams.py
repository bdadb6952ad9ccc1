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


def _imports_scipy(node, submodule: str) -> bool:
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        return module.startswith(f"scipy.{submodule}") or (
            module == "scipy" and any(alias.name == submodule for alias in node.names)
        )
    if isinstance(node, ast.Import):
        return any(alias.name.startswith(f"scipy.{submodule}") for alias in node.names)
    return isinstance(node, ast.Attribute) and node.attr == submodule and getattr(node.value, "id", None) == "scipy"


def _modules_importing_scipy(submodule: str) -> list[str]:
    return [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if any(_imports_scipy(node, submodule) for node in ast.walk(ast.parse(path.read_text())))
    ]


def test_bessel_kernels_come_from_specialfun_only():
    # one definition of H0/H1: every other module goes through specialfun
    offenders = [name for name in _modules_importing_scipy("special") if name != "specialfun.py"]
    assert not offenders, f"scipy.special used outside specialfun.py: {offenders}"


def test_no_module_imports_scipy_optimize():
    # the batched solve in lsq.py is the package's one least-squares solver
    offenders = _modules_importing_scipy("optimize")
    assert not offenders, f"scipy.optimize imported by: {offenders}"


def test_inversion_does_not_import_the_solver():
    # the inversion reads the trace, the probe and the hull geometry only:
    # no forward solve, no far-field operator, no scene or true support
    tree = ast.parse((PACKAGE / "indicator.py").read_text())
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            names = [alias.name for alias in node.names]
            if module in ("forward", "farfield"):
                offenders += names
            offenders += [n for n in names if n in ("support_function", "Scene", "Polygon")]
    assert not offenders, f"indicator.py imports ground-truth or solver names: {sorted(offenders)}"
