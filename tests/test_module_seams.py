"""Package modules use each other through public names only."""

import ast
import json
import os
import subprocess
import sys
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
    # one definition of H0/H1, specialfun's own expansions: no module reads scipy.special
    offenders = _modules_importing_scipy("special")
    assert not offenders, f"scipy.special imported by: {offenders}"


SCIPY_FREE_RUN = """
import sys
from pathlib import Path

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import enclosure2d.cli
after_import = scipy_modules()
scene, out = Path(sys.argv[1]), Path(sys.argv[2])
scene.write_text('{"obstacles": [[[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]], '
                 '"R": 2.0, "R1": 6.0, "source": [6.0, 0.0], "k": 2.0}')
code = enclosure2d.cli.main(["hull", "--scene", str(scene), "--out", str(out)])
print(repr((code, after_import, scipy_modules())))
"""


def test_commands_load_no_scipy(tmp_path):
    # scipy's LU serves systems above INVERSE_MAX_NODES only; importing the CLI and a
    # default hull (the square's 256 nodes) start on numpy alone, in a fresh interpreter
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUN, str(tmp_path / "square.json"), str(tmp_path / "hull")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    code, after_import, after_hull = ast.literal_eval(done.stdout.strip().splitlines()[-1])
    assert code == 0
    assert after_import == [], f"import enclosure2d.cli loaded {after_import}"
    assert after_hull == [], f"a default hull loaded {after_hull}"
    assert json.loads((tmp_path / "hull" / "diagnostics.json").read_text())["usable"] > 0


def test_no_module_imports_scipy_optimize():
    # the refine's batched Levenberg-Marquardt loop in indicator.py is the
    # package's one iterative least-squares solver
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


def test_inversion_does_not_read_the_neumann_trace():
    # the paper's data is u on the circle and the known source: the
    # indicator reads the trace's modes, never its du/dn
    tree = ast.parse((PACKAGE / "indicator.py").read_text())
    reads = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "dudn"]
    assert not reads, f"indicator.py reads dudn at lines {reads}"


ROOT = PACKAGE.parents[1]
# public names kept as library API although no command, bench workload or
# demo calls them yet, each with its reason
UNCALLED_API = {
    # the paper's decay/blow-up dichotomy; ROADMAP item 4 makes it check each support interval
    "classify_threshold",
    # reads the trace file that `enclosure2d solve` writes; ROADMAP item 3 gives `hull --trace`
    "trace_from_csv",
}


def _caller_names() -> set[str]:
    """Every name and attribute that src/, bench/ and demos/ read, outside tests and re-exports."""
    names = set()
    for top in ("src", "bench", "demos"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts or path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and path.parent != PACKAGE:
                    names.update(alias.name for alias in node.names)
    return names


def _public_api() -> dict[str, str]:
    """Each module's __all__ names, public functions and classes, and their public methods, by qualified name."""
    api = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # re-exports only
            continue
        tree = ast.parse(path.read_text())
        api.update({f"{path.stem}.{name}": name for name in _exported_names(tree)})
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                api[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                api.update({f"{path.stem}.{node.name}.{fn.name}": fn.name for fn in node.body
                            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")})
    return api


def test_public_api_has_callers_outside_tests():
    # a public name that only tests call is a test helper: it belongs in tests/
    callers = _caller_names()
    api = _public_api()
    offenders = [qual for qual, name in api.items() if name not in callers and name not in UNCALLED_API]
    assert not offenders, f"public names with no caller in src/, bench/ or demos/: {offenders}"
    stale = UNCALLED_API - set(api.values())
    assert not stale, f"allow-listed names that are no longer public: {sorted(stale)}"
