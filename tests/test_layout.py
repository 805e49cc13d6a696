"""Module boundaries of the package, checked on its source."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "momdp_pareto"
MODULES = sorted(PACKAGE.glob("*.py"))


def imports(path: Path):
    """(imported module, imported names) for every import in a source file;
    relative imports keep their leading dots."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, []
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield module, [alias.name for alias in node.names]


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_modules_found():
    assert {p.name for p in MODULES} >= {"geometry.py", "mdp.py", "search.py", "oracle.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_from_sibling_modules(path):
    for module, names in imports(path):
        if module.startswith(".") or module.startswith("momdp_pareto"):
            assert not [n for n in names if is_private(n)], (path.name, module, names)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_geometry_imports_scipy(path):
    uses_scipy = any(m.split(".")[0] == "scipy" for m, _ in imports(path))
    assert uses_scipy == (path.name == "geometry.py")


def test_traced_bindings_resolve():
    """Every (module, attribute) the benchmark's tracer wraps exists, so a
    refactor that drops a traced name fails here rather than in a traced run."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.BINDINGS
    for module, attribute, _ in tracing.BINDINGS:
        # `momdp_pareto.search` names the function once the package is
        # imported, so each module is fetched by its import path.
        found = importlib.import_module(f"momdp_pareto.{module}")
        assert callable(getattr(found, attribute, None)), (module, attribute)
