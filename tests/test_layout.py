"""Module boundaries of the package, checked on its source."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "momdp_pareto"
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
