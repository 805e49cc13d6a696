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


def traced_bindings() -> list[tuple[str, str, str]]:
    """(module, attribute, span name) for every function the benchmark's
    tracer wraps, from `perfbench/tracing.py`."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.BINDINGS


def test_traced_bindings_resolve():
    """Every (module, attribute) the benchmark's tracer wraps exists, so a
    refactor that drops a traced name fails here rather than in a traced run."""
    bindings = traced_bindings()
    assert bindings
    for module, attribute, _ in bindings:
        # `momdp_pareto.search` names the function once the package is
        # imported, so each module is fetched by its import path.
        found = importlib.import_module(f"momdp_pareto.{module}")
        assert callable(getattr(found, attribute, None)), (module, attribute)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    """Every name a module imports is used in it, except `__future__`
    features, the names it lists in `__all__`, and the names the benchmark's
    tracer wraps on it, which stay importable there for the tracer."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    traced = {attribute for module, attribute, _ in traced_bindings() if module == path.stem}
    unused = imported - used - exported - traced
    assert not unused, (path.name, sorted(unused))


def test_traced_names_kept_only_for_the_tracer():
    """The traced names that a module imports but never calls by name are
    exactly the five kept there only for the benchmark's tracer. A refactor
    that stops calling another traced function leaves its layer reading 0
    in a traced run; it fails here instead."""
    uncalled = set()
    for module, attribute, _ in traced_bindings():
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        called = {
            node.func.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        if attribute in imported - called:
            uncalled.add(f"{module}.{attribute}")
    assert uncalled == {
        "oracle.long_term_return",
        "oracle.affine_dimension",
        "oracle.consolidate_faces",
        "search.dominance",
        "search.affine_dimension",
    }


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_sweeps_run_on_the_calling_thread(path):
    """No module imports `concurrent.futures` or reads a `MOPF_`
    environment variable."""
    assert not [m for m, _ in imports(path) if m.split(".")[0] == "concurrent"], path.name
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            assert not node.value.startswith("MOPF_"), (path.name, node.value)


def test_thread_count_kept_only_for_callers_passing_one():
    """`thread_count` is a parameter only of the three public names that
    keep it for callers passing 1: `SearchConfig` (a field),
    `brute_force_front` and `verify_front`."""
    takers = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                if "thread_count" in [a.arg for a in args]:
                    takers.add(getattr(node, "name", "lambda"))
            elif isinstance(node, ast.ClassDef):
                fields = [
                    item.target.id
                    for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
                if "thread_count" in fields:
                    takers.add(node.name)
    assert takers == {"SearchConfig", "brute_force_front", "verify_front"}


def test_traced_eps_pos_is_a_float():
    """Besides the functions it wraps, the tracer reads one value from the
    program: `SearchConfig().eps_pos`, the threshold a positivity LP must
    pass. It is a class attribute, so it resolves without arguments."""
    config = importlib.import_module("momdp_pareto.search").SearchConfig()
    assert type(config.eps_pos) is float


def is_tolerance(name: str) -> bool:
    return name == "eps" or name.startswith("eps_")


def nonzero_number(node: ast.expr) -> bool:
    """Whether node is a numeric literal other than 0, signed or not. Zero
    is an exact comparison (`dominance`'s default), not a tolerance."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value != 0


def tolerance_params(functions) -> dict[str, dict[str, int]]:
    """For each function or method name, its `eps`/`eps_*` parameters and
    their positions in a call (a method's `self` is not passed)."""
    params: dict[str, dict[str, int]] = {}
    for node in functions:
        args = node.args.posonlyargs + node.args.args
        if args and args[0].arg == "self":
            args = args[1:]
        named = {a.arg: i for i, a in enumerate(args) if is_tolerance(a.arg)}
        named |= {a.arg: -1 for a in node.args.kwonlyargs if is_tolerance(a.arg)}
        if named:
            params.setdefault(node.name, {}).update(named)
    return params


def test_each_tolerance_defined_once():
    """`geometry.py` sets EPS_EQUAL, EPS_GEOM and EPS_POS to a number once
    each, and nothing else in the package gives a tolerance a number of its
    own: no other assignment to such a name, no `eps`/`eps_*` parameter
    defaulting to one, positional or keyword-only, and no call passing one
    in a tolerance's place, by position or by keyword."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    nodes = {name: list(ast.walk(tree)) for name, tree in trees.items()}
    functions = [
        node
        for walked in nodes.values()
        for node in walked
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    params = tolerance_params(functions)
    assert {"convex_hull", "group_coincident", "sign_masks", "support_faces"} <= set(params)
    assigned, literal = [], []
    for module, walked in nodes.items():
        for node in walked:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [getattr(t, "id", getattr(t, "attr", "")) for t in targets]
                if nonzero_number(node.value):
                    assigned += [(module, n) for n in names if is_tolerance(n.lower())]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args.posonlyargs + node.args.args
                defaults = zip(args[len(args) - len(node.args.defaults) :], node.args.defaults)
                defaults = [*defaults, *zip(node.args.kwonlyargs, node.args.kw_defaults)]
                literal += [
                    (module, getattr(node, "name", "lambda"), a.arg)
                    for a, d in defaults
                    if d is not None and is_tolerance(a.arg) and nonzero_number(d)
                ]
            elif isinstance(node, ast.Call):
                called = getattr(node.func, "id", getattr(node.func, "attr", ""))
                taken = params.get(called, {})
                literal += [
                    (module, called, k.arg)
                    for k in node.keywords
                    if k.arg and is_tolerance(k.arg) and nonzero_number(k.value)
                ]
                literal += [
                    (module, called, name)
                    for name, i in taken.items()
                    if 0 <= i < len(node.args) and nonzero_number(node.args[i])
                ]
    assert not literal
    assert sorted(assigned) == [
        ("geometry.py", "EPS_EQUAL"),
        ("geometry.py", "EPS_GEOM"),
        ("geometry.py", "EPS_POS"),
    ]


def test_only_the_mdp_raises_invalid_mdp_error():
    """An Mdp checks its values once, when it is built, so no other module
    raises or builds InvalidMdpError; other modules only catch it."""
    raising = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            # `InvalidMdpError(...)` anywhere, and a bare `raise InvalidMdpError`.
            if isinstance(node, ast.Call):
                target = node.func
            elif isinstance(node, ast.Raise) and node.exc is not None:
                target = node.exc
            else:
                continue
            if getattr(target, "id", getattr(target, "attr", "")) == "InvalidMdpError":
                raising.add(path.name)
    assert raising == {"mdp.py"}
