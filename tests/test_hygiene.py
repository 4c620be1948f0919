"""Source hygiene: every name a module imports is used in that module,
every module-level private function or class is referenced by some
code in the package, every error class is named outside ``errors``,
every exported function is called outside its own module, no module
but ``variety`` re-decides a quadric or product fact from a literal
dimension or factor shape, or writes out the Ulrich twists -1..-dim,
no float appears outside the one display phase, and every kit name the
benchmark's tracer looks up still exists.

The package re-exports its public names from ``__init__.py``, so that
file is the one exception to the import rule.  Elsewhere a name kept for
other modules to read is imported as ``name as name``, the usual
explicit re-export, and is not counted.  Only the standard library is
needed here.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import ulrich_kit

PACKAGE = Path(ulrich_kit.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE.glob("*.py")}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the module, with its line."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname == alias.name:
                    continue  # explicit re-export
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)  # forward references in annotations
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {
        name: line for name, line in imported_names(tree).items() if name not in used
    }
    assert not unused, f"{path.name}: unused imports {unused}"


def referenced_names(node: ast.AST) -> set[str]:
    """Names read anywhere under the node: plain names, attributes and
    names imported from another module."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_private_definition_is_referenced():
    """A private function or class no code refers to is a leftover.  A
    definition's references to itself (recursion) do not count."""
    refs = [(stmt, referenced_names(stmt)) for tree in TREES.values() for stmt in tree.body]
    unreferenced = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and not any(node.name in names for stmt, names in refs if stmt is not node)
    ]
    assert not unreferenced, f"unreferenced private definitions: {unreferenced}"


def test_every_error_class_is_named_outside_errors():
    """An error class that no other module names can never be raised: it
    is a leftover, like an exception of a deleted solver."""
    from ulrich_kit import errors

    classes = [
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type)
        and issubclass(obj, Exception)
        and obj is not errors.UlrichKitError
    ]
    named = set().union(
        *(referenced_names(tree) for name, tree in TREES.items() if name != "errors.py")
    )
    unnamed = sorted(name for name in classes if name not in named)
    assert classes and not unnamed, f"error classes nothing raises or catches: {unnamed}"


def called_names(tree: ast.Module) -> set[str]:
    """Names of everything called in the module, as f(...) or m.f(...)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node.func, ast.Attribute):
                names.add(node.func.attr)
    return names


def test_every_exported_function_is_called_elsewhere():
    """An exported function that no other package module and no test
    calls is dead API: nothing checks it and nothing needs it.  Exported
    classes are exempt, since the functions return them."""
    calls = {module: called_names(tree) for module, tree in TREES.items()}
    tests = Path(__file__).parent.glob("*.py")
    test_calls = set().union(*(called_names(ast.parse(p.read_text())) for p in tests))
    uncalled = []
    for name in ulrich_kit.__all__:
        obj = getattr(ulrich_kit, name)
        if not inspect.isfunction(obj):
            continue
        home = obj.__module__.rsplit(".", 1)[-1] + ".py"
        callers = [m for m in calls if m not in (home, "__init__.py")]
        if name not in test_calls and not any(name in calls[m] for m in callers):
            uncalled.append(f"{home} {name}")
    assert not uncalled, f"exported functions nothing else calls: {uncalled}"


# The only literal quadric-dimension and product-shape tests allowed
# outside ``variety.py``: oracle limits, each to be dropped with the rule
# that lifts it.  Every other module reads the family facts written once
# on ``VarietyModel`` (``spinor_signs``, ``spinor_rank``,
# ``product_form_model``).
ORACLE_LIMITS = {
    ("sheaves.py", "validate_descriptor"): (
        1, "the spinor tables exist on Q^2 and Q^3 only"
    ),
    ("generators.py", "kapranov_collection"): (
        1, "collections with spinors need the Q^2/Q^3 spinor tables"
    ),
    ("ulrich.py", "quadric_decompose"): (
        2, "odd decomposition needs the Q^3 spinor table; even decomposition"
        " reads the two rulings of P^1 x P^1"
    ),
}


def _literal_shape_test(left: ast.expr, op: ast.cmpop, right: ast.expr) -> bool:
    """Whether left op right compares ``.dim`` with 2 or 3, or ``.factors``
    with (1, 1), by equality or membership (either way round)."""
    if not isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)):
        return False
    for attr, other in ((left, right), (right, left)):
        if not isinstance(attr, ast.Attribute):
            continue
        try:
            value = ast.literal_eval(other)
        except ValueError:
            continue
        if attr.attr == "dim":
            values = value if isinstance(value, (tuple, list, set)) else (value,)
            if {2, 3} & set(values):
                return True
        if attr.attr == "factors" and value == (1, 1):
            return True
    return False


def module_functions(tree: ast.Module):
    """Module-level functions and class methods; nested ones count as
    part of the function they sit in."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt
        elif isinstance(stmt, ast.ClassDef):
            yield from (s for s in stmt.body if isinstance(s, ast.FunctionDef))


def test_quadric_and_product_facts_are_read_from_the_model():
    found: dict[tuple[str, str], int] = {}
    for name, tree in TREES.items():
        if name == "variety.py":
            continue
        for func in module_functions(tree):
            for node in ast.walk(func):
                if not isinstance(node, ast.Compare):
                    continue
                operands = [node.left, *node.comparators]
                hits = sum(
                    _literal_shape_test(a, op, b)
                    for a, op, b in zip(operands, node.ops, operands[1:])
                )
                if hits:
                    key = (name, func.name)
                    found[key] = found.get(key, 0) + hits
    allowed = {site: count for site, (count, _reason) in ORACLE_LIMITS.items()}
    assert found == allowed, (
        "literal .dim in (2, 3) or .factors == (1, 1) tests outside variety.py:"
        f" found {found}, allowed {allowed}; read a VarietyModel property"
        " instead, or drop a lifted limit from ORACLE_LIMITS"
    )


def _reads_dimension(node: ast.expr) -> bool:
    """Whether the expression reads a ``.dim`` attribute or a name ``n``."""
    return any(
        (isinstance(sub, ast.Attribute) and sub.attr == "dim")
        or (isinstance(sub, ast.Name) and sub.id == "n")
        for sub in ast.walk(node)
    )


def _is_minus_one(node: ast.expr) -> bool:
    try:
        return ast.literal_eval(node) == -1
    except ValueError:
        return False


def test_ulrich_twists_are_read_from_the_model():
    """``range(-1, -n - 1, -1)`` over a dimension is written once, as
    ``VarietyModel.ulrich_twists``; a probe range down to a depth is not
    this range and stays legal."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        if name != "variety.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
        and len(node.args) == 3
        and _is_minus_one(node.args[0])
        and _is_minus_one(node.args[2])
        and _reads_dimension(node.args[1])
    ]
    assert not found, f"hand-built Ulrich-twist ranges, read model.ulrich_twists: {found}"


# The one place a float may appear: the phase of a charge, for display.
FLOAT_HOME = ("bridgeland.py", "ChargeValue", "phase_display")


def _float_sites(tree: ast.Module):
    """Line of every float literal and every ``float(...)`` call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            yield node.lineno
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            yield node.lineno


def test_no_float_outside_the_phase_display():
    """Every number the kit computes is a Fraction or an int."""
    name, cls, method = FLOAT_HOME
    (home,) = [
        func
        for stmt in TREES[name].body
        if isinstance(stmt, ast.ClassDef) and stmt.name == cls
        for func in stmt.body
        if isinstance(func, ast.FunctionDef) and func.name == method
    ]
    allowed = set(_float_sites(home))
    assert allowed, f"{name} {cls}.{method} no longer needs a float; drop FLOAT_HOME"
    found = [
        f"{module}:{line}"
        for module, tree in TREES.items()
        for line in _float_sites(tree)
        if not (module == name and line in allowed)
    ]
    assert not found, f"floats outside {cls}.{method}: {found}"


TRACER = Path(__file__).parent.parent / "perfbench" / "tracer.py"
# Looked up by ``Tracer.install`` outside its TRACED table: the column
# oracle it wraps with a counter and the default window it reads.
TRACER_EXTRAS = (
    ("ulrich_kit.cohomology", "_sheaf_column"),
    ("ulrich_kit.variety", "default_window"),
)


def test_the_names_the_benchmark_tracer_wraps_resolve():
    """The tracer finds what it wraps by module and attribute name at run
    time, so a renamed function would break the benchmark, not a test.
    The tracer is read with ``ast``, not imported."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
    ]
    missing = []
    for module_name, attr in [(m, a) for _, m, a in traced] + list(TRACER_EXTRAS):
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module_name}.{attr}")
    assert traced and not missing, f"names the tracer wraps are gone: {missing}"
