"""Source hygiene: every name a module imports is used in that module,
every module-level private function or class is referenced by some
code in the package, every error class is named outside ``errors``,
every exported function is called outside its own module, no module
but ``variety`` re-decides a quadric or product fact from a literal
dimension or factor shape, or writes out the Ulrich twists -1..-dim,
no float appears outside the one display phase, each phase sector is
named once, no module but ``sheaves`` looks inside a direct sum, no
module but ``complexes`` decides "sheaf or complex" or shifts a sum by
a complex degree, ``cohomology`` decides an atom's family only in
``_rule`` and writes a binomial only in the Bott rows and the Q^3
spinor recursion, outside ``sheaves`` a descriptor family is decided
only in the oracle, the class and the dual rule, no module but
``tables`` and ``cohomology`` reads a table's rows, no public table
holds fewer twists than its window, no cache outlives a call but the
Q^3 spinor recursion's, no ``Fraction`` wraps an integer table read, no
``ext_dimension`` is read in a loop, every kit name the benchmark's
tracer looks up still exists, and no code is generated at import: no
``dataclasses``, ``typing`` or ``traceback`` import, no ``exec``,
``eval`` or ``compile``, and a fresh interpreter that imports the CLI
loads none of the modules only those pull in.

The package re-exports its public names from ``__init__.py``, so that
file is the one exception to the import rule.  Elsewhere a name kept for
other modules to read is imported as ``name as name``, the usual
explicit re-export, and is not counted.  Only the standard library is
needed here.
"""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path
from typing import get_args

import pytest

import ulrich_kit
from ulrich_kit.sheaves import SheafDescriptor

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
    ("ulrich.py", "quadric_decompose"): (
        1, "even decomposition reads the two rulings of P^1 x P^1"
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


# The only functions in ``cohomology.py`` that call ``comb``: every closed
# form is read through Bott rows on P^n, and the Q^3 spinor recursion
# keeps its own ambient counts until it too is read through its
# projection (ROADMAP item 2), which drops the ``_proj_*`` entries.
BINOMIAL_HOMES = {
    "_add_bott": "the Bott rows of O(a) on P^n",
    "_add_bott_product": "two Bott rows multiplied at equal twists",
    "_proj_h0": "ambient sections for the Q^3 spinor recursion, until item 2",
    "_proj_hn": "ambient top cohomology for the Q^3 spinor recursion, until item 2",
}


def _comb_calls(node: ast.AST) -> set[int]:
    """Line of every ``comb`` call under the node."""
    return {
        sub.lineno
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id == "comb"
    }


def test_binomials_are_written_only_in_the_bott_rows():
    """A quadric atom reads the Bott rows of its push-forward to P^n, so
    no second binomial formula can drift from Bott's."""
    tree = TREES["cohomology.py"]
    calls = _comb_calls(tree)
    inside, homes = set(), set()
    for func in module_functions(tree):
        lines = _comb_calls(func)
        if lines and func.name in BINOMIAL_HOMES:
            inside |= lines
            homes.add(func.name)
    outside = sorted(calls - inside)
    assert calls and not outside, f"comb outside {sorted(BINOMIAL_HOMES)}: lines {outside}"
    assert homes == set(BINOMIAL_HOMES), f"homes calling no comb: {set(BINOMIAL_HOMES) - homes}"


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
FLOAT_HOME = ("bridgeland.py", "ChargeValue", "_phase")


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


PHASE_SECTORS = ("upper-half", "lower-half", "negative-real", "positive-real")


def test_each_phase_sector_is_named_once():
    """One sector rule, ``ChargeValue.phase_sector``, serves the charge
    and every scan row; a second copy of it would name the sectors again."""
    counts = dict.fromkeys(PHASE_SECTORS, 0)
    for tree in TREES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value in counts:
                counts[node.value] += 1
    assert counts == dict.fromkeys(PHASE_SECTORS, 1)


def _sum_walks(tree: ast.Module):
    """Line of every ``isinstance(..., DirectSum)`` test and every
    ``.parts`` read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "parts":
            yield node.lineno
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and any(
                (isinstance(sub, ast.Name) and sub.id == "DirectSum")
                or (isinstance(sub, ast.Attribute) and sub.attr == "DirectSum")
                for sub in ast.walk(node.args[1])
            )
        ):
            yield node.lineno


def test_sums_are_walked_only_in_sheaves():
    """Every oracle is additive over direct summands, so a sum is read in
    one place: ``sheaves.flatten_atoms`` gives its atoms, and every rule
    elsewhere takes one atom."""
    found = [
        f"{name}:{line}"
        for name, tree in TREES.items()
        if name != "sheaves.py"
        for line in _sum_walks(tree)
    ]
    assert not found, f"sums walked outside sheaves.py, read flatten_atoms: {found}"


def _object_readings(tree: ast.Module):
    """Line of every ``isinstance(..., FormalComplex)`` test and every
    sum shifted by a complex degree (``i + degree``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            if any(isinstance(side, ast.Name) and side.id == "degree"
                   for side in (node.left, node.right)):
                yield node.lineno
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
            and any(
                isinstance(sub, ast.Name) and sub.id == "FormalComplex"
                for sub in ast.walk(node.args[1])
            )
        ):
            yield node.lineno


def test_objects_are_read_only_in_complexes():
    """A descriptor or a complex is read in one place: ``complexes.sheaves_of``
    gives its (degree, sheaf) pairs and ``complexes.hyper_column`` shifts
    their columns by degree, so no other module decides "sheaf or complex"."""
    found = [
        f"{name}:{line}"
        for name, tree in TREES.items()
        if name != "complexes.py"
        for line in _object_readings(tree)
    ]
    assert not found, f"objects read outside complexes.py, use sheaves_of/hyper_column: {found}"


DESCRIPTOR_CLASSES = {cls.__name__ for cls in get_args(SheafDescriptor)}


def _is_descriptor_test(node: ast.AST) -> bool:
    """Whether the node is an ``isinstance(..., <descriptor class>)`` call."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and any(
            isinstance(sub, ast.Name) and sub.id in DESCRIPTOR_CLASSES
            for sub in ast.walk(node.args[1])
        )
    )


def _family_decisions(tree: ast.AST):
    """Line of every ``isinstance(..., <descriptor class>)`` test and
    every comparison that reads a ``.kind``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(
            isinstance(sub, ast.Attribute) and sub.attr == "kind" for sub in ast.walk(node)
        ):
            yield node.lineno
        elif _is_descriptor_test(node):
            yield node.lineno


def test_cohomology_decides_an_atom_family_only_in_its_rule():
    """``cohomology._rule`` decides the family of an atom once and gives
    both its fill and its break twists, so no second ladder of the same
    tests can drift from it."""
    tree = TREES["cohomology.py"]
    (rule,) = [
        stmt for stmt in tree.body if isinstance(stmt, ast.FunctionDef) and stmt.name == "_rule"
    ]
    inside = set(_family_decisions(rule))
    found = [line for line in _family_decisions(tree) if line not in inside]
    assert inside and not found, f"cohomology.py decides a family outside _rule: {found}"


# The functions outside ``sheaves.py`` that may test a descriptor's class:
# each needs machinery of its own module, which ``sheaves`` cannot import
# without a cycle.
FAMILY_HOMES = {
    ("cohomology.py", "_rule"): "the oracle: one fill and its breaks per (family, model)",
    ("chern.py", "_class_of_atom"): "the class, built from chern's NumClass",
    ("ulrich.py", "_ext_primary"): "the dual rule, read through cohomology's columns",
    ("ulrich.py", "_ext_elliptic"): "the dual rule on a genus-one curve",
}


def test_descriptor_families_are_decided_only_in_their_homes():
    """Every structural fact of a family (text, validation, rank, line
    twist, product form, restriction, tensor parts, line twists, held
    abstract data) is written once in ``sheaves``, so widening a family
    edits ``sheaves`` and at most the four homes.  ``.kind`` comparisons
    are left to the quadric and product test."""
    found, homes = [], set()
    for name, tree in TREES.items():
        if name == "sheaves.py":
            continue
        inside = set()
        for func in module_functions(tree):
            lines = {node.lineno for node in ast.walk(func) if _is_descriptor_test(node)}
            if lines and (name, func.name) in FAMILY_HOMES:
                inside |= lines
                homes.add((name, func.name))
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if _is_descriptor_test(node) and node.lineno not in inside
        ]
    assert not found, f"descriptor families decided outside sheaves.py and the homes: {found}"
    assert homes == set(FAMILY_HOMES), f"homes testing no family: {set(FAMILY_HOMES) - homes}"


ROW_STORAGE = ("_rows", "_at", "_entries")


def _row_readings(tree: ast.Module):
    """Line of every read of a table's row storage."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ROW_STORAGE:
            yield node.lineno


def test_table_rows_are_read_only_in_tables_and_cohomology():
    """A table's rows are laid out by ``tables`` and filled by the rules
    of ``cohomology``; everything else reads columns, entries and whole
    tables.  Both hyper sums, ``complexes.hyper_table`` and
    ``ulrich._ulrich_hyper_table``, go through ``tables.shifted_sum``, and
    the Eisenbud-Schreyer rebuild compares tables with ``==``: whole
    tables, or a decomposition's piece tables on its one span layout."""
    found = [
        f"{name}:{line}"
        for name, tree in TREES.items()
        if name not in ("tables.py", "cohomology.py")
        for line in _row_readings(tree)
    ]
    assert not found, f"table rows read outside tables.py and cohomology.py: {found}"
    functions = {
        (name, node.name): node
        for name in ("complexes.py", "ulrich.py")
        for node in ast.walk(TREES[name])
        if isinstance(node, ast.FunctionDef)
    }
    for site in (("complexes.py", "hyper_table"), ("ulrich.py", "_ulrich_hyper_table")):
        hyper_calls = {
            node.func.id
            for node in ast.walk(functions[site])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert "shifted_sum" in hyper_calls, site
    rebuild = functions[("complexes.py", "_rebuilds")]
    assert any(
        isinstance(node, ast.Compare) and any(isinstance(op, ast.Eq) for op in node.ops)
        for node in ast.walk(rebuild)
    )
    assert not any(
        isinstance(node, ast.Attribute) and node.attr == "entries" for node in ast.walk(rebuild)
    )


def test_public_tables_hold_their_whole_window(monkeypatch):
    """Verdicts read tables held at the ends of their pieces only; no
    table a public function returns may be one.  Every twist of the
    window of each must be readable, on windows wide enough that the
    verdicts would skip twists.  A decomposition reads piece tables too,
    all of one decomposition on one span layout, so that the hyper table
    and the Eisenbud-Schreyer rebuild line up position by position, and
    on a window of at most 2 (n + 1) twists for each of the four pieces
    the verdict's three cuts make, every one of them is whole."""
    uk = ulrich_kit
    built = []
    post_init = uk.CohomologyTable.__post_init__

    def recording(table):
        built.append(table)
        post_init(table)

    def holds_its_window(table) -> bool:
        lo, hi = table.window
        return all(table.covers(t) for t in range(lo, hi + 1))

    pn4, q2 = uk.parse_variety("pn:4"), uk.parse_variety("quadric:2")
    window = (-300, 300)
    E = uk.formal_complex(pn4, {0: uk.parse_sheaf("2*O(0)", pn4), -1: uk.parse_sheaf("O(0)", pn4)})
    F = uk.formal_complex(q2, {0: uk.parse_sheaf("S+ + S-", q2)})
    returned = [
        uk.sheaf_table(uk.parse_sheaf("O(1) + O(-7)", pn4), pn4, window),
        uk.hyper_table(E, window).table,
        uk.pushforward_finite(E).table,
    ]
    assert all(map(holds_its_window, returned))
    monkeypatch.setattr(uk.CohomologyTable, "__post_init__", recording)
    for decompose, obj, want in (
        (uk.pn_decompose, E, {-1: 1, 0: 2}),
        (uk.quadric_decompose, F, {0: {"+": 1, "-": 1}}),
    ):
        widest_whole = 2 * (obj.model.dim + 1) * 4
        narrow = (-(widest_whole // 2), widest_whole - widest_whole // 2 - 1)
        for w in (window, narrow):
            built.clear()
            assert decompose(obj, w) == want
            # the sheaf tables, the hyper table and the rebuild
            assert len(built) == len(obj.sheaves) + 2
            assert len({(table.window, table.spans) for table in built}) == 1, w
            assert all(map(holds_its_window, built)) == (w == narrow), w


# The only functions a cache may sit on: a memo that outlives a call
# costs memory on every workload that reads many distinct inputs.  The
# Q^3 spinor recursion needs one until it is read through its projection
# (ROADMAP item 2), which drops both entries.
CACHE_HOMES = {
    ("cohomology.py", "_spinor3_h0"): "the Q^3 spinor h^0 recursion, until item 2",
    ("cohomology.py", "_spinor3_h3"): "the Q^3 spinor h^3 recursion, until item 2",
}
CACHE_NAMES = ("lru_cache", "cache", "cached_property")


def _cache_uses(node: ast.AST) -> set[int]:
    """Line of every name or attribute under the node that is a cache."""
    return {
        sub.lineno
        for sub in ast.walk(node)
        if (isinstance(sub, ast.Name) and sub.id in CACHE_NAMES)
        or (isinstance(sub, ast.Attribute) and sub.attr in CACHE_NAMES)
    }


def test_caches_sit_only_on_the_spinor_recursion():
    found, homes = [], set()
    for name, tree in TREES.items():
        inside = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                lines = set().union(*map(_cache_uses, node.decorator_list))
                if lines and (name, node.name) in CACHE_HOMES:
                    inside |= lines
                    homes.add((name, node.name))
        found += [f"{name}:{line}" for line in sorted(_cache_uses(tree) - inside)]
    assert not found, f"caches outside {sorted(CACHE_HOMES)}: {found}"
    assert homes == set(CACHE_HOMES), f"homes with no cache: {set(CACHE_HOMES) - homes}"


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def _looped_ext_reads(tree: ast.AST) -> set[int]:
    """Line of every ``ext_dimension`` call inside a loop or comprehension."""
    found = set()
    for loop in ast.walk(tree):
        if isinstance(loop, LOOPS):
            found |= {
                call.lineno
                for call in ast.walk(loop)
                if isinstance(call, ast.Call)
                and getattr(call.func, "id", getattr(call.func, "attr", None)) == "ext_dimension"
            }
    return found


def test_no_ext_dimension_is_read_in_a_loop():
    """Ext^* is one graded statement: ``ulrich._ext_column`` builds the
    whole column and Serre-checks it in every degree, so a walk over k
    reads it once; ``ext_dimension`` rebuilds the column for one entry."""
    sample = ast.parse(
        "for k in ks:\n    total += uk.ext_dimension(F, G, k, X)\n"
        "[ext_dimension(F, G, k, X) for k in ks]\n"
        "ext_dimension(F, G, 0, X)\n"
    )
    assert _looped_ext_reads(sample) == {2, 3}
    found = [
        f"{name}:{line}" for name, tree in TREES.items() for line in sorted(_looped_ext_reads(tree))
    ]
    assert not found, f"ext_dimension read in a loop, read _ext_column once: {found}"


# Reads of a table or a column that return integer dimensions.
INTEGER_READS = ("euler", "alternating_sum", "column", "h")


def test_no_fraction_wraps_an_integer_table_read():
    """Sums of dimensions are ints and stay ints; a stored table that
    holds Fractions sums exactly without a conversion."""
    found = [
        f"{name}:{node.lineno}"
        for name, tree in TREES.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Fraction"
        and any(
            isinstance(sub, ast.Call)
            and (
                (isinstance(sub.func, ast.Name) and sub.func.id in INTEGER_READS)
                or (isinstance(sub.func, ast.Attribute) and sub.func.attr in INTEGER_READS)
            )
            for arg in (*node.args, *(kw.value for kw in node.keywords))
            for sub in ast.walk(arg)
        )
    ]
    assert not found, f"Fraction(...) around an integer table read: {found}"


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


WORKLOADS = Path(__file__).parent.parent / "perfbench" / "workloads.py"


def test_the_calls_the_benchmark_workloads_make_bind():
    """Every ``uk.<name>(...)`` call in the benchmark's workloads must bind
    to the kit's signature by its positional count and keyword names, so
    a dropped or renamed parameter fails here, not only in the benchmark.
    A call with ``*args`` or ``**kwargs`` is checked by what it spells out."""
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "uk"
    ]
    unbound = []
    for call in calls:
        name = call.func.attr
        args = [None for arg in call.args if not isinstance(arg, ast.Starred)]
        kwargs = {kw.arg: None for kw in call.keywords if kw.arg is not None}
        starred = len(args) < len(call.args) or len(kwargs) < len(call.keywords)
        try:
            signature = inspect.signature(getattr(ulrich_kit, name))
            (signature.bind_partial if starred else signature.bind)(*args, **kwargs)
        except (AttributeError, TypeError) as exc:
            unbound.append(f"workloads.py:{call.lineno} uk.{name}: {exc}")
    assert calls and not unbound, f"benchmark calls that no longer bind: {unbound}"


# Modules the kit does not import: ``dataclasses`` builds each generated
# method as source text and compiles it on every start, ``typing`` is
# not read at run time, and ``traceback`` reads source files to name a
# frame the CLI reads off ``__traceback__``.
UNIMPORTED = ("dataclasses", "typing", "traceback")
# What those pull in, and nothing else the CLI needs.
UNLOADED = UNIMPORTED + ("inspect", "ast", "dis", "copy", "linecache", "tokenize")


def test_no_module_generates_code():
    found = []
    for name, tree in TREES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in ("exec", "eval", "compile"):
                    found.append(f"{name}:{node.lineno} {node.func.id}(...)")
                continue
            else:
                continue
            found += [
                f"{name}:{node.lineno} import {module}"
                for module in modules
                if module.split(".")[0] in UNIMPORTED
            ]
    assert not found, f"code generation or its modules in the kit: {found}"


def test_a_cli_child_loads_no_code_generation_modules():
    """A fresh ``python -S`` child (no site hooks, which may load any of
    them) imports the CLI; none of the modules is then loaded."""
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import ulrich_kit.cli; "
        f"print(' '.join(name for name in {UNLOADED!r} if name in sys.modules))"
    )
    child = subprocess.run(
        [sys.executable, "-S", "-c", probe, str(PACKAGE.parent)],
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == [], f"loaded by import ulrich_kit.cli: {child.stdout}"
