"""Per-layer tracing from outside the program.

The tracer replaces public ulrich_kit functions with timing wrappers in
every module namespace that holds them (and methods on their class), so
nested calls such as is_ulrich_object -> hyper_table -> sheaf_table ->
CohomologyTable.column become child spans.  A layer's self time is its
span's duration minus the time covered by its child spans.  Work counts
are taken at the same call boundaries, except columns_computed: it
counts the outermost calls of the private column oracle
``cohomology._sheaf_column`` that return, so it counts columns the kit
really computes, whichever public function asked for them.  Nothing
under src/ is touched; ``uninstall`` puts the original objects back.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (metric prefix, module, attribute); "Class.method" wraps a method.
TRACED = (
    ("tables.column", "ulrich_kit.tables", "CohomologyTable.column"),
    ("tables.first_nonzero", "ulrich_kit.tables", "CohomologyTable.first_nonzero"),
    ("tables.same_entries", "ulrich_kit.tables", "CohomologyTable.same_entries"),
    ("complexes.hyper_table", "ulrich_kit.complexes", "hyper_table"),
    ("cohomology.sheaf_table", "ulrich_kit.cohomology", "sheaf_table"),
    ("cohomology.sheaf_column", "ulrich_kit.cohomology", "sheaf_column"),
    ("sheaves.parse_sheaf", "ulrich_kit.sheaves", "parse_sheaf"),
    ("variety.parse_variety", "ulrich_kit.variety", "parse_variety"),
    ("ulrich.is_ulrich_object", "ulrich_kit.ulrich", "is_ulrich_object"),
    ("ulrich.is_ulrich_sheaf", "ulrich_kit.ulrich", "is_ulrich_sheaf"),
    ("ulrich.is_initialized", "ulrich_kit.ulrich", "is_initialized"),
    ("ulrich.ext_dimension", "ulrich_kit.ulrich", "ext_dimension"),
    ("ulrich.decompose", "ulrich_kit.ulrich", "pn_decompose"),
    ("ulrich.decompose", "ulrich_kit.ulrich", "quadric_decompose"),
    ("chern.class_of", "ulrich_kit.chern", "class_of"),
    ("chern.ulrich_chern_solve", "ulrich_kit.chern", "ulrich_chern_solve"),
    ("generators.generator_gate", "ulrich_kit.generators", "generator_gate"),
    ("generators.lattice_rank", "ulrich_kit.generators", "lattice_rank"),
    ("generators.register_collection", "ulrich_kit.generators", "register_collection"),
    ("bridgeland.question_scan", "ulrich_kit.bridgeland", "question_scan"),
    ("bridgeland.heart_gate", "ulrich_kit.bridgeland", "heart_gate"),
    ("bridgeland.central_charge", "ulrich_kit.bridgeland", "central_charge"),
    ("cli.main", "ulrich_kit.cli", "main"),
    ("cli.to_jsonable", "ulrich_kit.cli", "to_jsonable"),
)
LAYERS = tuple(dict.fromkeys(name for name, _, _ in TRACED))
COUNTERS = (
    "tables.column.entries_scanned",
    "cohomology.columns_computed",
    "cohomology.sheaf_table.distinct_keys",
)
SPAN_CAP = 200_000


class Tracer:
    """Span stack, per-layer totals and call-boundary counters."""

    def __init__(self):
        self._installed: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [span index, child seconds]
        self.record_spans = False
        self.reset()

    def reset(self) -> None:
        self.calls = dict.fromkeys(LAYERS, 0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.table_keys: set = set()
        self.spans: list[tuple] = []  # at most SPAN_CAP, in call order

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn, on_call):
        stack = self._stack

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            parent = stack[-1][0] if stack else -1
            index = -1
            if self.record_spans and len(self.spans) < SPAN_CAP:
                index = len(self.spans)
                self.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if index >= 0:
                    self.spans[index] = (name, parent, start, duration)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever ulrich_kit modules hold it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "ulrich_kit" or key.startswith("ulrich_kit."))]
        for name, module_name, attr in TRACED:
            module = sys.modules.get(module_name)
            if module is None:  # ulrich_kit.cli is only imported by CLI runs
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._replace(owner, meth, self._wrap(name, original, _HOOKS.get(name)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, _HOOKS.get(name))
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._replace(holder, key, wrapper)
        cohomology = sys.modules["ulrich_kit.cohomology"]
        self._default_window = sys.modules["ulrich_kit.variety"].default_window
        self._replace(cohomology, "_sheaf_column", self._count_outermost(cohomology._sheaf_column))

    def _count_outermost(self, fn):
        """Count the outermost calls of the recursive column oracle that
        return; a column it recurses into for a summand is not counted."""
        depth = [0]

        def counted(*args, **kwargs):
            depth[0] += 1
            try:
                out = fn(*args, **kwargs)
            finally:
                depth[0] -= 1
            if not depth[0]:
                self.counters["cohomology.columns_computed"] += 1
            return out

        counted.__wrapped__ = fn
        return counted

    def _replace(self, owner, key, wrapper) -> None:
        self._installed.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed.clear()

    # ------------------------------------------------------------- results

    def snapshot(self) -> dict:
        """Per-layer totals since the last reset, as plain data."""
        return {
            "calls": dict(self.calls),
            "errors": dict(self.errors),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters, **{
                "cohomology.sheaf_table.distinct_keys": len(self.table_keys)}),
        }


# Counts recorded at the call boundary, before the call runs.


def _count_column(tracer, args, kwargs):
    tracer.counters["tables.column.entries_scanned"] += len(args[0].entries)


def _count_sheaf_table(tracer, args, kwargs):
    desc, model = args[0], args[1]
    window = args[2] if len(args) > 2 else kwargs.get("window")
    if window is None:
        window = tracer._default_window(model)
    try:
        tracer.table_keys.add((desc, model, tuple(window)))
    except TypeError:  # unhashable input: the call itself will reject it
        pass


_HOOKS = {
    "tables.column": _count_column,
    "cohomology.sheaf_table": _count_sheaf_table,
}


def merge(total: dict, part: dict) -> dict:
    """Add one snapshot into another (used for CLI children)."""
    for section in ("calls", "errors", "self_s", "counters"):
        bucket = total.setdefault(section, {})
        for key, value in part[section].items():
            bucket[key] = bucket.get(key, 0) + value
    return total
