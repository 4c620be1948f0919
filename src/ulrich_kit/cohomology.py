"""Exact twisted-cohomology oracles for the supported models.

A table is built one atom at a time: the family of each atom is decided
once, and one rule fills the whole twist window.  A direct sum adds the
entries of its parts times their multiplicities.  The rules:

* Projective space (Bott): only h^0 and h^n are ever nonzero, with
  binomial values on the two ranges t >= -a and t <= -n-1-a of O(a).
* Quadric line bundles: the long exact sequence of the ambient
  degree-two hypersurface collapses to two differences of those ranges.
* Products: the Kunneth rule with a uniform diagonal twist combines the
  two factor windows at equal twists.  The spinor lines on the quadric
  surface are read on its product form (``model.product_form_model``).
* Genus-one curves: the degree is linear in the twist; h^0 above the
  degree-zero twist, h^1 below it, and at it the dichotomy: one section
  exactly for the trivial-type member.
* Abstract sheaves: the columns of their stored table.
* The spinor bundle on the quadric threefold, from its defining sequence

    0 -> S(-1) -> O^4 -> S -> 0

  with the normalization that S is initialized of rank 2.  Exactness of
  the twisted strands, the vanishing of the middle cohomology of O(k) on
  the quadric, and nonnegativity force the whole table from that data:
  h^1 and h^2 vanish everywhere, h^0 obeys a two-term recursion upward
  and h^3 the mirror recursion downward.

Ulrich tables follow from the Eisenbud-Schreyer rule (2003, Prop. 2.1): a
finite linear projection to P^n pushes an Ulrich object to a sum of shifted
structure sheaves, so h^i(E(t)) = sum_q h^q(E) * h^(i-q)(O_{P^n}(t)).
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .errors import MalformedDescriptor, NoOracle, UnknownSlopeZero
from .sheaves import (
    AbstractSheaf,
    DirectSum,
    ExternalTensor,
    LineBundle,
    SemistableEC,
    SheafDescriptor,
    Spinor,
    format_sheaf,
    normalize_elliptic,
    product_form,
    tensor_line,
    validate_descriptor,
)
from .tables import CohomologyTable
from .variety import (
    KIND_ELLIPTIC,
    KIND_PRODUCT,
    KIND_PROJ,
    KIND_QUADRIC,
    KIND_SURFACE,
    MAX_TWISTS,
    VarietyModel,
    default_window,
    format_variety,
)

Entries = dict[tuple[int, int], int]


def _proj_h0(n: int, k: int) -> int:
    return comb(n + k, n) if k >= 0 else 0


def _proj_hn(n: int, k: int) -> int:
    return comb(-k - 1, n) if k <= -n - 1 else 0


def _add_bott(n: int, a: int, lo: int, hi: int, mult: int, out: Entries, shift: int = 0) -> None:
    """Add mult * h^i(O(a)(t)) on P^n at (i + shift, t) for lo <= t <= hi."""
    for t in range(max(lo, -a), hi + 1):
        key = (shift, t)
        out[key] = out.get(key, 0) + mult * comb(n + a + t, n)
    top = n + shift
    for t in range(lo, min(hi, -n - 1 - a) + 1):
        key = (top, t)
        out[key] = out.get(key, 0) + mult * comb(-a - t - 1, n)


def _add_quadric_line(n: int, a: int, lo: int, hi: int, mult: int, out: Entries) -> None:
    """O(a) on Q^n: the restriction sequence 0 -> O_P(k-2) -> O_P(k) ->
    O_Q(k) -> 0 on P^{n+1} has cohomology concentrated at the ends, so the
    long exact sequence collapses to two differences and kills everything
    between."""
    m = n + 1
    for t in range(max(lo, -a), hi + 1):
        k = a + t
        key = (0, t)
        out[key] = out.get(key, 0) + mult * (comb(m + k, m) - comb(m + k - 2, m))
    for t in range(lo, min(hi, -n - a) + 1):
        k = a + t
        key = (n, t)
        out[key] = out.get(key, 0) + mult * (comb(1 - k, m) - comb(-k - 1, m))


def _add_kuenneth(left: Entries, right: Entries, mult: int, out: Entries) -> None:
    """Add mult times the Kunneth product of two factor windows, taken at
    equal twists."""
    right_at: dict[int, list[tuple[int, int]]] = {}
    for (q, t), b in right.items():
        right_at.setdefault(t, []).append((q, b))
    for (p, t), a in left.items():
        for q, b in right_at.get(t, ()):
            key = (p + q, t)
            out[key] = out.get(key, 0) + mult * a * b


@lru_cache(maxsize=None)
def _spinor3_h0(k: int) -> int:
    if k < 0:
        return 0  # initialized: no sections in negative twists
    value = 4 * (_proj_h0(4, k) - _proj_h0(4, k - 2)) - _spinor3_h0(k - 1)
    if value < 0:
        raise NoOracle(f"spinor section recursion left the cone at twist {k}")
    return value


@lru_cache(maxsize=None)
def _spinor3_h3(k: int) -> int:
    if k >= -3:
        return 0  # forced by exactness and nonnegativity below twist 0
    ambient = _proj_hn(4, k + 1 - 2) - _proj_hn(4, k + 1)
    value = 4 * ambient - _spinor3_h3(k + 1)
    if value < 0:
        raise NoOracle(f"spinor top-cohomology recursion left the cone at twist {k}")
    return value


def _add_spinor3(lo: int, hi: int, mult: int, out: Entries) -> None:
    # ascending twists, so each recursion finds its predecessor cached
    for t in range(lo, hi + 1):
        for i, h in ((0, _spinor3_h0(t)), (3, _spinor3_h3(t))):
            if h:
                out[(i, t)] = out.get((i, t), 0) + mult * h


def _elliptic_pair(delta: int, trivial: bool | None, label: str) -> dict[int, int]:
    if delta > 0:
        return {0: delta}
    if delta < 0:
        return {1: -delta}
    if trivial is None:
        raise UnknownSlopeZero(
            f"{label}: twisted degree zero needs the triviality bit"
        )
    return {0: 1, 1: 1} if trivial else {}


def _add_elliptic(
    desc: SheafDescriptor, atom: SemistableEC, d: int, lo: int, hi: int, mult: int, out: Entries
) -> None:
    """The degree of atom(t) on a curve of degree d is linear and
    increasing in t: h^1 below its zero twist, h^0 above, and the
    dichotomy at the zero twist when it is an integer."""
    step = atom.rank * d
    zero, rem = divmod(-atom.degree, step)  # the degree is positive past zero
    last_negative = zero - 1 if rem == 0 else zero
    for t in range(lo, min(hi, last_negative) + 1):
        key = (1, t)
        out[key] = out.get(key, 0) - mult * (atom.degree + step * t)
    if rem == 0 and lo <= zero <= hi:
        for i, h in _elliptic_pair(0, atom.trivial_type, format_sheaf(desc)).items():
            out[(i, zero)] = out.get((i, zero), 0) + mult * h
    for t in range(max(lo, zero + 1), hi + 1):
        key = (0, t)
        out[key] = out.get(key, 0) + mult * (atom.degree + step * t)


def _add_entries(
    desc: SheafDescriptor, model: VarietyModel, lo: int, hi: int, mult: int, out: Entries
) -> None:
    """Add mult * h^i(desc(t)) to out[(i, t)] for every lo <= t <= hi,
    the parts of a sum in order, each over the whole window."""
    if isinstance(desc, DirectSum):
        for part, m in desc.parts:
            _add_entries(part, model, lo, hi, mult * m, out)
        return
    if isinstance(desc, AbstractSheaf):
        if desc.table is None:
            raise NoOracle(f"{format_sheaf(desc)} carries no table")
        for t in range(lo, hi + 1):
            for i, h in desc.table.column(t).items():
                out[(i, t)] = out.get((i, t), 0) + mult * h
        return
    if model.kind == KIND_PROJ:
        if isinstance(desc, LineBundle):
            return _add_bott(model.dim, desc.twists[0], lo, hi, mult, out)
    elif model.kind == KIND_QUADRIC:
        if isinstance(desc, LineBundle):
            return _add_quadric_line(model.dim, desc.twists[0], lo, hi, mult, out)
        if isinstance(desc, Spinor):
            on_product = model.product_form_model
            if on_product is not None:
                return _add_entries(product_form(desc, model), on_product, lo, hi, mult, out)
            return _add_spinor3(lo, hi, mult, out)
    elif model.kind == KIND_PRODUCT:
        left: Entries = {}
        right: Entries = {}
        if isinstance(desc, LineBundle):
            (n1, n2), (a, b) = model.factors, desc.twists
            _add_bott(n1, a, lo, hi, 1, left)
            _add_bott(n2, b, lo, hi, 1, right)
            return _add_kuenneth(left, right, mult, out)
        if isinstance(desc, ExternalTensor):
            left_model, right_model = model.factor_models
            _add_entries(desc.left, left_model, lo, hi, 1, left)
            _add_entries(desc.right, right_model, lo, hi, 1, right)
            return _add_kuenneth(left, right, mult, out)
    elif model.kind == KIND_ELLIPTIC:
        atom = normalize_elliptic(desc, model)
        if isinstance(atom, SemistableEC):
            return _add_elliptic(desc, atom, model.deg, lo, hi, mult, out)
    elif model.kind == KIND_SURFACE:
        raise NoOracle(
            f"abstract surfaces have no oracle for {format_sheaf(desc)};"
            " attach an explicit table"
        )
    raise NoOracle(
        f"no oracle for {format_sheaf(desc)} on {format_variety(model)}"
    )


def ulrich_table(
    n: int, column: dict[int, int], window: tuple[int, int]
) -> CohomologyTable:
    """The table an Ulrich object of dimension n with the given twist-0
    column must have over the window (the rule in the module docstring)."""
    lo, hi = window
    entries: Entries = {}
    for q, h in column.items():
        _add_bott(n, 0, lo, hi, h, entries, shift=q)
    return CohomologyTable(window=window, entries=entries)


def _sheaf_column(desc: SheafDescriptor, model: VarietyModel, t: int) -> dict[int, int]:
    """The table builder on the one-twist window (t, t)."""
    out: Entries = {}
    _add_entries(desc, model, t, t, 1, out)
    return {i: h for (i, _), h in out.items() if h}


def _twisted_column(
    desc: SheafDescriptor, model: VarietyModel, twists: tuple[int, ...]
) -> dict[int, int]:
    """Nonzero h^i of desc (validated) tensor O(twists): the column at
    m = min(twists), after ``tensor_line`` by the rest twists - (m, ..., m)
    only, so spinors and stored tables take every diagonal twist."""
    m = min(twists)
    if max(twists) != m:
        desc = tensor_line(desc, tuple(a - m for a in twists), model)
    return _sheaf_column(desc, model, m)


def sheaf_column(desc: SheafDescriptor, model: VarietyModel, t: int) -> dict[int, int]:
    """Nonzero h^i of the descriptor twisted by O(t)."""
    validate_descriptor(desc, model)
    return _sheaf_column(desc, model, t)


def sheaf_table(
    desc: SheafDescriptor,
    model: VarietyModel,
    window: tuple[int, int] | None = None,
) -> CohomologyTable:
    """Assembled table over the twist window (model default when omitted).

    The parts of a sum, and the factors of an external tensor, are each
    built over the whole window in order, so when several fail, the first
    one raises its error, whatever twist the others fail at.  A window,
    the default one included, spans at most MAX_TWISTS twists.
    """
    validate_descriptor(desc, model)
    if window is None:
        window = default_window(model)
    lo, hi = window
    if hi - lo + 1 > MAX_TWISTS:
        raise MalformedDescriptor(
            f"window {window} spans more than {MAX_TWISTS} twists"
        )
    entries: Entries = {}
    if lo <= hi:  # the table refuses an empty window before any oracle runs
        _add_entries(desc, model, lo, hi, 1, entries)
    return CohomologyTable(window=window, entries=entries)
