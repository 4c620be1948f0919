"""Exact twisted-cohomology oracles for the supported models.

A table is built one atom at a time, the atoms of a sum as
``sheaves.flatten_atoms`` reads them: ``_rule`` decides the family of
each atom once, and its fill adds the atom into slices of the table's
rows, one list per degree over the twists the table holds (``tables``).
The rules:

* Projective space (Bott): only h^0 and h^n are ever nonzero, with
  binomial values on the two ranges t >= -a and t <= -n-1-a of O(a).
* Quadrics, through a finite linear projection pi: Q^n -> P^n, which
  keeps cohomology (Eisenbud-Schreyer 2003, Prop. 2.1): an atom is the
  Bott rows of its push-forward.  pi_* O_Q = O + O(-1), so O(a) on Q^n
  reads as O(a) + O(a-1) on P^n; an even spinor is Ulrich, so it pushes
  to O^(2 * rank) (the rank ``model.spinor_rank``).
* Products: the Kunneth rule with a uniform diagonal twist multiplies
  the factor rows elementwise.
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

Ulrich tables follow from the same rule: the projection to P^n pushes an
Ulrich object to a sum of shifted structure sheaves, so
h^i(E(t)) = sum_q h^q(E) * h^(i-q)(O_{P^n}(t)).

Pieces.  Each closed-form rule has break twists, where its range form
changes, given by ``_rule`` with its fill and read off the bounds that
fill reads (``_resolve`` gives both in one ``_rule`` call per atom, and
``_breaks`` takes the union over the atoms): -n-a for O(a)
on P^n, 1-n-a for O(a) on Q^n (the first break of its O(a-1) part), -n
for a spinor, the breaks of both factors for Kunneth, and on a
genus-one curve the zero twist and the one after it.  The Q^3 spinor
breaks at -3 although its recursion fills it: S is Ulrich and pushes
forward to O^4 on P^3, so each of its rows is 4 times a Bott row of O.
A Bott row also reads a second bound, -a, where h^0 starts; it is no
break, because the h^0 and h^n binomials both vanish on the gap
-n-a <= t < -a, so each row is one polynomial on each side of any twist
in that gap.  So 1-n-a, in the gaps of both parts of O(a) on Q^n, is its
one break, and the O(a) part's -n-a is none.  Between breaks every entry
is a polynomial in t of degree at most the dimension n: a binomial in t,
a sum of two, a product of the factors' polynomials, or a linear form.
A nonzero one has at most n roots, so an entry nonzero anywhere on a piece is nonzero at one of its
first n + 1 twists and at one of its last n + 1, and two such entries
that agree at the first n + 1 twists of a piece agree on all of it.
``_piece_tables`` holds rows at those twists only, its tables on one
layout cut at the breaks of all of them.  An Ulrich verdict reads one
such table per sheaf and walks whole pieces, so it finds what the whole
table finds.  A decomposition lays every sheaf of the object out on one
layout: its hyper table adds their rows position by position, and its
Eisenbud-Schreyer rebuild, ``ulrich_table`` on the same spans (its one
break, -n, is a cut), is compared with it there.  Only stored tables
have no breaks and are built at every twist: a stored table is data,
not a rule.  The spinor recursion reaches a twist only through the
twists between it and zero: h^0 from k - 1, h^3 from k + 1.  Its fill
reads h^0 upward, in steps to the first twist of a span, so h^0 stays
shallow, but reaches h^3 cold at the bottom of a window, so a table or
a piece table starting below about -490 exceeds the interpreter's
recursion depth (h^3 warmed downward from -4 does not).
"""

from __future__ import annotations

from collections.abc import Callable
from functools import lru_cache, partial
from itertools import chain
from math import comb

from .errors import IncompleteTable, MalformedDescriptor, NoOracle, UnknownSlopeZero
from .sheaves import (
    AbstractSheaf,
    ExternalTensor,
    LineBundle,
    SemistableEC,
    SheafDescriptor,
    Spinor,
    flatten_atoms,
    format_sheaf,
    normalize_elliptic,
    tensor_line,
    validate_descriptor,
)
from .tables import CohomologyTable, Rows, Spans, layout, zero_rows
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


def _proj_h0(n: int, k: int) -> int:
    return comb(n + k, n) if k >= 0 else 0


def _proj_hn(n: int, k: int) -> int:
    return comb(-k - 1, n) if k <= -n - 1 else 0


def _bott_breaks(n: int, a: int) -> tuple[int, int]:
    """(stop, start) for O(a) on P^n: h^n lives at t < stop, h^0 at t >= start."""
    return -n - a, -a


def _add_bott(n: int, a: int, lo: int, hi: int, mult: int, rows: Rows, base: int, shift: int = 0):
    """Add mult * h^i(O(a)(t)) on P^n to rows[i + shift][t - base] for lo <= t <= hi."""
    stop, start = _bott_breaks(n, a)
    if start <= hi:
        row = rows[shift]
        for t in range(start if start > lo else lo, hi + 1):
            row[t - base] += mult * comb(n + a + t, n)
    if lo < stop:
        row = rows[n + shift]
        for t in range(lo, stop if stop <= hi else hi + 1):
            row[t - base] += mult * comb(-a - t - 1, n)


def _add_projected(
    n: int, parts: tuple[tuple[int, int], ...], lo: int, hi: int, mult: int, rows: Rows, base: int
) -> None:
    """An atom whose finite projection to P^n pushes it to the sum of
    count * O(a) over its (a, count) parts: the Bott rows of those."""
    for a, count in parts:
        _add_bott(n, a, lo, hi, mult * count, rows, base)


def _add_bott_product(
    n1: int, n2: int, a: int, b: int, lo: int, hi: int, mult: int, rows: Rows, base: int
) -> None:
    """O(a, b) on P^n1 x P^n2, the Kunneth product of two Bott rows taken at
    equal twists: each pair of factor degrees over the twists both hold."""
    (stop1, start1), (stop2, start2) = _bott_breaks(n1, a), _bott_breaks(n2, b)
    for p, s1, e1 in ((0, max(lo, start1), hi), (n1, lo, min(hi, stop1 - 1))):
        if s1 > e1:
            continue
        for q, s2, e2 in ((0, max(lo, start2), hi), (n2, lo, min(hi, stop2 - 1))):
            twists = range(s1 if s1 > s2 else s2, (e1 if e1 < e2 else e2) + 1)
            if twists:
                row = rows[p + q]
                for t in twists:
                    x = comb(n1 + a + t, n1) if p == 0 else comb(-a - t - 1, n1)
                    y = comb(n2 + b + t, n2) if q == 0 else comb(-b - t - 1, n2)
                    row[t - base] += mult * x * y


def _add_kuenneth(left_atoms, right_atoms, lo: int, hi: int, mult: int, rows: Rows, base: int):
    """Add mult times the Kunneth product of the two factors, as
    ``_resolve`` gives their atoms, over lo..hi, taken at equal twists:
    the rows of each factor, then each pair of their degrees."""
    left, right = zero_rows(hi - lo + 1), zero_rows(hi - lo + 1)
    for atoms, factor_rows in ((left_atoms, left), (right_atoms, right)):
        _add_fills(atoms, ((lo, hi, lo),), factor_rows)
    for p, a in left.items():
        for q, b in right.items():
            row = rows[p + q]
            for k, (x, y) in enumerate(zip(a, b), lo - base):
                row[k] += mult * x * y


def _add_stored(table: CohomologyTable, lo: int, hi: int, mult: int, rows: Rows, base: int) -> None:
    for t in range(lo, hi + 1):
        for i, h in table.column(t).items():
            rows[i][t - base] += mult * h


def _refuse(message: str, *span) -> None:
    """The fill of an atom with no oracle: it raises when it runs."""
    raise NoOracle(message)


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


def _add_spinor3(lo: int, hi: int, mult: int, rows: Rows, base: int) -> None:
    # ascending twists keep h^0 shallow, and so does reading it up to lo in
    # steps, where a piece table's span starts far above the last twist
    # read; h^3 recurses up to -3 from a cold bottom
    for t in range(0, lo, 128):
        _spinor3_h0(t)
    for t in range(lo, hi + 1):
        for i, h in ((0, _spinor3_h0(t)), (3, _spinor3_h3(t))):
            if h:
                rows[i][t - base] += mult * h


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


def _elliptic_zero(atom: SemistableEC, d: int) -> tuple[int, int]:
    """(zero, rem) for atom(t) on a curve of degree d: the degree of
    atom(t) is negative for t < zero and positive for t > zero; at zero
    it is zero when rem is, negative otherwise."""
    return divmod(-atom.degree, atom.rank * d)


def _add_elliptic(
    atom: SemistableEC, d: int, lo: int, hi: int, mult: int, rows: Rows, base: int
) -> None:
    """The degree of atom(t) on a curve of degree d is linear and
    increasing in t: h^1 below its zero twist, h^0 above, and the
    dichotomy at the zero twist when it is an integer."""
    step = atom.rank * d
    zero, rem = _elliptic_zero(atom, d)
    last_negative = zero - 1 if rem == 0 else zero
    if lo <= last_negative:
        row = rows[1]
        for t in range(lo, min(hi, last_negative) + 1):
            row[t - base] -= mult * (atom.degree + step * t)
    if rem == 0 and lo <= zero <= hi:
        for i, h in _elliptic_pair(0, atom.trivial_type, format_sheaf(atom)).items():
            rows[i][zero - base] += mult * h
    if zero < hi:
        row = rows[0]
        for t in range(max(lo, zero + 1), hi + 1):
            row[t - base] += mult * (atom.degree + step * t)


def _rule(
    atom: SheafDescriptor, model: VarietyModel
) -> tuple[Callable[..., None], tuple[int, ...] | set[int] | None]:
    """(fill, breaks) of one atom: the one place its family is decided.
    fill(lo, hi, mult, rows, base) adds mult * h^i(atom(t)) to
    rows[i][t - base] for every lo <= t <= hi; breaks are read off the
    bounds that fill reads, one twist in the gaps of all its Bott rows
    (see Pieces), and are None only for a stored table or an atom with
    no oracle, whose fill raises NoOracle.  A quadric atom is read as the
    Bott rows of its push-forward to P^n, which for the Q^3 spinor gives
    only its break: its recursion fills it."""
    if isinstance(atom, AbstractSheaf):
        if atom.table is None:
            return partial(_refuse, f"{format_sheaf(atom)} carries no table"), None
        return partial(_add_stored, atom.table), None
    if model.kind == KIND_PROJ:
        if isinstance(atom, LineBundle):
            n, a = model.dim, atom.twists[0]
            return partial(_add_bott, n, a), _bott_breaks(n, a)[:1]
    elif model.kind == KIND_QUADRIC:
        n = model.dim
        if isinstance(atom, LineBundle):
            a = atom.twists[0]
            return partial(_add_projected, n, ((a, 1), (a - 1, 1))), (1 - n - a,)
        if isinstance(atom, Spinor):
            if None in model.spinor_signs:
                return _add_spinor3, (-n,)
            return partial(_add_projected, n, ((0, 2 * model.spinor_rank),)), (-n,)
    elif model.kind == KIND_PRODUCT:
        if isinstance(atom, LineBundle):
            (n1, n2), (a, b) = model.factors, atom.twists
            breaks = _bott_breaks(n1, a)[:1] + _bott_breaks(n2, b)[:1]
            return partial(_add_bott_product, n1, n2, a, b), breaks
        if isinstance(atom, ExternalTensor):
            left, right = map(_resolve, (atom.left, atom.right), model.factor_models)
            return partial(_add_kuenneth, left, right), _breaks(left + right)
    elif model.kind == KIND_ELLIPTIC:
        curve = normalize_elliptic(atom, model)
        if isinstance(curve, SemistableEC):
            zero, _ = _elliptic_zero(curve, model.deg)
            return partial(_add_elliptic, curve, model.deg), (zero, zero + 1)
    elif model.kind == KIND_SURFACE:
        return partial(
            _refuse,
            f"abstract surfaces have no oracle for {format_sheaf(atom)}; attach an explicit table",
        ), None
    return partial(_refuse, f"no oracle for {format_sheaf(atom)} on {format_variety(model)}"), None


def _resolve(desc: SheafDescriptor, model: VarietyModel) -> list[tuple]:
    """(fill, breaks, mult) of each atom of desc, the atoms of a sum in
    order: one ``_rule`` call per atom gives both its fill and its breaks."""
    return [(*_rule(atom, model), mult) for atom, mult in flatten_atoms(desc)]


def _breaks(resolved) -> set[int] | None:
    """The break twists of the resolved atoms, the union of theirs, None
    where one has none.  Between two breaks every entry of their sum is
    one polynomial in t of degree at most the dimension."""
    breaks: set[int] = set()
    for _, found, _ in resolved:
        if found is None:
            return None
        breaks.update(found)
    return breaks


def _add_fills(resolved, spans, rows: Rows) -> None:
    """Add the fill of each resolved atom, times its mult, to
    rows[i][t - base] for every t in each closed span (lo, hi) of the
    (lo, hi, base) spans, the atoms in order, each over all the spans."""
    for fill, _, mult in resolved:
        for lo, hi, base in spans:
            fill(lo, hi, mult, rows, base)


def _filled(
    resolved, window: tuple[int, int], spans: Spans | None = None, shared=None
) -> CohomologyTable:
    """The table over the window that the resolved atoms fill, held at
    the twists of the spans, or at every twist for None; ``shared`` is
    the spans' ``layout`` when other tables are built on it too."""
    lo, hi = window
    held, at = ((lo, hi, lo),), None
    if spans is not None:
        held, at = shared or layout(spans)
    _, last, base = held[-1]  # the last held twist sits at the last position
    rows = zero_rows(last - base + 1)
    _add_fills(resolved, held, rows)
    return CohomologyTable(window, rows=rows, spans=spans, at=at)


def _held_spans(hi: int, starts: set[int], k: int) -> Spans:
    """The first and the last k twists of each piece of [min(starts), hi],
    the pieces starting at the twists of starts, as sorted closed spans,
    touching ones merged."""
    bounds = sorted(starts) + [hi + 1]
    spans: list[tuple[int, int]] = []
    for start, stop in zip(bounds, bounds[1:]):
        for a, b in ((start, min(start + k, stop) - 1), (max(start, stop - k), stop - 1)):
            if spans and a <= spans[-1][1] + 1:
                spans[-1] = (spans[-1][0], max(b, spans[-1][1]))
            else:
                spans.append((a, b))
    return tuple(spans)


def _piece_tables(descs, model: VarietyModel, window: tuple[int, int], cuts: tuple[int, ...]):
    """The tables of validated descriptors over the window, all on one
    span layout: held only at the first and the last dim + 1 twists of
    each piece (see Pieces in the module docstring), the window cut at
    the cuts and at the breaks of every desc, so their rows line up
    position by position.  Every table is whole where a desc has no
    breaks, where the window has at most 2 (dim + 1) twists for each
    piece the cuts make, or where the spans would hold more than half
    the window: there cutting saves less than a fill call per span costs."""
    check_window(window)
    lo, hi = window
    k = model.dim + 1
    resolved = [_resolve(desc, model) for desc in descs]
    wide = hi - lo + 1 > 2 * k * (len(cuts) + 1)
    breaks = _breaks(chain.from_iterable(resolved)) if wide else None
    spans = shared = None
    if breaks is not None:
        starts = {lo} | {t for t in chain(cuts, breaks) if lo < t <= hi}
        spans = _held_spans(hi, starts, k)
        if 2 * sum(b - a + 1 for a, b in spans) > hi - lo + 1:
            spans = None
        else:
            shared = layout(spans)
    return [_filled(atoms, window, spans, shared) for atoms in resolved]


def ulrich_table(
    n: int, column: dict[int, int], window: tuple[int, int], spans: Spans | None = None
) -> CohomologyTable:
    """The table an Ulrich object of dimension n with the given twist-0
    column must have over the window (the rule in the module docstring),
    held on the spans as a piece table is, or at every twist for None:
    h^q(E) times the Bott rows of O, shifted by q, whose one break is -n."""
    bott = [(partial(_add_bott, n, 0, shift=q), (-n,), h) for q, h in column.items()]
    return _filled(bott, window, spans)


def _sheaf_column(desc: SheafDescriptor, model: VarietyModel, t: int) -> dict[int, int]:
    """The table builder on the one-twist window (t, t): each atom's fill
    at t, in order, called as ``_rule`` gives it, with no list of the
    atoms: mode direct reads dim columns of every sheaf."""
    rows = zero_rows(1)
    for atom, mult in flatten_atoms(desc):
        _rule(atom, model)[0](t, t, mult, rows, t)
    return {i: row[0] for i, row in rows.items() if row[0]}


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

    The atoms of a sum, and the factors of an external tensor, are each
    built over the whole window in order ([A + B] x [C]: A, B, then C), so
    when several fail, the first one raises its error, whatever twist the
    others fail at.  Any window, the default too, spans at most MAX_TWISTS twists.
    """
    validate_descriptor(desc, model)
    return _window_table(desc, model, default_window(model) if window is None else window)


def _window_table(
    desc: SheafDescriptor, model: VarietyModel, window: tuple[int, int]
) -> CohomologyTable:
    """``sheaf_table`` of a validated descriptor over a given window."""
    check_window(window)
    return _filled(_resolve(desc, model), window)


def check_window(window: tuple[int, int]) -> None:
    """Refuse an empty window or one wider than MAX_TWISTS, before any oracle runs."""
    lo, hi = window
    if lo > hi:
        raise IncompleteTable(f"empty window {window}")
    if hi - lo + 1 > MAX_TWISTS:
        raise MalformedDescriptor(f"window {window} spans more than {MAX_TWISTS} twists")
