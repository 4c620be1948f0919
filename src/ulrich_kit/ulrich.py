"""Ulrich predicates, decomposition reporters, Ext dimensions, and the
two-sheaf extension construction.

A sheaf E on an n-dimensional model with hyperplane class H is Ulrich
exactly when H^i(E(-j)) = 0 for every i and every j in 1..n.  For a
formal complex the same vanishing is demanded of hypercohomology; the
spectral sequence with entries H^p(H^q(E)(-j)) collapses over these
twists, which is why the direct (hypercohomology) and sheafwise (each
cohomology sheaf separately) checks must always agree.  The direct check
reads H^*(E(-j)) = Hom^*(O(j), E) as membership in <O(1), ..., O(n)>^perp does.

The sheafwise check reads each cohomology sheaf's table only at the ends
of its pieces (``cohomology._piece_tables``), cut also at twist 0, twist
-dim and the probe depth, so its cost does not grow with the window and
every criterion, witness and error is the one the whole table gives.

Decompositions and the abstract surface witness rest on the Eisenbud-Schreyer
rule: an Ulrich object's table is ``cohomology.ulrich_table`` of its twist-0
column.  Both decomposers share one reader of the hyper table, which
``shifted_sum`` adds from sheaf tables on one piece layout; the rebuild
checks the oracles against that rule at the ends of every piece, which
decides the whole window (``complexes._rebuilds``), so it costs the same
on any window.  On P^n, odd Q^n and Q^2 = P^1 x P^1 the Ulrich units (O; S;
the rulings O(1,0), O(0,1)) are completely orthogonal, so a unit G has
multiplicity dim Hom^q(G, E) in degree q: h^q(E(-v)) for the ruling G = O(v).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import takewhile

from ._values import Record
from .chern import ulrich_chern_solve
from .cohomology import (
    _elliptic_pair,
    _piece_tables,
    _twisted_column,
    _window_table,
    check_window,
    sheaf_table,
    ulrich_table,
)
from .complexes import (
    CERT_EXACT_BY_VANISHING,
    FormalComplex,
    GlueWitness,
    _rebuilds,
    _unit_multiples,
    first_nonvanishing,
    formal_complex,
    hyper_column,
    hyper_table as hyper_table,  # explicit re-export: perfbench reads ulrich.hyper_table
    sheaves_of,
)
from .errors import (
    Indeterminate,
    MalformedDescriptor,
    ModeDisagreement,
    NoDualRule,
    NotUlrich,
    NotUlrichInput,
    OracleDefect,
    UnknownSlopeZero,
    UnsupportedQuadricDim,
    ZeroExt,
)
from .sheaves import (
    AbstractSheaf,
    LineBundle,
    SemistableEC,
    SheafDescriptor,
    Spinor,
    flatten_atoms,
    format_sheaf,
    holds_abstract,
    normalize_elliptic,
    product_form,
    rank_of,
    tensor_line,
    tensor_parts,
    validate_descriptor,
)
from .tables import CohomologyTable, outside_window, shifted_sum
from .variety import (
    KIND_ELLIPTIC,
    KIND_PROJ,
    VarietyModel,
    default_window,
    format_variety,
    quadric,
)

MODES = ("direct", "sheafwise", "both")


class Criterion(Record):
    """One check of a verdict.  Its flag is read off its witness: the
    check passes exactly when it found none."""

    __slots__ = ("name", "twists", "witness", "note")

    def __init__(
        self,
        name: str,
        twists: Sequence[int],
        witness: tuple[int, int, int] | None = None,
        note: str = "",
    ) -> None:
        self.name = name
        self.twists = twists
        self.witness = witness
        self.note = note

    @property
    def passed(self) -> bool:
        return self.witness is None


class UlrichVerdict(Record):
    """Criteria in the order they ran; the verdict passes when every
    criterion passes, so its flag too is read off the witnesses."""

    __slots__ = ("mode", "criteria")

    def __init__(self, mode: str, criteria: list[Criterion] | None = None) -> None:
        self.mode = mode
        self.criteria = [] if criteria is None else criteria

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def witness(self):
        return next((c.witness for c in self.criteria if not c.passed), None)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "mode": self.mode,
            "criteria": [
                {
                    "name": c.name,
                    "twists": list(c.twists),
                    "passed": c.passed,
                    "witness": list(c.witness) if c.witness else None,
                    "note": c.note,
                }
                for c in self.criteria
            ],
        }


def is_initialized(desc: SheafDescriptor, model: VarietyModel) -> Criterion:
    """Sections appear at twist zero and at no negative twist: the
    ``initialized`` criterion of ``is_ulrich_sheaf``.

    Negative twists are probed down to the low end of the model's
    default window, -(2n + 5); the depth is fixed, not a setting.  For
    the closed descriptor classes the answer is provably global, for
    abstract data it is reported window-limited.
    """
    lo = default_window(model)[0]
    return _initialized(desc, lo, sheaf_table(desc, model, (lo, 0)))


def _initialized(desc, lo: int, table: CohomologyTable, prefix: str = "") -> Criterion:
    """``is_initialized`` read off a table of desc covering [lo, 0]."""
    if table.h(0, 0) == 0:
        witness = (0, 0, 0)
    else:
        witness = table.first_nonzero(range(-1, lo - 1, -1), degrees={0})
    # the oracle descriptors have section counts monotone in the
    # twist, so the probe decides; abstract data ends at its window
    note = "window-limited" if holds_abstract(desc) else "global"
    return Criterion(prefix + "initialized", range(lo, 0), witness, note)


def is_ulrich_sheaf(
    desc: SheafDescriptor,
    model: VarietyModel,
    window: tuple[int, int] | None = None,
) -> UlrichVerdict:
    """Full sheaf-level verdict.

    Criteria, in order: vanishing of all cohomology at twists -1..-dim,
    the initialization probe (down to the fixed depth of
    ``is_initialized``, whatever the window), the section count
    h^0 = deg * rank, and window-wide intermediate-cohomology vanishing
    as supporting evidence for the arithmetically-Cohen-Macaulay property.
    """
    validate_descriptor(desc, model)
    if window is None:
        window = default_window(model)
    table = _verdict_tables(((0, desc),), model, window)[0]
    return _sheaf_verdict(desc, model, window, table)


def _verdict_cuts(model: VarietyModel) -> tuple[int, int, int]:
    """Where the walks of ``_sheaf_verdict`` start and stop: twist 0,
    twist -dim and the probe depth.  A piece table cut there is walked
    over whole pieces only."""
    return (0, -model.dim, default_window(model)[0])


def _verdict_tables(pairs, model: VarietyModel, window: tuple[int, int]):
    """The table of each validated (degree, sheaf) pair that
    ``_sheaf_verdict`` reads, keyed by degree: each held at the ends of
    the pieces of its own breaks and ``_verdict_cuts``."""
    cuts = _verdict_cuts(model)
    return {degree: _piece_tables((desc,), model, window, cuts)[0] for degree, desc in pairs}


def _decomposition_tables(pairs, model: VarietyModel, window: tuple[int, int]):
    """``_verdict_tables`` all on one span layout, cut at the breaks of
    every sheaf: the rows ``shifted_sum`` adds position by position."""
    tables = _piece_tables([desc for _, desc in pairs], model, window, _verdict_cuts(model))
    return dict(zip((degree for degree, _ in pairs), tables))


def _sheaf_verdict(
    desc: SheafDescriptor,
    model: VarietyModel,
    window: tuple[int, int],
    table: CohomologyTable,
    prefix: str = "",
) -> UlrichVerdict:
    """``is_ulrich_sheaf`` on a table of the validated desc over the
    window, whole or cut at least at ``_verdict_cuts``: every read is a
    walk over whole pieces of the latter.  A window that does not reach the
    probe depth gets a probe table of its own.  Every criterion's name
    starts with prefix; the window criteria hold ``range``s."""
    ulrich_twists = model.ulrich_twists
    criteria = [
        Criterion(
            name=prefix + "twisted-vanishing",
            twists=ulrich_twists,
            witness=table.first_nonzero(ulrich_twists),
        )
    ]

    lo = default_window(model)[0]
    probe_table = table
    if not (table.covers(lo) and table.covers(0)):
        probe_table = _window_table(desc, model, (lo, 0))
    criteria.append(_initialized(desc, lo, probe_table, prefix))

    expected = model.deg * rank_of(desc, model)
    h0 = table.h(0, 0)
    criteria.append(
        Criterion(
            name=prefix + "section-count",
            twists=(0,),
            witness=None if h0 == expected else (0, 0, h0),
            note=f"h0 = {h0}, deg * rank = {expected}",
        )
    )

    middle = range(window[0], window[1] + 1)
    inner_degrees = set(range(1, model.dim))
    acm_hit = table.first_nonzero(middle, degrees=inner_degrees) if inner_degrees else None
    criteria.append(Criterion(name=prefix + "acm-window", twists=middle, witness=acm_hit))
    return UlrichVerdict(mode="sheaf", criteria=criteria)


def is_ulrich_object(
    E: FormalComplex,
    mode: str = "both",
    window: tuple[int, int] | None = None,
) -> UlrichVerdict:
    """Complex-level verdict in the requested mode.

    direct: hypercohomology sums vanish at twists -1..-dim, read in order
    by ``complexes.first_nonvanishing``; no table is built.  With glue
    present, an all-zero column is certified vanishing; a nonzero sum
    pins a nonvanishing cohomology sheaf, so failure is also honest.  An
    empty window, or one wider than MAX_TWISTS, is refused before any
    read; each twist is checked as it is read, so the first Ulrich twist
    outside the window raises IncompleteTable unless an earlier one is
    the witness.
    sheafwise: every cohomology sheaf passes the sheaf-level check,
    initialization probed to the fixed depth of ``is_initialized``.
    both: run the two and insist they agree.

    Every cohomology sheaf is validated first, once, in degree order.
    Modes sheafwise and both then build each sheaf's table before any
    check reads it, so the table's error is the one raised; the tables
    hold the ends of each piece only (``_verdict_tables``).
    """
    return _object_verdict(E, mode, window, _verdict_tables)[0]


def _object_verdict(
    E: FormalComplex,
    mode: str,
    window: tuple[int, int] | None,
    build,
) -> tuple[UlrichVerdict, dict[int, CohomologyTable]]:
    """``is_ulrich_object`` together with the table of each cohomology
    sheaf over the window that the sheafwise checks read, keyed by degree
    as build(pairs, model, window) makes them (none in mode ``direct``);
    mode ``both`` lists the direct criterion first."""
    if mode not in MODES:
        raise MalformedDescriptor(f"unknown mode {mode!r}")
    if window is None:
        window = default_window(E.model)
    pairs = sheaves_of(E, E.model)
    tables = {} if mode == "direct" else build(pairs, E.model, window)
    criteria: list[Criterion] = []
    if mode != "sheafwise":
        ulrich_twists = E.model.ulrich_twists
        check_window(window)
        inside = tuple(takewhile(lambda t: window[0] <= t <= window[1], ulrich_twists))
        hit = first_nonvanishing(pairs, E.model, ((None, (t,)) for t in inside))
        if hit is None and inside != ulrich_twists:  # the first twist the window misses
            raise outside_window(ulrich_twists[len(inside)], window)
        criteria.append(
            Criterion(
                name="hyper-vanishing",
                twists=ulrich_twists,
                witness=None if hit is None else hit[1:],
                note=CERT_EXACT_BY_VANISHING if E.has_glue() and hit is None else "",
            )
        )
    if mode != "direct":
        for degree, desc in pairs:
            sub = _sheaf_verdict(desc, E.model, window, tables[degree], f"degree {degree}: ")
            criteria.extend(sub.criteria)
    if mode == "both":
        direct, sheafwise = criteria[0], UlrichVerdict(mode, criteria[1:])
        if direct.passed != sheafwise.passed:
            raise ModeDisagreement(
                f"direct verdict {direct.passed} but sheafwise verdict"
                f" {sheafwise.passed}; this is a defect, witnesses:"
                f" {direct.witness} / {sheafwise.witness()}"
            )
    return UlrichVerdict(mode=mode, criteria=criteria), tables


def _ulrich_hyper_table(
    E: FormalComplex, window: tuple[int, int] | None
) -> CohomologyTable:
    """The hypercohomology table of E over the window (the default one
    for None), once mode ``both`` finds E Ulrich; the decomposers read
    nothing else.  The verdict reads the sheaf tables on one span layout
    (``_decomposition_tables``), and only once it passes does
    ``shifted_sum`` add them into a table on that layout: the ends of
    each piece, or every twist where a sheaf has no breaks or the window
    leaves little to skip."""
    if window is None:
        window = default_window(E.model)
    verdict, tables = _object_verdict(E, "both", window, _decomposition_tables)
    if not verdict.passed:
        raise NotUlrich(f"not an Ulrich object, witness {verdict.witness()}")
    return shifted_sum(window, tables.items())


def _decomposition(
    E: FormalComplex, window: tuple[int, int] | None, sections: int, units: str
) -> dict[int, int]:
    """Multiplicity of the Ulrich unit in each degree of E: h^q(E) over
    the unit's sections (deg * rank), once E is Ulrich and its table is
    the Eisenbud-Schreyer table of its twist-0 column, as every sum of
    shifted units has; NotUlrich otherwise."""
    table = _ulrich_hyper_table(E, window)
    multiplicities = _unit_multiples(sections, table)
    if not _rebuilds(E.model.dim, table):
        raise NotUlrich(f"table does not match any sum of {units}")
    return multiplicities


def pn_decompose(
    E: FormalComplex, window: tuple[int, int] | None = None
) -> dict[int, int]:
    """Shift multiplicities of an Ulrich object on projective space.

    The object must be a sum of shifts of the structure sheaf; the
    multiplicity in degree i is h^i(E), and the whole table must be the
    Eisenbud-Schreyer table of its twist-0 column.
    """
    if E.model.kind != KIND_PROJ:
        raise MalformedDescriptor("decomposition over the structure sheaf needs pn")
    return _decomposition(E, window, E.model.deg, "shifts of the structure sheaf")


def quadric_decompose(E: FormalComplex, window: tuple[int, int] | None = None):
    """Spinor multiplicities of an Ulrich object on a quadric, read by
    ``_decomposition`` with the unit's deg * rank sections: those of S on
    an odd quadric.  On the quadric surface, read on its product form, or
    P^1 x P^1 itself, they are split by ruling line O(v), in degree q as
    Hom^q(O(v), E) = h^q(E(-v)), and the two counts must add up to them.
    An abstract sheaf there raises Indeterminate, after the verdict,
    divisibility and rebuild refusals: a table cannot tell the rulings
    apart.  An even quadric past Q^2 raises UnsupportedQuadricDim.
    """
    model = E.model
    product_model = model.product_form_model or model
    even = product_model.factors == (1, 1)
    odd = model.spinor_signs == (None,)
    if not (even or odd):
        refusal = UnsupportedQuadricDim if model.spinor_signs else MalformedDescriptor
        raise refusal(
            f"spinor decomposition needs an odd quadric or Q^2, not {format_variety(model)}"
        )
    units = "shifted spinor lines" if even else "shifted spinors"
    # a spinor line of Q^2 and a ruling of P^1 x P^1 have rank 1 = spinor_rank
    multiplicities = _decomposition(E, window, model.deg * model.spinor_rank, units)
    if odd:
        return multiplicities

    for _, desc in E.sheaves:
        if holds_abstract(desc):
            raise Indeterminate(
                f"{format_sheaf(desc)} is abstract: a table alone cannot split"
                " the two rulings"
            )
    pairs = E.sheaves
    if product_model is not model:
        pairs = tuple((degree, product_form(desc, model)) for degree, desc in pairs)
    surface = quadric(2)
    split: dict[int, dict[str, int]] = {degree: {} for degree, _ in E.sheaves}
    for sign in surface.spinor_signs:
        ruling = product_form(Spinor(sign), surface).twists
        column = hyper_column(pairs, product_model, tuple(-a for a in ruling))
        for degree, counts in split.items():
            counts[sign] = column.get(degree, 0)
    totals = {degree: sum(counts.values()) for degree, counts in split.items()}
    if {degree: total for degree, total in totals.items() if total} != multiplicities:
        raise OracleDefect(
            f"ruling counts {totals} do not add up to the unit multiplicities"
            f" {multiplicities}"
        )
    return split


def ext_dimension(
    F: SheafDescriptor,
    G: SheafDescriptor,
    k: int,
    model: VarietyModel,
) -> int:
    """dim Ext^k(F, G): degree k of ``_ext_column``, the column of (dual of
    F) tensor G summed over the atoms of F; read it once to walk every k.

    Each atom of F needs a dual rule: a line bundle (O(a) x O(b) is
    O(a, b); the spinor lines of the quadric surface count, on its product
    form) or rank-one semistable data on a genus-one curve.  Where the
    dual side has rules too, the column is Serre-checked in every degree.
    """
    validate_descriptor(F, model)
    validate_descriptor(G, model)
    return _ext_column(F, G, model).get(k, 0)


def _ext_column(F, G, model: VarietyModel) -> dict[int, int]:
    """Nonzero dim Ext^k(F, G) of validated F and G, Serre-checked."""
    column = _column_sum((m, _ext_primary(atom, G, model)) for atom, m in flatten_atoms(F))
    expected = _ext_serre_partner(F, G, model)
    if expected is not None and expected != column:
        k = min(column.items() ^ expected.items())[0]  # the lowest degree that differs
        raise OracleDefect(
            f"Serre duality cross-check failed: ext^{k}({format_sheaf(F)}, {format_sheaf(G)})"
            f" = {column.get(k, 0)} but the dual side gave {expected.get(k, 0)}"
        )
    return column


def _column_sum(terms) -> dict[int, int]:
    """The nonzero degrees of the sum of mult * column over (mult, column) terms."""
    sums: dict[int, int] = {}
    for mult, column in terms:
        for k, h in column.items():
            sums[k] = sums.get(k, 0) + mult * h
    return {k: h for k, h in sums.items() if h}


def _ext_primary(F, G, model: VarietyModel) -> dict[int, int]:
    """The Ext column out of one atom F."""
    if isinstance(F, SemistableEC):  # O(k) is ss(1, k*d, trivial), as normalize_elliptic reads it
        line = LineBundle((F.degree // model.deg,))
        if normalize_elliptic(line, model) == F:
            F = line
    parts = tensor_parts(F)  # sums distribute, O(a) x O(b) is O(a,b)
    if parts != [(F, 1)]:  # else one atom, or a tensor of two atoms, not both lines
        return _column_sum((m, _ext_primary(atom, G, model)) for atom, m in parts)
    if isinstance(F, LineBundle):
        return _twisted_column(G, model, tuple(-a for a in F.twists))
    on_product = model.product_form_model if isinstance(F, Spinor) else None
    if on_product is not None:
        return _ext_primary(product_form(F, model), product_form(G, model), on_product)
    if model.kind == KIND_ELLIPTIC:
        return _column_sum((m, _ext_elliptic(F, atom, model)) for atom, m in flatten_atoms(G))
    raise NoDualRule(f"{format_sheaf(F)} has no dual rule here")


def _ext_elliptic(F, atom, model: VarietyModel) -> dict[int, int]:
    """The Ext column from rank-one semistable data that is no twist of O
    into one atom."""
    if not (isinstance(F, SemistableEC) and F.rank == 1):
        raise NoDualRule(f"{format_sheaf(F)} has no dual rule on a genus-one curve")
    atom = normalize_elliptic(atom, model)
    if not isinstance(atom, SemistableEC):
        raise NoDualRule(f"{format_sheaf(atom)} has no genus-one oracle")
    # whether F^dual tensor atom is trivial, read only at degree zero
    if atom.rank == 1 and atom == F:
        trivial = True
    elif atom.rank == 1 and atom.trivial_type is not None and F.trivial_type is not None:
        trivial = False  # distinct rank-one data of the same degree
    else:
        trivial = None
    return _elliptic_pair(
        atom.degree - atom.rank * F.degree,
        trivial,
        f"hom data between {format_sheaf(F)} and {format_sheaf(atom)}",
    )


def _ext_serre_partner(F, G, model: VarietyModel) -> dict[int, int] | None:
    """Ext^(n-k)(G, F x K) in degree k, None where a rule is missing; on the
    quadric surface it is read on the product form, where spinor lines twist."""
    if model.canonical_twists is None:
        return None
    try:
        on_product = model.product_form_model
        if on_product is not None:
            F, G, model = product_form(F, model), product_form(G, model), on_product
        twisted = tensor_line(F, model.canonical_twists, model)
        column = _column_sum((m, _ext_primary(a, twisted, model)) for a, m in flatten_atoms(G))
        return {model.dim - k: h for k, h in column.items()}
    except (NoDualRule, UnknownSlopeZero, MalformedDescriptor):  # abstract: no product form
        return None


def yoneda_build(
    F: SheafDescriptor,
    G: SheafDescriptor,
    m: int,
    model: VarietyModel,
    witness: str = "computed",
) -> FormalComplex:
    """Two-sheaf complex with cohomology F in degree 0 and G in degree
    -m+1, glued by a degree-m extension.

    m = 1 is rejected: the corresponding data is an honest extension of
    sheaves, not a two-term complex.  For m = 2 the glue witness is the
    adjacent-degree degree-two extension; for larger m the cohomology
    layout is kept but no adjacent witness exists, so the complex is
    formal at table level.
    """
    if witness not in ("computed", "asserted"):
        raise MalformedDescriptor(f"unknown witness policy {witness!r}")
    if m < 2:
        raise MalformedDescriptor(
            "extension degree must be at least 2; degree-one data is a sheaf"
        )
    for name, desc in (("F", F), ("G", G)):
        verdict = is_ulrich_sheaf(desc, model)
        if not verdict.passed:
            raise NotUlrichInput(
                f"{name} = {format_sheaf(desc)} is not Ulrich,"
                f" witness {verdict.witness()}"
            )
    if witness == "computed":
        ext = ext_dimension(F, G, m, model)
        if ext == 0:
            raise ZeroExt(
                f"Ext^{m}({format_sheaf(F)}, {format_sheaf(G)}) = 0;"
                " no nonsplit extension exists"
            )
    glue = (GlueWitness(0, -1),) if m == 2 else ()
    return formal_complex(model, {0: F, -m + 1: G}, glue)


def abstract_ulrich_sheaf(
    model: VarietyModel, rank: int, label: str = "ulrich-witness"
) -> AbstractSheaf:
    """Abstract sheaf carrying the exact table and class every rank-r
    Ulrich sheaf on the given surface model must have.

    Its projection to P^2 is O^(r*d), so the table is r*d times Bott's,
    with Euler polynomial (r*d/2)(t+1)(t+2) as the class gives it.
    """
    if rank < 1:
        raise MalformedDescriptor(f"rank must be >= 1, got {rank}")
    table = ulrich_table(2, {0: rank * model.deg}, default_window(model))
    return AbstractSheaf(rank, label, ulrich_chern_solve(model, rank), table)
