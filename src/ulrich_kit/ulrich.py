"""Ulrich predicates, decomposition reporters, Ext dimensions, and the
two-sheaf extension construction.

A sheaf E on an n-dimensional model with hyperplane class H is Ulrich
exactly when H^i(E(-j)) = 0 for every i and every j in 1..n.  For a
formal complex the same vanishing is demanded of hypercohomology; the
spectral sequence with entries H^p(H^q(E)(-j)) collapses over these
twists, which is why the direct (hypercohomology) and sheafwise (each
cohomology sheaf separately) checks must always agree.

Decompositions and the abstract surface witness rest on the Eisenbud-Schreyer
rule: an Ulrich object's table is ``cohomology.ulrich_table`` of its twist-0
column.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .chern import ulrich_chern_solve
from .cohomology import _elliptic_pair, _twisted_column, sheaf_table, ulrich_table
from .complexes import (
    CERT_EXACT_BY_VANISHING,
    FormalComplex,
    GlueWitness,
    HyperTableResult,
    _external_tensor_atoms,
    _hyper_from_tables,
    _rebuilds,
    _unit_multiples,
    formal_complex,
    hyper_table as hyper_table,  # explicit re-export: perfbench reads ulrich.hyper_table
)
from .errors import (
    Indeterminate,
    MalformedDescriptor,
    ModeDisagreement,
    NoDualRule,
    NonDivisibleRank,
    NotUlrich,
    NotUlrichInput,
    OracleDefect,
    UnknownSlopeZero,
    ZeroExt,
)
from .sheaves import (
    AbstractSheaf,
    DirectSum,
    ExternalTensor,
    LineBundle,
    SemistableEC,
    SheafDescriptor,
    flatten_atoms,
    format_sheaf,
    normalize_elliptic,
    product_form,
    rank_of,
    tensor_line,
    validate_descriptor,
)
from .tables import CohomologyTable
from .variety import (
    KIND_ELLIPTIC,
    KIND_PROJ,
    VarietyModel,
    default_window,
    format_variety,
)


@dataclass
class Criterion:
    """One check of a verdict.  Its flag is read off its witness: the
    check passes exactly when it found none."""

    name: str
    twists: tuple[int, ...]
    witness: tuple[int, int, int] | None = None
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.witness is None


@dataclass
class UlrichVerdict:
    """Criteria in the order they ran; the verdict passes when every
    criterion passes, so its flag too is read off the witnesses."""

    mode: str
    criteria: list[Criterion] = field(default_factory=list)

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


@dataclass
class InitializedReport:
    global_verdict: bool
    probed: tuple[int, int]
    witness: tuple[int, int, int] | None = None

    @property
    def ok(self) -> bool:
        return self.witness is None


def _holds_abstract(desc: SheafDescriptor) -> bool:
    """Whether an abstract sheaf sits anywhere in desc, as a summand or
    as a factor of an external tensor."""
    if isinstance(desc, AbstractSheaf):
        return True
    if isinstance(desc, DirectSum):
        return any(_holds_abstract(part) for part, _ in desc.parts)
    if isinstance(desc, ExternalTensor):
        return _holds_abstract(desc.left) or _holds_abstract(desc.right)
    return False


def is_initialized(desc: SheafDescriptor, model: VarietyModel) -> InitializedReport:
    """Sections appear at twist zero and at no negative twist.

    Negative twists are probed down to the low end of the model's
    default window, -(2n + 5); the depth is fixed, not a setting.  For
    the closed descriptor classes the answer is provably global, for
    abstract data it is reported window-limited.
    """
    lo = default_window(model)[0]
    return _initialized(desc, lo, sheaf_table(desc, model, (lo, 0)))


def _initialized(desc: SheafDescriptor, lo: int, table: CohomologyTable) -> InitializedReport:
    """``is_initialized`` read off a table of desc covering [lo, 0]."""
    h0 = table.h(0, 0)
    if h0 == 0:
        witness = (0, 0, 0)
    else:
        witness = table.first_nonzero(range(-1, lo - 1, -1), degrees={0})
    return InitializedReport(
        # the oracle descriptors have section counts monotone in the
        # twist, so the probe decides; abstract data ends at its window
        global_verdict=not _holds_abstract(desc),
        probed=(lo, 0),
        witness=witness,
    )


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
    if window is None:
        window = default_window(model)
    table = sheaf_table(desc, model, window)
    return _sheaf_verdict(desc, model, window, table)


def _sheaf_verdict(
    desc: SheafDescriptor,
    model: VarietyModel,
    window: tuple[int, int],
    table: CohomologyTable,
) -> UlrichVerdict:
    """``is_ulrich_sheaf`` on the already assembled table of desc over
    the window; a window that does not reach the probe depth gets a
    probe table of its own."""
    ulrich_twists = model.ulrich_twists
    criteria = [
        Criterion(
            name="twisted-vanishing",
            twists=ulrich_twists,
            witness=table.first_nonzero(ulrich_twists),
        )
    ]

    lo = default_window(model)[0]
    probe_table = table
    if not (table.covers(lo) and table.covers(0)):
        probe_table = sheaf_table(desc, model, (lo, 0))
    init = _initialized(desc, lo, probe_table)
    criteria.append(
        Criterion(
            name="initialized",
            twists=tuple(range(init.probed[0], 0)),
            witness=init.witness,
            note="global" if init.global_verdict else "window-limited",
        )
    )

    expected = model.deg * rank_of(desc, model)
    h0 = table.h(0, 0)
    criteria.append(
        Criterion(
            name="section-count",
            twists=(0,),
            witness=None if h0 == expected else (0, 0, h0),
            note=f"h0 = {h0}, deg * rank = {expected}",
        )
    )

    middle = tuple(range(window[0], window[1] + 1))
    inner_degrees = set(range(1, model.dim))
    acm_hit = table.first_nonzero(middle, degrees=inner_degrees) if inner_degrees else None
    criteria.append(Criterion(name="acm-window", twists=middle, witness=acm_hit))
    return UlrichVerdict(mode="sheaf", criteria=criteria)


def is_ulrich_object(
    E: FormalComplex,
    mode: str = "both",
    window: tuple[int, int] | None = None,
) -> UlrichVerdict:
    """Complex-level verdict in the requested mode.

    direct: hypercohomology sums vanish at twists -1..-dim.  With glue
    present, an all-zero column is certified vanishing; a nonzero sum
    pins a nonvanishing cohomology sheaf, so failure is also honest.
    sheafwise: every cohomology sheaf passes the sheaf-level check,
    initialization probed to the fixed depth of ``is_initialized``.
    both: run the two and insist they agree.

    Every mode builds the table of each cohomology sheaf before any
    check reads it, so when a table and a sheafwise probe table would
    both fail, the table's error is the one raised.
    """
    return _object_verdict(E, mode, window)[0]


def _object_verdict(
    E: FormalComplex,
    mode: str,
    window: tuple[int, int] | None,
) -> tuple[UlrichVerdict, HyperTableResult | None]:
    """``is_ulrich_object`` together with the hyper table its direct
    check read (None in sheafwise mode).  Each cohomology sheaf's table
    is built once and read by both checks; mode ``both`` lists the
    direct criterion, then the sheafwise ones."""
    if mode not in ("direct", "sheafwise", "both"):
        raise MalformedDescriptor(f"unknown mode {mode!r}")
    if window is None:
        window = default_window(E.model)
    tables = {degree: sheaf_table(desc, E.model, window) for degree, desc in E.sheaves}
    criteria: list[Criterion] = []
    hyper = None
    if mode != "sheafwise":
        hyper = _hyper_from_tables(E, window, tables)
        ulrich_twists = E.model.ulrich_twists
        hit = hyper.table.first_nonzero(ulrich_twists)
        criteria.append(
            Criterion(
                name="hyper-vanishing",
                twists=ulrich_twists,
                witness=hit,
                note=CERT_EXACT_BY_VANISHING if E.has_glue() and hit is None else "",
            )
        )
    if mode != "direct":
        for degree, desc in E.sheaves:
            sub = _sheaf_verdict(desc, E.model, window, tables[degree])
            criteria.extend(
                replace(criterion, name=f"degree {degree}: {criterion.name}")
                for criterion in sub.criteria
            )
    if mode == "both":
        direct, sheafwise = criteria[0], UlrichVerdict(mode, criteria[1:])
        if direct.passed != sheafwise.passed:
            raise ModeDisagreement(
                f"direct verdict {direct.passed} but sheafwise verdict"
                f" {sheafwise.passed}; this is a defect, witnesses:"
                f" {direct.witness} / {sheafwise.witness()}"
            )
    return UlrichVerdict(mode=mode, criteria=criteria), hyper


def _ulrich_hyper_table(
    E: FormalComplex, window: tuple[int, int] | None
) -> CohomologyTable:
    """The hypercohomology table of E over the window (the default one
    for None), once mode ``both`` finds E Ulrich; the decomposers read
    nothing else."""
    verdict, hyper = _object_verdict(E, "both", window)
    if not verdict.passed:
        raise NotUlrich(f"not an Ulrich object, witness {verdict.witness()}")
    return hyper.table


def _require_rebuild(model: VarietyModel, table: CohomologyTable, units: str) -> None:
    """NotUlrich unless the table is the Eisenbud-Schreyer table of its
    twist-0 column, as every sum of shifted Ulrich units has."""
    if not _rebuilds(model.dim, table):
        raise NotUlrich(f"table does not match any sum of {units}")


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
    table = _ulrich_hyper_table(E, window)
    multiplicities = _unit_multiples(E.model.deg, table)
    _require_rebuild(E.model, table, "shifts of the structure sheaf")
    return multiplicities


def _product_sign_atom(atom: SheafDescriptor) -> str | None:
    if isinstance(atom, LineBundle) and atom.twists == (1, 0):
        return "+"
    if isinstance(atom, LineBundle) and atom.twists == (0, 1):
        return "-"
    return None


def quadric_decompose(E: FormalComplex, window: tuple[int, int] | None = None):
    """Spinor multiplicities of an Ulrich object on a quadric.

    Odd case (the threefold, whose one spinor S has h^0(S) = deg * rank):
    multiplicities h^i(E) / h^0(S) per degree, with an exact divisibility
    check.  Even case (the quadric surface, read on its product form,
    or P^1 x P^1 itself): multiplicities split by spinor type, the split
    read off from sections against the two rulings.  Either way the table
    must be the Eisenbud-Schreyer table of its twist-0 column.
    """
    model = E.model
    product_model = model.product_form_model or model
    even = product_model.factors == (1, 1)
    odd = model.spinor_signs == (None,) and model.dim == 3
    if not (even or odd):
        raise MalformedDescriptor(
            f"spinor decomposition is for quadric models, not {format_variety(model)}"
        )
    table = _ulrich_hyper_table(E, window)
    if odd:
        multiplicities = _unit_multiples(model.deg * model.spinor_rank, table)
        _require_rebuild(model, table, "shifted spinors")
        return multiplicities

    # even case: work on the product side where the rulings are visible
    split: dict[int, dict[str, int]] = {}
    for degree, desc in E.sheaves:
        if _holds_abstract(desc):
            raise Indeterminate(
                f"{format_sheaf(desc)} is abstract: a table alone cannot split"
                " the two rulings"
            )
        on_product = desc if product_model is model else product_form(desc, model)
        counts = {"+": 0, "-": 0}
        for atom, mult in flatten_atoms(on_product):
            if isinstance(atom, ExternalTensor):
                pieces = _external_tensor_atoms(atom.left, atom.right)
            else:
                pieces = [(atom, 1)]
            for piece, m in pieces:
                sign = _product_sign_atom(piece)
                if sign is None:
                    raise NonDivisibleRank(
                        f"{format_sheaf(piece)} is not a spinor line bundle"
                    )
                counts[sign] += mult * m
        # cross-check the split against sections along the two rulings
        for sign, ruling in (("+", (-1, 0)), ("-", (0, -1))):
            sections = _twisted_column(on_product, product_model, ruling).get(0, 0)
            if sections != counts[sign]:
                raise OracleDefect(
                    f"ruling sections {sections} disagree with the structural"
                    f" count {counts[sign]} in degree {degree}"
                )
        split[degree] = counts
    _require_rebuild(model, table, "shifted spinor lines")
    return {degree: dict(counts) for degree, counts in sorted(split.items())}


def ext_dimension(
    F: SheafDescriptor,
    G: SheafDescriptor,
    k: int,
    model: VarietyModel,
) -> int:
    """dim Ext^k(F, G) computed as h^k of (dual of F) tensor G.

    F must have a dual rule: a line bundle (spinor line bundles on the
    quadric surface count, through the product identification) or
    rank-one semistable data on a genus-one curve.  Where both sides
    are dualizable and the canonical twist is available, the value is
    cross-checked against Serre duality.
    """
    validate_descriptor(F, model)
    validate_descriptor(G, model)
    on_product = model.product_form_model
    if on_product is not None:
        return ext_dimension(product_form(F, model), product_form(G, model), k, on_product)
    value = _ext_primary(F, G, k, model)
    expected = _ext_serre_partner(F, G, k, model)
    if expected is not None and expected != value:
        raise OracleDefect(
            f"Serre duality cross-check failed:"
            f" ext^{k}({format_sheaf(F)}, {format_sheaf(G)}) = {value}"
            f" but the dual side gave {expected}"
        )
    return value


def _ext_primary(F, G, k: int, model: VarietyModel) -> int:
    if isinstance(F, DirectSum):
        return sum(
            mult * _ext_primary(atom, G, k, model) for atom, mult in flatten_atoms(F)
        )
    if isinstance(F, SemistableEC):  # O(k) is ss(1, k*d, trivial), as normalize_elliptic reads it
        line = LineBundle((F.degree // model.deg,))
        if normalize_elliptic(line, model) == F:
            F = line
    if isinstance(F, LineBundle):
        return _twisted_column(G, model, tuple(-a for a in F.twists)).get(k, 0)
    if model.kind == KIND_ELLIPTIC:
        return _ext_elliptic(F, G, k, model)
    raise NoDualRule(f"{format_sheaf(F)} has no dual rule here")


def _ext_elliptic(F, G, k: int, model: VarietyModel) -> int:
    """Ext out of rank-one semistable data that is no twist of O."""
    if not (isinstance(F, SemistableEC) and F.rank == 1):
        raise NoDualRule(f"{format_sheaf(F)} has no dual rule on a genus-one curve")
    total = 0
    for atom, mult in flatten_atoms(normalize_elliptic(G, model)):
        if not isinstance(atom, SemistableEC):
            raise NoDualRule(f"{format_sheaf(atom)} has no genus-one oracle")
        # whether F^dual tensor atom is trivial, read only at degree zero
        if atom.rank == 1 and atom == F:
            trivial = True
        elif (
            atom.rank == 1
            and atom.trivial_type is not None
            and F.trivial_type is not None
        ):
            trivial = False  # distinct rank-one data of the same degree
        else:
            trivial = None
        pair = _elliptic_pair(
            atom.degree - atom.rank * F.degree,
            trivial,
            f"hom data between {format_sheaf(F)} and {format_sheaf(atom)}",
        )
        total += mult * pair.get(k, 0)
    return total


def _ext_serre_partner(F, G, k: int, model: VarietyModel) -> int | None:
    if model.canonical_twists is None:
        return None
    try:
        twisted = tensor_line(F, model.canonical_twists, model)
        return _ext_primary(G, twisted, model.dim - k, model)
    except (NoDualRule, UnknownSlopeZero):
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
