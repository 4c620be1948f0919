"""Ulrich predicates, decomposition reporters, Ext dimensions, and the
two-sheaf extension construction.

A sheaf E on an n-dimensional model with hyperplane class H is Ulrich
exactly when H^i(E(-j)) = 0 for every i and every j in 1..n.  For a
formal complex the same vanishing is demanded of hypercohomology; the
spectral sequence with entries H^p(H^q(E)(-j)) collapses over these
twists, which is why the direct (hypercohomology) and sheafwise (each
cohomology sheaf separately) checks must always agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chern import euler_char, twist_class, ulrich_chern_solve
from .cohomology import _elliptic_pair, sheaf_column, sheaf_table
from .complexes import (
    CERT_EXACT_BY_VANISHING,
    FormalComplex,
    GlueWitness,
    HyperTableResult,
    _hyper_from_tables,
    _rebuilds,
    formal_complex,
    hyper_table as hyper_table,  # explicit re-export: perfbench reads ulrich.hyper_table
)
from .errors import (
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
    Spinor,
    direct_sum,
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
    KIND_PRODUCT,
    KIND_PROJ,
    KIND_QUADRIC,
    VarietyModel,
    default_window,
    format_variety,
    product_proj,
)


@dataclass
class Criterion:
    name: str
    twists: tuple[int, ...]
    passed: bool
    witness: tuple[int, int, int] | None = None
    note: str = ""


@dataclass
class UlrichVerdict:
    passed: bool
    mode: str
    criteria: list[Criterion] = field(default_factory=list)

    def witness(self):
        for criterion in self.criteria:
            if not criterion.passed:
                return criterion.witness
        return None

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
    ok: bool
    global_verdict: bool
    probed: tuple[int, int]
    witness: tuple[int, int, int] | None = None


def _globally_decided(desc: SheafDescriptor) -> bool:
    """Section counts of these descriptors are monotone in the twist, so
    a window probe decides initialization globally."""
    if isinstance(desc, (LineBundle, Spinor, SemistableEC)):
        return True
    if isinstance(desc, DirectSum):
        return all(_globally_decided(part) for part, _ in desc.parts)
    if isinstance(desc, ExternalTensor):
        return _globally_decided(desc.left) and _globally_decided(desc.right)
    return False


def is_initialized(
    desc: SheafDescriptor, model: VarietyModel, probe_depth: int | None = None
) -> InitializedReport:
    """Sections appear at twist zero and at no negative twist.

    Negative twists are probed down to ``probe_depth``, which must be
    nonnegative; for the closed descriptor classes the answer is
    provably global, for abstract data it is reported window-limited.
    """
    validate_descriptor(desc, model)
    depth = _probe_depth(model, probe_depth)
    return _initialized(desc, depth, sheaf_table(desc, model, (-depth, 0)))


def _probe_depth(model: VarietyModel, probe_depth: int | None) -> int:
    if probe_depth is None:
        return 2 * model.dim + 5
    if probe_depth < 0:
        raise MalformedDescriptor(
            f"probe depth must be a nonnegative integer, got {probe_depth}"
        )
    return probe_depth


def _initialized(
    desc: SheafDescriptor, depth: int, table: CohomologyTable
) -> InitializedReport:
    """``is_initialized`` read off a table of desc covering [-depth, 0]."""
    h0 = table.h(0, 0)
    if h0 == 0:
        witness = (0, 0, 0)
    else:
        witness = table.first_nonzero(range(-1, -depth - 1, -1), degrees={0})
    return InitializedReport(
        ok=witness is None,
        global_verdict=_globally_decided(desc),
        probed=(-depth, 0),
        witness=witness,
    )


def is_ulrich_sheaf(
    desc: SheafDescriptor,
    model: VarietyModel,
    window: tuple[int, int] | None = None,
    probe_depth: int | None = None,
) -> UlrichVerdict:
    """Full sheaf-level verdict.

    Criteria, in order: vanishing of all cohomology at twists -1..-dim,
    the initialization probe, the section count h^0 = deg * rank, and
    window-wide intermediate-cohomology vanishing as supporting
    evidence for the arithmetically-Cohen-Macaulay property.
    """
    validate_descriptor(desc, model)
    if window is None:
        window = default_window(model)
    table = sheaf_table(desc, model, window)
    return _sheaf_verdict(desc, model, window, probe_depth, table)


def _sheaf_verdict(
    desc: SheafDescriptor,
    model: VarietyModel,
    window: tuple[int, int],
    probe_depth: int | None,
    table: CohomologyTable,
) -> UlrichVerdict:
    """``is_ulrich_sheaf`` on the already assembled table of desc over
    the window."""
    n = model.dim
    ulrich_twists = tuple(range(-1, -n - 1, -1))
    criteria: list[Criterion] = []

    hit = table.first_nonzero(ulrich_twists)
    criteria.append(
        Criterion(
            name="twisted-vanishing",
            twists=ulrich_twists,
            passed=hit is None,
            witness=hit,
        )
    )

    depth = _probe_depth(model, probe_depth)
    probe_table = table
    if not (table.covers(-depth) and table.covers(0)):
        probe_table = sheaf_table(desc, model, (-depth, 0))
    init = _initialized(desc, depth, probe_table)
    criteria.append(
        Criterion(
            name="initialized",
            twists=tuple(range(init.probed[0], 0)),
            passed=init.ok,
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
            passed=h0 == expected,
            witness=None if h0 == expected else (0, 0, h0),
            note=f"h0 = {h0}, deg * rank = {expected}",
        )
    )

    middle = tuple(range(window[0], window[1] + 1))
    inner_degrees = set(range(1, n))
    acm_hit = table.first_nonzero(middle, degrees=inner_degrees) if inner_degrees else None
    criteria.append(
        Criterion(
            name="acm-window",
            twists=middle,
            passed=acm_hit is None,
            witness=acm_hit,
        )
    )

    return UlrichVerdict(
        passed=all(c.passed for c in criteria), mode="sheaf", criteria=criteria
    )


def is_ulrich_object(
    E: FormalComplex,
    mode: str = "both",
    window: tuple[int, int] | None = None,
    probe_depth: int | None = None,
) -> UlrichVerdict:
    """Complex-level verdict in the requested mode.

    direct: hypercohomology sums vanish at twists -1..-dim.  With glue
    present, an all-zero column is certified vanishing; a nonzero sum
    pins a nonvanishing cohomology sheaf, so failure is also honest.
    sheafwise: every cohomology sheaf passes the sheaf-level check.
    both: run the two and insist they agree.
    """
    return _object_verdict(E, mode, window, probe_depth)[0]


def _object_verdict(
    E: FormalComplex,
    mode: str,
    window: tuple[int, int] | None,
    probe_depth: int | None = None,
) -> tuple[UlrichVerdict, HyperTableResult | None]:
    """``is_ulrich_object`` together with the hyper table its direct
    check read (None in sheafwise mode).  Each cohomology sheaf's table
    is built once and read by both checks."""
    if mode not in ("direct", "sheafwise", "both"):
        raise MalformedDescriptor(f"unknown mode {mode!r}")
    if window is None:
        window = default_window(E.model)
    n = E.model.dim
    ulrich_twists = tuple(range(-1, -n - 1, -1))
    tables: dict[int, CohomologyTable] = {}

    def table_of(degree: int, desc: SheafDescriptor) -> CohomologyTable:
        if degree not in tables:
            tables[degree] = sheaf_table(desc, E.model, window)
        return tables[degree]

    def direct_verdict() -> tuple[UlrichVerdict, HyperTableResult]:
        hyper = _hyper_from_tables(
            E, window, {degree: table_of(degree, desc) for degree, desc in E.sheaves}
        )
        hit = hyper.table.first_nonzero(ulrich_twists)
        note = ""
        if E.has_glue() and hit is None:
            note = CERT_EXACT_BY_VANISHING
        criterion = Criterion(
            name="hyper-vanishing",
            twists=ulrich_twists,
            passed=hit is None,
            witness=hit,
            note=note,
        )
        verdict = UlrichVerdict(passed=hit is None, mode="direct", criteria=[criterion])
        return verdict, hyper

    def sheafwise_verdict() -> UlrichVerdict:
        criteria: list[Criterion] = []
        passed = True
        for degree, desc in E.sheaves:
            sub = _sheaf_verdict(
                desc, E.model, window, probe_depth, table_of(degree, desc)
            )
            passed = passed and sub.passed
            for criterion in sub.criteria:
                criteria.append(
                    Criterion(
                        name=f"degree {degree}: {criterion.name}",
                        twists=criterion.twists,
                        passed=criterion.passed,
                        witness=criterion.witness,
                        note=criterion.note,
                    )
                )
        return UlrichVerdict(passed=passed, mode="sheafwise", criteria=criteria)

    if mode == "direct":
        return direct_verdict()
    if mode == "sheafwise":
        return sheafwise_verdict(), None
    direct, hyper = direct_verdict()
    sheafwise = sheafwise_verdict()
    if direct.passed != sheafwise.passed:
        raise ModeDisagreement(
            f"direct verdict {direct.passed} but sheafwise verdict"
            f" {sheafwise.passed}; this is a defect, witnesses:"
            f" {direct.witness()} / {sheafwise.witness()}"
        )
    verdict = UlrichVerdict(
        passed=direct.passed,
        mode="both",
        criteria=direct.criteria + sheafwise.criteria,
    )
    return verdict, hyper


def pn_decompose(
    E: FormalComplex, window: tuple[int, int] | None = None
) -> dict[int, int]:
    """Shift multiplicities of an Ulrich object on projective space.

    The object must be a sum of shifts of the structure sheaf; the
    multiplicity in degree i is h^i(E), and the reconstruction is
    required to reproduce the whole table.
    """
    if E.model.kind != KIND_PROJ:
        raise MalformedDescriptor("decomposition over the structure sheaf needs pn")
    if window is None:
        window = default_window(E.model)
    verdict, hyper = _object_verdict(E, "both", window)
    if not verdict.passed:
        raise NotUlrich(f"not an Ulrich object, witness {verdict.witness()}")
    multiplicities = dict(sorted(hyper.table.column(0).items()))
    rebuilt = {
        degree: direct_sum((LineBundle((0,)), mult))
        for degree, mult in multiplicities.items()
    }
    if multiplicities and not _rebuilds(E.model, rebuilt, window, hyper.table):
        raise NotUlrich(
            "table does not match any sum of shifts of the structure sheaf"
        )
    return multiplicities


def _product_sign_atom(atom: SheafDescriptor) -> str | None:
    if isinstance(atom, LineBundle) and atom.twists == (1, 0):
        return "+"
    if isinstance(atom, LineBundle) and atom.twists == (0, 1):
        return "-"
    if isinstance(atom, ExternalTensor):
        left, right = atom.left, atom.right
        if isinstance(left, LineBundle) and isinstance(right, LineBundle):
            return _product_sign_atom(LineBundle((left.twists[0], right.twists[0])))
    return None


def quadric_decompose(E: FormalComplex, window: tuple[int, int] | None = None):
    """Spinor multiplicities of an Ulrich object on a quadric.

    Odd case (dimension 3): multiplicities h^i(E) / h^0(S) per degree,
    with an exact divisibility check.  Even case (dimension 2, either
    the quadric model or the product model): multiplicities split by
    spinor type, the split read off from sections against the two
    rulings.  Both reconstructions must be table-identical.
    """
    model = E.model
    even = (model.kind == KIND_QUADRIC and model.dim == 2) or (
        model.kind == KIND_PRODUCT and model.factors == (1, 1)
    )
    odd = model.kind == KIND_QUADRIC and model.dim == 3
    if not (even or odd):
        raise MalformedDescriptor(
            f"spinor decomposition is for quadric models, not {format_variety(model)}"
        )
    if window is None:
        window = default_window(model)
    verdict, hyper = _object_verdict(E, "both", window)
    if not verdict.passed:
        raise NotUlrich(f"not an Ulrich object, witness {verdict.witness()}")

    if odd:
        spinor_sections = sheaf_column(Spinor(None), model, 0)[0]
        multiplicities: dict[int, int] = {}
        for degree, h in sorted(hyper.table.column(0).items()):
            if h % spinor_sections:
                raise NonDivisibleRank(
                    f"h^{degree}(E) = {h} is not a multiple of {spinor_sections}"
                )
            multiplicities[degree] = h // spinor_sections
        rebuilt = {
            degree: direct_sum((Spinor(None), mult))
            for degree, mult in multiplicities.items()
        }
        if multiplicities and not _rebuilds(model, rebuilt, window, hyper.table):
            raise NotUlrich("table does not match any sum of shifted spinors")
        return multiplicities

    # even case: work on the product side where the rulings are visible
    product_model = product_proj(1, 1)
    split: dict[int, dict[str, int]] = {}
    for degree, desc in E.sheaves:
        on_product = (
            product_form(desc, model) if model.kind == KIND_QUADRIC else desc
        )
        counts = {"+": 0, "-": 0}
        for atom, mult in flatten_atoms(on_product):
            sign = _product_sign_atom(atom)
            if sign is None:
                raise NonDivisibleRank(
                    f"{format_sheaf(atom)} is not a spinor line bundle"
                )
            counts[sign] += mult
        # cross-check the split against sections along the two rulings
        for sign, ruling in (("+", (-1, 0)), ("-", (0, -1))):
            twisted = tensor_line(on_product, ruling, product_model)
            sections = sheaf_column(twisted, product_model, 0).get(0, 0)
            if sections != counts[sign]:
                raise OracleDefect(
                    f"ruling sections {sections} disagree with the structural"
                    f" count {counts[sign]} in degree {degree}"
                )
        split[degree] = counts
    atoms = {"+": LineBundle((1, 0)), "-": LineBundle((0, 1))}
    if model.kind == KIND_QUADRIC:
        atoms = {"+": Spinor("+"), "-": Spinor("-")}
    rebuilt_sheaves = {}
    for degree, counts in split.items():
        parts = [(atoms[sign], mult) for sign, mult in counts.items() if mult]
        if parts:
            rebuilt_sheaves[degree] = direct_sum(*parts)
    if rebuilt_sheaves and not _rebuilds(model, rebuilt_sheaves, window, hyper.table):
        raise NotUlrich("table does not match any sum of shifted spinor lines")
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
    if model.kind == KIND_QUADRIC and model.dim == 2:
        return ext_dimension(
            product_form(F, model),
            product_form(G, model),
            k,
            product_proj(1, 1),
        )
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
    if model.kind == KIND_ELLIPTIC:
        return _ext_elliptic(F, G, k, model)
    if not isinstance(F, LineBundle):
        raise NoDualRule(f"{format_sheaf(F)} has no dual rule here")
    if model.kind == KIND_PRODUCT:
        shifted = tensor_line(G, tuple(-a for a in F.twists), model)
        return sheaf_column(shifted, model, 0).get(k, 0)
    return sheaf_column(G, model, -F.twists[0]).get(k, 0)


def _ext_elliptic(F, G, k: int, model: VarietyModel) -> int:
    f = normalize_elliptic(F, model)
    if not isinstance(f, SemistableEC) or f.rank != 1:
        raise NoDualRule(f"{format_sheaf(F)} has no dual rule on a genus-one curve")
    total = 0
    for atom, mult in flatten_atoms(normalize_elliptic(G, model)):
        if not isinstance(atom, SemistableEC):
            raise NoDualRule(f"{format_sheaf(atom)} has no genus-one oracle")
        # whether F^dual tensor atom is trivial, read only at degree zero
        if atom.rank == 1 and atom == f:
            trivial = True
        elif (
            atom.rank == 1
            and atom.trivial_type is not None
            and f.trivial_type is not None
        ):
            trivial = False  # distinct rank-one data of the same degree
        else:
            trivial = None
        pair = _elliptic_pair(
            atom.degree - atom.rank * f.degree,
            trivial,
            f"hom data between {format_sheaf(F)} and {format_sheaf(atom)}",
        )
        total += mult * pair.get(k, 0)
    return total


def _canonical_descriptor(model: VarietyModel) -> SheafDescriptor | None:
    if model.kind == KIND_PROJ:
        return LineBundle((-model.dim - 1,))
    if model.kind == KIND_QUADRIC:
        return LineBundle((-model.dim,))
    if model.kind == KIND_PRODUCT:
        n1, n2 = model.factors
        return LineBundle((-n1 - 1, -n2 - 1))
    if model.kind == KIND_ELLIPTIC:
        return SemistableEC(1, 0, True)
    return None


def _ext_serre_partner(F, G, k: int, model: VarietyModel) -> int | None:
    canonical = _canonical_descriptor(model)
    if canonical is None:
        return None
    try:
        if model.kind == KIND_ELLIPTIC:
            twisted = normalize_elliptic(F, model)  # canonical twist is trivial
        else:
            twisted = tensor_line(F, canonical.twists, model)
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
    glue = (GlueWitness(0, -1, 2, True),) if m == 2 else ()
    return formal_complex(model, {0: F, -m + 1: G}, glue)


def abstract_ulrich_sheaf(
    model: VarietyModel, rank: int, label: str = "ulrich-witness"
) -> AbstractSheaf:
    """Abstract sheaf carrying the exact table and class every rank-r
    Ulrich sheaf on the given surface model must have.

    The Euler polynomial of the solved class factors as
    (r*d/2)(t+1)(t+2), which is positive outside the two vanishing
    twists; sections sit in degree 0 on the right of the window and in
    degree 2 on the left, as forced for an initialized sheaf with
    vanishing intermediate cohomology.
    """
    if rank < 1:
        raise MalformedDescriptor(f"rank must be >= 1, got {rank}")
    num_class = ulrich_chern_solve(model, rank)
    window = default_window(model)
    entries: dict[tuple[int, int], int] = {}
    for t in range(window[0], window[1] + 1):
        chi = euler_char(twist_class(num_class, t))
        if chi == 0:
            continue
        if chi != int(chi) or chi < 0:
            raise OracleDefect(f"non-realizable Euler value {chi} at twist {t}")
        entries[(0 if t >= 0 else 2, t)] = int(chi)
    table = CohomologyTable(window=window, entries=entries, num_class=num_class)
    return AbstractSheaf(rank=rank, label=label, num_class=num_class, table=table)
