"""Formal bounded complexes and the table-level triangle calculus.

A formal complex is a finite collection of cohomology sheaves indexed
by degree, plus optional opaque glue witnesses.  No differentials are
modeled: on curves every object splits, and elsewhere the checks below
only ever need the hypercohomology spectral sequence

    E2^{p,q} = H^p(H^q(E)(t))  =>  H^{p+q}(E(t))

whose E2 terms the sheaf oracles produce.  Without glue the complex is
split and the E2 sums are exact.  With glue the sums are upper bounds,
except that an all-zero column certifies vanishing outright.

Glue witnesses record a nonzero degree-two extension between adjacent
cohomology sheaves (from degree i to degree i-1), the shape arising
from two-term extensions on surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .cohomology import sheaf_table
from .errors import (
    DimensionMismatch,
    IncompleteTable,
    MalformedDescriptor,
    ModelMismatch,
    NoRestrictionRule,
    UnsupportedProduct,
)
from .sheaves import (
    DirectSum,
    LineBundle,
    SheafDescriptor,
    Spinor,
    direct_sum as sheaf_direct_sum,
    format_sheaf,
    tensor_line,
    validate_descriptor,
)
from .tables import CohomologyTable
from .variety import (
    KIND_PROJ,
    KIND_QUADRIC,
    VarietyModel,
    default_window,
    format_variety,
    hyperplane_model,
    product_proj,
    proj_space,
)

CERT_EXACT = "exact"
CERT_EXACT_BY_VANISHING = "exact-by-vanishing"
CERT_UPPER_BOUND_ONLY = "upper-bound-only"


@dataclass(frozen=True)
class GlueWitness:
    from_degree: int
    to_degree: int
    ext_degree: int = 2
    nonzero: bool = True


@dataclass(frozen=True)
class FormalComplex:
    model: VarietyModel
    sheaves: tuple[tuple[int, SheafDescriptor], ...]
    glue: tuple[GlueWitness, ...] = ()

    def sheaf_map(self) -> dict[int, SheafDescriptor]:
        return dict(self.sheaves)

    def support(self) -> list[int]:
        return sorted(degree for degree, _ in self.sheaves)

    def has_glue(self) -> bool:
        return any(w.nonzero for w in self.glue)


def formal_complex(
    model: VarietyModel,
    sheaves: Mapping[int, SheafDescriptor],
    glue: tuple[GlueWitness, ...] = (),
) -> FormalComplex:
    for desc in sheaves.values():
        validate_descriptor(desc, model)
    support = set(sheaves)
    for witness in glue:
        if witness.ext_degree != 2:
            raise MalformedDescriptor("glue witnesses carry degree-two extensions")
        if witness.from_degree - witness.to_degree != 1:
            raise MalformedDescriptor(
                "glue connects a degree to the one directly below it"
            )
        if witness.from_degree not in support or witness.to_degree not in support:
            raise MalformedDescriptor("glue endpoints must carry sheaves")
    ordered = tuple(sorted(sheaves.items()))
    return FormalComplex(model=model, sheaves=ordered, glue=tuple(glue))


def shift(E: FormalComplex, k: int) -> FormalComplex:
    """E[k], with E[k]^i = E^(i+k)."""
    return FormalComplex(
        model=E.model,
        sheaves=tuple(sorted((d - k, desc) for d, desc in E.sheaves)),
        glue=tuple(
            GlueWitness(w.from_degree - k, w.to_degree - k, w.ext_degree, w.nonzero)
            for w in E.glue
        ),
    )


def direct_sum_complexes(*parts: FormalComplex) -> FormalComplex:
    if not parts:
        raise MalformedDescriptor("empty direct sum of complexes")
    model = parts[0].model
    merged: dict[int, list[SheafDescriptor]] = {}
    glue: list[GlueWitness] = []
    for part in parts:
        if part.model != model:
            raise ModelMismatch("summands live on different models")
        for degree, desc in part.sheaves:
            merged.setdefault(degree, []).append(desc)
        glue.extend(part.glue)
    sheaves = {
        degree: sheaf_direct_sum(*descs) for degree, descs in merged.items()
    }
    return formal_complex(model, sheaves, tuple(glue))


@dataclass
class HyperTableResult:
    """Hypercohomology sums with a per-twist exactness certificate."""

    table: CohomologyTable
    certificates: dict[int, str]

    def certificate(self, t: int) -> str:
        return self.certificates[t]

    @property
    def overall(self) -> str:
        order = (CERT_EXACT, CERT_EXACT_BY_VANISHING, CERT_UPPER_BOUND_ONLY)
        worst = CERT_EXACT
        for cert in self.certificates.values():
            if order.index(cert) > order.index(worst):
                worst = cert
        return worst


def hyper_table(
    E: FormalComplex, window: tuple[int, int] | None = None
) -> HyperTableResult:
    """Spectral-sequence dimension sums h^k(E(t)) = sum_q h^(k-q) of the
    degree-q sheaf, with certificates as described in the module docstring."""
    if window is None:
        window = default_window(E.model)
    tables = {
        degree: sheaf_table(desc, E.model, window) for degree, desc in E.sheaves
    }
    return _hyper_from_tables(E, window, tables)


def _hyper_from_tables(
    E: FormalComplex,
    window: tuple[int, int],
    tables: Mapping[int, CohomologyTable],
) -> HyperTableResult:
    """``hyper_table`` from already assembled tables of the cohomology
    sheaves of E over the window, keyed by degree."""
    lo, hi = window
    entries: dict[tuple[int, int], int] = {}
    complete = all(t.complete for t in tables.values())
    for degree, table in tables.items():
        for (i, t), h in table.entries.items():
            key = (i + degree, t)
            entries[key] = entries.get(key, 0) + h
    if E.has_glue():
        nonzero = {t for (_i, t), h in entries.items() if h}
        certificates = {
            t: CERT_UPPER_BOUND_ONLY if t in nonzero else CERT_EXACT_BY_VANISHING
            for t in range(lo, hi + 1)
        }
    else:
        certificates = dict.fromkeys(range(lo, hi + 1), CERT_EXACT)
    table = CohomologyTable(window=window, entries=entries, complete=complete)
    from .chern import class_of, euler_supported
    from .errors import Indeterminate

    if euler_supported(E.model):
        try:
            table.num_class = class_of(E, E.model)
        except Indeterminate:
            pass
    return HyperTableResult(table=table, certificates=certificates)


def _rebuilds(
    model: VarietyModel,
    sheaves: Mapping[int, SheafDescriptor],
    window: tuple[int, int],
    table: CohomologyTable,
) -> bool:
    """Whether the split complex with these cohomology sheaves, keyed by
    degree, has the given table over the window."""
    rebuilt = hyper_table(formal_complex(model, sheaves), window)
    return rebuilt.table.same_entries(table)


@dataclass
class TriangleVerdict:
    """Outcome of the two-out-of-three transfer on a triangle E -> F -> G."""

    third_role: str
    certified: bool
    witness: tuple[str, int, int, int] | None
    implied_euler: dict[int, Fraction] | None
    chi_additive: bool | None


def triangle_2of3(
    model: VarietyModel,
    given: Mapping[str, CohomologyTable],
    third_table: CohomologyTable | None = None,
) -> TriangleVerdict:
    """Certify Ulrich-type vanishing for the missing vertex of a triangle.

    ``given`` holds exactly two of the roles E, F, G.  When both given
    tables vanish at the twists -1..-dim (every degree), the third
    vertex provably vanishes there too.  Euler columns for the third
    vertex follow from additivity chi(F) = chi(E) + chi(G); when a
    claimed third table is supplied its alternating sums are checked
    against that.
    """
    roles = set(given)
    if len(given) != 2 or not roles < {"E", "F", "G"}:
        raise MalformedDescriptor("exactly two of the roles E, F, G must be given")
    (third_role,) = {"E", "F", "G"} - roles
    n = model.dim
    ulrich_twists = range(-1, -n - 1, -1)
    for role, table in given.items():
        if not (table.window[0] <= -n and -1 <= table.window[1]):
            raise IncompleteTable(
                f"table for {role} does not cover twists -1..-{n}"
            )
    witness = None
    for role in sorted(given):
        hit = given[role].first_nonzero(ulrich_twists)
        if hit is not None:
            witness = (role,) + hit
            break
    lo = max(table.window[0] for table in given.values())
    hi = min(table.window[1] for table in given.values())
    implied: dict[int, Fraction] = {}
    for t in range(lo, hi + 1):
        chis = {role: Fraction(table.euler(t)) for role, table in given.items()}
        if third_role == "F":
            implied[t] = chis["E"] + chis["G"]
        elif third_role == "E":
            implied[t] = chis["F"] - chis["G"]
        else:
            implied[t] = chis["F"] - chis["E"]
    chi_additive = None
    if third_table is not None:
        chi_additive = all(
            third_table.euler(t) == implied[t]
            for t in range(
                max(lo, third_table.window[0]), min(hi, third_table.window[1]) + 1
            )
        )
    return TriangleVerdict(
        third_role=third_role,
        certified=witness is None,
        witness=witness,
        implied_euler=implied,
        chi_additive=chi_additive,
    )


TWIST_LEFT = "twist-left"
TWIST_RIGHT = "twist-right"


def external_product(
    E: FormalComplex, F: FormalComplex, side: str = TWIST_RIGHT
) -> FormalComplex:
    """Box product of complexes on two projective lines, one side twisted
    by the dimension of the other factor.

    The result lives on P^1 x P^1.  Degreewise, the cohomology sheaves
    are the convolved external tensors; on curves both inputs split, so
    no glue appears.
    """
    for part in (E, F):
        if part.model.kind != KIND_PROJ or part.model.dim != 1:
            raise UnsupportedProduct(
                "external products are implemented for projective-line factors"
            )
    if side not in (TWIST_LEFT, TWIST_RIGHT):
        raise MalformedDescriptor(f"unknown twist side {side!r}")
    line = proj_space(1)
    left = {
        d: tensor_line(desc, (1,), line) if side == TWIST_LEFT else desc
        for d, desc in E.sheaves
    }
    right = {
        d: tensor_line(desc, (1,), line) if side == TWIST_RIGHT else desc
        for d, desc in F.sheaves
    }
    target = product_proj(1, 1)
    merged: dict[int, list] = {}
    for dl, descl in left.items():
        for dr, descr in right.items():
            pairs = _external_tensor_atoms(descl, descr)
            merged.setdefault(dl + dr, []).extend(pairs)
    sheaves = {
        degree: sheaf_direct_sum(*parts) for degree, parts in merged.items()
    }
    return formal_complex(target, sheaves)


def _external_tensor_atoms(left: SheafDescriptor, right: SheafDescriptor):
    """O(a) x O(b) simplifies to O(a,b); sums distribute."""
    from .sheaves import flatten_atoms

    out = []
    for latom, lmult in flatten_atoms(left):
        for ratom, rmult in flatten_atoms(right):
            if isinstance(latom, LineBundle) and isinstance(ratom, LineBundle):
                atom = LineBundle((latom.twists[0], ratom.twists[0]))
            else:
                from .sheaves import ExternalTensor

                atom = ExternalTensor(latom, ratom)
            out.append((atom, lmult * rmult))
    return out


def restrict_hyperplane(E: FormalComplex) -> FormalComplex:
    """Restriction to a general hyperplane section, degreewise.

    Line bundles restrict to line bundles with the same twist; the
    quadric-threefold spinor restricts to the sum of the two spinor
    line bundles on the quadric surface.
    """
    target = hyperplane_model(E.model)
    sheaves = {
        degree: _restrict_descriptor(desc, E.model, target)
        for degree, desc in E.sheaves
    }
    return formal_complex(target, sheaves, E.glue)


def _restrict_descriptor(
    desc: SheafDescriptor, model: VarietyModel, target: VarietyModel
) -> SheafDescriptor:
    if isinstance(desc, LineBundle):
        return desc
    if isinstance(desc, Spinor) and model.kind == KIND_QUADRIC and model.dim == 3:
        return sheaf_direct_sum(Spinor("+"), Spinor("-"))
    if isinstance(desc, DirectSum):
        return DirectSum(
            tuple(
                (_restrict_descriptor(p, model, target), m) for p, m in desc.parts
            )
        )
    raise NoRestrictionRule(
        f"no hyperplane rule for {format_sheaf(desc)} on {format_variety(model)}"
    )


@dataclass
class PushforwardReport:
    """Finite-projection transfer onto projective space of the same
    dimension.  Twisted cohomology transfers unchanged; an Ulrich object
    pushes to a sum of shifts of the structure sheaf with recorded
    multiplicities."""

    target: VarietyModel
    table: CohomologyTable
    trivialized: bool
    multiplicities: dict[int, int] | None
    witness: tuple[int, int, int] | None
    reconstruction_ok: bool | None


def pushforward_finite(
    E: FormalComplex, target: VarietyModel | None = None
) -> PushforwardReport:
    if target is None:
        target = proj_space(E.model.dim)
    if target.kind != KIND_PROJ or target.dim != E.model.dim:
        raise DimensionMismatch(
            f"finite projection target must be pn:{E.model.dim},"
            f" got {format_variety(target)}"
        )
    window = default_window(E.model)
    hyper = hyper_table(E, window)
    n = E.model.dim
    witness = hyper.table.first_nonzero(range(-1, -n - 1, -1))
    if witness is not None:
        return PushforwardReport(
            target=target,
            table=hyper.table,
            trivialized=False,
            multiplicities=None,
            witness=witness,
            reconstruction_ok=None,
        )
    multiplicities = {
        i: h for i, h in sorted(hyper.table.column(0).items()) if h
    }
    rebuilt = {
        degree: sheaf_direct_sum((LineBundle((0,)), mult))
        for degree, mult in multiplicities.items()
    }
    return PushforwardReport(
        target=target,
        table=hyper.table,
        trivialized=True,
        multiplicities=multiplicities,
        witness=None,
        reconstruction_ok=_rebuilds(target, rebuilt, window, hyper.table),
    )
