"""Formal bounded complexes and the table-level triangle calculus.

A formal complex is a finite collection of cohomology sheaves indexed
by degree, plus optional opaque glue witnesses.  No differentials are
modeled: on curves every object splits, and elsewhere the checks below
only ever need the hypercohomology spectral sequence

    E2^{p,q} = H^p(H^q(E)(t))  =>  H^{p+q}(E(t))

whose E2 terms the sheaf oracles produce.  Without glue the complex is
split and the E2 sums are exact.  With glue the sums are upper bounds,
except that an all-zero column certifies vanishing outright.

A reader that takes a descriptor or a complex goes through
``sheaves_of``: a descriptor is the one sheaf in degree 0, a complex its
(degree, sheaf) pairs.  The one E2 sum h^k = sum_q h^(k-q)(H^q) of their
columns at one twist is ``hyper_column``: Hom^*(O(v), E) = H^*(E(-v)),
so E is Ulrich exactly when it vanishes at O(1..n).  Its first nonzero
column over O(1..n), ``first_nonvanishing``, is the direct Ulrich
criterion and orthogonal membership alike; neither builds a table.

Glue witnesses record a nonzero degree-two extension between adjacent
cohomology sheaves (from degree i to degree i-1), the shape arising
from two-term extensions on surfaces.  The extension degree is always
two, so a witness does not carry it.
"""

from __future__ import annotations

from collections.abc import Mapping

from ._values import Frozen, Record, set_field
from .cohomology import _twisted_column, sheaf_table, ulrich_table
from .errors import (
    IncompleteTable,
    MalformedDescriptor,
    ModelMismatch,
    NonDivisibleRank,
    UnsupportedProduct,
)
from .sheaves import (
    ExternalTensor,
    SheafDescriptor,
    direct_sum as sheaf_direct_sum,
    restricted,
    tensor_line,
    tensor_parts,
    validate_descriptor,
)
from .tables import CohomologyTable, shifted_sum
from .variety import (
    KIND_PROJ,
    VarietyModel,
    default_window,
    hyperplane_model,
    product_proj,
    proj_space,
)

CERT_EXACT = "exact"
CERT_EXACT_BY_VANISHING = "exact-by-vanishing"
CERT_UPPER_BOUND_ONLY = "upper-bound-only"


class GlueWitness(Frozen):
    """A degree-two extension from the sheaf in ``from_degree`` to the
    one directly below it; degree two is the only one a witness records."""

    __slots__ = ("from_degree", "to_degree", "nonzero")

    def __init__(self, from_degree: int, to_degree: int, nonzero: bool = True) -> None:
        set_field(self, "from_degree", from_degree)
        set_field(self, "to_degree", to_degree)
        set_field(self, "nonzero", nonzero)


class FormalComplex(Frozen):
    __slots__ = ("model", "sheaves", "glue")

    def __init__(
        self,
        model: VarietyModel,
        sheaves: tuple[tuple[int, SheafDescriptor], ...],
        glue: tuple[GlueWitness, ...] = (),
    ) -> None:
        """One sheaf per degree, held sorted by degree; each glue witness
        joins a degree to the one directly below it, both carrying sheaves."""
        set_field(self, "model", model)
        set_field(self, "glue", glue)
        degrees = [degree for degree, _ in sheaves]
        if len(set(degrees)) != len(degrees):
            raise MalformedDescriptor(f"one sheaf per degree, got degrees {degrees}")
        set_field(self, "sheaves", tuple(sorted(sheaves)))
        for witness in glue:
            if witness.from_degree - witness.to_degree != 1:
                raise MalformedDescriptor(
                    "glue connects a degree to the one directly below it"
                )
            if witness.from_degree not in degrees or witness.to_degree not in degrees:
                raise MalformedDescriptor("glue endpoints must carry sheaves")

    def sheaf_map(self) -> dict[int, SheafDescriptor]:
        return dict(self.sheaves)

    def support(self) -> list[int]:
        return [degree for degree, _ in self.sheaves]

    def has_glue(self) -> bool:
        return any(w.nonzero for w in self.glue)


def formal_complex(
    model: VarietyModel,
    sheaves: Mapping[int, SheafDescriptor],
    glue: tuple[GlueWitness, ...] = (),
) -> FormalComplex:
    for desc in sheaves.values():
        validate_descriptor(desc, model)
    return FormalComplex(model=model, sheaves=tuple(sheaves.items()), glue=tuple(glue))


def sheaves_of(obj, model: VarietyModel) -> tuple[tuple[int, SheafDescriptor], ...]:
    """The (degree, sheaf) pairs of a descriptor or formal complex on the
    model, every sheaf validated: a descriptor is the one pair (0, obj)."""
    if isinstance(obj, FormalComplex):
        if obj.model != model:
            raise ModelMismatch("complex lives on a different model")
        pairs = obj.sheaves
    else:
        pairs = ((0, obj),)
    for _, desc in pairs:
        validate_descriptor(desc, model)
    return pairs


def hyper_column(pairs, model: VarietyModel, twists: tuple[int, ...]) -> dict[int, int]:
    """Nonzero h^k(E x O(twists)) of the (degree, sheaf) pairs of E, as
    ``sheaves_of`` gives them: the E2 sums h^k = sum_q h^(k-q) of their
    twisted columns.  A zero sum is dropped: abstract tables may hold
    negative entries."""
    sums: dict[int, int] = {}
    for degree, desc in pairs:
        for i, h in _twisted_column(desc, model, twists).items():
            sums[i + degree] = sums.get(i + degree, 0) + h
    return {k: h for k, h in sums.items() if h}


def first_nonvanishing(pairs, model: VarietyModel, probes):
    """The first nonzero ``hyper_column`` of the pairs over (label, twists)
    probes, read in order: (label, k, twist, h^k) at its lowest degree k,
    the twist an int where one is given; None where every column vanishes."""
    for label, twists in probes:
        column = hyper_column(pairs, model, twists)
        if column:
            k = min(column)
            return label, k, twists if len(twists) > 1 else twists[0], column[k]
    return None


def shift(E: FormalComplex, k: int) -> FormalComplex:
    """E[k], with E[k]^i = E^(i+k)."""
    return FormalComplex(
        model=E.model,
        sheaves=tuple((d - k, desc) for d, desc in E.sheaves),
        glue=tuple(
            GlueWitness(w.from_degree - k, w.to_degree - k, w.nonzero)
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


class HyperTableResult(Record):
    """Hypercohomology sums and the exactness certificate of each twist.

    Without glue every twist is ``exact``.  With glue a twist is
    ``upper-bound-only`` where its column is nonzero and
    ``exact-by-vanishing`` where it vanishes; ``overall`` applies the
    same rule to the whole table, read off its stored entries: a table
    stores nonzero entries inside its window only.
    """

    __slots__ = ("table", "glued")

    def __init__(self, table: CohomologyTable, glued: bool) -> None:
        self.table = table
        self.glued = glued

    def _certify(self, nonzero: bool) -> str:
        if not self.glued:
            return CERT_EXACT
        return CERT_UPPER_BOUND_ONLY if nonzero else CERT_EXACT_BY_VANISHING

    def certificate(self, t: int) -> str:
        return self._certify(bool(self.table.column(t)))

    @property
    def overall(self) -> str:
        return self._certify(bool(self.table.entries))


def hyper_table(
    E: FormalComplex, window: tuple[int, int] | None = None
) -> HyperTableResult:
    """Spectral-sequence dimension sums h^k(E(t)) = sum_q h^(k-q) of the
    degree-q sheaf, with certificates as described in the module docstring."""
    if window is None:
        window = default_window(E.model)
    tables = ((degree, sheaf_table(desc, E.model, window)) for degree, desc in E.sheaves)
    return HyperTableResult(table=shifted_sum(window, tables), glued=E.has_glue())


def _unit_multiples(sections: int, table: CohomologyTable) -> dict[int, int]:
    """Multiplicity of the Ulrich unit in each degree, read from the
    twist-0 column of an object's table as h^q(E) over the unit's
    ``sections`` (deg * rank, by Eisenbud-Schreyer)."""
    multiplicities: dict[int, int] = {}
    for degree, h in table.column(0).items():
        if h % sections:
            raise NonDivisibleRank(f"h^{degree}(E) = {h} is not a multiple of {sections}")
        multiplicities[degree] = h // sections
    return multiplicities


def _rebuilds(n: int, table: CohomologyTable) -> bool:
    """Whether the table of an object of dimension n is the one
    ``ulrich_table`` reads off its twist-0 column (Eisenbud-Schreyer),
    built on the table's own spans: equal tables have equal entries.  On
    a piece table that decides the whole window: both tables are
    polynomials of degree at most n on each piece (the rebuild's one
    break, -n, is a cut of the layout), so two that agree at the first
    n + 1 twists of every piece agree everywhere.  The rebuild reads no
    oracle, so the check stays independent of the oracles it checks."""
    return ulrich_table(n, table.column(0), table.window, table.spans) == table


class TriangleVerdict(Record):
    """Outcome of the two-out-of-three transfer on a triangle E -> F -> G;
    ``implied_euler`` holds the third vertex's integer Euler sums."""

    __slots__ = ("third_role", "witness", "implied_euler", "chi_additive")

    def __init__(
        self,
        third_role: str,
        witness: tuple[str, int, int, int] | None,
        implied_euler: dict[int, int] | None,
        chi_additive: bool | None,
    ) -> None:
        self.third_role = third_role
        self.witness = witness
        self.implied_euler = implied_euler
        self.chi_additive = chi_additive

    @property
    def certified(self) -> bool:
        return self.witness is None


def triangle_2of3(
    model: VarietyModel,
    given: Mapping[str, CohomologyTable],
    third_table: CohomologyTable | None = None,
) -> TriangleVerdict:
    """Certify Ulrich-type vanishing for the missing vertex of a triangle.

    ``given`` holds exactly two of the roles E, F, G.  When both given
    tables vanish at the twists -1..-dim (every degree), the third
    vertex provably vanishes there too.  Euler columns for the third
    vertex follow from additivity chi(E) - chi(F) + chi(G) = 0; when a
    claimed third table is supplied its alternating sums are checked
    against that.
    """
    roles = set(given)
    if len(given) != 2 or not roles < {"E", "F", "G"}:
        raise MalformedDescriptor("exactly two of the roles E, F, G must be given")
    (third_role,) = {"E", "F", "G"} - roles
    n = model.dim
    for role, table in given.items():
        if not (table.window[0] <= -n and -1 <= table.window[1]):
            raise IncompleteTable(
                f"table for {role} does not cover twists -1..-{n}"
            )
    witness = None
    for role in sorted(given):
        hit = given[role].first_nonzero(model.ulrich_twists)
        if hit is not None:
            witness = (role,) + hit
            break
    lo = max(table.window[0] for table in given.values())
    hi = min(table.window[1] for table in given.values())
    sign = {"E": 1, "F": -1, "G": 1}  # chi(E) - chi(F) + chi(G) = 0
    (sa, a), (sb, b) = ((sign[role], table.euler_sums(lo, hi)) for role, table in given.items())
    if None in a or None in b:  # a piece table: refused where a walk over t meets it
        for t in range(lo, hi + 1):
            for table in given.values():
                table.euler(t)
    third = -sign[third_role]
    implied = dict(zip(range(lo, hi + 1), [third * (sa * x + sb * y) for x, y in zip(a, b)]))
    chi_additive = None
    if third_table is not None:
        first, last = max(lo, third_table.window[0]), min(hi, third_table.window[1])
        chi_additive = all(
            (third_table.euler(t) if e is None else e) == implied[t]
            for t, e in zip(range(first, last + 1), third_table.euler_sums(first, last))
        )
    return TriangleVerdict(
        third_role=third_role,
        witness=witness,
        implied_euler=implied,
        chi_additive=chi_additive,
    )


TWIST_LEFT = "twist-left"
TWIST_RIGHT = "twist-right"


def external_product(
    E: FormalComplex, F: FormalComplex, side: str = TWIST_RIGHT
) -> FormalComplex:
    """Box product on P^a x P^b of complexes on P^a and P^b, one side
    twisted by the dimension of the other factor: Ulrich factors give an
    Ulrich product (Eisenbud-Schreyer 2003, Prop. 2.6).  Degreewise the
    sheaves are the convolved external tensors, and a glue witness of
    either factor glues the same degrees beside each degree of the other.
    """
    for part in (E, F):
        if part.model.kind != KIND_PROJ:
            raise UnsupportedProduct(
                "external products are implemented for projective-space factors"
            )
    if side not in (TWIST_LEFT, TWIST_RIGHT):
        raise MalformedDescriptor(f"unknown twist side {side!r}")
    a, b = E.model.dim, F.model.dim
    left = {
        d: tensor_line(desc, (b,), E.model) if side == TWIST_LEFT else desc
        for d, desc in E.sheaves
    }
    right = {
        d: tensor_line(desc, (a,), F.model) if side == TWIST_RIGHT else desc
        for d, desc in F.sheaves
    }
    merged: dict[int, list] = {}
    for dl, descl in left.items():
        for dr, descr in right.items():
            merged.setdefault(dl + dr, []).extend(tensor_parts(ExternalTensor(descl, descr)))
    sheaves = {
        degree: sheaf_direct_sum(*parts) for degree, parts in merged.items()
    }
    glue = tuple(
        GlueWitness(w.from_degree + d, w.to_degree + d, w.nonzero)
        for X, Y in ((E, F), (F, E)) for w in X.glue for d, _ in Y.sheaves
    )
    return formal_complex(product_proj(a, b), sheaves, glue)


def restrict_hyperplane(E: FormalComplex) -> FormalComplex:
    """Restriction to a general hyperplane section, sheaf by sheaf (``restricted``)."""
    target = hyperplane_model(E.model)
    sheaves = {degree: restricted(desc, E.model, target) for degree, desc in E.sheaves}
    return formal_complex(target, sheaves, E.glue)


class PushforwardReport(Record):
    """Finite-projection transfer onto projective space of the same
    dimension.  Twisted cohomology transfers unchanged; an Ulrich object
    pushes to a sum of shifts of the structure sheaf with recorded
    multiplicities."""

    __slots__ = ("target", "table", "multiplicities", "witness", "reconstruction_ok")

    def __init__(
        self,
        target: VarietyModel,
        table: CohomologyTable,
        multiplicities: dict[int, int] | None,
        witness: tuple[int, int, int] | None,
        reconstruction_ok: bool | None,
    ) -> None:
        self.target = target
        self.table = table
        self.multiplicities = multiplicities
        self.witness = witness
        self.reconstruction_ok = reconstruction_ok

    @property
    def trivialized(self) -> bool:
        return self.witness is None


def pushforward_finite(E: FormalComplex) -> PushforwardReport:
    """Push E along a finite projection to the projective space of its
    own dimension, the only target there is; the report names it."""
    target = proj_space(E.model.dim)
    table = hyper_table(E, default_window(E.model)).table
    witness = table.first_nonzero(E.model.ulrich_twists)
    vanishes = witness is None
    return PushforwardReport(
        target=target,
        table=table,
        multiplicities=_unit_multiples(target.deg, table) if vanishes else None,
        witness=witness,
        reconstruction_ok=_rebuilds(E.model.dim, table) if vanishes else None,
    )
