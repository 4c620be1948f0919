"""Numerical K-group classes, the rank gate for classical generation,
exceptional collections, and orthogonal membership.

The gate is one-sided: a generator's summand classes must span the
numerical K-lattice, so a deficient span certifies non-generation and a
full one asserts nothing.  As H^*(E(-j)) = Ext^*(O(j), E), E is Ulrich
exactly when it lies in <O(1), ..., O(n)>^perp, read one column per
member.  Where O(1..n) is exceptional it generates an admissible
subcategory, so a deficient gate on it certifies a nonzero orthogonal,
that is a nonzero Ulrich object (Bondal-Kapranov 1989).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._values import Frozen, Record, set_field
from .chern import class_of
from .complexes import first_nonvanishing, hyper_column, sheaves_of
from .errors import (
    Indeterminate,
    MalformedDescriptor,
    ModelMismatch,
    NoDualRule,
    UnknownK0Rank,
    UnsupportedModel,
)
from .sheaves import (
    LineBundle,
    SemistableEC,
    SheafDescriptor,
    Spinor,
    format_sheaf,
    line_twists,
    validate_descriptor,
)
from .tables import alternating_sum
from .ulrich import UlrichVerdict, _ext_column, is_ulrich_sheaf
from .variety import (
    KIND_ELLIPTIC,
    KIND_PROJ,
    VarietyModel,
    format_variety,
)


class K0Class(Frozen):
    """Coordinate vector of a class in the numerical K-group.

    Coordinates are model-specific pairings chosen to be injective on
    the lattice: chi(E x L) for L in ``model.k0_box``, a basis of line
    bundles on projective spaces and their products; (rank, degree) on a
    genus-one curve.  All are ints but that degree e1 * d, a Fraction.
    """

    __slots__ = ("model", "coords")

    def __init__(self, model: VarietyModel, coords: tuple[int | Fraction, ...]) -> None:
        set_field(self, "model", model)
        set_field(self, "coords", coords)


def k0_class(obj, model: VarietyModel) -> K0Class:
    """Class of a descriptor or formal complex in lattice coordinates:
    chi(E x L) for L in ``model.k0_box``, the alternating sum of the
    hyper column there, or (rank, degree) from ``class_of`` on a
    genus-one curve.  A cohomology sheaf in degree q counts with sign
    (-1)^q, so the class of E[1] is minus the class of E."""
    if model.kind == KIND_ELLIPTIC:
        cls = class_of(obj, model)
        return K0Class(model, (cls.r, cls.e1 * model.deg))
    pairs = sheaves_of(obj, model)
    box = model.k0_box
    if box is None:
        raise Indeterminate(
            f"no K-group coordinates implemented for {format_variety(model)}"
        )
    columns = (hyper_column(pairs, model, twists) for twists in box)
    return K0Class(model, tuple(alternating_sum(c) for c in columns))


def lattice_rank(vectors: list[tuple[int | Fraction, ...]]) -> int:
    """Rank of the span, by fraction-free elimination over the integers."""
    if not vectors:
        return 0
    width = len(vectors[0])
    rows = []
    for vec in vectors:
        if len(vec) != width:
            raise MalformedDescriptor("coordinate vectors of unequal length")
        denom = 1
        for entry in vec:
            denom = denom * entry.denominator // gcd(denom, entry.denominator)
        rows.append([int(entry * denom) for entry in vec])
    rank = 0
    col = 0
    while rank < len(rows) and col < width:
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col]
                rows[r] = [
                    lead * rows[r][j] - factor * rows[rank][j] for j in range(width)
                ]
        rank += 1
        col += 1
    return rank


class GateResult(Record):
    __slots__ = ("rank", "needed")

    def __init__(self, rank: int, needed: int) -> None:
        self.rank = rank
        self.needed = needed

    @property
    def passed(self) -> bool:
        return self.rank == self.needed

    @property
    def verdict(self) -> str:
        return "FullRank" if self.passed else f"DeficientRank{{{self.rank}}}"


def generator_gate(descs: list, model: VarietyModel) -> GateResult:
    """Necessary lattice condition for the listed objects to generate.

    The classes of the listed descriptors or complexes must span the
    full numerical K-group.  A deficient span certifies that the sum
    is not a classical generator; a full span asserts nothing further.
    """
    if model.k0_rank is None:
        raise UnknownK0Rank(
            f"numerical K-group rank not recorded for {format_variety(model)}"
        )
    vectors = [k0_class(desc, model).coords for desc in descs]
    return GateResult(rank=lattice_rank(vectors), needed=model.k0_rank)


class Collection(Frozen):
    __slots__ = ("model", "members", "kind")

    def __init__(
        self, model: VarietyModel, members: tuple[SheafDescriptor, ...], kind: str = "custom"
    ) -> None:
        set_field(self, "model", model)
        set_field(self, "members", members)
        set_field(self, "kind", kind)


def beilinson_collection(model: VarietyModel) -> Collection:
    """The twist collection O, O(1), ..., O(n) on projective space."""
    if model.kind != KIND_PROJ:
        raise UnsupportedModel("the twist collection lives on projective space")
    members = tuple(LineBundle((k,)) for k in range(model.dim + 1))
    return register_collection(Collection(model, members, kind="Beilinson"))


def kapranov_collection(model: VarietyModel) -> Collection:
    """Kapranov's collection on a quadric: O, then the spinor bundles,
    then O(1), ..., O(n-1); validation refuses spinors it has no table for."""
    if not model.spinor_signs:
        raise UnsupportedModel("Kapranov's collection lives on quadrics")
    spinors = tuple(Spinor(sign) for sign in model.spinor_signs)
    twists = tuple(LineBundle((k,)) for k in range(1, model.dim))
    members = (LineBundle((0,)), *spinors, *twists)
    return register_collection(Collection(model, members, kind="Kapranov"))


def register_collection(collection: Collection) -> Collection:
    """Verify the no-backward-maps property where an Ext oracle exists.

    For members E_i, E_j with i < j, every Ext^k(E_j, E_i), k = 0..n,
    must vanish: one Serre-checked column per pair, walked up from k = 0.
    Pairs whose source has no dual rule (the odd spinor) are skipped;
    those pairs carry the standard spinor orthogonality.  A backward map
    is a fault of the given list: MalformedDescriptor at its lowest k.
    """
    members, model = collection.members, collection.model
    for member in members:
        validate_descriptor(member, model)
    for j in range(len(members)):
        for i in range(j):
            try:
                column = _ext_column(members[j], members[i], model)
            except NoDualRule:
                continue
            for k in range(model.dim + 1):
                if column.get(k):
                    raise MalformedDescriptor(
                        f"backward map: Ext^{k}({format_sheaf(members[j])},"
                        f" {format_sheaf(members[i])}) = {column[k]}"
                    )
    return collection


class MembershipVerdict(Record):
    __slots__ = ("witness",)

    def __init__(self, witness: tuple[str, int, int | tuple[int, ...], int] | None = None) -> None:
        self.witness = witness

    @property
    def member_of_orthogonal(self) -> bool:
        return self.witness is None


def orthogonal_membership(
    E,
    members,
    model: VarietyModel | None = None,
    window: tuple[int, int] | None = None,
) -> MembershipVerdict:
    """Whether Hom^*(O(v), E) = H^*(E(-v)) vanishes for each listed
    member O(v): ``first_nonvanishing`` of E at the twists -v, so on
    O(1..n) it is the direct Ulrich criterion: the same witness behind a
    member label.  No table is built, so ``window`` is not read.
    The witness is (member, degree, twist, value), the twist the int -j
    on one-twist models and the vector -v on products.
    """
    if isinstance(members, Collection):
        if model is not None and model != members.model:
            raise ModelMismatch("collection lives on a different model")
        model = members.model
        members = members.members
    if model is None:
        raise MalformedDescriptor("membership test needs a model")
    pairs = sheaves_of(E, model)
    probes = []
    for member in members:
        twists = line_twists(member)
        if twists is None:
            raise MalformedDescriptor(
                f"membership test needs line-bundle members, got {format_sheaf(member)}"
            )
        validate_descriptor(member, model)
        probes.append((member, tuple(-v for v in twists)))
    hit = first_nonvanishing(pairs, model, probes)
    return MembershipVerdict(None if hit is None else (format_sheaf(hit[0]), *hit[1:]))


class EllipticWitness(Record):
    __slots__ = ("descriptor", "verdict")

    def __init__(self, descriptor: SemistableEC, verdict: UlrichVerdict) -> None:
        self.descriptor = descriptor
        self.verdict = verdict


def elliptic_witness(model: VarietyModel) -> EllipticWitness:
    """Explicit degree-d rank-one Ulrich witness on a genus-one curve.

    The witness is a degree-d line bundle whose twist down to degree
    zero is of nontrivial type, which kills both cohomology groups at
    twist -1; the section count at twist zero is then d = deg * rank.
    """
    if model.kind != KIND_ELLIPTIC:
        raise UnsupportedModel("witness construction needs a genus-one model")
    desc = SemistableEC(1, model.deg, False)
    return EllipticWitness(descriptor=desc, verdict=is_ulrich_sheaf(desc, model))
