"""Numerical K-group classes, the rank gate for classical generation,
exceptional collections, and orthogonal membership.

The gate implements a one-sided test: a generator's summand classes
must span the full numerical K-lattice, so a deficient span certifies
non-generation.  Membership of E in the right orthogonal of listed
line-bundle members is the vanishing of all twisted hypercohomology
against them, which the exact tables decide.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .chern import class_of
from .cohomology import _twisted_column
from .complexes import FormalComplex, formal_complex, hyper_table
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
    validate_descriptor,
)
from .tables import alternating_sum
from .ulrich import UlrichVerdict, ext_dimension, is_ulrich_sheaf
from .variety import (
    KIND_ELLIPTIC,
    KIND_PROJ,
    KIND_QUADRIC,
    VarietyModel,
    default_window,
    format_variety,
)


@dataclass(frozen=True)
class K0Class:
    """Coordinate vector of a class in the numerical K-group.

    Coordinates are model-specific pairings chosen to be injective on
    the lattice: chi(E x L) for L in ``model.k0_box``, a basis of line
    bundles on projective spaces and their products; (rank, degree) on a
    genus-one curve.
    """

    model: VarietyModel
    coords: tuple[Fraction, ...]

    def __add__(self, other: "K0Class") -> "K0Class":
        if other.model != self.model:
            raise MalformedDescriptor("classes live on different models")
        return K0Class(
            self.model, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "K0Class":
        return K0Class(self.model, tuple(-a for a in self.coords))


def k0_class(obj, model: VarietyModel) -> K0Class:
    """Class of a descriptor or formal complex in lattice coordinates.

    Complexes contribute their cohomology sheaves with alternating
    signs, so the class of E[1] is minus the class of E.
    """
    if isinstance(obj, FormalComplex):
        if obj.model != model:
            raise ModelMismatch("complex lives on a different model")
        if model.k0_rank is None:  # no lattice to hold even the zero class
            raise Indeterminate(
                f"no K-group coordinates implemented for {format_variety(model)}"
            )
        total = K0Class(model, (Fraction(0),) * model.k0_rank)
        for degree, desc in obj.sheaves:
            part = k0_class(desc, model)
            total = total + (-part if degree % 2 else part)
        return total
    validate_descriptor(obj, model)
    box = model.k0_box
    if box is not None:
        columns = (_twisted_column(obj, model, twists) for twists in box)
        return K0Class(model, tuple(Fraction(alternating_sum(c)) for c in columns))
    if model.kind == KIND_ELLIPTIC:
        cls = class_of(obj, model)
        return K0Class(model, (Fraction(cls.r), cls.e1 * model.deg))
    raise Indeterminate(
        f"no K-group coordinates implemented for {format_variety(model)}"
    )


def lattice_rank(vectors: list[tuple[Fraction, ...]]) -> int:
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


@dataclass
class GateResult:
    rank: int
    needed: int

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


@dataclass(frozen=True)
class Collection:
    model: VarietyModel
    members: tuple[SheafDescriptor, ...]
    kind: str = "custom"


def beilinson_collection(model: VarietyModel) -> Collection:
    """The twist collection O, O(1), ..., O(n) on projective space."""
    if model.kind != KIND_PROJ:
        raise UnsupportedModel("the twist collection lives on projective space")
    members = tuple(LineBundle((k,)) for k in range(model.dim + 1))
    return register_collection(Collection(model, members, kind="Beilinson"))


def kapranov_collection(model: VarietyModel) -> Collection:
    """Kapranov's collection on a quadric: O, then the spinor bundles,
    then O(1), ..., O(n-1)."""
    if model.kind != KIND_QUADRIC or model.dim not in (2, 3):
        raise UnsupportedModel("spinor collections implemented on Q2 and Q3 only")
    spinors = tuple(Spinor(sign) for sign in model.spinor_signs)
    twists = tuple(LineBundle((k,)) for k in range(1, model.dim))
    members = (LineBundle((0,)), *spinors, *twists)
    return register_collection(Collection(model, members, kind="Kapranov"))


def register_collection(collection: Collection) -> Collection:
    """Verify the no-backward-maps property where an Ext oracle exists.

    For members E_i, E_j with i < j, every Ext^k(E_j, E_i) must
    vanish.  Pairs whose source has no dual rule (the odd spinor) are
    skipped; those pairs carry the standard spinor orthogonality.  A
    backward map is a fault of the given list: MalformedDescriptor.
    """
    members = collection.members
    for member in members:
        validate_descriptor(member, collection.model)
    for j in range(len(members)):
        for i in range(j):
            try:
                for k in range(0, collection.model.dim + 1):
                    value = ext_dimension(members[j], members[i], k, collection.model)
                    if value:
                        raise MalformedDescriptor(
                            f"backward map: Ext^{k}({format_sheaf(members[j])},"
                            f" {format_sheaf(members[i])}) = {value}"
                        )
            except NoDualRule:
                continue
    return collection


@dataclass
class MembershipVerdict:
    witness: tuple[str, int, int, int] | None = None

    @property
    def member_of_orthogonal(self) -> bool:
        return self.witness is None


def orthogonal_membership(
    E,
    members,
    model: VarietyModel | None = None,
    window: tuple[int, int] | None = None,
) -> MembershipVerdict:
    """Whether all Hom-spaces from every listed member to E vanish.

    For a member O(j) the question is the vanishing of the whole
    hypercohomology column of E at twist -j.  The first nonzero entry
    found is returned as (member, degree, twist, value).
    """
    if isinstance(members, Collection):
        model = members.model
        members = members.members
    if model is None:
        raise MalformedDescriptor("membership test needs a model")
    if not isinstance(E, FormalComplex):
        E = formal_complex(model, {0: E})
    elif E.model != model:
        raise ModelMismatch("complex lives on a different model")
    if window is None:
        window = default_window(E.model)
    member_twists = []
    for member in members:
        if not (isinstance(member, LineBundle) and len(member.twists) == 1):
            raise MalformedDescriptor(
                f"membership test needs single-twist line-bundle members,"
                f" got {format_sheaf(member)}"
            )
        member_twists.append((member, -member.twists[0]))
    if member_twists:
        lo = min(window[0], *(t for _, t in member_twists))
        hi = max(window[1], *(t for _, t in member_twists))
        window = (lo, hi)
    hyper = hyper_table(E, window)
    for member, twist in member_twists:
        hit = hyper.table.first_nonzero((twist,))
        if hit is not None:
            return MembershipVerdict(witness=(format_sheaf(member),) + hit)
    return MembershipVerdict()


@dataclass
class EllipticWitness:
    descriptor: SemistableEC
    verdict: UlrichVerdict


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
