"""Symbolic sheaf descriptors and their model-dependent algebra.

A descriptor names a sheaf whose twisted cohomology the oracles can
produce.  Descriptors are immutable; two structurally equal descriptors
denote the same sheaf, and an AbstractSheaf denotes exactly one sheaf
(it compares by identity).

Grammar accepted by :func:`parse_sheaf` (sums with ``+``, multiplicity
with ``m*``):

    O(k)        line bundle twist, one entry per polarization component
    O(a,b)      line bundle on a product
    S, S+, S-   spinor bundle on a quadric, with the signs the model
                admits (``model.spinor_signs``: + and - on even quadrics)
    ss(r,d)     semistable bundle of rank r and degree d on a genus-one
                curve; ss(r,0,trivial) / ss(r,0,nontrivial) fixes the
                degree-zero dichotomy bit

Whitespace may surround any token.  A sign after S binds only before a
``+`` or the end, so S+O(-1) is S plus O(-1).  A multiplicity of 0 drops
its term, and repeated atoms add up.  The text is read in one pass: one
match per term (multiplicity, atom fields and the ``+`` after it), each
atom merged into the normalized sum as it is read.  A refusal names the
position in the text as given, leading whitespace counted.

Every oracle is additive over direct summands, so a sum is read in one
place, :func:`flatten_atoms`, and every rule takes one atom.  An external
tensor is one atom, its factors read through the same reader, left then
right; it is not distributed over sums, except by :func:`tensor_parts`.

This module decides an atom's family for every structural fact: text,
validation, rank, line twist, product form, hyperplane restriction,
tensor parts, line-bundle twists and held abstract data.  Elsewhere a
family is decided in four homes only, each needing its own module's
machinery: ``cohomology._rule`` (the oracle), ``chern._class_of_atom``
(the class), ``ulrich._ext_primary`` and ``_ext_elliptic`` (the dual rule).
"""

from __future__ import annotations

import re

from ._values import Frozen, set_field
from .errors import (
    MalformedDescriptor,
    ModelMismatch,
    NoDualRule,
    NoRestrictionRule,
    ParseError,
    UnsupportedQuadricDim,
)
from .variety import (
    KIND_ELLIPTIC,
    KIND_PRODUCT,
    VarietyModel,
    format_variety,
)


class LineBundle(Frozen):
    __slots__ = ("twists",)

    def __init__(self, twists: tuple[int, ...]) -> None:
        set_field(self, "twists", twists)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.twists == other.twists
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.twists,))


class Spinor(Frozen):
    __slots__ = ("sign",)

    def __init__(self, sign: str | None = None) -> None:
        # "+", "-" on even quadrics, None on odd
        set_field(self, "sign", sign)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.sign == other.sign
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.sign,))


class SemistableEC(Frozen):
    __slots__ = ("rank", "degree", "trivial_type")

    def __init__(self, rank: int, degree: int, trivial_type: bool | None = None) -> None:
        # Whether the degree-zero member of the twist orbit has the
        # trivial-determinant type (so carries the one section).  None means
        # unknown; it is only consulted when a twisted degree hits zero.
        set_field(self, "rank", rank)
        set_field(self, "degree", degree)
        set_field(self, "trivial_type", trivial_type)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.rank, self.degree, self.trivial_type) == (
                other.rank, other.degree, other.trivial_type
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rank, self.degree, self.trivial_type))


class DirectSum(Frozen):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[tuple[SheafDescriptor, int], ...]) -> None:
        set_field(self, "parts", parts)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.parts,))


class ExternalTensor(Frozen):
    __slots__ = ("left", "right")

    def __init__(self, left: SheafDescriptor, right: SheafDescriptor) -> None:
        set_field(self, "left", left)
        set_field(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.left, self.right) == (other.left, other.right)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.left, self.right))


class AbstractSheaf(Frozen):
    """Opaque sheaf known only through explicit attached data.

    Compares and hashes by identity: each instance is its own sheaf.  An
    attached class must have its rank and live on the model it is used on.
    """

    __slots__ = ("rank", "label", "num_class", "table")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(
        self, rank: int, label: str = "abstract", num_class: object | None = None,
        table: object | None = None,
    ) -> None:
        set_field(self, "rank", rank)
        set_field(self, "label", label)
        set_field(self, "num_class", num_class)
        set_field(self, "table", table)


SheafDescriptor = LineBundle | Spinor | SemistableEC | DirectSum | ExternalTensor | AbstractSheaf


def line_bundle(*twists: int) -> LineBundle:
    return LineBundle(tuple(int(k) for k in twists))


def direct_sum(*parts) -> SheafDescriptor:
    """Normalized direct sum; accepts descriptors or (descriptor, mult).
    Each part is read once: an atom is merged where it stands, a nested
    sum through its atoms."""
    merged: dict[SheafDescriptor, int] = {}
    for part in parts:
        if isinstance(part, tuple):
            desc, mult = part
            if mult < 0:
                raise MalformedDescriptor(f"negative multiplicity {mult}")
            if mult == 0:
                continue
        else:
            desc, mult = part, 1
        if isinstance(desc, DirectSum):
            for atom, m in flatten_atoms(desc):
                merged[atom] = merged.get(atom, 0) + m * mult
        else:
            merged[desc] = merged.get(desc, 0) + mult
    return _normalized(merged)


def _normalized(merged: dict[SheafDescriptor, int]) -> SheafDescriptor:
    """The sum of merged atom multiplicities, in first-seen order; one
    atom of multiplicity 1 is itself."""
    if not merged:
        raise MalformedDescriptor("empty direct sum")
    if len(merged) == 1:
        ((atom, mult),) = merged.items()
        if mult == 1:
            return atom
    return DirectSum(tuple(merged.items()))


def flatten_atoms(desc: SheafDescriptor) -> list[tuple[SheafDescriptor, int]]:
    """(atom, mult) pairs: nested sums flattened in order, multiplicities
    multiplied; any other descriptor, an external tensor too, is one atom."""
    if not isinstance(desc, DirectSum):
        return [(desc, 1)]
    out = []
    for part, mult in desc.parts:
        if isinstance(part, DirectSum):
            out += [(atom, m * mult) for atom, m in flatten_atoms(part)]
        else:
            out.append((part, mult))
    return out


def twist_components(model: VarietyModel) -> int:
    return 2 if model.kind == KIND_PRODUCT else 1


def validate_descriptor(desc: SheafDescriptor, model: VarietyModel) -> None:
    """Refuse a descriptor that does not live on the model.  A sum is
    walked once, each atom part checked where it stands; only a nested
    sum or a tensor's factors are read by a further call."""
    if isinstance(desc, DirectSum):
        parts = desc.parts
        if not parts:
            raise MalformedDescriptor("empty direct sum")
    else:
        parts = ((desc, 1),)
    for atom, mult in parts:
        if mult < 1:
            raise MalformedDescriptor(f"multiplicity must be >= 1, got {mult}")
        if isinstance(atom, LineBundle):
            want = twist_components(model)
            if len(atom.twists) != want:
                raise MalformedDescriptor(
                    f"line bundle on {format_variety(model)} needs {want} twist"
                    f" component(s), got {len(atom.twists)}"
                )
        elif isinstance(atom, Spinor):
            signs = model.spinor_signs
            if not signs:
                raise MalformedDescriptor("spinor descriptors live on quadrics only")
            if model.dim not in (2, 3):
                raise UnsupportedQuadricDim(
                    f"spinor oracle implemented for quadric dimensions 2 and 3,"
                    f" not {model.dim}"
                )
            if atom.sign not in signs:
                raise MalformedDescriptor(
                    "odd quadric spinors carry no sign"
                    if None in signs
                    else "even quadric spinors need a sign + or -"
                )
        elif isinstance(atom, SemistableEC):
            if model.kind != KIND_ELLIPTIC:
                raise MalformedDescriptor(
                    "semistable (rank, degree) descriptors live on genus-one curves"
                )
            if atom.rank < 1:
                raise MalformedDescriptor(f"semistable rank must be >= 1, got {atom.rank}")
        elif isinstance(atom, DirectSum):
            validate_descriptor(atom, model)
        elif isinstance(atom, ExternalTensor):
            if model.kind != KIND_PRODUCT:
                raise MalformedDescriptor("external tensors live on product models")
            left, right = model.factor_models
            validate_descriptor(atom.left, left)
            validate_descriptor(atom.right, right)
        elif isinstance(atom, AbstractSheaf):
            cls = atom.num_class
            if atom.rank < 0:
                raise MalformedDescriptor(f"abstract rank must be >= 0, got {atom.rank}")
            if cls is not None and getattr(cls, "model", None) != model:
                raise ModelMismatch("attached class lives on a different model")
            if cls is not None and cls.r != atom.rank:
                raise MalformedDescriptor(
                    f"attached class has rank {cls.r}, the data rank {atom.rank}"
                )
        else:
            raise MalformedDescriptor(f"unknown descriptor {atom!r}")


def rank_of(desc: SheafDescriptor, model: VarietyModel) -> int:
    total = 0
    for atom, mult in flatten_atoms(desc):
        if isinstance(atom, LineBundle):
            rank = 1
        elif isinstance(atom, Spinor):
            rank = model.spinor_rank
        elif isinstance(atom, (SemistableEC, AbstractSheaf)):
            rank = atom.rank
        elif isinstance(atom, ExternalTensor):
            left, right = model.factor_models
            rank = rank_of(atom.left, left) * rank_of(atom.right, right)
        else:
            raise MalformedDescriptor(f"unknown descriptor {atom!r}")
        total += mult * rank
    return total


def normalize_elliptic(atom: SheafDescriptor, model: VarietyModel) -> SheafDescriptor:
    """Rewrite a genus-one atom into semistable (rank, degree) form.

    O(k) is the k-th power of the polarization, so it has degree k*d and
    trivial type at the degree-zero twist.
    """
    if isinstance(atom, LineBundle):
        return SemistableEC(rank=1, degree=atom.twists[0] * model.deg, trivial_type=True)
    return atom


def tensor_line(
    desc: SheafDescriptor, shift: tuple[int, ...], model: VarietyModel
) -> SheafDescriptor:
    """Tensor by the line bundle with the given twist vector, atom by
    atom; a sum comes back as the flat sum of the twisted atoms."""
    if len(shift) != twist_components(model):
        raise MalformedDescriptor(
            f"twist vector {shift} has wrong length for {format_variety(model)}"
        )
    if all(s == 0 for s in shift):
        return desc

    def twisted(atom: SheafDescriptor) -> SheafDescriptor:
        if isinstance(atom, LineBundle):
            return LineBundle(tuple(a + b for a, b in zip(atom.twists, shift)))
        if isinstance(atom, SemistableEC):
            degree = atom.degree + atom.rank * shift[0] * model.deg
            return SemistableEC(atom.rank, degree, atom.trivial_type)
        if isinstance(atom, ExternalTensor):
            left, right = model.factor_models
            return ExternalTensor(
                tensor_line(atom.left, shift[:1], left),
                tensor_line(atom.right, shift[1:], right),
            )
        raise NoDualRule(f"no line twist rule for {format_sheaf(atom)} on this model")

    if isinstance(desc, DirectSum):
        return DirectSum(tuple((twisted(atom), mult) for atom, mult in flatten_atoms(desc)))
    return twisted(desc)


def product_form(desc: SheafDescriptor, model: VarietyModel) -> SheafDescriptor:
    """Quadric-surface descriptors on ``model.product_form_model``, under
    the standard identification of Q^2 with P^1 x P^1 carrying
    O(1) = O(1,1)."""
    if model.product_form_model is None:
        raise MalformedDescriptor("product form applies to the quadric surface only")

    def on_product(atom: SheafDescriptor) -> LineBundle:
        if isinstance(atom, LineBundle):
            return LineBundle(atom.twists * 2)
        if isinstance(atom, Spinor):
            return LineBundle((1, 0) if atom.sign == "+" else (0, 1))
        raise MalformedDescriptor(f"{format_sheaf(atom)} has no quadric-surface product form")

    if isinstance(desc, DirectSum):
        return DirectSum(tuple((on_product(atom), mult) for atom, mult in flatten_atoms(desc)))
    return on_product(desc)


def restricted(
    desc: SheafDescriptor, model: VarietyModel, target: VarietyModel
) -> SheafDescriptor:
    """Restriction to the hyperplane section ``target`` of the model, atom
    by atom: a line bundle keeps its twist, and a spinor bundle goes to
    the sum of the spinor bundles of the hyperplane quadric (Ottaviani
    1988), S on Q^3 to S+ + S- on Q^2.  The sum comes back normalized, as
    ``direct_sum`` gives it."""
    parts = []
    for atom, mult in flatten_atoms(desc):
        if isinstance(atom, Spinor):
            atom = direct_sum(*(Spinor(sign) for sign in target.spinor_signs))
        elif not isinstance(atom, LineBundle):
            raise NoRestrictionRule(
                f"no hyperplane rule for {format_sheaf(atom)} on {format_variety(model)}"
            )
        parts.append((atom, mult))
    return direct_sum(*parts)


def tensor_parts(atom: SheafDescriptor) -> list[tuple[SheafDescriptor, int]]:
    """(atom, mult) pairs of an external tensor, the sums of its factors
    distributed and O(a) x O(b) read as O(a,b); any other atom is its own
    one part."""
    if not isinstance(atom, ExternalTensor):
        return [(atom, 1)]
    out = []
    for left, lmult in flatten_atoms(atom.left):
        for right, rmult in flatten_atoms(atom.right):
            if isinstance(left, LineBundle) and isinstance(right, LineBundle):
                part = LineBundle((left.twists[0], right.twists[0]))
            else:
                part = ExternalTensor(left, right)
            out.append((part, lmult * rmult))
    return out


def line_twists(desc: SheafDescriptor) -> tuple[int, ...] | None:
    """The twist vector of a line bundle; None for any other descriptor."""
    return desc.twists if isinstance(desc, LineBundle) else None


def holds_abstract(desc: SheafDescriptor) -> bool:
    """Whether an abstract sheaf sits anywhere in desc, as a summand or
    in a factor of an external tensor."""
    return any(
        isinstance(atom, AbstractSheaf)
        or isinstance(atom, ExternalTensor) and any(map(holds_abstract, (atom.left, atom.right)))
        for atom, _ in flatten_atoms(desc)
    )


def format_sheaf(desc: SheafDescriptor) -> str:
    if isinstance(desc, LineBundle):
        return "O(" + ",".join(str(k) for k in desc.twists) + ")"
    if isinstance(desc, Spinor):
        return "S" + (desc.sign or "")
    if isinstance(desc, SemistableEC):
        if desc.trivial_type is None:
            return f"ss({desc.rank},{desc.degree})"
        word = "trivial" if desc.trivial_type else "nontrivial"
        return f"ss({desc.rank},{desc.degree},{word})"
    if isinstance(desc, DirectSum):
        return "+".join(
            (f"{m}*" if m != 1 else "") + format_sheaf(p) for p, m in desc.parts
        )
    if isinstance(desc, ExternalTensor):
        return f"[{format_sheaf(desc.left)}]x[{format_sheaf(desc.right)}]"
    if isinstance(desc, AbstractSheaf):
        return f"abstract({desc.label},rank={desc.rank})"
    raise MalformedDescriptor(f"unknown descriptor {desc!r}")


# One term of a sum: its multiplicity, its atom's fields and the "+"
# after it, each a group.  The spinor sign binds only when followed by a
# sum separator or the end of the expression, so S+O(-1) reads as S plus
# O(-1) rather than as a signed spinor colliding with the next atom.
_TERM = re.compile(
    r"""
    \s*(?:(\d+)\s*\*\s*)?
    (?:
        O\(\s*(-?\d+)(?:\s*,\s*(-?\d+))?\s*\)
      | ss\(\s*(\d+)\s*,\s*(-?\d+)\s*(?:,\s*(trivial|nontrivial)\s*)?\)
      | S([+-](?=\s*(?:\+|$)))?
    )
    \s*(\+)?
    """,
    re.VERBOSE,
)


def parse_sheaf(text: str, model: VarietyModel | None = None) -> SheafDescriptor:
    """Parse a descriptor expression in one pass (grammar above);
    validated against model when given."""
    merged: dict[SheafDescriptor, int] = {}
    pos = 0
    while True:
        match = _TERM.match(text, pos)
        if match is None:
            at = len(text) - len(text[pos:].lstrip())
            if at == len(text):
                raise ParseError(f"empty or dangling sheaf expression {text!r}")
            raise ParseError(f"cannot read a sheaf atom at position {at} in {text!r}")
        mult, a, b, rank, degree, kind, sign, plus = match.groups()
        try:
            mult = 1 if mult is None else int(mult)
            if a is not None:
                atom = LineBundle((int(a),) if b is None else (int(a), int(b)))
            elif rank is not None:
                trivial = None if kind is None else kind == "trivial"
                atom = SemistableEC(int(rank), int(degree), trivial)
            else:
                atom = Spinor(sign)
        except ValueError:  # the grammar matched digits: past the interpreter's limit
            raise ParseError("sheaf expression holds an integer too long to read") from None
        if mult:
            merged[atom] = merged.get(atom, 0) + mult
        pos = match.end()
        if plus is None:
            break
    if pos < len(text):
        raise ParseError(f"expected '+' at position {pos} in {text!r}")
    desc = _normalized(merged)
    if model is not None:
        validate_descriptor(desc, model)
    return desc
