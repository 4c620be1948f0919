"""Truncated Chern characters and exact Riemann-Roch bookkeeping.

A numerical class stores (ch0, e1, e2) against the polarization H:
ch1 = e1 * H numerically and ch2 integrates to e2 * H^dim.  On curves
the e2 slot is absent.  On a product the class of L x R (and of
O(a, b) = O(a) x O(b)) is the H-projection e_k = ch_k . H^(dim-k) / H^dim
of ch(L) ch(R), exact for every Euler characteristic computed here: those
are on P^1 x P^1, whose canonical class is proportional to H.

Twist action of O(k):

    ch0 -> ch0,  e1 -> e1 + ch0*k,  e2 -> e2 + e1*k + ch0*k^2/2

Euler characteristics (exact, by Riemann-Roch):

    curve:   chi = e1*d + ch0*chi0
    surface: chi = e2*d - (i_X*d/2)*e1 + ch0*chi0
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from ._values import Frozen, set_field
from .complexes import sheaves_of
from .errors import Indeterminate, MalformedDescriptor, UnsupportedModel
from .sheaves import (
    AbstractSheaf,
    ExternalTensor,
    LineBundle,
    SemistableEC,
    SheafDescriptor,
    Spinor,
    flatten_atoms,
    format_sheaf,
)
from .variety import (
    KIND_PRODUCT,
    VarietyModel,
    format_variety,
    surface_data,
)


class NumClass(Frozen):
    __slots__ = ("model", "r", "e1", "e2")

    def __init__(
        self, model: VarietyModel, r: int, e1: Fraction, e2: Fraction | None = None
    ) -> None:
        set_field(self, "model", model)
        set_field(self, "r", r)
        for name, value in (("e1", e1), ("e2", e2)):
            # exact: an int becomes a Fraction, a float is refused
            if type(value) is int:
                value = Fraction(value)
            elif not isinstance(value, (Fraction, type(None))):
                raise MalformedDescriptor(f"{name} must be a Fraction or an int, got {value!r}")
            set_field(self, name, value)
        if model.dim >= 2 and self.e2 is None:
            raise MalformedDescriptor("e2 required in dimension >= 2")
        if model.dim == 1 and self.e2 is not None:
            raise MalformedDescriptor("e2 is absent on curves")


def _binom(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def _external_class(model: VarietyModel, left: NumClass, right: NumClass) -> NumClass:
    """Class of L x R on P^a x P^b: ch(L) ch(R) up to degree two, with
    H1^i H2^j . H^(m-i-j) = C(m-i-j, a-i) out of H^m = C(m, a).  A P^1
    factor has no e2; there H1^2 = 0."""
    a, m = model.factors[0], model.dim
    lc, rc = (left.r, left.e1, left.e2 or 0), (right.r, right.e1, right.e2 or 0)
    e1, e2 = (
        sum(lc[i] * rc[k - i] * _binom(m - k, a - i) for i in range(k + 1)) / _binom(m, a)
        for k in (1, 2)
    )
    return NumClass(model, left.r * right.r, e1, e2)


def class_of(obj, model: VarietyModel) -> NumClass:
    """Numerical class of a descriptor or formal complex: one walk over
    the atoms of its cohomology sheaves, the multiplicity of an atom in
    degree q signed by (-1)^q."""
    return _class_sum(
        model,
        (
            (_class_of_atom(atom, model), -mult if degree % 2 else mult)
            for degree, desc in sheaves_of(obj, model)
            for atom, mult in flatten_atoms(desc)
        ),
    )


def _class_sum(model: VarietyModel, terms) -> NumClass:
    """Sum of m * cls over the (cls, m) pairs, m a signed multiplicity."""
    r, e1 = 0, Fraction(0)
    e2 = Fraction(0) if model.dim >= 2 else None
    for cls, m in terms:
        r += m * cls.r
        e1 += m * cls.e1
        if e2 is not None:
            e2 += m * cls.e2
    return NumClass(model, r, e1, e2)


def _class_of_atom(desc: SheafDescriptor, model: VarietyModel) -> NumClass:
    """The class of one atom of a descriptor ``class_of`` has validated."""
    if isinstance(desc, LineBundle) and model.kind == KIND_PRODUCT:
        desc = ExternalTensor(LineBundle(desc.twists[:1]), LineBundle(desc.twists[1:]))
    if isinstance(desc, LineBundle):
        k = desc.twists[0]
        if model.dim == 1:
            return NumClass(model, 1, Fraction(k))
        return NumClass(model, 1, Fraction(k), Fraction(k * k, 2))
    if isinstance(desc, Spinor):
        # normalized so the bundle of rank r is initialized, with
        # c1 = (r/2) H and ch2 = 0: O(1,0) or O(0,1) on the quadric
        # surface, and c2 the line class on the threefold
        r = model.spinor_rank
        return NumClass(model, r, Fraction(r, 2), Fraction(0))
    if isinstance(desc, SemistableEC):
        return NumClass(model, desc.rank, Fraction(desc.degree, model.deg))
    if isinstance(desc, ExternalTensor):
        left_model, right_model = model.factor_models
        left, right = class_of(desc.left, left_model), class_of(desc.right, right_model)
        return _external_class(model, left, right)
    if isinstance(desc, AbstractSheaf):
        if desc.num_class is None:
            raise Indeterminate(f"{format_sheaf(desc)} carries no numerical class")
        return desc.num_class
    raise MalformedDescriptor(f"unknown descriptor {desc!r}")


def twist_class(c: NumClass, k: int) -> NumClass:
    """Class of the twist by O(k); a group action in k."""
    e1 = c.e1 + c.r * k
    if c.e2 is None:
        return NumClass(c.model, c.r, e1)
    e2 = c.e2 + c.e1 * k + Fraction(c.r * k * k, 2)
    return NumClass(c.model, c.r, e1, e2)


def euler_char(c: NumClass) -> Fraction:
    """Exact Euler characteristic from the class, curve or surface data."""
    model = c.model
    if not euler_supported(model):
        raise UnsupportedModel(
            f"no Euler characteristic rule for {format_variety(model)}"
        )
    if model.dim == 1:
        return c.e1 * model.deg + c.r * model.chi0
    d, i_x, chi0 = surface_data(model)
    return c.e2 * d - Fraction(i_x * d, 2) * c.e1 + c.r * chi0


def euler_supported(model: VarietyModel) -> bool:
    """Riemann-Roch is written for curves and surfaces; every model of
    dimension at most two carries their data."""
    return model.dim <= 2


def class_or_none(obj, model: VarietyModel) -> NumClass | None:
    """The class the ``table`` report echoes: ``class_of`` where the model
    has exact Euler characteristics and a class rule applies, else None."""
    if not euler_supported(model):
        return None
    try:
        return class_of(obj, model)
    except Indeterminate:
        return None


def ulrich_chern_solve(model: VarietyModel, r: int) -> NumClass:
    """The unique class (r, e1, e2) with chi(E(-1)) = chi(E(-2)) = 0.

    The two conditions are linear in (e1, e2) with determinant d^2, and
    their solution is e1 = (r/2)(i_X + 3) and
    e2*d = -r*chi0 + (r*d/4)(i_X^2 + 3*i_X + 4); rank r enters linearly,
    so nonpositive r is accepted as purely numerical data.
    """
    d, i_x, chi0 = surface_data(model)
    e1 = Fraction(r, 2) * (i_x + 3)
    e2 = (Fraction(r * d, 4) * (i_x * i_x + 3 * i_x + 4) - r * chi0) / d
    return NumClass(model, r, e1, e2)


def chern_admissible(c: NumClass) -> bool:
    """Whether the class satisfies every twisted Euler-characteristic
    vanishing an Ulrich object must satisfy: chi(E(-j)) = 0 for
    j = 1..dim."""
    for j in range(1, c.model.dim + 1):
        if euler_char(twist_class(c, -j)) != 0:
            return False
    return True
