"""Truncated Chern characters and exact Riemann-Roch bookkeeping.

A numerical class stores (ch0, e1, e2) against the polarization H:
ch1 = e1 * H numerically and ch2 integrates to e2 * H^dim.  On curves
the e2 slot is absent.  On product models the class is the numerical
H-projection e_k = ch_k . H^(dim-k) / H^dim, which is exact for every
Euler characteristic computed here because the canonical class of the
balanced product is proportional to H.

Twist action of O(k):

    ch0 -> ch0,  e1 -> e1 + ch0*k,  e2 -> e2 + e1*k + ch0*k^2/2

Euler characteristics (exact, by Riemann-Roch):

    curve:   chi = e1*d + ch0*chi0
    surface: chi = e2*d - (i_X*d/2)*e1 + ch0*chi0
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import (
    DegenerateSystem,
    Indeterminate,
    MalformedDescriptor,
    ModelMismatch,
    UnsupportedModel,
)
from .sheaves import (
    AbstractSheaf,
    DirectSum,
    ExternalTensor,
    LineBundle,
    SemistableEC,
    SheafDescriptor,
    Spinor,
    format_sheaf,
    validate_descriptor,
)
from .variety import (
    KIND_PRODUCT,
    VarietyModel,
    curve_data,
    format_variety,
    proj_space,
    surface_data,
)


@dataclass(frozen=True)
class NumClass:
    model: VarietyModel
    r: int
    e1: Fraction
    e2: Fraction | None = None

    def __post_init__(self) -> None:
        if self.model.dim >= 2 and self.e2 is None:
            raise MalformedDescriptor("e2 required in dimension >= 2")
        if self.model.dim == 1 and self.e2 is not None:
            raise MalformedDescriptor("e2 is absent on curves")


def _binom(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def _product_projection(model: VarietyModel, a, b) -> tuple[Fraction, Fraction]:
    """H-projection of rank + (a H1 + b H2) + ch2 for a product model."""
    n1, n2 = model.factors
    m = model.dim
    hm = _binom(m, n1)
    e1 = Fraction(a * _binom(m - 1, n1 - 1) + b * _binom(m - 1, n1), hm)
    ch2_int = (
        Fraction(a * a, 2) * _binom(m - 2, n1 - 2)
        + Fraction(a * b) * _binom(m - 2, n1 - 1)
        + Fraction(b * b, 2) * _binom(m - 2, n1)
    )
    return e1, ch2_int / hm


def class_of(obj, model: VarietyModel) -> NumClass:
    """Numerical class of a descriptor or formal complex.

    For complexes the class is the alternating sum of the classes of the
    cohomology sheaves.
    """
    from .complexes import FormalComplex  # late import, complexes sits above

    if isinstance(obj, FormalComplex):
        if obj.model != model:
            raise ModelMismatch("complex lives on a different model")
        return _class_sum(
            model,
            (
                (class_of(desc, model), -1 if degree % 2 else 1)
                for degree, desc in obj.sheaf_map().items()
            ),
        )
    return _class_of_descriptor(obj, model)


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


def _class_of_descriptor(desc: SheafDescriptor, model: VarietyModel) -> NumClass:
    validate_descriptor(desc, model)
    if isinstance(desc, LineBundle):
        if model.kind == KIND_PRODUCT:
            a, b = desc.twists
            e1, e2 = _product_projection(model, a, b)
            return NumClass(model, 1, e1, e2)
        k = desc.twists[0]
        if model.dim == 1:
            return NumClass(model, 1, Fraction(k))
        return NumClass(model, 1, Fraction(k), Fraction(k * k, 2))
    if isinstance(desc, Spinor):
        if model.dim == 2:
            # identification with O(1,0) or O(0,1) on the product
            return NumClass(model, 1, Fraction(1, 2), Fraction(0))
        # normalized so the bundle is initialized with c1 = H; then
        # c2 is the degree-one line class and ch2 vanishes
        return NumClass(model, 2, Fraction(1), Fraction(0))
    if isinstance(desc, SemistableEC):
        return NumClass(model, desc.rank, Fraction(desc.degree, model.deg))
    if isinstance(desc, DirectSum):
        return _class_sum(
            model,
            ((_class_of_descriptor(part, model), mult) for part, mult in desc.parts),
        )
    if isinstance(desc, ExternalTensor):
        if model.factors != (1, 1):
            raise Indeterminate(
                f"no numerical class rule for {format_sheaf(desc)}"
                f" on {format_variety(model)}"
            )
        line = proj_space(1)
        left = _class_of_descriptor(desc.left, line)
        right = _class_of_descriptor(desc.right, line)
        # (left.r + left.e1 H1)(right.r + right.e1 H2) projected to the H-lattice
        e1 = (right.r * left.e1 + left.r * right.e1) / 2
        e2 = left.e1 * right.e1 / 2
        return NumClass(model, left.r * right.r, e1, e2)
    if isinstance(desc, AbstractSheaf):
        if desc.num_class is None:
            raise Indeterminate(f"{format_sheaf(desc)} carries no numerical class")
        cls = desc.num_class
        if not isinstance(cls, NumClass) or cls.model != model:
            raise ModelMismatch("attached class lives on a different model")
        return cls
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
    if model.dim == 1:
        d, chi0 = curve_data(model)
        return c.e1 * d + c.r * chi0
    if model.dim == 2:
        d, i_x, chi0 = surface_data(model)
        return c.e2 * d - Fraction(i_x * d, 2) * c.e1 + c.r * chi0
    raise UnsupportedModel(
        f"no Euler characteristic rule for {format_variety(model)}"
    )


def euler_supported(model: VarietyModel) -> bool:
    if model.dim == 1:
        return True
    return model.dim == 2 and model.canonical_coeff is not None


def _solve_2x2(rows) -> tuple[Fraction, Fraction]:
    """Exact Gaussian elimination for a 2x2 system given as
    [(a, b, c), ...] meaning a*x + b*y = c."""
    (a1, b1, c1), (a2, b2, c2) = rows
    if a1 == 0:
        (a1, b1, c1), (a2, b2, c2) = (a2, b2, c2), (a1, b1, c1)
    if a1 == 0:
        raise DegenerateSystem("no pivot in the first column")
    factor = Fraction(a2, a1)
    b2p = b2 - factor * b1
    c2p = c2 - factor * c1
    if b2p == 0:
        raise DegenerateSystem("system is singular")
    y = c2p / b2p
    x = (c1 - b1 * y) / a1
    return x, y


def ulrich_chern_solve(model: VarietyModel, r: int) -> NumClass:
    """The unique class (r, e1, e2) with chi(E(-1)) = chi(E(-2)) = 0.

    Solved by exact elimination of the two linear conditions.  The
    solution simplifies to e1 = (r/2)(i_X + 3) and
    e2*d = -r*chi0 + (r*d/4)(i_X^2 + 3*i_X + 4); rank r enters linearly,
    so nonpositive r is accepted as purely numerical data.
    """
    d, i_x, chi0 = surface_data(model)
    rows = []
    for j in (1, 2):
        # chi(E(-j)) as an affine-linear function of (e1, e2)
        coeff_e1 = Fraction(-j * d) - Fraction(i_x * d, 2)
        coeff_e2 = Fraction(d)
        constant = (
            Fraction(r * j * j * d, 2) + Fraction(i_x * d * j * r, 2) + r * chi0
        )
        rows.append((coeff_e1, coeff_e2, -constant))
    e1, e2 = _solve_2x2(rows)
    return NumClass(model, r, e1, e2)


def chern_admissible(c: NumClass) -> bool:
    """Whether the class satisfies every twisted Euler-characteristic
    vanishing an Ulrich object must satisfy: chi(E(-j)) = 0 for
    j = 1..dim."""
    for j in range(1, c.model.dim + 1):
        if euler_char(twist_class(c, -j)) != 0:
            return False
    return True
