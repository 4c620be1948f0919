"""Exact twisted-cohomology oracles for the supported models.

Projective space follows the classical two-sided dimension count: only
h^0 and h^n are ever nonzero, with binomial values.  Quadric line
bundles are driven by the long exact sequence of the ambient degree-two
hypersurface.  Products use the Kunneth rule with a uniform diagonal
twist.  Genus-one curves use degree counting plus the degree-zero
dichotomy: one section exactly for the trivial-type member.  The spinor
bundle on the quadric threefold is computed from its defining sequence

    0 -> S(-1) -> O^4 -> S -> 0

with the normalization that S is initialized of rank 2.  Exactness of
the twisted strands, the vanishing of the middle cohomology of O(k) on
the quadric, and nonnegativity force the whole table from that data:
h^1 and h^2 vanish everywhere, h^0 obeys a two-term recursion upward
and h^3 the mirror recursion downward.

Ulrich tables follow from the Eisenbud-Schreyer rule (2003, Prop. 2.1): a
finite linear projection to P^n pushes an Ulrich object to a sum of shifted
structure sheaves, so h^i(E(t)) = sum_q h^q(E) * h^(i-q)(O_{P^n}(t)).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import NoOracle, UnknownSlopeZero
from .sheaves import (
    AbstractSheaf,
    DirectSum,
    ExternalTensor,
    LineBundle,
    SemistableEC,
    SheafDescriptor,
    Spinor,
    format_sheaf,
    normalize_elliptic,
    product_form,
    validate_descriptor,
)
from .tables import CohomologyTable
from .variety import (
    KIND_ELLIPTIC,
    KIND_PRODUCT,
    KIND_PROJ,
    KIND_QUADRIC,
    KIND_SURFACE,
    VarietyModel,
    default_window,
    format_variety,
    product_proj,
)


def _proj_h0(n: int, k: int) -> int:
    return comb(n + k, n) if k >= 0 else 0


def _proj_hn(n: int, k: int) -> int:
    return comb(-k - 1, n) if k <= -n - 1 else 0


def bott_table(n: int, k: int) -> dict[int, int]:
    """Nonzero h^i(O(k)) on P^n."""
    column: dict[int, int] = {}
    h0 = _proj_h0(n, k)
    hn = _proj_hn(n, k)
    if h0:
        column[0] = h0
    if hn:
        column[n] = hn
    return column


def chi_proj(n: int, k: int) -> Fraction:
    """chi(O(k)) on P^n as the exact binomial polynomial, any integer k."""
    num = 1
    for i in range(1, n + 1):
        num *= k + i
    return Fraction(num, factorial(n))


def quadric_line_table(n: int, k: int) -> dict[int, int]:
    """Nonzero h^i(O(k)) on Q^n, from the ambient hypersurface sequence.

    The restriction sequence 0 -> O_P(k-2) -> O_P(k) -> O_Q(k) -> 0 on
    P^{n+1} has cohomology concentrated at the ends, so the long exact
    sequence collapses to two differences and kills everything between.
    """
    column: dict[int, int] = {}
    h0 = _proj_h0(n + 1, k) - _proj_h0(n + 1, k - 2)
    hn = _proj_hn(n + 1, k - 2) - _proj_hn(n + 1, k)
    if h0:
        column[0] = h0
    if hn:
        column[n] = hn
    return column


def _convolve(left: dict[int, int], right: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for p, a in left.items():
        for q, b in right.items():
            out[p + q] = out.get(p + q, 0) + a * b
    return out


def ulrich_table(
    n: int, column: dict[int, int], window: tuple[int, int]
) -> CohomologyTable:
    """The table an Ulrich object of dimension n with the given twist-0
    column must have over the window (the rule in the module docstring)."""
    lo, hi = window
    entries: dict[tuple[int, int], int] = {}
    for t in range(lo, hi + 1):
        for i, h in _convolve(column, bott_table(n, t)).items():
            entries[(i, t)] = h
    return CohomologyTable(window=window, entries=entries)


@lru_cache(maxsize=None)
def _spinor3_h0(k: int) -> int:
    if k < 0:
        return 0  # initialized: no sections in negative twists
    value = 4 * (_proj_h0(4, k) - _proj_h0(4, k - 2)) - _spinor3_h0(k - 1)
    if value < 0:
        raise NoOracle(f"spinor section recursion left the cone at twist {k}")
    return value


@lru_cache(maxsize=None)
def _spinor3_h3(k: int) -> int:
    if k >= -3:
        return 0  # forced by exactness and nonnegativity below twist 0
    ambient = _proj_hn(4, k + 1 - 2) - _proj_hn(4, k + 1)
    value = 4 * ambient - _spinor3_h3(k + 1)
    if value < 0:
        raise NoOracle(f"spinor top-cohomology recursion left the cone at twist {k}")
    return value


def spinor_table(model: VarietyModel, sign: str | None, k: int) -> dict[int, int]:
    """Nonzero h^i(S(k)) for the spinor bundle on Q^2 or Q^3.

    On the quadric surface the two spinor line bundles are O(1,0) and
    O(0,1) under the product identification, so the column is a Kunneth
    computation.  On the threefold the defining sequence drives the
    recursion described in the module docstring.
    """
    desc = Spinor(sign)
    validate_descriptor(desc, model)
    if model.dim == 2:
        return _sheaf_column(product_form(desc, model), product_proj(1, 1), k)
    column: dict[int, int] = {}
    h0 = _spinor3_h0(k)
    h3 = _spinor3_h3(k)
    if h0:
        column[0] = h0
    if h3:
        column[3] = h3
    return column


def _elliptic_pair(delta: int, trivial: bool | None, label: str) -> dict[int, int]:
    if delta > 0:
        return {0: delta}
    if delta < 0:
        return {1: -delta}
    if trivial is None:
        raise UnknownSlopeZero(
            f"{label}: twisted degree zero needs the triviality bit"
        )
    return {0: 1, 1: 1} if trivial else {}


def _sheaf_column(desc: SheafDescriptor, model: VarietyModel, t: int) -> dict[int, int]:
    if isinstance(desc, AbstractSheaf):
        if desc.table is None:
            raise NoOracle(f"{format_sheaf(desc)} carries no table")
        return desc.table.column(t)
    if isinstance(desc, DirectSum):
        out: dict[int, int] = {}
        for part, mult in desc.parts:
            for i, h in _sheaf_column(part, model, t).items():
                out[i] = out.get(i, 0) + mult * h
        return {i: h for i, h in out.items() if h}
    if model.kind == KIND_PROJ:
        if isinstance(desc, LineBundle):
            return bott_table(model.dim, desc.twists[0] + t)
    elif model.kind == KIND_QUADRIC:
        if isinstance(desc, LineBundle):
            return quadric_line_table(model.dim, desc.twists[0] + t)
        if isinstance(desc, Spinor):
            return spinor_table(model, desc.sign, t)
    elif model.kind == KIND_PRODUCT:
        n1, n2 = model.factors
        if isinstance(desc, LineBundle):
            a, b = desc.twists
            return _convolve(bott_table(n1, a + t), bott_table(n2, b + t))
        if isinstance(desc, ExternalTensor):
            left, right = model.factor_models
            return _convolve(
                _sheaf_column(desc.left, left, t), _sheaf_column(desc.right, right, t)
            )
    elif model.kind == KIND_ELLIPTIC:
        atom = normalize_elliptic(desc, model)
        if isinstance(atom, SemistableEC):
            delta = atom.degree + atom.rank * t * model.deg
            return _elliptic_pair(delta, atom.trivial_type, format_sheaf(desc))
    elif model.kind == KIND_SURFACE:
        raise NoOracle(
            f"abstract surfaces have no oracle for {format_sheaf(desc)};"
            " attach an explicit table"
        )
    raise NoOracle(
        f"no oracle for {format_sheaf(desc)} on {format_variety(model)}"
    )


def sheaf_column(desc: SheafDescriptor, model: VarietyModel, t: int) -> dict[int, int]:
    """Nonzero h^i of the descriptor twisted by O(t)."""
    validate_descriptor(desc, model)
    return _sheaf_column(desc, model, t)


def sheaf_table(
    desc: SheafDescriptor,
    model: VarietyModel,
    window: tuple[int, int] | None = None,
) -> CohomologyTable:
    """Assembled table over the twist window (model default when omitted)."""
    validate_descriptor(desc, model)
    if window is None:
        window = default_window(model)
    lo, hi = window
    entries: dict[tuple[int, int], int] = {}
    for t in range(lo, hi + 1):
        for i, h in _sheaf_column(desc, model, t).items():
            entries[(i, t)] = h
    return CohomologyTable(window=window, entries=entries)
