"""Polarized model varieties and their exact numerical invariants.

Every model carries the data the rest of the kit consumes: dimension,
degree under the fixed very ample class H, canonical coefficient i_X
with K_X = i_X * H where Picard-rank-1 bookkeeping applies, chi(O_X),
the rank of the numerical Grothendieck lattice when known, and the
dimension of the natural ambient projective space.

Supported families:

* projective space P^n, polarized by O(1);
* the smooth quadric Q^n in P^{n+1}, polarized by O(1);
* a product of projective spaces, polarized by O(1,1);
* an abstract Picard-rank-1 surface given by (d, i_X, chi(O));
* a smooth curve of genus one embedded by a degree-d line bundle, d >= 3.

Family facts other modules read (the Ulrich twists, canonical twists,
product factors, spinor signs and rank, the quadric surface's product
form) are read-only model properties, derived from kind and dimension
only here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import MalformedModel, UnsupportedModel
from .rational import format_rational, parse_rational

KIND_PROJ = "pn"
KIND_QUADRIC = "quadric"
KIND_PRODUCT = "prod"
KIND_SURFACE = "surface"
KIND_ELLIPTIC = "elliptic"


@dataclass(frozen=True)
class VarietyModel:
    kind: str
    dim: int
    deg: int
    chi0: int
    canonical_coeff: Fraction | None
    k0_rank: int | None
    ambient_dim: int | None
    factors: tuple[int, int] | None = None  # product models only

    @property
    def canonical_twists(self) -> tuple[int, ...] | None:
        """Twist vector of K_X, or None where K_X is no known line-bundle twist."""
        if self.factors is not None:
            return tuple(-n - 1 for n in self.factors)
        if self.kind == KIND_SURFACE:
            return None
        return (int(self.canonical_coeff),)

    @property
    def ulrich_twists(self) -> tuple[int, ...]:
        """The twists -1..-dim at which an Ulrich object's cohomology vanishes."""
        return tuple(range(-1, -self.dim - 1, -1))

    @property
    def factor_models(self) -> tuple[VarietyModel, ...] | None:
        """The projective-space factors of a product model."""
        if self.factors is None:
            return None
        return tuple(proj_space(n) for n in self.factors)

    @property
    def k0_box(self) -> tuple[tuple[int, ...], ...] | None:
        """Twists of the line bundles L whose chi(E x L) are K-group
        coordinates: 0..n on P^n, (i, j) with i <= a, j <= b on P^a x P^b
        (j outer); None elsewhere."""
        if self.kind == KIND_PROJ:
            return tuple((j,) for j in range(self.dim + 1))
        if self.factors is not None:
            a, b = self.factors
            return tuple((i, j) for j in range(b + 1) for i in range(a + 1))
        return None

    @property
    def spinor_signs(self) -> tuple[str | None, ...]:
        """Signs of the spinor bundles: S+ and S- on an even quadric, the
        one unsigned S on an odd quadric, none off the quadrics."""
        if self.kind != KIND_QUADRIC:
            return ()
        return ("+", "-") if self.dim % 2 == 0 else (None,)

    @property
    def spinor_rank(self) -> int:
        """Rank 2^((n-1)//2) of a spinor bundle on Q^n (Ottaviani 1988)."""
        return 2 ** ((self.dim - 1) // 2)

    @property
    def product_form_model(self) -> VarietyModel | None:
        """P^1 x P^1, which the quadric surface is, with O(1) = O(1,1);
        None for every other model."""
        if self.kind == KIND_QUADRIC and self.dim == 2:
            return product_proj(1, 1)
        return None


def proj_space(n: int) -> VarietyModel:
    if not isinstance(n, int) or n < 1:
        raise MalformedModel(f"projective space needs integer dimension >= 1, got {n}")
    _check_dim(n)
    return VarietyModel(
        kind=KIND_PROJ,
        dim=n,
        deg=1,
        chi0=1,
        canonical_coeff=Fraction(-(n + 1)),
        k0_rank=n + 1,
        ambient_dim=n,
    )


def quadric(n: int) -> VarietyModel:
    if not isinstance(n, int) or n < 2:
        raise MalformedModel(f"smooth quadric needs integer dimension >= 2, got {n}")
    _check_dim(n)
    return VarietyModel(
        kind=KIND_QUADRIC,
        dim=n,
        deg=2,
        chi0=1,
        canonical_coeff=Fraction(-n),
        k0_rank=n + 2 if n % 2 == 0 else n + 1,
        ambient_dim=n + 1,
    )


def product_proj(n1: int, n2: int) -> VarietyModel:
    if not all(isinstance(m, int) and m >= 1 for m in (n1, n2)):
        raise MalformedModel(f"product factors must be integers >= 1, got {n1}x{n2}")
    dim = n1 + n2
    _check_dim(dim)
    # K = -(n1+1)H1 - (n2+1)H2 is proportional to H = H1+H2 only when n1 = n2.
    canonical = Fraction(-(n1 + 1)) if n1 == n2 else None
    return VarietyModel(
        kind=KIND_PRODUCT,
        dim=dim,
        deg=comb(dim, n1),
        chi0=1,
        canonical_coeff=canonical,
        k0_rank=(n1 + 1) * (n2 + 1),
        ambient_dim=(n1 + 1) * (n2 + 1) - 1,
        factors=(n1, n2),
    )


def rank1_surface(d: int, i_x: Fraction | int, chi0: int) -> VarietyModel:
    if not isinstance(d, int) or d < 1:
        raise MalformedModel(f"surface degree must be a positive integer, got {d}")
    if not isinstance(chi0, int):
        raise MalformedModel(f"chi(O) must be an integer, got {chi0!r}")
    return VarietyModel(
        kind=KIND_SURFACE,
        dim=2,
        deg=d,
        chi0=chi0,
        canonical_coeff=Fraction(i_x),
        k0_rank=None,
        ambient_dim=None,
    )


def elliptic_curve(d: int) -> VarietyModel:
    if not isinstance(d, int) or d < 3:
        raise MalformedModel(f"genus-one embedding degree must be >= 3, got {d}")
    return VarietyModel(
        kind=KIND_ELLIPTIC,
        dim=1,
        deg=d,
        chi0=0,
        canonical_coeff=Fraction(0),
        k0_rank=2,
        ambient_dim=d - 1,
    )


def invariants(model: VarietyModel) -> dict:
    """Flat record of the model's numerical invariants."""
    return {
        "kind": model.kind,
        "dim": model.dim,
        "deg": model.deg,
        "chi0": model.chi0,
        "canonical_coeff": model.canonical_coeff,
        "k0_rank": model.k0_rank,
        "ambient_dim": model.ambient_dim,
        "factors": model.factors,
    }


def hyperplane_model(model: VarietyModel) -> VarietyModel:
    """The general hyperplane section, staying inside the supported families.

    P^n cuts down to P^{n-1} (n >= 2) and Q^n to Q^{n-1} (n >= 3).
    """
    if model.kind == KIND_PROJ and model.dim >= 2:
        return proj_space(model.dim - 1)
    if model.kind == KIND_QUADRIC and model.dim >= 3:
        return quadric(model.dim - 1)
    raise UnsupportedModel(f"no hyperplane model for {format_variety(model)}")


# Work bounds, checked before anything is allocated: the most twists one
# table may span, and the largest model dimension.  Entries on a model of
# dimension n are binomials of about n digits, and its default window
# spans 3n + 8 twists, far inside MAX_TWISTS under the dimension cap.
MAX_TWISTS = 20_000
MAX_DIM = 1_000


def _check_dim(dim: int) -> None:
    if dim > MAX_DIM:
        raise MalformedModel(f"model dimension {dim} exceeds the cap of {MAX_DIM}")


def default_window(model: VarietyModel) -> tuple[int, int]:
    """Twist window wide enough for every check the kit performs."""
    return (-(2 * model.dim + 5), model.dim + 2)


def surface_data(model: VarietyModel) -> tuple[int, Fraction, int]:
    """(d, i_X, chi(O)) for any model carrying surface bookkeeping."""
    if model.dim == 2 and model.canonical_coeff is not None:
        return (model.deg, model.canonical_coeff, model.chi0)
    raise UnsupportedModel(
        f"{format_variety(model)} carries no (d, i_X, chi0) surface data"
    )


def curve_data(model: VarietyModel) -> tuple[int, int]:
    """(d, chi(O)) for one-dimensional models."""
    if model.dim == 1:
        return (model.deg, model.chi0)
    raise UnsupportedModel(f"{format_variety(model)} is not a curve model")


def format_variety(model: VarietyModel) -> str:
    if model.kind == KIND_PROJ:
        return f"pn:{model.dim}"
    if model.kind == KIND_QUADRIC:
        return f"quadric:{model.dim}"
    if model.kind == KIND_PRODUCT:
        n1, n2 = model.factors
        return f"prod:{n1}x{n2}"
    if model.kind == KIND_SURFACE:
        i = model.canonical_coeff
        return f"surface:d={model.deg},i={format_rational(i)},chi={model.chi0}"
    if model.kind == KIND_ELLIPTIC:
        return f"elliptic:{model.deg}"
    raise MalformedModel(f"unknown model kind {model.kind!r}")


_SURFACE_RE = re.compile(
    r"d=(?P<d>-?\d+),i=(?P<i>-?\d+(?:/\d+)?),chi=(?P<chi>-?\d+)$"
)


def parse_variety(text: str) -> VarietyModel:
    """Parse the model grammar: pn:<n>, quadric:<n>, prod:<n1>x<n2>,
    surface:d=<d>,i=<i>,chi=<c>, elliptic:<d>."""
    head, sep, rest = text.strip().partition(":")
    if not sep:
        raise MalformedModel(f"malformed model spec {text!r}")
    try:
        if head == KIND_PROJ:
            return proj_space(int(rest))
        if head == KIND_QUADRIC:
            return quadric(int(rest))
        if head == KIND_PRODUCT:
            n1, sep2, n2 = rest.partition("x")
            if not sep2:
                raise MalformedModel(f"malformed product spec {text!r}")
            return product_proj(int(n1), int(n2))
        if head == KIND_SURFACE:
            match = _SURFACE_RE.match(rest)
            if match is None:
                raise MalformedModel(f"malformed surface spec {text!r}")
            return rank1_surface(
                int(match.group("d")),
                parse_rational(match.group("i")),
                int(match.group("chi")),
            )
        if head == KIND_ELLIPTIC:
            return elliptic_curve(int(rest))
    except ValueError as exc:
        raise MalformedModel(f"malformed model spec {text!r}") from exc
    raise MalformedModel(f"unknown model family {head!r}")
