"""Divisorial stability numerics on surface models: slopes, the
torsion-pair split, the central charge and its closed form on solved
classes, the heart-membership obstruction, and the evidence scanner.

Two threshold conventions are carried everywhere.  paper-literal
compares the slope mu = e1/r against s*d, matching the displayed
pairing of c1 with the polarization; normalized compares against s.
Every report names the convention it used.

The central charge is the defining integral with the standard sign,
Z = -[e2*d - (s+it)*e1*d + (s+it)^2*d*r/2].  The closed form is kept
exactly as displayed for solved Ulrich classes; the two are NOT the
same function of (s,t) (they differ by (s,t) -> (-s,-t) up to global
sign), and nothing here papers over that.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import atan2, nextafter, pi

from .chern import NumClass, class_of
from .complexes import FormalComplex
from .errors import (
    EmptyGrid,
    Indeterminate,
    MissingConvention,
    NonpositiveT,
    NoSlope,
)
from .sheaves import SheafDescriptor
from .variety import VarietyModel, surface_data

CONVENTIONS = ("paper-literal", "normalized")


@total_ordering
class _Infinite:
    """Slope of a torsion class; compares above every rational."""

    def __repr__(self):
        return "infinite"

    def __eq__(self, other):
        return isinstance(other, _Infinite)

    def __hash__(self):
        return hash("infinite-slope")

    def __lt__(self, other):
        return False


INFINITE = _Infinite()


def slope(c: NumClass):
    """mu = (c1 . H) / (rank * H^2) = e1 / r; infinite for rank zero."""
    surface_data(c.model)  # divisorial numerics need a surface
    if c.r == 0:
        return INFINITE
    return c.e1 / c.r


@dataclass(frozen=True, slots=True)
class ChargeValue:
    re: Fraction
    im: Fraction

    def as_pair(self) -> tuple[Fraction, Fraction]:
        return (self.re, self.im)

    def phase_sector(self) -> str:
        """Read off the signs of the numerators, im first."""
        im, re = self.im.numerator, self.re.numerator
        if im:
            return "upper-half" if im > 0 else "lower-half"
        if re:
            return "positive-real" if re > 0 else "negative-real"
        return "zero"

    def phase_display(self) -> float:
        """Phase as a multiple of pi in (-1, 1], 0.0 at zero; display only.
        Each part is its numerator over its denominator in true division,
        the float that float() of the Fraction gives; parts past the float
        range are first divided by one power of two.  A lower-half phase
        that atan2 rounds to -pi reads as the float just above -1."""
        im, re = self.im, self.re
        try:
            angle = atan2(im.numerator / im.denominator, re.numerator / re.denominator)
        except OverflowError:
            scale = 1 << int(max(abs(self.im), abs(self.re))).bit_length()
            angle = atan2(float(self.im / scale), float(self.re / scale))
        return nextafter(-1.0, 0.0) if angle == -pi else angle / pi


def central_charge(c: NumClass, s: Fraction, t: Fraction) -> ChargeValue:
    """Z = -[e2*d - (s+it)*e1*d + (s+it)^2*d*r/2], expanded exactly.

    Real part -e2*d + s*e1*d - (s^2 - t^2)*d*r/2; imaginary part
    t*d*(e1 - s*r).  Requires t > 0.
    """
    s, t = Fraction(s), Fraction(t)
    if t <= 0:
        raise NonpositiveT(f"t must be positive, got {t}")
    at_s, half = _charge_in_s(c)
    re_s, im_s = at_s(s)
    return ChargeValue(re_s + t * t * half, t * im_s)


def _charge_in_s(c: NumClass):
    """Z of class c with its coefficients -e2*d, e1*d, r*d and d*r/2
    computed once: a function s -> (re_s, im_s), and d*r/2, such that
    Z(s, t) = re_s + t^2*d*r/2 + i*t*im_s.  Fractions are canonical, so
    this grouping gives exactly the values of the expanded formula."""
    d = surface_data(c.model)[0]
    e2d, e1d, rd = -c.e2 * d, c.e1 * d, c.r * d
    half = Fraction(rd, 2)

    def at_s(s: Fraction) -> tuple[Fraction, Fraction]:
        return e2d + s * e1d - s * s * half, e1d - s * rd

    return at_s, half


def ulrich_charge_closed_form(
    model: VarietyModel, r: int, s: Fraction, t: Fraction
) -> ChargeValue:
    """The displayed closed form for the charge of a rank-r solved
    class: re = -r*chi0 + (r*d/4)(i^2+3i+4) + (r*d/2)(s^2-t^2+(i+3)s),
    im = (r*d/2)(2s+i+3)t.  Evaluated verbatim; see the module note on
    how it actually relates to central_charge.
    """
    s, t = Fraction(s), Fraction(t)
    if t <= 0:
        raise NonpositiveT(f"t must be positive, got {t}")
    d, i_x, chi0 = surface_data(model)
    re = (
        -r * chi0
        + Fraction(r * d, 4) * (i_x * i_x + 3 * i_x + 4)
        + Fraction(r * d, 2) * (s * s - t * t + (i_x + 3) * s)
    )
    im = Fraction(r * d, 2) * (2 * s + i_x + 3) * t
    return ChargeValue(Fraction(re), Fraction(im))


def _threshold_scale(d: int, convention: str) -> int:
    """The threshold at s is s times this: s*d paper-literal, s normalized."""
    if convention == "paper-literal":
        return d
    if convention == "normalized":
        return 1
    raise MissingConvention(
        f"convention must be one of {CONVENTIONS}, got {convention!r}"
    )


def _side(mu, threshold: Fraction) -> str:
    """T for slope strictly above the threshold (torsion included), F for
    slope at or below it."""
    return "F" if mu <= threshold else "T"


def torsion_classify(
    obj, s: Fraction, model: VarietyModel, convention: str = "paper-literal"
) -> str:
    """Which side of the torsion pair at parameter s an object falls on.

    T for slope strictly above the threshold (torsion included), F for
    slope at or below it.
    """
    mu = obj if isinstance(obj, (Fraction, int, _Infinite)) else None
    if mu is None:
        c = obj if isinstance(obj, NumClass) else class_of(obj, model)
        mu = slope(c)
    scale = _threshold_scale(surface_data(model)[0], convention)
    return _side(mu, Fraction(s) * scale)


@dataclass
class HeartVerdict:
    status: str
    reason: str | None
    best_shift: int | None
    s: Fraction
    convention: str

    @property
    def maybe(self) -> bool:
        return self.status == "MaybeInHeart"


def _sheaf_slope(desc: SheafDescriptor, model: VarietyModel):
    try:
        return slope(class_of(desc, model))
    except Indeterminate as exc:
        raise NoSlope(str(exc)) from exc


def heart_gate(
    E: FormalComplex, s: Fraction, convention: str = "paper-literal"
) -> HeartVerdict:
    """Necessary conditions for E to land in the tilted heart at s,
    after the best shift.

    The heart is two-term: cohomology in degrees -1 and 0 only, with
    the degree -1 sheaf on the F side and the degree 0 sheaf on the T
    side.  Two nonzero sheaves of equal slope can never split that
    way, at any s; that case is reported before the pointwise checks.
    Passing everything still only earns MaybeInHeart.
    """
    return _heart_rule(E, convention)(Fraction(s))


def _heart_rule(E: FormalComplex, convention: str):
    """heart_gate for E with everything that does not depend on s done
    once (model and convention checks, support, amplitude, slopes, the
    equal-slope case): a function s -> HeartVerdict that only compares
    the slopes with the threshold at s."""
    scale = _threshold_scale(surface_data(E.model)[0], convention)

    def constant(status: str, reason: str | None, best: int | None):
        return lambda s: HeartVerdict(status, reason, best, s, convention)

    degrees = E.support()
    if not degrees:
        return constant("MaybeInHeart", None, 0)
    lo, hi = min(degrees), max(degrees)
    if hi - lo >= 2:
        return constant("NotInHeart", "amplitude", None)
    sheaf_map = E.sheaf_map()
    if hi - lo == 1:
        mu_low = _sheaf_slope(sheaf_map[lo], E.model)
        mu_high = _sheaf_slope(sheaf_map[hi], E.model)
        if mu_low == mu_high:
            return constant("NotInHeart", "equal-slope", hi)

        def two_term(s: Fraction) -> HeartVerdict:
            threshold = s * scale
            if _side(mu_low, threshold) == "F" and _side(mu_high, threshold) == "T":
                return HeartVerdict("MaybeInHeart", None, hi, s, convention)
            return HeartVerdict("NotInHeart", "torsion-pair", hi, s, convention)

        return two_term
    # single nonzero sheaf: try it in degree 0 (T side), then degree -1 (F side)
    mu = _sheaf_slope(sheaf_map[lo], E.model)

    def single(s: Fraction) -> HeartVerdict:
        best = lo if _side(mu, s * scale) == "T" else lo + 1
        return HeartVerdict("MaybeInHeart", None, best, s, convention)

    return single


@dataclass(slots=True)
class ScanRow:
    s: Fraction
    t: Fraction
    best_shift: int | None
    heart_status: str
    heart_reason: str | None
    re: Fraction
    im: Fraction
    im_zero: bool
    phase_sector: str
    phase_display: float


def question_scan(
    E: FormalComplex,
    grid: Iterable[tuple[Fraction, Fraction]],
    convention: str = "paper-literal",
) -> list[ScanRow]:
    """Evidence table over a rational (s,t) grid.

    Each row carries the heart obstruction at s and the exact charge
    of the total class at (s,t).  No stability verdict is emitted:
    the underlying question is open and this is an instrument, not an
    answer.

    The class, the heart rule and the charge coefficients are built
    once per call, and the grid is read once.  Coordinates are grouped
    by object, not by value: each distinct t object is converted,
    checked, sorted and squared into t^2*d*r/2 once, and each distinct s
    value (``1`` and ``Fraction(1)`` are one s) gets its heart verdict
    and the s-part of the charge once, all kept as integer numerators
    and denominators.  A point then hashes no Fraction and does no
    Fraction arithmetic: re and im are each one Fraction(n, d) of
    integer products, which its gcd makes canonical, and the point is
    placed among its s's points by the integer rank of its t.

    im = t*im_s with t > 0, so the im = 0 wall and the sign of im are
    facts of s: off the wall an s decides its points' im_zero (False)
    and sector (that of im_s) once.  On the wall re changes sign with t,
    so each point there reads its sector from its own charge.  A point
    still builds its ChargeValue for its phase, and its row; both
    classes are slotted and the row is built positionally.
    """
    points = list(grid)
    if not points:
        raise EmptyGrid("scan needs at least one grid point")
    # keyed by id(): points holds every raw coordinate for the whole call
    t_places: dict[int, int] = {}  # raw t -> its place in ts
    ts: list[Fraction] = []
    s_groups: dict[int, tuple] = {}  # raw s -> (raw s, places of its t's)
    for s, t in points:
        place = t_places.get(id(t))
        if place is None:
            place = t_places[id(t)] = len(ts)
            ts.append(Fraction(t))
            if ts[-1] <= 0:
                raise NonpositiveT(f"grid t values must be positive, got {t}")
        group = s_groups.get(id(s))
        if group is None:
            group = s_groups[id(s)] = (s, [])
        group[1].append(place)
    order = sorted(range(len(ts)), key=ts.__getitem__)
    rank = sorted(range(len(ts)), key=order.__getitem__)  # place -> rank
    ts = [ts[place] for place in order]
    by_s: dict[Fraction, list[int]] = {}  # one group of t ranks per value of s
    for s, places in s_groups.values():
        by_s.setdefault(Fraction(s), []).extend(map(rank.__getitem__, places))
    total = class_of(E, E.model)
    heart = _heart_rule(E, convention)
    at_s, half = _charge_in_s(total)
    t_parts = []  # by rank: t and t^2*d*r/2 as numerators and denominators, then t
    for t in ts:
        term = t * t * half
        t_parts.append((t.numerator, t.denominator, term.numerator, term.denominator, t))
    rows = []
    for s, ranks in sorted(by_s.items()):
        verdict = heart(s)
        best, status, reason = verdict.best_shift, verdict.status, verdict.reason
        re_s, im_s = at_s(s)
        an, ad, bn, bd = re_s.numerator, re_s.denominator, im_s.numerator, im_s.denominator
        on_wall = bn == 0
        # t > 0, so off the wall every t*im_s has the sign, hence the sector, of im_s
        sector = None if on_wall else ChargeValue(re_s, im_s).phase_sector()
        for r in sorted(ranks):
            tn, td, un, ud, t = t_parts[r]
            re = Fraction(an * ud + un * ad, ad * ud)
            im = Fraction(tn * bn, td * bd)
            charge = ChargeValue(re, im)
            rows.append(ScanRow(
                s, t, best, status, reason, re, im, on_wall,
                charge.phase_sector() if on_wall else sector, charge.phase_display(),
            ))
    return rows
