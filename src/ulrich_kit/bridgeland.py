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
from fractions import Fraction
from functools import total_ordering
from math import atan2, lcm, nextafter, pi

from ._values import Frozen, Record, set_field
from .chern import NumClass, class_of
from .complexes import FormalComplex
from .errors import (
    EmptyGrid,
    Indeterminate,
    MalformedDescriptor,
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


class ChargeValue(Frozen):
    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction) -> None:
        set_field(self, "re", re)
        set_field(self, "im", im)

    def as_pair(self) -> tuple[Fraction, Fraction]:
        return (self.re, self.im)

    def phase_sector(self) -> str:
        """Read off the signs of the numerators, im first."""
        return ChargeValue._sector(self.re.numerator, self.im.numerator)

    def phase_display(self) -> float:
        """Phase as a multiple of pi in (-1, 1], 0.0 at zero; display only."""
        re, im = self.re, self.im
        return ChargeValue._phase(re.numerator, re.denominator, im.numerator, im.denominator)

    @staticmethod
    def _sector(re: int, im: int) -> str:
        """The sector of re/a + i*im/b for any positive a and b: the signs
        of the numerators, im first.  A numerator over a positive
        denominator has the sign of its reduced form, so unreduced
        integer parts give the sector of the reduced charge."""
        if im:
            return "upper-half" if im > 0 else "lower-half"
        if re:
            return "positive-real" if re > 0 else "negative-real"
        return "zero"

    @staticmethod
    def _phase(re: int, re_den: int, im: int, im_den: int) -> float:
        """Phase of re/re_den + i*im/im_den (positive denominators) as a
        multiple of pi in (-1, 1], 0.0 at zero; display only.

        Each part is its numerator over its denominator in true division.
        int / int is correctly rounded, so an unreduced pair gives the
        float of its reduced Fraction, the one float() gives, and
        overflows exactly when that float would.  Parts past the float
        range are first divided by the power of two just above the
        integer parts of both.  A lower-half phase that atan2 rounds to
        -pi reads as the float just above -1."""
        try:
            angle = atan2(im / im_den, re / re_den)
        except OverflowError:
            k = max(abs(im) // im_den, abs(re) // re_den).bit_length()
            angle = atan2(im / (im_den << k), re / (re_den << k))
        return nextafter(-1.0, 0.0) if angle == -pi else angle / pi


def _coordinate(x, name: str) -> Fraction:
    """A coordinate s or t as a Fraction.  It is exact as NumClass's e1
    and e2 are: an int or a Fraction, never a float (nor NaN or inf)."""
    if type(x) is Fraction:
        return x
    if type(x) is int or isinstance(x, Fraction):
        return Fraction(x)
    raise MalformedDescriptor(f"{name} must be a Fraction or an int, got {x!r}")


def central_charge(c: NumClass, s: Fraction, t: Fraction) -> ChargeValue:
    """Z = -[e2*d - (s+it)*e1*d + (s+it)^2*d*r/2], expanded exactly.

    Real part -e2*d + s*e1*d - (s^2 - t^2)*d*r/2; imaginary part
    t*d*(e1 - s*r).  Requires t > 0.
    """
    s, t = _coordinate(s, "s"), _coordinate(t, "t")
    if t <= 0:
        raise NonpositiveT(f"t must be positive, got {t}")
    at_s, h = _charge_in_s(c)
    re_s, q2, re_den, im_s, im_den = at_s(s)
    u, v = t.numerator, t.denominator
    return ChargeValue(
        Fraction(re_s * v * v + h * u * u * q2, re_den * v * v), Fraction(u * im_s, v * im_den)
    )


def _charge_in_s(c: NumClass):
    """Z of class c in integers.  -e2*d, e1*d and d*r/2 are read once, as
    numerators a, b and h over one positive denominator D.  At s = p/q
    and t = u/v (q, v > 0), with R = a*q^2 + b*p*q - h*p^2 and
    I = b*q - 2*h*p,

        Z(s, t) = (R*v^2 + h*u^2*q^2) / (D*q^2*v^2) + i*u*I / (v*D*q),

    the expanded formula over positive, unreduced denominators.  Returns
    s -> (R, q^2, D*q^2, I, D*q), the charge at s with t = 0 as integer
    parts, and h."""
    d = surface_data(c.model)[0]
    e1, e2 = c.e1, c.e2
    D = lcm(2, e1.denominator, e2.denominator)
    a = -e2.numerator * d * (D // e2.denominator)
    b = e1.numerator * d * (D // e1.denominator)
    h = c.r * d * (D // 2)

    def at_s(s: Fraction) -> tuple[int, int, int, int, int]:
        p, q = s.numerator, s.denominator
        return a * q * q + b * p * q - h * p * p, q * q, D * q * q, b * q - 2 * h * p, D * q

    return at_s, h


def ulrich_charge_closed_form(
    model: VarietyModel, r: int, s: Fraction, t: Fraction
) -> ChargeValue:
    """The displayed closed form for the charge of a rank-r solved
    class: re = -r*chi0 + (r*d/4)(i^2+3i+4) + (r*d/2)(s^2-t^2+(i+3)s),
    im = (r*d/2)(2s+i+3)t.  Evaluated verbatim; see the module note on
    how it actually relates to central_charge.
    """
    s, t = _coordinate(s, "s"), _coordinate(t, "t")
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
    return _side(mu, _coordinate(s, "s") * scale)


class HeartVerdict(Record):
    __slots__ = ("status", "reason", "best_shift", "s", "convention")

    def __init__(
        self, status: str, reason: str | None, best_shift: int | None, s: Fraction, convention: str
    ) -> None:
        self.status = status
        self.reason = reason
        self.best_shift = best_shift
        self.s = s
        self.convention = convention

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
    return _heart_rule(E, convention)(_coordinate(s, "s"))


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


class ScanRow(Record):
    __slots__ = (
        "s", "t", "best_shift", "heart_status", "heart_reason",
        "re", "im", "im_zero", "phase_sector", "phase_display",
    )

    def __init__(
        self,
        s: Fraction,
        t: Fraction,
        best_shift: int | None,
        heart_status: str,
        heart_reason: str | None,
        re: Fraction,
        im: Fraction,
        im_zero: bool,
        phase_sector: str,
        phase_display: float,
    ) -> None:
        self.s = s
        self.t = t
        self.best_shift = best_shift
        self.heart_status = heart_status
        self.heart_reason = heart_reason
        self.re = re
        self.im = im
        self.im_zero = im_zero
        self.phase_sector = phase_sector
        self.phase_display = phase_display


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

    Once per call: the class, the heart rule, the charge coefficients
    as integers (``_charge_in_s``) and one read of the grid.
    Coordinates are grouped by object, not by value.  Each distinct
    coordinate object is checked once as the grid is read (an int or a
    Fraction, and t > 0).

    Per distinct t object: its rank among the t's, and u, v, h*u^2 and
    v^2 for t = u/v.  Per distinct s value (``1`` and ``Fraction(1)``
    are one s): its heart verdict, and the charge at s with t = 0 as
    unreduced integer numerators over positive denominators, with no
    Fraction arithmetic and no ChargeValue.  im = t*im_s with t > 0, so
    the im = 0 wall is a zero numerator of im_s, and off the wall the
    sector of every point of s is the sign of that numerator.  On the
    wall re changes sign with t, so each point there reads its sector
    from its own re.

    Per point: five integer products, exactly two normalizing
    Fraction(n, d) for re and im, and the phase read from the same
    unreduced integers (``ChargeValue._phase`` gives the float of the
    reduced parts).  The point is placed among its s's points by the
    integer rank of its t, hashes no Fraction, and its slotted row is
    built positionally.
    """
    points = list(grid)
    if not points:
        raise EmptyGrid("scan needs at least one grid point")
    # keyed by id(): points holds every raw coordinate for the whole call
    t_places: dict[int, int] = {}  # raw t -> its place in ts
    ts: list[Fraction] = []
    s_groups: dict[int, tuple] = {}  # raw s -> (s as a Fraction, places of its t's)
    for s, t in points:
        place = t_places.get(id(t))
        if place is None:
            place = t_places[id(t)] = len(ts)
            ts.append(_coordinate(t, "grid t"))
            if ts[-1] <= 0:
                raise NonpositiveT(f"grid t values must be positive, got {t}")
        group = s_groups.get(id(s))
        if group is None:
            group = s_groups[id(s)] = (_coordinate(s, "grid s"), [])
        group[1].append(place)
    order = sorted(range(len(ts)), key=ts.__getitem__)
    rank = sorted(range(len(ts)), key=order.__getitem__)  # place -> rank
    by_s: dict[Fraction, list[int]] = {}  # one group of t ranks per value of s
    for s, places in s_groups.values():
        by_s.setdefault(s, []).extend(map(rank.__getitem__, places))
    total = class_of(E, E.model)
    heart = _heart_rule(E, convention)
    at_s, h = _charge_in_s(total)
    t_parts = []  # by rank: u, v, h*u^2 and v^2 for t = u/v, then t
    for place in order:
        t = ts[place]
        u, v = t.numerator, t.denominator
        t_parts.append((u, v, h * u * u, v * v, t))
    sector_of, phase_of = ChargeValue._sector, ChargeValue._phase
    rows = []
    for s, ranks in sorted(by_s.items()):
        verdict = heart(s)
        best, status, reason = verdict.best_shift, verdict.status, verdict.reason
        re_s, q2, re_den, im_s, im_den = at_s(s)
        on_wall = im_s == 0
        # t > 0, so off the wall every t*im_s has the sign, hence the sector, of im_s
        sector = None if on_wall else sector_of(re_s, im_s)
        for r in sorted(ranks):
            u, v, hu2, v2, t = t_parts[r]
            re, re_d, im, im_d = re_s * v2 + hu2 * q2, re_den * v2, u * im_s, v * im_den
            rows.append(ScanRow(
                s, t, best, status, reason, Fraction(re, re_d), Fraction(im, im_d), on_wall,
                sector_of(re, 0) if on_wall else sector, phase_of(re, re_d, im, im_d),
            ))
    return rows
