"""Slopes, central charges, torsion pairs, heart obstructions, and the
evidence scanner.

The charge tests treat the defining integral and the displayed closed
form as two distinct functions, because they are: on solved classes
they agree only where the real part vanishes, and the exact relation
between them (a reflection in s plus a sign on the real part) is pinned
down here as a property.
"""

from fractions import Fraction
from math import atan, atan2, nextafter, pi

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ulrich_kit import (
    INFINITE,
    AbstractSheaf,
    ChargeValue,
    GlueWitness,
    LineBundle,
    NumClass,
    Spinor,
    abstract_ulrich_sheaf,
    central_charge,
    class_of,
    formal_complex,
    heart_gate,
    line_bundle,
    product_proj,
    proj_space,
    quadric,
    question_scan,
    rank1_surface,
    shift,
    slope,
    torsion_classify,
    twist_class,
    ulrich_charge_closed_form,
    ulrich_chern_solve,
    yoneda_build,
)
from ulrich_kit.errors import (
    EmptyGrid,
    Indeterminate,
    MalformedDescriptor,
    MissingConvention,
    ModelMismatch,
    NonpositiveT,
    NoSlope,
    UnsupportedModel,
)

K3 = rank1_surface(4, 0, 2)
# coordinates s and t are exact: an int or a Fraction, as NumClass's e1
# and e2 are; a float, NaN, inf or a string is refused
NOT_EXACT = (0.1, 2.0, float("nan"), float("inf"), float("-inf"), "1/2")


class TestSlope:
    def test_line_bundles(self):
        p2 = proj_space(2)
        assert slope(class_of(line_bundle(1), p2)) == 1
        assert slope(class_of(line_bundle(-3), p2)) == -3

    def test_spinor_line(self):
        q2 = quadric(2)
        assert slope(class_of(Spinor("+"), q2)) == Fraction(1, 2)

    def test_rank_zero_is_infinite(self):
        c = NumClass(K3, 0, Fraction(1), Fraction(0))
        assert slope(c) is INFINITE

    def test_infinite_orders_above_every_rational(self):
        assert INFINITE > Fraction(10**9)
        assert not (INFINITE < Fraction(0))
        assert INFINITE >= INFINITE
        assert INFINITE == INFINITE
        assert INFINITE != Fraction(0)

    def test_infinite_hashes_and_compares_from_either_side(self):
        assert hash(INFINITE) == hash(INFINITE)
        assert {INFINITE: "torsion"}[INFINITE] == "torsion"
        q = Fraction(-7, 3)
        assert q < INFINITE and q <= INFINITE and q != INFINITE
        assert not (q > INFINITE or q >= INFINITE or q == INFINITE)
        assert INFINITE > q and INFINITE >= q
        assert not (INFINITE < q or INFINITE <= q)
        assert INFINITE <= INFINITE and not (INFINITE < INFINITE or INFINITE > INFINITE)
        assert sorted([INFINITE, Fraction(1), q]) == [q, Fraction(1), INFINITE]

    def test_needs_a_surface(self):
        p3 = proj_space(3)
        with pytest.raises(UnsupportedModel):
            slope(NumClass(p3, 1, Fraction(0), Fraction(0)))

    def test_ulrich_slope_is_half_i_plus_three(self):
        for model in (K3, rank1_surface(3, -1, 1), rank1_surface(5, 1, 1)):
            i_x = model.canonical_coeff
            for r in (1, 2, 3):
                c = ulrich_chern_solve(model, r)
                assert slope(c) == Fraction(i_x + 3, 2)


class TestCentralCharge:
    def test_structure_sheaf_at_the_base_point(self):
        q2 = quadric(2)
        z = central_charge(class_of(line_bundle(0), q2), Fraction(0), Fraction(1))
        assert z.as_pair() == (Fraction(1), Fraction(0))
        assert z.phase_sector() == "positive-real"

    def test_solved_class_at_the_cross_point(self):
        c = ulrich_chern_solve(K3, 2)
        z = central_charge(c, Fraction(0), Fraction(1))
        assert z.as_pair() == (Fraction(0), Fraction(12))
        w = ulrich_charge_closed_form(K3, 2, Fraction(0), Fraction(1))
        assert w.as_pair() == (Fraction(0), Fraction(12))

    def test_the_two_formulas_differ_off_the_cross_point(self):
        c = ulrich_chern_solve(K3, 2)
        z = central_charge(c, Fraction(1), Fraction(1))
        w = ulrich_charge_closed_form(K3, 2, Fraction(1), Fraction(1))
        assert z.as_pair() == (Fraction(8), Fraction(4))
        assert w.as_pair() == (Fraction(16), Fraction(20))
        assert z.as_pair() != w.as_pair()

    def test_exact_relation_between_the_formulas(self):
        # Z(s, t) = (-Re W(-s, t), +Im W(-s, t)) on every solved class
        for model in (K3, rank1_surface(3, -1, 1), rank1_surface(2, 1, 1)):
            for r in (1, 2, 3):
                c = ulrich_chern_solve(model, r)
                for s in (Fraction(-2), Fraction(-1, 2), Fraction(0), Fraction(3, 2)):
                    for t in (Fraction(1, 2), Fraction(1), Fraction(3)):
                        z = central_charge(c, s, t)
                        w = ulrich_charge_closed_form(model, r, -s, t)
                        assert z.re == -w.re, (model.kind, r, s, t)
                        assert z.im == w.im, (model.kind, r, s, t)

    def test_imaginary_walls_sit_at_reflected_slopes(self):
        i_x = K3.canonical_coeff
        mu = Fraction(i_x + 3, 2)
        c = ulrich_chern_solve(K3, 2)
        assert central_charge(c, mu, Fraction(1)).im == 0
        assert central_charge(c, mu + 1, Fraction(1)).im != 0
        assert ulrich_charge_closed_form(K3, 2, -mu, Fraction(1)).im == 0
        assert ulrich_charge_closed_form(K3, 2, mu, Fraction(1)).im != 0

    def test_rank_zero_class(self):
        c = NumClass(K3, 0, Fraction(1), Fraction(0))
        z = central_charge(c, Fraction(0), Fraction(1))
        assert z.as_pair() == (Fraction(0), Fraction(4))
        assert z.phase_sector() == "upper-half"

    def test_nonpositive_t_is_rejected(self):
        c = class_of(line_bundle(0), proj_space(2))
        for t in (Fraction(0), Fraction(-1)):
            with pytest.raises(NonpositiveT):
                central_charge(c, Fraction(0), t)
            with pytest.raises(NonpositiveT):
                ulrich_charge_closed_form(K3, 1, Fraction(0), t)

    def test_central_charge_refuses_an_inexact_coordinate(self):
        c = class_of(line_bundle(0), K3)
        for x in NOT_EXACT:
            with pytest.raises(MalformedDescriptor, match="^s must be"):
                central_charge(c, x, Fraction(1))
            with pytest.raises(MalformedDescriptor, match="^t must be"):
                central_charge(c, Fraction(0), x)
        assert central_charge(c, 1, 2) == central_charge(c, Fraction(1), Fraction(2))

    def test_closed_form_refuses_an_inexact_coordinate(self):
        for x in NOT_EXACT:
            with pytest.raises(MalformedDescriptor, match="^s must be"):
                ulrich_charge_closed_form(K3, 1, x, Fraction(1))
            with pytest.raises(MalformedDescriptor, match="^t must be"):
                ulrich_charge_closed_form(K3, 1, Fraction(0), x)
        assert ulrich_charge_closed_form(K3, 1, 1, 2) == ulrich_charge_closed_form(
            K3, 1, Fraction(1), Fraction(2)
        )

    def test_curve_classes_are_rejected(self):
        from ulrich_kit import elliptic_curve, SemistableEC

        c = class_of(SemistableEC(1, 3), elliptic_curve(3))
        with pytest.raises(UnsupportedModel):
            central_charge(c, Fraction(0), Fraction(1))

    def test_phase_sectors(self):
        from ulrich_kit import ChargeValue

        def mk(re, im):
            return ChargeValue(Fraction(re), Fraction(im))

        assert mk(0, 1).phase_sector() == "upper-half"
        assert mk(0, -1).phase_sector() == "lower-half"
        assert mk(-1, 0).phase_sector() == "negative-real"
        assert mk(1, 0).phase_sector() == "positive-real"
        assert mk(0, 0).phase_sector() == "zero"
        assert mk(-1, 0).phase_display() == 1.0
        assert mk(0, 1).phase_display() == 0.5

    def test_phase_past_the_float_range(self):
        from ulrich_kit import ChargeValue

        # a multiple past every float has the phase of the point
        for re, im in ((-1, 1), (3, -5), (-7, 0), (0, 2)):
            small = ChargeValue(Fraction(re), Fraction(im))
            big = ChargeValue(Fraction(re) * 10**400, Fraction(im) * 10**400)
            assert big.phase_display() == pytest.approx(small.phase_display())
        # at s = 10^200 the real part is about 10^400
        c = NumClass(K3, -1, Fraction(0), Fraction(0))
        z = central_charge(c, Fraction(10**200), Fraction(1))
        assert z.phase_sector() == "upper-half"
        assert -1 < z.phase_display() <= 1
        assert z.phase_display() == pytest.approx(atan(z.im / z.re) / pi)

    def test_a_phase_just_above_minus_one_stays_in_range(self):
        # at s = 10^100, Z(O(2)) has re about -2 * 10^200 and im = -4 * 10^100:
        # atan2 of their floats rounds to -pi, which would read as -1
        z = central_charge(class_of(line_bundle(2), K3), Fraction(10**100), Fraction(1))
        assert z.phase_sector() == "lower-half"
        assert -1 < z.phase_display() <= 1


class TestTorsionClassify:
    def test_threshold_conventions(self):
        # slope 1 on the K3: paper-literal threshold s*d = 4s
        mu = Fraction(1)
        assert torsion_classify(mu, Fraction(0), K3) == "T"
        assert torsion_classify(mu, Fraction(1), K3, "paper-literal") == "F"
        assert torsion_classify(mu, Fraction(1), K3, "normalized") == "F"
        assert torsion_classify(mu, Fraction(1, 2), K3, "paper-literal") == "F"
        assert torsion_classify(mu, Fraction(1, 2), K3, "normalized") == "T"

    def test_boundary_goes_to_f(self):
        assert torsion_classify(Fraction(2), Fraction(2), K3, "normalized") == "F"

    def test_infinite_slope_is_always_torsion(self):
        for s in (Fraction(-10), Fraction(0), Fraction(10)):
            assert torsion_classify(INFINITE, s, K3) == "T"

    def test_descriptor_and_class_inputs(self):
        q2 = quadric(2)
        assert torsion_classify(Spinor("+"), Fraction(0), q2) == "T"
        c = class_of(line_bundle(-1), q2)
        assert torsion_classify(c, Fraction(0), q2) == "F"

    def test_unknown_convention(self):
        with pytest.raises(MissingConvention):
            torsion_classify(Fraction(0), Fraction(0), K3, "house-style")

    def test_an_inexact_s_is_refused(self):
        for x in NOT_EXACT:
            with pytest.raises(MalformedDescriptor, match="^s must be"):
                torsion_classify(Fraction(1), x, K3)
        assert torsion_classify(Fraction(1), 1, K3, "normalized") == "F"

    def test_a_class_on_another_model_is_refused(self):
        # the solved class has slope 1 on the K3 (threshold 4 at s = 1),
        # but read against d = 1 it would land on the T side
        c = ulrich_chern_solve(K3, 2)
        assert torsion_classify(c, 1, K3) == "F"
        with pytest.raises(ModelMismatch):
            torsion_classify(c, 1, rank1_surface(1, -3, 1))
        with pytest.raises(ModelMismatch):
            torsion_classify(class_of(line_bundle(0), proj_space(3)), 0, K3)

    def test_a_bool_slope_is_refused(self):
        # a bool is an int to isinstance, not a slope, as for a coordinate
        for flag in (True, False):
            with pytest.raises(MalformedDescriptor, match="^a slope must be"):
                torsion_classify(flag, 0, K3)
        assert torsion_classify(1, 0, K3) == "T"

    @settings(max_examples=60, deadline=None)
    @given(
        mu=st.fractions(min_value=-4, max_value=4, max_denominator=6),
        s1=st.fractions(min_value=-4, max_value=4, max_denominator=6),
        s2=st.fractions(min_value=-4, max_value=4, max_denominator=6),
    )
    def test_monotone_in_s(self, mu, s1, s2):
        # once an object falls to F it stays F as s grows
        lo, hi = sorted((s1, s2))
        for convention in ("paper-literal", "normalized"):
            if torsion_classify(mu, lo, K3, convention) == "F":
                assert torsion_classify(mu, hi, K3, convention) == "F"


class TestHeartGate:
    def glued_pair(self, model=K3, r1=1, r2=2):
        F = abstract_ulrich_sheaf(model, r1, label="F")
        G = abstract_ulrich_sheaf(model, r2, label="G")
        return yoneda_build(F, G, 2, model, witness="asserted")

    def test_equal_slope_pair_is_never_in_the_heart(self):
        E = self.glued_pair()
        for convention in ("paper-literal", "normalized"):
            for s in (Fraction(-2), Fraction(0), Fraction(3, 2), Fraction(5)):
                verdict = heart_gate(E, s, convention)
                assert verdict.status == "NotInHeart"
                assert verdict.reason == "equal-slope"
                assert not verdict.maybe

    def test_wide_amplitude(self):
        model = K3
        F = abstract_ulrich_sheaf(model, 1, label="F")
        G = abstract_ulrich_sheaf(model, 1, label="G")
        E = formal_complex(model, {0: F, -2: G})
        verdict = heart_gate(E, Fraction(0))
        assert (verdict.status, verdict.reason) == ("NotInHeart", "amplitude")
        assert verdict.best_shift is None

    def test_single_sheaf_is_always_maybe(self):
        p2 = proj_space(2)
        E = formal_complex(p2, {0: line_bundle(0)})
        # slope 0: T side for s < 0, F side for s >= 0
        low = heart_gate(E, Fraction(-1))
        assert low.maybe and low.best_shift == 0
        high = heart_gate(E, Fraction(0))
        assert high.maybe and high.best_shift == 1

    def test_single_sheaf_shift_tracks_the_support(self):
        p2 = proj_space(2)
        E = shift(formal_complex(p2, {0: line_bundle(0)}), 4)
        verdict = heart_gate(E, Fraction(-1))
        assert verdict.maybe and verdict.best_shift == -4

    def test_mixed_slopes_respect_the_torsion_pair(self):
        p2 = proj_space(2)
        # degree -1 sheaf needs slope <= threshold, degree 0 needs above
        E = formal_complex(p2, {-1: line_bundle(-2), 0: line_bundle(2)})
        good = heart_gate(E, Fraction(0))
        assert good.maybe and good.best_shift == 0
        # at s below both slopes the low sheaf lands on the wrong side
        bad = heart_gate(E, Fraction(-3))
        assert (bad.status, bad.reason) == ("NotInHeart", "torsion-pair")

    def test_inverted_pair_is_out(self):
        p2 = proj_space(2)
        E = formal_complex(p2, {-1: line_bundle(2), 0: line_bundle(-2)})
        verdict = heart_gate(E, Fraction(0))
        assert (verdict.status, verdict.reason) == ("NotInHeart", "torsion-pair")

    def test_empty_complex(self):
        verdict = heart_gate(formal_complex(K3, {}), Fraction(0))
        assert verdict.maybe and verdict.best_shift == 0

    def test_classless_sheaf_has_no_slope(self):
        E = formal_complex(K3, {0: AbstractSheaf(rank=1)})
        with pytest.raises(NoSlope):
            heart_gate(E, Fraction(0))

    def test_unknown_convention(self):
        E = formal_complex(K3, {0: abstract_ulrich_sheaf(K3, 1)})
        with pytest.raises(MissingConvention):
            heart_gate(E, Fraction(0), "house-style")

    def test_an_inexact_s_is_refused(self):
        E = formal_complex(K3, {-1: line_bundle(-1), 0: line_bundle(2)})
        for x in NOT_EXACT:
            with pytest.raises(MalformedDescriptor, match="^s must be"):
                heart_gate(E, x)
        assert heart_gate(E, 0) == heart_gate(E, Fraction(0))


class TestQuestionScan:
    def grid(self):
        return [
            (Fraction(s), Fraction(t))
            for s in range(-2, 3)
            for t in (Fraction(1, 2), Fraction(1), Fraction(2))
        ]

    def test_row_shape_and_order(self):
        E = self.glued()
        rows = question_scan(E, self.grid())
        assert len(rows) == 15
        assert [(r.s, r.t) for r in rows] == sorted((r.s, r.t) for r in rows)

    def glued(self):
        F = abstract_ulrich_sheaf(K3, 1, label="F")
        G = abstract_ulrich_sheaf(K3, 2, label="G")
        return yoneda_build(F, G, 2, K3, witness="asserted")

    def test_glued_pair_is_obstructed_everywhere(self):
        rows = question_scan(self.glued(), self.grid())
        assert all(row.heart_status == "NotInHeart" for row in rows)
        assert all(row.heart_reason == "equal-slope" for row in rows)

    def test_charge_columns_match_the_total_class(self):
        E = self.glued()
        total = class_of(E, K3)
        for row in question_scan(E, self.grid()):
            z = central_charge(total, row.s, row.t)
            assert (row.re, row.im) == z.as_pair()
            assert row.im_zero == (row.im == 0)
            assert row.phase_sector == z.phase_sector()

    def test_rows_are_exact_with_a_sheaf_in_degree_minus_one(self):
        # the glued pair puts G in degree -1: class F - G, not a float
        F = ulrich_chern_solve(K3, 1)
        G = ulrich_chern_solve(K3, 2)
        total = NumClass(K3, F.r - G.r, F.e1 - G.e1, F.e2 - G.e2)
        grid = [(Fraction(1, 3), Fraction(1, 7)), (Fraction(-2, 5), Fraction(3, 11))]
        for row in question_scan(self.glued(), grid):
            assert type(row.re) is Fraction and type(row.im) is Fraction
            assert (row.re, row.im) == central_charge(total, row.s, row.t).as_pair()

    def test_imaginary_wall_lands_on_the_class_slope(self):
        # total class of the glued pair: F + G (even degrees), rank 3
        E = self.glued()
        mu = slope(class_of(E, K3))
        rows = question_scan(E, [(mu, Fraction(1)), (mu + 1, Fraction(1))])
        assert rows[0].im_zero and not rows[1].im_zero

    def test_rows_at_the_wall_cross_the_real_axis(self):
        # class (2, 1, 5/2): mu = 1/2, where im = 0 and re = -9 + 4t^2
        # changes sign at t = 3/2
        total = NumClass(K3, 2, Fraction(1), Fraction(5, 2))
        E = formal_complex(K3, {0: AbstractSheaf(rank=2, label="W", num_class=total)})
        mu = slope(class_of(E, K3))
        assert mu == Fraction(1, 2)
        ts = (Fraction(1), Fraction(3, 2), Fraction(2))
        rows = question_scan(E, [(mu, t) for t in reversed(ts)])
        assert [row.t for row in rows] == list(ts)
        for row in rows:
            z = central_charge(total, row.s, row.t)
            assert (row.re, row.im) == z.as_pair()
            assert row.im_zero
            assert (row.phase_sector, row.phase_display) == (z.phase_sector(), z.phase_display())
        assert [row.phase_sector for row in rows] == ["negative-real", "zero", "positive-real"]
        assert [row.phase_display for row in rows] == [1.0, 0.0, 0.0]

    def test_equal_s_values_of_two_types_are_one_group(self):
        E = self.glued()
        grid = [(1, Fraction(2)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1, 2))]
        rows = question_scan(E, grid)
        assert [(row.s, row.t) for row in rows] == [
            (0, 1), (1, Fraction(1, 2)), (1, 2),
        ]
        assert all(type(row.s) is Fraction for row in rows)

    def test_empty_grid(self):
        with pytest.raises(EmptyGrid):
            question_scan(self.glued(), [])
        with pytest.raises(EmptyGrid):
            question_scan(self.glued(), iter([]))

    def test_a_grid_is_read_once(self):
        E = self.glued()
        grid = self.grid()
        rows = question_scan(E, grid)
        assert question_scan(E, iter(grid)) == rows
        assert question_scan(E, ((Fraction(s), Fraction(t)) for s, t in grid)) == rows

    def test_nonpositive_t_anywhere_is_rejected(self):
        grid = [(Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))]
        with pytest.raises(NonpositiveT):
            question_scan(self.glued(), grid)

    def test_convention_is_passed_through(self):
        p2 = proj_space(2)
        E = formal_complex(p2, {0: line_bundle(2)})
        # slope 2: at s = 1 paper-literal threshold is 1, normalized is 1;
        # on the plane d = 1 so the two agree; quadric separates them
        q2 = quadric(2)
        Eq = formal_complex(q2, {0: line_bundle(1)})
        grid = [(Fraction(3, 4), Fraction(1))]
        literal = question_scan(Eq, grid, "paper-literal")[0]
        normalized = question_scan(Eq, grid, "normalized")[0]
        # slope 1 vs thresholds 3/2 (literal) and 3/4 (normalized)
        assert literal.best_shift == 1  # F side: in the heart shifted once
        assert normalized.best_shift == 0  # T side


@settings(max_examples=80, deadline=None)
@given(
    r=st.integers(min_value=1, max_value=5),
    e1=st.fractions(min_value=-4, max_value=4, max_denominator=4),
    e2=st.fractions(min_value=-4, max_value=4, max_denominator=4),
    s=st.fractions(min_value=-3, max_value=3, max_denominator=5),
    t=st.fractions(min_value=Fraction(1, 5), max_value=3, max_denominator=5),
)
def test_imaginary_part_identity(r, e1, e2, s, t):
    c = NumClass(K3, r, e1, e2)
    z = central_charge(c, s, t)
    assert z.im == t * K3.deg * (e1 - s * r)
    # and the twist acts on the wall position: Z(E(1)) at s equals
    # Z(E) at s - 1 up to the degree-two correction in the real part
    z_tw = central_charge(twist_class(c, 1), s, t)
    assert z_tw.im == t * K3.deg * (e1 + r - s * r)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=8),
    i_x=st.integers(min_value=-4, max_value=4),
    chi0=st.integers(min_value=-3, max_value=3),
    r=st.integers(min_value=1, max_value=5),
    s=st.fractions(min_value=-3, max_value=3, max_denominator=4),
    t=st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4),
)
def test_charge_relation_on_every_surface(d, i_x, chi0, r, s, t):
    """The reflection identity between the integral and the closed form."""
    model = rank1_surface(d, i_x, chi0)
    c = ulrich_chern_solve(model, r)
    z = central_charge(c, s, t)
    w = ulrich_charge_closed_form(model, r, -s, t)
    assert z.re == -w.re
    assert z.im == w.im


# parts up to about 10^400 over 10^400, zero included, some past every float
huge_part = st.builds(
    Fraction, st.integers(-(10**400), 10**400), st.integers(1, 10**400)
)


@settings(max_examples=300, deadline=None)
@given(re=huge_part, im=huge_part)
def test_the_phase_is_the_float_of_the_two_parts(re, im):
    """The display phase is atan2 of float() of each part, read in
    (-1, 1]: -pi reads as the float just above -1."""
    phase = ChargeValue(re, im).phase_display()
    assert -1 < phase <= 1
    try:
        angle = atan2(float(im), float(re))
    except OverflowError:
        return  # the display rescales first; test_phase_past_the_float_range
    assert phase == (nextafter(-1.0, 0.0) if angle == -pi else angle / pi)


# -------------------------------------------------- scan against its parts

def scan_sheaves(model):
    torsion = AbstractSheaf(rank=0, label="T", num_class=NumClass(model, 0, Fraction(1), Fraction(0)))
    return (
        line_bundle(-1),
        line_bundle(0),
        line_bundle(2),
        abstract_ulrich_sheaf(model, 1, label="F"),
        abstract_ulrich_sheaf(model, 2, label="G"),
        torsion,
    )


SCAN_SHEAVES = scan_sheaves(K3)
TORSION = SCAN_SHEAVES[-1]
# rank-1 surfaces whose classes give e1, e2 and d*r/2 denominators 2 and 4
SCAN_MODELS = [
    rank1_surface(d, i_x, chi0)
    for d in range(1, 10)
    for i_x in (-3, -2, -1, 0, 1, Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2))
    for chi0 in (0, 2)
]
# degree layouts: empty, one sheaf, the two heart-adjacent pairs, and
# amplitude two; a repeated sheaf index gives an equal-slope pair
SCAN_LAYOUTS = ((), (0,), (-1,), (-1, 0), (0, 1), (-1, 1), (-2, -1, 0))

# near 10^400 the parts of the charge are past every float, so the
# phase takes its rescaled path
huge_value = st.builds(
    lambda n, k: Fraction(10**400 + n, k), st.integers(-3, 3), st.integers(1, 6)
)
grid_value = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
    huge_value,
    huge_value.map(lambda x: -x),
)
positive_value = st.one_of(
    st.integers(min_value=1, max_value=3),
    st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6),
    huge_value,
)


@st.composite
def scan_complexes(draw):
    model = draw(st.sampled_from(SCAN_MODELS))
    layout = draw(st.sampled_from(SCAN_LAYOUTS))
    sheaves = scan_sheaves(model)
    picks = draw(st.lists(st.sampled_from(sheaves), min_size=len(layout), max_size=len(layout)))
    return formal_complex(model, dict(zip(layout, picks)))


def _repeat(x, how: str):
    """x itself, a new equal object, or x in the other type where it is whole."""
    if how == "same":
        return x
    if how == "new" or x.denominator != 1:
        return Fraction(x.numerator, x.denominator)
    return int(x) if isinstance(x, Fraction) else Fraction(x)


@st.composite
def scan_grids(draw, E):
    # the slope of E's class, where finite, is the wall im = 0: s values
    # there take each point's sector from its own charge
    mu = slope(class_of(E, E.model))
    s_value = grid_value if mu is INFINITE else st.one_of(grid_value, st.just(mu))
    points = draw(st.lists(st.tuples(s_value, positive_value), min_size=1, max_size=12))
    # duplicates: each coordinate as the same object, as a new equal
    # object, or in the other type
    how = st.sampled_from(("same", "new", "other type"))
    repeats = draw(st.lists(st.tuples(st.sampled_from(points), how, how), max_size=6))
    copies = [(_repeat(s, hs), _repeat(t, ht)) for (s, t), hs, ht in repeats]
    return draw(st.permutations(points + copies))


@st.composite
def scans(draw):
    E = draw(scan_complexes())
    return E, draw(scan_grids(E))


TINY = (Fraction(1, 2**70), Fraction(2, 2**70), Fraction(3, 2**70 + 1))
HUGE = (10**400, Fraction(10**400 + 1), Fraction(10**401 - 1, 10))
PAIR = formal_complex(K3, {-1: line_bundle(-1), 0: line_bundle(2)})


# values closer than 2^-64 share their order key floor(x * 2^64), on
# either side of zero, and are ordered as Fractions
@example(scan=(PAIR, [(s, t) for s in TINY + tuple(-x for x in TINY) for t in TINY[::-1]]),
         convention="paper-literal")
# coordinates past the float range, and their negatives
@example(scan=(PAIR, [(s, t) for s in HUGE + tuple(-x for x in HUGE) for t in HUGE[::-1]]),
         convention="normalized")
# int and Fraction duplicates of one value, each kept as its own row
@example(scan=(PAIR, [(1, 2), (Fraction(1), Fraction(2)), (Fraction(-1, 2), 2), (1, Fraction(2)),
                      (-2, 1), (Fraction(-2), Fraction(1)), (Fraction(1), 2)]),
         convention="paper-literal")
@settings(max_examples=250, deadline=None)
@given(scan=scans(), convention=st.sampled_from(("paper-literal", "normalized")))
def test_scan_rows_are_the_gate_and_the_charge_at_each_point(scan, convention):
    E, grid = scan
    rows = question_scan(E, grid, convention)
    # one row per point, duplicates kept, in (s, t) order
    assert [(row.s, row.t) for row in rows] == sorted(
        (Fraction(s), Fraction(t)) for s, t in grid
    )
    total = class_of(E, E.model)
    d = E.model.deg
    for row in rows:
        assert type(row.s) is Fraction and type(row.t) is Fraction
        verdict = heart_gate(E, row.s, convention)
        assert (row.best_shift, row.heart_status, row.heart_reason) == (
            verdict.best_shift, verdict.status, verdict.reason,
        )
        z = central_charge(total, row.s, row.t)
        assert type(row.re) is Fraction and type(row.im) is Fraction
        assert (row.re, row.im) == z.as_pair()
        assert row.im_zero == (z.im == 0)
        assert row.phase_sector == z.phase_sector()
        assert row.phase_display == z.phase_display()
        # the defining formula, expanded as written
        s, t = row.s, row.t
        assert z.re == (
            -total.e2 * d + s * total.e1 * d - (s * s - t * t) * d * total.r / 2
        )
        assert z.im == t * d * (total.e1 - s * total.r)


def test_scan_covers_every_heart_case():
    F, G = SCAN_SHEAVES[3], SCAN_SHEAVES[4]
    grid = [(Fraction(s, 2), 1) for s in range(-6, 7)]
    cases = {
        "equal-slope": formal_complex(K3, {-1: F, 0: G}),
        "amplitude": formal_complex(K3, {-1: F, 1: G}),
        "torsion-pair": formal_complex(K3, {-1: line_bundle(0), 0: TORSION}),
        None: formal_complex(K3, {}),
    }
    for reason, E in cases.items():
        for convention in ("paper-literal", "normalized"):
            reasons = {row.heart_reason for row in question_scan(E, grid, convention)}
            assert reason in reasons, (reason, convention)
    # a torsion sheaf in degree 0 is on the T side at every s
    single = question_scan(formal_complex(K3, {0: TORSION}), grid)
    assert {row.best_shift for row in single} == {0}


# ------------------------------------- the torsion-pair rule in Fractions

def reference_side(mu, s, scale) -> str:
    """The torsion-pair rule as written in Fractions: T for a slope
    strictly above the threshold s*scale (torsion included), F at or
    below it."""
    return "F" if mu <= s * scale else "T"


def reference_verdict(slopes, s, scale):
    """heart_gate's (status, reason, best_shift) for a complex with one
    sheaf of each given slope in degree {degree: slope}, by the rule in
    Fractions."""
    lo, hi = min(slopes), max(slopes)
    if lo == hi:
        return "MaybeInHeart", None, lo if reference_side(slopes[lo], s, scale) == "T" else lo + 1
    if slopes[lo] == slopes[hi]:
        return "NotInHeart", "equal-slope", hi
    if reference_side(slopes[lo], s, scale) == "F" and reference_side(slopes[hi], s, scale) == "T":
        return "MaybeInHeart", None, hi
    return "NotInHeart", "torsion-pair", hi


def sheaf_of_slope(model, mu, rank: int) -> AbstractSheaf:
    """An abstract sheaf whose attached class has slope mu."""
    if mu is INFINITE:
        return AbstractSheaf(rank=0, num_class=NumClass(model, 0, Fraction(1), Fraction(0)))
    return AbstractSheaf(rank=rank, num_class=NumClass(model, rank, mu * rank, Fraction(0)))


# far past 2^64 in both parts, so only exact integer work gets the side right
huge_fraction = st.builds(
    Fraction, st.integers(-(10**90), 10**90), st.integers(1, 10**90)
)
finite_slope = st.one_of(
    st.integers(-10, 10),
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    huge_fraction,
)


@st.composite
def torsion_cases(draw):
    model = draw(st.sampled_from(SCAN_MODELS))
    convention = draw(st.sampled_from(("paper-literal", "normalized")))
    scale = model.deg if convention == "paper-literal" else 1
    slopes = draw(st.lists(st.one_of(st.just(INFINITE), finite_slope), min_size=1, max_size=2))
    finite = [mu for mu in slopes if mu is not INFINITE]
    # s at a slope's threshold, a hair to either side of it, or anywhere
    near = st.nothing()
    if finite:
        at = st.sampled_from(finite).map(lambda mu: Fraction(mu) / scale)
        hair = st.sampled_from((0, 1, -1)).map(lambda k: Fraction(k, 10**120))
        near = st.builds(lambda x, h: x + h, at, hair)
    s = draw(st.one_of(near, st.integers(-10, 10), finite_slope))
    return model, convention, scale, slopes, s


@settings(max_examples=300, deadline=None)
@given(case=torsion_cases(), layout=st.sampled_from(((0,), (-1,), (-1, 0), (0, 1))),
       ranks=st.tuples(st.integers(1, 3), st.integers(1, 3)))
def test_the_integer_rule_is_the_fraction_rule(case, layout, ranks):
    model, convention, scale, slopes, s = case
    for mu, rank in zip(slopes, ranks):
        sheaf = sheaf_of_slope(model, mu, rank)
        side = reference_side(mu, s, scale)
        assert torsion_classify(mu, s, model, convention) == side
        assert torsion_classify(sheaf, s, model, convention) == side
        assert torsion_classify(class_of(sheaf, model), s, model, convention) == side
    by_degree = dict(zip(layout, slopes * 2))
    E = formal_complex(
        model, {q: sheaf_of_slope(model, mu, r) for (q, mu), r in zip(by_degree.items(), ranks)}
    )
    verdict = heart_gate(E, s, convention)
    assert (verdict.status, verdict.reason, verdict.best_shift) == reference_verdict(
        by_degree, s, scale
    )
    assert verdict.s == s and type(verdict.s) is Fraction


class TestScanErrors:
    """The scan raises what its parts raise, in the same order: EmptyGrid,
    NonpositiveT, the class, the heart gate, the charge."""

    grid = [(Fraction(0), Fraction(1))]

    def test_classless_sheaf(self):
        E = formal_complex(K3, {0: line_bundle(0), -1: AbstractSheaf(rank=1)})
        with pytest.raises(NoSlope):
            heart_gate(E, Fraction(0))
        # the total class is asked first, so the scan sees Indeterminate
        with pytest.raises(Indeterminate):
            class_of(E, K3)
        with pytest.raises(Indeterminate):
            question_scan(E, self.grid)

    def test_unknown_convention(self):
        E = formal_complex(K3, {0: line_bundle(0)})
        with pytest.raises(MissingConvention):
            question_scan(E, self.grid, "house-style")
        with pytest.raises(MissingConvention):
            question_scan(formal_complex(K3, {}), self.grid, "house-style")

    def test_non_surface_models(self):
        from ulrich_kit import elliptic_curve, SemistableEC

        for E in (
            formal_complex(proj_space(3), {0: line_bundle(0)}),
            formal_complex(elliptic_curve(3), {0: SemistableEC(1, 3)}),
            formal_complex(proj_space(3), {}),
        ):
            with pytest.raises(UnsupportedModel):
                heart_gate(E, Fraction(0))
            with pytest.raises(UnsupportedModel):
                question_scan(E, self.grid)

    def test_grid_errors_come_first(self):
        E = formal_complex(proj_space(3), {0: AbstractSheaf(rank=1)})
        with pytest.raises(EmptyGrid):
            question_scan(E, [], "house-style")
        with pytest.raises(NonpositiveT):
            question_scan(E, [(Fraction(0), Fraction(1)), (Fraction(1), 0)], "house-style")
        with pytest.raises(Indeterminate):
            question_scan(E, self.grid, "house-style")

    def test_an_inexact_coordinate_is_a_grid_error(self):
        # read with the grid, in its order, before the class and the convention
        E = formal_complex(proj_space(3), {0: AbstractSheaf(rank=1)})
        one = Fraction(1)
        for x in NOT_EXACT:
            with pytest.raises(MalformedDescriptor, match="^grid s must be"):
                question_scan(E, [(one, one), (x, one)], "house-style")
            with pytest.raises(MalformedDescriptor, match="^grid t must be"):
                question_scan(E, [(one, one), (one, x)], "house-style")
            with pytest.raises(NonpositiveT):
                question_scan(E, [(one, 0), (x, one)], "house-style")
            with pytest.raises(MalformedDescriptor):
                question_scan(E, [(one, x), (one, 0)], "house-style")


def test_scan_asks_for_classes_once_per_object(monkeypatch):
    import ulrich_kit.bridgeland
    import ulrich_kit.chern

    calls = []
    original = ulrich_kit.chern.class_of

    def counted(obj, model):
        calls.append(obj)
        return original(obj, model)

    monkeypatch.setattr(ulrich_kit.chern, "class_of", counted)
    monkeypatch.setattr(ulrich_kit.bridgeland, "class_of", counted)
    E = formal_complex(K3, {-1: line_bundle(-1), 0: line_bundle(2)})
    counts = []
    for side in (2, 20):
        calls.clear()
        grid = [(Fraction(s, side), Fraction(t + 1, side)) for s in range(side) for t in range(side)]
        assert len(question_scan(E, grid)) == side * side
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_scan_hashes_no_fraction_per_point(monkeypatch):
    """Coordinates are grouped by object, so a scan hashes at most one
    Fraction per distinct coordinate, however many points share it."""
    hashes = 0
    original = Fraction.__hash__

    def counted(self):
        nonlocal hashes
        hashes += 1
        return original(self)

    E = formal_complex(K3, {-1: line_bundle(-1), 0: line_bundle(2)})
    for side in (2, 20):
        # shared axis objects, as the CLI builds a grid
        s_axis = [Fraction(s, side) for s in range(side)]
        t_axis = [Fraction(t + 1, side) for t in range(side)]
        grid = [(s, t) for s in s_axis for t in t_axis]
        hashes = 0
        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__hash__", counted)
            assert len(question_scan(E, grid)) == side * side
        assert hashes <= 2 * side


def test_scan_counts_two_fractions_per_point(monkeypatch):
    """The scan's work as a count, which a clock cannot resolve to a few
    percent: every Fraction construction, arithmetic included, is one
    call of ``Fraction.__new__``.  A point makes exactly two, re and im.
    Beyond that the scan makes a = 0 per distinct coordinate (the heart
    rule reads each slope's side at s in integers and builds no
    threshold s*d) and at most b = 32 once per call for this complex
    (its class, its two slopes and the charge coefficients).  Fraction
    arithmetic per s or per point, or a ChargeValue built from
    Fractions, would exceed the bound."""
    a, b = 0, 32
    built = 0
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return original(cls, *args, **kwargs)

    E = formal_complex(K3, {-1: line_bundle(-1), 0: line_bundle(2)})
    for side in (2, 20):
        # shared axis objects, as the CLI builds a grid
        s_axis = [Fraction(s, side) for s in range(side)]
        t_axis = [Fraction(t + 1, side) for t in range(side)]
        grid = [(s, t) for s in s_axis for t in t_axis]
        built = 0
        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", counted)
            rows = question_scan(E, grid)
        assert len(rows) == side * side
        assert built <= 2 * side * side + a * (side + side) + b, (side, built)


def test_scan_and_gate_compare_no_fractions(monkeypatch):
    """The scan orders its t's and s's by an integer key, checks t > 0 by
    its numerator, and the heart rule reads each slope's side at s by an
    integer comparison, so on a grid of distinct values neither
    ``question_scan`` nor ``heart_gate`` calls a Fraction order
    comparison.  Every complex shape is covered: two terms with finite
    slopes or a torsion term, and a single sheaf in either degree."""
    compared = 0

    def counting(name):
        original = getattr(Fraction, name)

        def counted(self, other):
            nonlocal compared
            compared += 1
            return original(self, other)

        return counted

    complexes = (
        formal_complex(K3, {-1: line_bundle(-1), 0: line_bundle(2)}),
        formal_complex(K3, {-1: line_bundle(0), 0: TORSION}),
        formal_complex(K3, {0: line_bundle(2)}),
        formal_complex(K3, {-1: abstract_ulrich_sheaf(K3, 1)}),
    )
    for side in (2, 20):
        # shared axis objects, as the CLI builds a grid, with s < 0 too
        s_axis = [Fraction(s - side, side) for s in range(2 * side)]
        t_axis = [Fraction(t + 1, side) for t in range(side)]
        grid = [(s, t) for s in reversed(s_axis) for t in reversed(t_axis)]
        for E in complexes:
            for convention in ("paper-literal", "normalized"):
                compared = 0
                with monkeypatch.context() as patch:
                    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
                        patch.setattr(Fraction, name, counting(name))
                    rows = question_scan(E, grid, convention)
                    verdicts = [heart_gate(E, s, convention) for s in s_axis]
                assert compared == 0, (side, E, convention)
                assert len(rows) == 2 * side * side
                assert [row.s for row in rows[::side]] == s_axis
                assert [v.s for v in verdicts] == s_axis


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % p == 0 for p in bases):
        return n in bases
    d, k = n - 1, 0
    while d % 2 == 0:
        d, k = d // 2, k + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(k - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_scan_orders_values_over_many_distinct_denominators():
    """300 distinct t's whose denominators are distinct 10-digit primes
    come out in the order of their values.  The order key of a value is
    floor(x * 2^64), the size of x plus 64 bits.  A key written over one
    common denominator of the grid would be exact too, but that lcm is
    the product of all these primes, about 3,000 digits here and
    100,000 digits for 10^4 such t's, and every key would carry it."""
    import random

    rng = random.Random(38)
    primes, p = [], 10**9
    while len(primes) < 300:
        p += 1
        if _is_prime(p):
            primes.append(p)
    ts = [Fraction(rng.randrange(1, 10 * q), q) for q in primes]
    assert len(set(ts)) == 300
    s_values = (Fraction(-1, 3), 0, Fraction(7, 5))
    grid = [(s, t) for t in ts for s in s_values]
    rng.shuffle(grid)
    rows = question_scan(formal_complex(K3, {0: line_bundle(1)}), grid)
    assert [(row.s, row.t) for row in rows] == sorted((Fraction(s), t) for s, t in grid)
