"""Formal complexes: hyper tables, triangles, products, restriction,
and the finite-projection transfer."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrich_kit import (
    AbstractSheaf,
    CohomologyTable,
    FormalComplex,
    GlueWitness,
    LineBundle,
    Spinor,
    default_window,
    direct_sum,
    direct_sum_complexes,
    ext_dimension,
    external_product,
    format_sheaf,
    formal_complex,
    hyper_table,
    is_ulrich_object,
    k0_class,
    line_bundle,
    orthogonal_membership,
    parse_sheaf,
    product_proj,
    proj_space,
    pushforward_finite,
    quadric,
    rank1_surface,
    restrict_hyperplane,
    sheaf_column,
    sheaf_table,
    shift,
    triangle_2of3,
)
from ulrich_kit.chern import _external_class, class_of, class_or_none
from ulrich_kit.cohomology import _piece_tables
from ulrich_kit.complexes import (
    CERT_EXACT,
    CERT_EXACT_BY_VANISHING,
    CERT_UPPER_BOUND_ONLY,
    TWIST_LEFT,
    TWIST_RIGHT,
)
from ulrich_kit.errors import (
    IncompleteTable,
    MalformedDescriptor,
    ModelMismatch,
    NoDualRule,
    NoRestrictionRule,
    UnsupportedProduct,
)


class TestFormalComplex:
    def test_sheaf_map_and_support(self):
        p2 = proj_space(2)
        E = formal_complex(p2, {0: line_bundle(0), -2: line_bundle(1)})
        assert E.support() == [-2, 0]
        assert E.sheaf_map() == {0: line_bundle(0), -2: line_bundle(1)}
        assert not E.has_glue()

    def test_glue_validation(self):
        p2 = proj_space(2)
        sheaves = {0: line_bundle(0), -1: line_bundle(0)}
        ok = formal_complex(p2, sheaves, (GlueWitness(0, -1),))
        assert ok.has_glue()
        with pytest.raises(MalformedDescriptor):
            formal_complex(p2, sheaves, (GlueWitness(0, -2),))
        with pytest.raises(MalformedDescriptor):
            formal_complex(p2, {0: line_bundle(0)}, (GlueWitness(0, -1),))

    def test_a_repeated_degree_is_refused(self):
        # readers of the pairs would count both sheaves (h^0 = 6 against
        # O(0)) and readers keyed by degree one of them (h^0 = 3)
        p2 = proj_space(2)
        with pytest.raises(MalformedDescriptor, match="one sheaf per degree"):
            FormalComplex(p2, ((0, line_bundle(1)), (0, line_bundle(1))))
        E = FormalComplex(p2, ((0, line_bundle(1)), (1, line_bundle(1))))
        assert E.support() == [0, 1]

    def test_a_complex_is_sorted_by_degree_however_it_is_built(self):
        # built out of order, the sheafwise witness once read the twists of
        # O(1) before those of O(2) and named twist 1, not 3
        p2 = proj_space(2)
        by_hand = FormalComplex(p2, ((0, line_bundle(1)), (-1, line_bundle(2))))
        built = formal_complex(p2, {0: line_bundle(1), -1: line_bundle(2)})
        assert by_hand == built and by_hand.support() == [-1, 0]
        verdicts = [is_ulrich_object(E, mode="sheafwise") for E in (by_hand, built)]
        assert verdicts[0] == verdicts[1]

    def test_dangling_glue_is_refused_however_the_complex_is_built(self):
        p2 = proj_space(2)
        with pytest.raises(MalformedDescriptor, match="^glue connects a degree to the one"):
            FormalComplex(p2, ((0, line_bundle(0)),), glue=(GlueWitness(5, 9),))
        with pytest.raises(MalformedDescriptor, match="^glue endpoints must carry sheaves$"):
            FormalComplex(p2, ((0, line_bundle(0)),), glue=(GlueWitness(5, 4),))

    def test_shift_moves_cohomology(self):
        p2 = proj_space(2)
        E = formal_complex(p2, {0: line_bundle(1)})
        for k in (-2, -1, 1, 3):
            shifted = shift(E, k)
            a = hyper_table(E, (-3, 3)).table
            b = hyper_table(shifted, (-3, 3)).table
            for t in range(-3, 4):
                for i in range(-5, 6):
                    assert a.h(i, t) == b.h(i - k, t), (k, i, t)

    def test_shift_composes_and_inverts(self):
        p2 = proj_space(2)
        E = formal_complex(
            p2, {0: line_bundle(0), -1: line_bundle(0)}, (GlueWitness(0, -1),)
        )
        assert shift(shift(E, 2), -2) == E
        assert shift(shift(E, 1), 1) == shift(E, 2)

    def test_direct_sum_adds_tables(self):
        p2 = proj_space(2)
        E = formal_complex(p2, {0: line_bundle(2)})
        F = formal_complex(p2, {-1: line_bundle(-1)})
        total = direct_sum_complexes(E, F)
        a = hyper_table(E, (-3, 3)).table
        b = hyper_table(F, (-3, 3)).table
        c = hyper_table(total, (-3, 3)).table
        for t in range(-3, 4):
            for i in range(-4, 5):
                assert c.h(i, t) == a.h(i, t) + b.h(i, t)

    def test_direct_sum_rejects_mixed_models(self):
        E = formal_complex(proj_space(2), {0: line_bundle(0)})
        F = formal_complex(proj_space(3), {0: line_bundle(0)})
        with pytest.raises(ModelMismatch):
            direct_sum_complexes(E, F)


class TestHyperTable:
    def test_matches_sheaf_table_in_degree_zero(self):
        p3 = proj_space(3)
        E = formal_complex(p3, {0: line_bundle(2)})
        hyper = hyper_table(E, (-6, 4)).table
        plain = sheaf_table(line_bundle(2), p3, (-6, 4))
        assert hyper.same_entries(plain)

    def test_certificates_without_glue(self):
        p2 = proj_space(2)
        E = formal_complex(p2, {0: line_bundle(1), -1: line_bundle(-1)})
        result = hyper_table(E, (-3, 3))
        assert all(result.certificate(t) == CERT_EXACT for t in range(-3, 4))
        assert result.overall == CERT_EXACT

    def test_certificates_with_glue(self):
        p2 = proj_space(2)
        E = formal_complex(
            p2,
            {0: line_bundle(0), -1: line_bundle(0)},
            (GlueWitness(0, -1),),
        )
        result = hyper_table(E, (-2, 2))
        # columns with surviving entries are only bounded above
        assert result.certificate(0) == CERT_UPPER_BOUND_ONLY
        # all-zero columns vanish regardless of the differentials
        assert result.certificate(-1) == CERT_EXACT_BY_VANISHING
        assert result.overall == CERT_UPPER_BOUND_ONLY

    def test_complex_class_is_read_on_surfaces_only(self):
        """A table is its window and entries; the class of a complex comes
        from ``class_or_none``, which reads it where Riemann-Roch is exact."""
        p2 = proj_space(2)
        E = formal_complex(p2, {0: line_bundle(1), -1: line_bundle(0)})
        cls = class_or_none(E, p2)
        assert cls is not None and cls.r == 0
        p3 = proj_space(3)
        assert class_or_none(formal_complex(p3, {0: line_bundle(0)}), p3) is None
        # on a surface too, an abstract sheaf with no class attached has none
        surface = rank1_surface(4, 0, 2)
        assert class_or_none(AbstractSheaf(rank=1), surface) is None


class TestTriangle:
    def split_tables(self, model, descs, window=(-6, 3)):
        return {
            role: sheaf_table(desc, model, window)
            for role, desc in descs.items()
        }

    def test_certifies_the_third_vertex(self):
        # E = O twisted sums on the plane: all three vanish at -1, -2
        p2 = proj_space(2)
        tables = self.split_tables(
            p2,
            {
                "E": line_bundle(0),
                "G": direct_sum((line_bundle(0), 2)),
            },
        )
        verdict = triangle_2of3(p2, tables)
        assert verdict.third_role == "F"
        assert verdict.certified
        assert verdict.witness is None

    def test_witness_points_at_the_failure(self):
        p2 = proj_space(2)
        tables = self.split_tables(
            p2, {"E": line_bundle(0), "G": line_bundle(1)}
        )
        verdict = triangle_2of3(p2, tables)
        assert not verdict.certified
        role, i, t, h = verdict.witness
        assert role == "G" and (i, t, h) == (0, -1, 1)

    def test_euler_additivity_on_a_true_triangle(self):
        # 0 -> O(-1) -> O -> O_H -> 0 on the plane restricts a line;
        # build F = E + G as a split stand-in and check the implied column
        p2 = proj_space(2)
        window = (-5, 3)
        tables = {
            "E": sheaf_table(line_bundle(-1), p2, window),
            "G": sheaf_table(line_bundle(0), p2, window),
        }
        third = sheaf_table(direct_sum(line_bundle(-1), line_bundle(0)), p2, window)
        verdict = triangle_2of3(p2, tables, third_table=third)
        assert verdict.third_role == "F"
        assert verdict.chi_additive is True
        for t in range(-5, 4):
            want = Fraction(t * (t + 1), 2) + Fraction((t + 1) * (t + 2), 2)
            assert verdict.implied_euler[t] == want

    def test_chi_additivity_detects_a_wrong_claim(self):
        p2 = proj_space(2)
        window = (-5, 3)
        tables = {
            "E": sheaf_table(line_bundle(-1), p2, window),
            "G": sheaf_table(line_bundle(0), p2, window),
        }
        wrong = sheaf_table(line_bundle(2), p2, window)
        verdict = triangle_2of3(p2, tables, third_table=wrong)
        assert verdict.chi_additive is False

    def test_missing_role_resolution(self):
        p2 = proj_space(2)
        window = (-5, 3)
        base = sheaf_table(line_bundle(0), p2, window)
        for given, missing in ((("E", "F"), "G"), (("E", "G"), "F"), (("F", "G"), "E")):
            verdict = triangle_2of3(p2, {given[0]: base, given[1]: base})
            assert verdict.third_role == missing
        with pytest.raises(MalformedDescriptor):
            triangle_2of3(p2, {"E": base})
        with pytest.raises(MalformedDescriptor):
            triangle_2of3(p2, {"E": base, "X": base})

    def test_window_must_cover_the_ulrich_range(self):
        p3 = proj_space(3)
        narrow = sheaf_table(line_bundle(0), p3, (-2, 2))  # misses -3
        wide = sheaf_table(line_bundle(0), p3, (-5, 2))
        with pytest.raises(IncompleteTable):
            triangle_2of3(p3, {"E": narrow, "F": wide})

    def test_a_piece_table_is_refused_at_the_first_unheld_twist_of_the_walk(self):
        # the Euler sums are read row by row; a piece table, which holds
        # only some twists, still refuses the first twist a walk over
        # t = lo..hi meets unheld, and a claimed third table is read only
        # up to its first mismatch
        p2 = proj_space(2)
        window, cuts = (-40, 40), (0, -2, -9)
        whole = sheaf_table(line_bundle(0), p2, window)
        (piece,) = _piece_tables((line_bundle(1),), p2, window, cuts)
        unheld = next(t for t in range(-40, 41) if not piece.covers(t))
        for given in ({"E": whole, "G": piece}, {"E": piece, "G": whole}):
            with pytest.raises(IncompleteTable, match=rf"^twist {unheld} outside window \(-40, 40\)$"):
                triangle_2of3(p2, given)
        verdict = triangle_2of3(p2, {"E": whole, "G": whole})
        assert verdict.implied_euler == {t: 2 * whole.euler(t) for t in range(-40, 41)}
        assert all(type(chi) is int for chi in verdict.implied_euler.values())
        (wrong,) = _piece_tables((line_bundle(2),), p2, window, cuts)
        assert triangle_2of3(p2, {"E": whole, "G": whole}, third_table=wrong).chi_additive is False
        (right,) = _piece_tables((direct_sum((line_bundle(0), 2)),), p2, window, cuts)
        unheld = next(t for t in range(-40, 41) if not right.covers(t))
        with pytest.raises(IncompleteTable, match=rf"^twist {unheld} outside"):
            triangle_2of3(p2, {"E": whole, "G": whole}, third_table=right)


class TestExternalProduct:
    def line_complex(self, *twists):
        p1 = proj_space(1)
        return formal_complex(
            p1, {0: direct_sum(*(line_bundle(k) for k in twists))}
        )

    def test_kuenneth_on_tables(self):
        E = self.line_complex(0)
        F = self.line_complex(0)
        product = external_product(E, F, side=TWIST_RIGHT)
        assert product.model == product_proj(1, 1)
        table = hyper_table(product, (-4, 4)).table
        for t in range(-4, 5):
            left = sheaf_column(line_bundle(t), proj_space(1), 0)
            right = sheaf_column(line_bundle(1 + t), proj_space(1), 0)
            want = {}
            for i1, h1 in left.items():
                for i2, h2 in right.items():
                    want[i1 + i2] = want.get(i1 + i2, 0) + h1 * h2
            assert table.column(t) == want, t

    def test_side_selects_the_twisted_factor(self):
        E = self.line_complex(0)
        F = self.line_complex(0)
        right = external_product(E, F, side=TWIST_RIGHT)
        left = external_product(E, F, side=TWIST_LEFT)
        assert right.sheaf_map() == {0: LineBundle((0, 1))}
        assert left.sheaf_map() == {0: LineBundle((1, 0))}

    def test_shifted_factors_add_degrees(self):
        E = shift(self.line_complex(0), 1)  # degree -1
        F = self.line_complex(0)
        product = external_product(E, F)
        assert product.support() == [-1]
        assert product.sheaf_map()[-1] == LineBundle((0, 1))

    def test_glue_of_a_factor_is_kept_beside_every_degree_of_the_other(self):
        p2 = proj_space(2)
        E = formal_complex(
            p2, {0: line_bundle(0), -1: line_bundle(0)}, (GlueWitness(0, -1),)
        )
        F = formal_complex(proj_space(1), {0: line_bundle(0), 1: line_bundle(0)})
        product = external_product(E, F)
        assert product.model == product_proj(2, 1)
        assert set(product.glue) == {GlueWitness(0, -1), GlueWitness(1, 0)}
        assert hyper_table(product).overall == CERT_UPPER_BOUND_ONLY

    def test_factor_validation(self):
        good = self.line_complex(0)
        bad = formal_complex(quadric(2), {0: line_bundle(0)})
        with pytest.raises(UnsupportedProduct):
            external_product(good, bad)
        with pytest.raises(MalformedDescriptor):
            external_product(good, good, side="sideways")


class TestRestriction:
    def test_line_bundles_keep_their_twist(self):
        p3 = proj_space(3)
        E = formal_complex(p3, {0: line_bundle(2), -1: line_bundle(-1)})
        restricted = restrict_hyperplane(E)
        assert restricted.model == proj_space(2)
        assert restricted.sheaf_map() == {0: line_bundle(2), -1: line_bundle(-1)}

    def test_spinor_splits_on_the_surface(self):
        q3 = quadric(3)
        E = formal_complex(q3, {0: Spinor(None)})
        restricted = restrict_hyperplane(E)
        assert restricted.model == quadric(2)
        assert restricted.sheaf_map() == {0: direct_sum(Spinor("+"), Spinor("-"))}
        # the split preserves the section count 4 = 2 + 2
        column = hyper_table(restricted, (-4, 4)).table.column(0)
        assert column == {0: 4}

    def test_restricted_sums_are_normalized(self):
        # a nested sum would print as 2*S++S-+O(1), which reads back as a
        # different sheaf
        q2, q3 = quadric(2), quadric(3)
        E = formal_complex(q3, {0: parse_sheaf("2*S+O(1)", q3)})
        restricted = restrict_hyperplane(E).sheaf_map()[0]
        assert restricted == parse_sheaf("2*S+ + 2*S- + O(1)", q2)
        assert parse_sheaf(format_sheaf(restricted), q2) == restricted

    def test_no_rule_surfaces_cleanly(self):
        from ulrich_kit import AbstractSheaf
        from ulrich_kit.errors import UnsupportedModel

        q3 = quadric(3)
        E = formal_complex(q3, {0: AbstractSheaf(rank=2)})
        with pytest.raises(NoRestrictionRule):
            restrict_hyperplane(E)
        bottom = formal_complex(proj_space(1), {0: line_bundle(0)})
        with pytest.raises(UnsupportedModel):
            restrict_hyperplane(bottom)  # the chain bottoms out at the line


@pytest.mark.parametrize(
    "read, error, message",
    [
        (
            lambda: restrict_hyperplane(formal_complex(proj_space(3), {0: AbstractSheaf(1)})),
            NoRestrictionRule,
            "no hyperplane rule for abstract(abstract,rank=1) on pn:3",
        ),
        (
            lambda: orthogonal_membership(line_bundle(0), (Spinor(None),), model=quadric(3)),
            MalformedDescriptor,
            "membership test needs line-bundle members, got S",
        ),
        (
            lambda: ext_dimension(AbstractSheaf(1), line_bundle(0), 0, proj_space(2)),
            NoDualRule,
            "abstract(abstract,rank=1) has no dual rule here",
        ),
    ],
    ids=["restriction", "membership", "ext"],
)
def test_a_family_without_the_fact_is_refused_with_its_message(read, error, message):
    # the family facts live in sheaves; a family lacking one keeps the
    # error type and the message its caller raised before
    with pytest.raises(error) as caught:
        read()
    assert type(caught.value) is error and str(caught.value) == message


RESTRICTABLE = [proj_space(n) for n in range(2, 5)] + [quadric(n) for n in range(3, 6)]


@st.composite
def restrictable_complexes(draw):
    """Sums of line bundles, and of S on Q^3, in up to three degrees."""
    model = draw(st.sampled_from(RESTRICTABLE))
    atoms = st.integers(-4, 4).map(line_bundle)
    if model == quadric(3):
        atoms = atoms | st.just(Spinor(None))
    sums = st.lists(st.tuples(atoms, st.integers(1, 3)), min_size=1, max_size=3)
    sheaves = draw(st.dictionaries(st.integers(-2, 1), sums, min_size=1, max_size=3))
    return formal_complex(model, {d: direct_sum(*parts) for d, parts in sheaves.items()})


@settings(max_examples=80, deadline=None)
@given(E=restrictable_complexes())
def test_euler_characteristic_is_additive_along_the_hyperplane_sequence(E):
    # 0 -> E(-1) -> E -> E|_H -> 0 gives chi(E(t)) - chi(E(t-1)) = chi(E|_H(t))
    whole = hyper_table(E, (-7, 6)).table
    cut = hyper_table(restrict_hyperplane(E), (-6, 6)).table
    for t in range(-6, 7):
        assert whole.euler(t) - whole.euler(t - 1) == cut.euler(t), t


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from([proj_space(n) for n in range(2, 5)] + [quadric(3)]),
    mults=st.dictionaries(st.integers(-2, 2), st.integers(1, 3), min_size=1, max_size=3),
    extra=st.none() | st.integers(-2, 2),
)
def test_restriction_keeps_ulrich_objects_ulrich(model, mults, extra):
    # shifted sums of the Ulrich unit (O on P^n, S on Q^3) are Ulrich; an
    # extra O(k) in degree 0 usually is not.  The converse fails, so only
    # this direction is tested.
    unit = Spinor(None) if model.spinor_signs else line_bundle(0)
    sheaves = {d: direct_sum((unit, m)) for d, m in mults.items()}
    if extra is not None:
        parts = [sheaves[0]] if 0 in sheaves else []
        sheaves[0] = direct_sum(*parts, line_bundle(extra))
    E = formal_complex(model, sheaves)
    verdict = is_ulrich_object(E)
    assert verdict.passed or extra is not None
    if verdict.passed:
        assert is_ulrich_object(restrict_hyperplane(E)).passed


class TestPushforward:
    def test_ruling_bundle_trivializes(self):
        p11 = product_proj(1, 1)
        E = formal_complex(p11, {0: LineBundle((0, 1))})
        report = pushforward_finite(E)
        assert report.target == proj_space(2)
        assert report.trivialized
        assert report.multiplicities == {0: 2}
        assert report.reconstruction_ok is True
        assert report.witness is None

    def test_spinor_pushes_to_four_structure_sheaves(self):
        q3 = quadric(3)
        E = formal_complex(q3, {0: Spinor(None)})
        report = pushforward_finite(E)
        assert report.target == proj_space(3)
        assert report.trivialized
        assert report.multiplicities == {0: 4}
        assert report.reconstruction_ok is True

    def test_shifted_sum_keeps_its_degrees(self):
        p2 = proj_space(2)
        E = formal_complex(
            p2,
            {0: direct_sum((line_bundle(0), 2)), -1: line_bundle(0)},
        )
        report = pushforward_finite(E)
        assert report.trivialized
        assert report.multiplicities == {-1: 1, 0: 2}
        assert report.reconstruction_ok is True

    def test_impostor_table_fails_the_reconstruction(self):
        # vanishes at the probed twists, but its tail deviates from O
        p2 = proj_space(2)
        window = default_window(p2)
        base = sheaf_table(line_bundle(0), p2, window)
        entries = dict(base.entries)
        entries[(0, 4)] = base.h(0, 4) + 1
        impostor = AbstractSheaf(
            rank=1,
            label="drifting-tail",
            table=CohomologyTable(window=window, entries=entries),
        )
        report = pushforward_finite(formal_complex(p2, {0: impostor}))
        assert report.trivialized
        assert report.multiplicities == {0: 1}
        assert report.reconstruction_ok is False

    def test_non_ulrich_input_reports_a_witness(self):
        p2 = proj_space(2)
        E = formal_complex(p2, {0: line_bundle(1)})
        report = pushforward_finite(E)
        assert not report.trivialized
        assert report.multiplicities is None
        assert report.witness == (0, -1, 1)


@settings(max_examples=40, deadline=None)
@given(
    twists=st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3),
    k=st.integers(min_value=-2, max_value=2),
)
def test_hyper_euler_is_alternating_sum(twists, k):
    p2 = proj_space(2)
    E = formal_complex(
        p2, {k: direct_sum(*(line_bundle(j) for j in twists))}
    )
    table = hyper_table(E, (-4, 4)).table
    sign = (-1) ** k
    for t in range(-4, 5):
        want = sign * sum(
            Fraction((j + t + 1) * (j + t + 2), 2) for j in twists
        )
        assert table.euler(t) == want


@settings(max_examples=40, deadline=None)
@given(
    top=st.integers(min_value=-4, max_value=4),
    below=st.integers(min_value=-4, max_value=4),
    glued=st.booleans(),
    lo=st.integers(min_value=-8, max_value=0),
    width=st.integers(min_value=0, max_value=10),
)
def test_certificates_follow_the_per_twist_definition(top, below, glued, lo, width):
    p2 = proj_space(2)
    glue = (GlueWitness(0, -1),) if glued else ()
    E = formal_complex(p2, {0: line_bundle(top), -1: line_bundle(below)}, glue)
    window = (lo, lo + width)
    result = hyper_table(E, window)
    certificates = [result.certificate(t) for t in range(lo, lo + width + 1)]
    for t, cert in zip(range(lo, lo + width + 1), certificates):
        if not glued:
            assert cert == CERT_EXACT
        elif any(tt == t and h for (_i, tt), h in result.table.entries.items()):
            assert cert == CERT_UPPER_BOUND_ONLY
        else:
            assert cert == CERT_EXACT_BY_VANISHING
    order = (CERT_EXACT, CERT_EXACT_BY_VANISHING, CERT_UPPER_BOUND_ONLY)
    assert result.overall == max(certificates, key=order.index)
    for t in (lo - 1, lo + width + 1):
        with pytest.raises(IncompleteTable):
            result.certificate(t)


PRODUCT_SHAPES = ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2))
# split complexes of line bundles on P^n as degree -> twists
SPLIT_LINE_COMPLEXES = st.dictionaries(
    keys=st.integers(min_value=-1, max_value=1),
    values=st.lists(st.integers(min_value=-3, max_value=2), min_size=1, max_size=2),
    min_size=1,
    max_size=2,
)
# sums of shifted structure sheaves, the Ulrich objects on P^n: degree -> copies
SHIFTED_UNITS = st.dictionaries(
    keys=st.integers(min_value=-1, max_value=1),
    values=st.integers(min_value=1, max_value=2),
    min_size=1,
    max_size=2,
)


def line_complex_on(n: int, twists_by_degree, shift_by: int = 0):
    return formal_complex(
        proj_space(n),
        {
            d: direct_sum(*(line_bundle(k + shift_by) for k in twists))
            for d, twists in twists_by_degree.items()
        },
    )


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(PRODUCT_SHAPES), left=SHIFTED_UNITS, right=SHIFTED_UNITS)
def test_ulrich_box_ulrich_is_ulrich_on_either_side(shape, left, right):
    """E x F(dim X) is Ulrich on X x Y (Eisenbud-Schreyer 2003, Prop. 2.6)."""
    a, b = shape
    E = line_complex_on(a, {d: [0] * m for d, m in left.items()})
    F = line_complex_on(b, {d: [0] * m for d, m in right.items()})
    for side in (TWIST_LEFT, TWIST_RIGHT):
        product = external_product(E, F, side)
        assert product.model == product_proj(a, b)
        assert is_ulrich_object(product, "both").passed, side


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(PRODUCT_SHAPES),
    left=SPLIT_LINE_COMPLEXES,
    right=SPLIT_LINE_COMPLEXES,
    twist_right=st.booleans(),
)
def test_products_obey_kuenneth_on_k_coordinates_and_classes(shape, left, right, twist_right):
    """chi((E x F)(i, j)) = chi(E(i)) chi(F(j)) over the product's k0_box,
    and the class of E x F is the external class of the factor classes;
    the twisted side enters as the factor twisted by the other dimension."""
    a, b = shape
    E, F = line_complex_on(a, left), line_complex_on(b, right)
    product = external_product(E, F, TWIST_RIGHT if twist_right else TWIST_LEFT)
    E_twisted = line_complex_on(a, left, 0 if twist_right else b)
    F_twisted = line_complex_on(b, right, a if twist_right else 0)
    model = product.model
    E_table = hyper_table(E_twisted, (0, a + b)).table
    F_table = hyper_table(F_twisted, (0, a + b)).table
    expected = tuple(E_table.euler(i) * F_table.euler(j) for i, j in model.k0_box)
    assert k0_class(product, model).coords == expected
    assert class_of(product, model) == _external_class(
        model, class_of(E_twisted, E_twisted.model), class_of(F_twisted, F_twisted.model)
    )

