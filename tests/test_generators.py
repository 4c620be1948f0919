"""K-group coordinates, the lattice gate, collections, and
orthogonal-complement membership."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrich_kit import (
    Collection,
    LineBundle,
    SemistableEC,
    Spinor,
    beilinson_collection,
    direct_sum,
    elliptic_curve,
    elliptic_witness,
    formal_complex,
    generator_gate,
    is_ulrich_object,
    k0_class,
    kapranov_collection,
    lattice_rank,
    line_bundle,
    orthogonal_membership,
    parse_variety,
    product_proj,
    proj_space,
    quadric,
    rank1_surface,
    register_collection,
    shift,
)
from ulrich_kit.errors import (
    Indeterminate,
    MalformedDescriptor,
    ModelMismatch,
    UnknownK0Rank,
    UnsupportedModel,
)
from ulrich_kit.sheaves import twist_components


class TestK0Class:
    def test_pn_coordinates_are_euler_columns(self):
        p2 = proj_space(2)
        assert k0_class(line_bundle(0), p2).coords == (1, 3, 6)
        assert k0_class(line_bundle(1), p2).coords == (3, 6, 10)
        assert k0_class(line_bundle(-3), p2).coords == (1, 0, 0)

    def test_elliptic_coordinates_are_rank_and_degree(self):
        model = elliptic_curve(3)
        assert k0_class(line_bundle(1), model).coords == (1, 3)
        assert k0_class(SemistableEC(2, -1), model).coords == (2, -1)

    def test_product_coordinates_distinguish_the_rulings(self):
        p11 = product_proj(1, 1)
        plus = k0_class(LineBundle((1, 0)), p11)
        minus = k0_class(LineBundle((0, 1)), p11)
        assert plus.coords != minus.coords

    def test_complex_classes_alternate(self):
        model = elliptic_curve(3)
        E = formal_complex(
            model,
            {0: SemistableEC(1, 0, True), -1: SemistableEC(1, 0, True)},
        )
        assert k0_class(E, model).coords == (0, 0)
        single = formal_complex(model, {0: line_bundle(1)})
        assert k0_class(shift(single, 1), model).coords == (-1, -3)

    def test_operators(self):
        p2 = proj_space(2)
        a = k0_class(line_bundle(0), p2)
        b = k0_class(line_bundle(1), p2)
        total = a + b
        assert total.coords == (4, 9, 16)
        assert (-a).coords == (-1, -3, -6)

    def test_unsupported_models_are_indeterminate(self):
        with pytest.raises(Indeterminate):
            k0_class(line_bundle(0), quadric(3))
        surface = rank1_surface(4, 0, 2)
        for E in (formal_complex(surface, {}), formal_complex(surface, {0: line_bundle(0)})):
            with pytest.raises(Indeterminate):
                k0_class(E, surface)

    @pytest.mark.parametrize("spec", ["pn:1", "pn:2", "pn:3", "pn:4", "prod:1x1", "elliptic:4"])
    def test_coordinate_width_is_the_lattice_rank(self, spec):
        model = parse_variety(spec)
        desc = LineBundle((1,) * twist_components(model))
        for obj in (desc, formal_complex(model, {}), formal_complex(model, {0: desc, 1: desc})):
            assert len(k0_class(obj, model).coords) == model.k0_rank


class TestLatticeRank:
    def test_unit_vectors(self):
        vectors = [
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
        ]
        assert lattice_rank(vectors) == 3

    def test_dependent_rows_collapse(self):
        vectors = [
            (Fraction(1), Fraction(2)),
            (Fraction(2), Fraction(4)),
            (Fraction(3), Fraction(6)),
        ]
        assert lattice_rank(vectors) == 1

    def test_fractions_are_handled_exactly(self):
        vectors = [
            (Fraction(1, 2), Fraction(1, 3)),
            (Fraction(1, 2), Fraction(1)),
        ]
        assert lattice_rank(vectors) == 2
        vectors = [
            (Fraction(1, 2), Fraction(1, 3)),
            (Fraction(3, 2), Fraction(1)),  # three times the first row
            (Fraction(1, 2), Fraction(1)),
        ]
        assert lattice_rank(vectors) == 2

    def test_empty_input(self):
        assert lattice_rank([]) == 0


class TestGeneratorGate:
    def test_single_twist_on_the_curve_is_deficient(self):
        model = elliptic_curve(3)
        gate = generator_gate([line_bundle(1)], model)
        assert not gate.passed
        assert (gate.rank, gate.needed) == (1, 2)
        assert gate.verdict == "DeficientRank{1}"

    def test_two_twists_on_the_curve_fill_the_lattice(self):
        model = elliptic_curve(3)
        gate = generator_gate([line_bundle(0), line_bundle(1)], model)
        assert gate.passed
        assert gate.verdict == "FullRank"

    def test_twist_collection_without_the_structure_sheaf(self):
        for n in (2, 3, 4):
            model = proj_space(n)
            descs = [line_bundle(k) for k in range(1, n + 1)]
            gate = generator_gate(descs, model)
            assert (gate.rank, gate.needed) == (n, n + 1)
            assert gate.verdict == f"DeficientRank{{{n}}}"

    def test_full_twist_collection(self):
        for n in (1, 2, 3, 4):
            model = proj_space(n)
            descs = [line_bundle(k) for k in range(0, n + 1)]
            gate = generator_gate(descs, model)
            assert gate.passed, n

    def test_product_lattice(self):
        p11 = product_proj(1, 1)
        full = [LineBundle((a, b)) for a in (0, 1) for b in (0, 1)]
        assert generator_gate(full, p11).passed
        rulings = [LineBundle((1, 0)), LineBundle((0, 1))]
        gate = generator_gate(rulings, p11)
        assert (gate.rank, gate.needed) == (2, 4)

    @pytest.mark.parametrize("factors", [(a, b) for a in range(1, 4) for b in range(1, 5 - a)])
    def test_every_product_box_fills_its_lattice(self, factors):
        model = product_proj(*factors)
        box = [LineBundle(twists) for twists in model.k0_box]
        assert generator_gate(box, model).verdict == "FullRank"
        for drop in range(len(box)):
            rest = box[:drop] + box[drop + 1:]
            assert generator_gate(rest, model).verdict == f"DeficientRank{{{model.k0_rank - 1}}}"

    def test_complexes_count_through_their_classes(self):
        model = elliptic_curve(3)
        E = formal_complex(model, {0: line_bundle(0)})
        gate = generator_gate([E, shift(E, 1), line_bundle(1)], model)
        # the shift contributes no new class
        assert gate.passed
        cancel = generator_gate([E, shift(E, 1)], model)
        assert cancel.rank == 1

    def test_unknown_lattice_is_refused(self):
        model = rank1_surface(4, 0, 2)
        with pytest.raises(UnknownK0Rank):
            generator_gate([line_bundle(0)], model)


class TestCollections:
    def test_beilinson_members(self):
        coll = beilinson_collection(proj_space(3))
        assert coll.kind == "Beilinson"
        assert coll.members == tuple(LineBundle((k,)) for k in range(4))

    def test_beilinson_spans_the_lattice(self):
        for n in (1, 2, 3, 4):
            model = proj_space(n)
            coll = beilinson_collection(model)
            assert generator_gate(list(coll.members), model).passed

    def test_kapranov_members(self):
        q2 = kapranov_collection(quadric(2))
        assert q2.members == (
            LineBundle((0,)),
            Spinor("+"),
            Spinor("-"),
            LineBundle((1,)),
        )
        q3 = kapranov_collection(quadric(3))
        assert q3.members == (
            LineBundle((0,)),
            Spinor(None),
            LineBundle((1,)),
            LineBundle((2,)),
        )

    def test_collection_model_guards(self):
        with pytest.raises(UnsupportedModel):
            beilinson_collection(quadric(2))
        with pytest.raises(UnsupportedModel):
            kapranov_collection(quadric(4))
        with pytest.raises(UnsupportedModel):
            kapranov_collection(proj_space(2))

    def test_register_rejects_backward_maps(self):
        p2 = proj_space(2)
        backwards = Collection(p2, (line_bundle(1), line_bundle(0)))
        # a list with a backward map is malformed input, not a kit defect
        with pytest.raises(MalformedDescriptor) as info:
            register_collection(backwards)
        assert str(info.value) == "backward map: Ext^0(O(0), O(1)) = 3"

    def test_register_accepts_orthogonal_pairs(self):
        model = elliptic_curve(3)
        pair = Collection(
            model, (SemistableEC(1, 0, True), SemistableEC(1, 0, False))
        )
        # both directions vanish for distinct degree-zero types
        assert register_collection(pair) is pair


class TestOrthogonalMembership:
    def test_shifted_structure_sheaf_is_in_the_complement(self):
        p2 = proj_space(2)
        E = shift(formal_complex(p2, {0: line_bundle(0)}), 3)
        members = (line_bundle(1), line_bundle(2))
        verdict = orthogonal_membership(E, members, model=p2)
        assert verdict.member_of_orthogonal
        assert verdict.witness is None

    def test_twisted_sheaf_is_caught_with_a_witness(self):
        p2 = proj_space(2)
        members = (line_bundle(1), line_bundle(2))
        verdict = orthogonal_membership(line_bundle(1), members, model=p2)
        assert not verdict.member_of_orthogonal
        member, i, t, h = verdict.witness
        assert (member, i, t, h) == ("O(1)", 0, -1, 1)

    def test_collection_input_carries_its_model(self):
        q3 = quadric(3)
        coll = kapranov_collection(q3)
        with pytest.raises(MalformedDescriptor):
            # the spinor member is not a single-twist line bundle
            orthogonal_membership(Spinor(None), coll)
        members = (line_bundle(1), line_bundle(2), line_bundle(3))
        verdict = orthogonal_membership(Spinor(None), members, model=q3)
        assert verdict.member_of_orthogonal

    def test_window_extends_to_cover_far_members(self):
        p2 = proj_space(2)
        verdict = orthogonal_membership(
            line_bundle(0), (line_bundle(12),), model=p2
        )
        assert not verdict.member_of_orthogonal
        member, i, t, h = verdict.witness
        assert (member, i, t) == ("O(12)", 2, -12)
        assert h == 55  # h^2(O(-12)) on the plane

    def test_a_complex_from_another_model_is_refused(self):
        # membership and K-classes refuse it alike, as class_of does
        E = formal_complex(proj_space(3), {0: line_bundle(0)})
        with pytest.raises(ModelMismatch):
            orthogonal_membership(E, beilinson_collection(proj_space(2)))
        with pytest.raises(ModelMismatch):
            k0_class(E, proj_space(2))

    def test_model_is_required_for_bare_members(self):
        with pytest.raises(MalformedDescriptor):
            orthogonal_membership(line_bundle(0), (line_bundle(1),))


class TestEllipticWitness:
    def test_witness_passes_for_every_degree(self):
        for d in range(3, 11):
            model = elliptic_curve(d)
            witness = elliptic_witness(model)
            assert witness.descriptor == SemistableEC(1, d, False)
            assert witness.verdict.passed, d

    def test_needs_a_genus_one_model(self):
        with pytest.raises(UnsupportedModel):
            elliptic_witness(proj_space(1))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=-2, max_value=2),
    mults=st.dictionaries(
        keys=st.integers(min_value=-2, max_value=2),
        values=st.integers(min_value=1, max_value=2),
        min_size=1,
        max_size=2,
    ),
)
def test_membership_matches_the_ulrich_verdict(n, k, mults):
    """Vanishing against O(1)..O(n) is the Ulrich condition itself."""
    model = proj_space(n)
    E = formal_complex(
        model,
        {
            degree: direct_sum((line_bundle(k), mult))
            for degree, mult in mults.items()
        },
    )
    members = tuple(line_bundle(j) for j in range(1, n + 1))
    membership = orthogonal_membership(E, members, model=model)
    verdict = is_ulrich_object(E, "both")
    assert membership.member_of_orthogonal == verdict.passed


@settings(max_examples=40, deadline=None)
@given(
    extra=st.lists(st.integers(min_value=-3, max_value=3), min_size=0, max_size=3)
)
def test_gate_rank_is_monotone_under_extension(extra):
    model = proj_space(2)
    base = [line_bundle(0)]
    bigger = base + [line_bundle(k) for k in extra]
    assert (
        generator_gate(bigger, model).rank >= generator_gate(base, model).rank
    )
