"""K-group coordinates, the lattice gate, collections, and
orthogonal-complement membership."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrich_kit import (
    AbstractSheaf,
    CohomologyTable,
    Collection,
    ExternalTensor,
    FormalComplex,
    LineBundle,
    NumClass,
    SemistableEC,
    Spinor,
    beilinson_collection,
    class_of,
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
    UnsupportedQuadricDim,
)
from ulrich_kit.sheaves import twist_components
from ulrich_kit.variety import MAX_TWISTS
from test_cohomology import ORACLE_MODELS, oracle_descriptors


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

    def test_unsupported_models_are_indeterminate(self):
        # the empty complex too: no lattice holds even the zero class
        q3 = quadric(3)
        for obj in (line_bundle(0), formal_complex(q3, {})):
            with pytest.raises(Indeterminate):
                k0_class(obj, q3)
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
        # the spinor members of a quadric past Q^3 fail validation
        with pytest.raises(UnsupportedQuadricDim):
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

    def test_a_tensor_of_two_lines_is_refused_as_its_line_bundle(self):
        # [O(-1)]x[O(0)] is O(-1,0): both spellings have the backward map
        # Ext^0(O(-1,0), O(0,0)) = h^0(O(1,0)) = 2
        p11 = product_proj(1, 1)
        for spelling in (LineBundle((-1, 0)), ExternalTensor(line_bundle(-1), line_bundle(0))):
            with pytest.raises(MalformedDescriptor, match=r"^backward map: Ext\^0\(.*\) = 2$"):
                register_collection(Collection(p11, (LineBundle((0, 0)), spelling)))

    def test_a_tensor_of_a_sum_is_refused_for_its_backward_map(self):
        # Ext^0([O(-1)+O(-2)]x[O(0)], O(0,0)) = h^0(O(1,0)) + h^0(O(2,0)) = 5
        p11 = product_proj(1, 1)
        tensor = ExternalTensor(direct_sum(line_bundle(-1), line_bundle(-2)), line_bundle(0))
        with pytest.raises(MalformedDescriptor, match=r"^backward map: Ext\^0\(.*\) = 5$") as info:
            register_collection(Collection(p11, (LineBundle((0, 0)), tensor)))
        assert info.value.exit_code == 2

    def test_register_accepts_orthogonal_pairs(self):
        model = elliptic_curve(3)
        pair = Collection(
            model, (SemistableEC(1, 0, True), SemistableEC(1, 0, False))
        )
        # both directions vanish for distinct degree-zero types
        assert register_collection(pair) is pair

    @staticmethod
    def count_columns(monkeypatch) -> list:
        """Record the (source, target) of every Ext column that
        ``register_collection`` reads."""
        import ulrich_kit.generators

        reads, read = [], ulrich_kit.generators._ext_column

        def counted(F, G, model):
            reads.append((F, G))
            return read(F, G, model)

        monkeypatch.setattr(ulrich_kit.generators, "_ext_column", counted)
        return reads

    def test_one_ext_column_per_ordered_pair(self, monkeypatch):
        reads = self.count_columns(monkeypatch)
        beilinson_collection(proj_space(4))
        # C(5, 2) = 10 pairs j > i, not 10 pairs times 5 degrees
        assert reads == [(LineBundle((j,)), LineBundle((i,))) for j in range(5) for i in range(j)]

    def test_the_spinor_source_pair_is_tried_once(self, monkeypatch):
        reads = self.count_columns(monkeypatch)
        kapranov_collection(quadric(3))
        # O, S, O(1), O(2): six pairs, one of them out of S (no dual rule, skipped)
        assert len(reads) == 6
        assert [G for F, G in reads if F == Spinor(None)] == [LineBundle((0,))]

    def test_a_backward_map_in_two_degrees_names_the_lower(self):
        # Ext^*(O, O(0,-2) + O(-2,-2)) on P^1 x P^1 is h^1 = 1 and h^2 = 1
        p11 = product_proj(1, 1)
        target = direct_sum(LineBundle((0, -2)), LineBundle((-2, -2)))
        with pytest.raises(MalformedDescriptor, match=r"^backward map: Ext\^1\(O\(0,0\), .*\) = 1$"):
            register_collection(Collection(p11, (target, LineBundle((0, 0)))))


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

    def test_members_are_read_once(self):
        # an iterator of members is checked and probed in one pass
        p2 = proj_space(2)
        members = [line_bundle(1), line_bundle(2)]
        verdict = orthogonal_membership(line_bundle(1), members, model=p2)
        assert verdict.witness == ("O(1)", 0, -1, 1)
        assert orthogonal_membership(line_bundle(1), iter(members), model=p2) == verdict
        assert orthogonal_membership(line_bundle(1), (m for m in members), model=p2) == verdict

    def test_collection_input_carries_its_model(self):
        q3 = quadric(3)
        coll = kapranov_collection(q3)
        with pytest.raises(MalformedDescriptor):
            # the spinor member is not a single-twist line bundle
            orthogonal_membership(Spinor(None), coll)
        members = (line_bundle(1), line_bundle(2), line_bundle(3))
        verdict = orthogonal_membership(Spinor(None), members, model=q3)
        assert verdict.member_of_orthogonal

    def test_a_model_other_than_the_collection_s_is_refused(self):
        coll = beilinson_collection(proj_space(2))
        with pytest.raises(ModelMismatch):
            orthogonal_membership(line_bundle(0), coll, proj_space(3))
        assert orthogonal_membership(line_bundle(0), coll, proj_space(2)).witness == (
            "O(0)", 0, 0, 1
        )

    def test_window_extends_to_cover_far_members(self):
        p2 = proj_space(2)
        verdict = orthogonal_membership(
            line_bundle(0), (line_bundle(12),), model=p2
        )
        assert not verdict.member_of_orthogonal
        member, i, t, h = verdict.witness
        assert (member, i, t) == ("O(12)", 2, -12)
        assert h == 55  # h^2(O(-12)) on the plane

    def test_a_member_past_the_twist_cap_is_decided(self):
        # only the member's own twist is read, so no window has to reach it
        p2 = proj_space(2)
        far = MAX_TWISTS + 10_000
        verdict = orthogonal_membership(line_bundle(0), (line_bundle(far),), model=p2)
        assert verdict.witness == (f"O({far})", 2, -far, (far - 1) * (far - 2) // 2)

    def test_an_abstract_sheaf_known_only_at_the_ulrich_twists_is_decided(self):
        surface = rank1_surface(4, 0, 2)
        members = (line_bundle(1), line_bundle(2))
        blank = AbstractSheaf(2, table=CohomologyTable(window=(-2, -1), entries={}))
        assert orthogonal_membership(blank, members, model=surface).member_of_orthogonal
        marked = AbstractSheaf(
            2, table=CohomologyTable(window=(-2, -1), entries={(1, -2): 3})
        )
        verdict = orthogonal_membership(shift(formal_complex(surface, {0: marked}), 1),
                                        members, model=surface)
        assert verdict.witness == ("O(2)", 0, -2, 3)

    def test_product_members_are_read_at_their_twist_vector(self):
        p12 = product_proj(1, 2)
        members = (LineBundle((1, 1)), LineBundle((2, 2)), LineBundle((3, 3)))
        assert orthogonal_membership(LineBundle((0, 1)), members, model=p12).member_of_orthogonal
        verdict = orthogonal_membership(LineBundle((0, 0)), members, model=p12)
        # h^1(O(-3)) = 2 on the line times h^2(O(-3)) = 1 on the plane
        assert verdict.witness == ("O(3,3)", 3, (-3, -3), 2)
        with pytest.raises(MalformedDescriptor):
            orthogonal_membership(LineBundle((0, 0)), (line_bundle(1),), model=p12)

    def test_a_complex_from_another_model_is_refused(self):
        # membership, K-classes and numerical classes refuse it alike
        E = formal_complex(proj_space(3), {0: line_bundle(0)})
        with pytest.raises(ModelMismatch):
            orthogonal_membership(E, beilinson_collection(proj_space(2)))
        with pytest.raises(ModelMismatch):
            k0_class(E, proj_space(2))
        with pytest.raises(ModelMismatch):
            class_of(E, proj_space(2))

    def test_a_hand_built_complex_is_validated(self):
        # built without formal_complex, so no check ran on its sheaf
        p2 = proj_space(2)
        E = FormalComplex(p2, ((0, LineBundle((1, 2))),))
        for read in (
            lambda: orthogonal_membership(E, (line_bundle(1),), model=p2),
            lambda: k0_class(E, p2),
            lambda: class_of(E, p2),
        ):
            with pytest.raises(MalformedDescriptor):
                read()

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


MEMBERSHIP_MODELS = (
    "pn:1", "pn:2", "pn:3", "prod:1x1", "prod:1x2", "prod:2x1", "quadric:2",
    "quadric:3", "elliptic:3", "elliptic:4", "elliptic:5", "elliptic:6",
)


@st.composite
def model_and_complex(draw):
    """A model and a split complex of its oracle atoms, one atom with a
    multiplicity per degree; curve sheaves carry their triviality bit."""
    spec = draw(st.sampled_from(MEMBERSHIP_MODELS))
    model = parse_variety(spec)
    lines = st.tuples(
        *[st.integers(min_value=-2, max_value=2)] * twist_components(model)
    ).map(LineBundle)
    if model.spinor_signs:
        atoms = st.one_of(lines, st.sampled_from([Spinor(s) for s in model.spinor_signs]))
    elif spec.startswith("elliptic"):
        atoms = st.builds(
            lambda r, off, bit: SemistableEC(r, r * model.deg + off, bit),
            st.integers(min_value=1, max_value=2),
            st.integers(min_value=-1, max_value=1),
            st.booleans(),
        )
    else:
        atoms = lines
    mults = draw(
        st.dictionaries(
            keys=st.integers(min_value=-2, max_value=2),
            values=st.tuples(atoms, st.integers(min_value=1, max_value=2)),
            min_size=1,
            max_size=2,
        )
    )
    return model, formal_complex(
        model, {degree: direct_sum(part) for degree, part in mults.items()}
    )


@settings(max_examples=120, deadline=None)
@given(drawn=model_and_complex())
def test_membership_matches_the_ulrich_verdict(drawn):
    """Vanishing against O(1)..O(n) is the Ulrich condition itself."""
    model, E = drawn
    members = tuple(
        LineBundle((-t,) * twist_components(model)) for t in model.ulrich_twists
    )
    membership = orthogonal_membership(E, members, model=model)
    verdict = is_ulrich_object(E, "both")
    assert membership.member_of_orthogonal == verdict.passed


CLASS_MODELS = ORACLE_MODELS + [rank1_surface(4, 0, 2)]


@st.composite
def classed_complexes(draw):
    """A complex of sheaves that have a class rule, on any family: oracle
    atoms and sums without a stored table, spinors on the quadrics that
    have them, and on the abstract surface sheaves carrying a class."""
    model = draw(st.sampled_from(CLASS_MODELS))
    if model.kind == "surface":
        sheaf = st.builds(
            lambda r, e1, e2: AbstractSheaf(r, num_class=NumClass(model, r, e1, e2)),
            st.integers(1, 3), st.integers(-4, 4), st.fractions(-4, 4, max_denominator=4),
        )
    else:
        sheaf = oracle_descriptors(model, (-3, 3), opaque=False)
        if model.spinor_signs and model.dim in (2, 3):
            sheaf = st.one_of(sheaf, st.sampled_from([Spinor(s) for s in model.spinor_signs]))
    sheaves = draw(st.dictionaries(st.integers(-3, 3), sheaf, max_size=3))
    return model, formal_complex(model, sheaves)


def signed_total(parts: list, degrees: list[int], width: int) -> tuple:
    """sum_q (-1)^q of the coordinate tuples of the degree-q parts."""
    total = [Fraction(0)] * width
    for q, coords in zip(degrees, parts):
        for k, x in enumerate(coords):
            total[k] += -x if q % 2 else x
    return tuple(total)


@settings(max_examples=150, deadline=None)
@given(drawn=classed_complexes())
def test_classes_of_a_complex_alternate_over_its_sheaves(drawn):
    model, E = drawn
    degrees = [q for q, _ in E.sheaves]
    classes = [class_of(desc, model) for _, desc in E.sheaves]
    got = class_of(E, model)
    want = signed_total([(c.r, c.e1, c.e2 or 0) for c in classes], degrees, 3)
    assert (got.r, got.e1, got.e2 or 0) == want
    if model.k0_box is None and model.kind != "elliptic":
        with pytest.raises(Indeterminate):
            k0_class(E, model)
        return
    parts = [k0_class(desc, model).coords for _, desc in E.sheaves]
    assert k0_class(E, model).coords == signed_total(parts, degrees, model.k0_rank)


@pytest.mark.parametrize(
    "spec, rank_with_units",
    [
        ("pn:1", 2), ("pn:2", 3), ("pn:3", 4), ("pn:4", 5), ("prod:1x1", 4),
        ("prod:1x2", 5), ("prod:2x1", 5), ("prod:1x3", 6), ("prod:3x1", 6),
        ("prod:2x2", 6),
    ],
)
def test_the_generator_argument_on_every_k0_box_model(spec, rank_with_units):
    """Ulrich objects are the right orthogonal of <O(1), ..., O(n)>.

    Where O(1..n) is exceptional its deficient gate certifies a nonzero
    orthogonal; the Ulrich units (O on P^n; O(0, A) and O(B, 0) on
    P^A x P^B, Eisenbud-Schreyer's E x F(dim X)) lie in it, and the
    rank they add is pinned.
    """
    model = parse_variety(spec)
    components = twist_components(model)
    members = tuple(LineBundle((-t,) * components) for t in model.ulrich_twists)
    n = model.dim
    if spec == "prod:2x2":
        # K = O(-3,-3), so Serre duality gives a backward map
        with pytest.raises(MalformedDescriptor, match=r"Ext\^4\(O\(4,4\), O\(1,1\)\) = 1"):
            register_collection(Collection(model, members))
    else:
        register_collection(Collection(model, members))
    assert generator_gate(list(members), model).verdict == f"DeficientRank{{{n}}}"
    if components == 1:
        units = [line_bundle(0)]
    else:
        a, b = model.factors
        units = [LineBundle((0, a)), LineBundle((b, 0))]
    for unit in units:
        assert orthogonal_membership(unit, members, model=model).member_of_orthogonal
        assert is_ulrich_object(formal_complex(model, {0: unit}), "both").passed
    gate = generator_gate(list(members) + units, model)
    assert (gate.rank, gate.needed) == (rank_with_units, model.k0_rank)
    assert gate.passed == (rank_with_units == model.k0_rank)


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
