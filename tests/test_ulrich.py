"""Ulrich predicates, decomposition reporters, Ext dimensions, and the
two-sheaf extension construction.

Synthetic abstract sheaves are used where an impostor is needed: tables
that pass the pointwise criteria but are not what they pretend to be.
Those tests pin down that the reconstruction cross-checks actually run.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulrich_kit import (
    AbstractSheaf,
    CohomologyTable,
    DirectSum,
    ExternalTensor,
    FormalComplex,
    GlueWitness,
    LineBundle,
    SemistableEC,
    Spinor,
    abstract_ulrich_sheaf,
    class_of,
    default_window,
    direct_sum,
    elliptic_curve,
    euler_char,
    ext_dimension,
    external_product,
    format_sheaf,
    formal_complex,
    is_initialized,
    is_ulrich_object,
    is_ulrich_sheaf,
    line_bundle,
    parse_sheaf,
    parse_variety,
    pn_decompose,
    product_proj,
    proj_space,
    pushforward_finite,
    quadric,
    quadric_decompose,
    rank1_surface,
    sheaf_column,
    sheaf_table,
    shift,
    twist_class,
    ulrich_chern_solve,
    yoneda_build,
)
from ulrich_kit.errors import (
    IncompleteTable,
    Indeterminate,
    MalformedDescriptor,
    ModeDisagreement,
    ModelMismatch,
    NoDualRule,
    NonDivisibleRank,
    NotUlrich,
    NotUlrichInput,
    OracleDefect,
    UnknownSlopeZero,
    ZeroExt,
)
from test_cohomology import (
    ORACLE_MODELS,
    ambient_line_table,
    convolve,
    oracle_descriptors,
    reference_column,
)


def scaled_entries(table: CohomologyTable, num: int, den: int) -> dict:
    out = {}
    for key, h in table.entries.items():
        assert (h * num) % den == 0
        out[key] = h * num // den
    return out


def scanned_initialization_witness(desc, model, depth):
    """The initialization witness found by probing one column at a time."""
    sections = sheaf_column(desc, model, 0).get(0, 0)
    if sections == 0:
        return (0, 0, 0)
    for t in range(-1, -depth - 1, -1):
        sections = sheaf_column(desc, model, t).get(0, 0)
        if sections:
            return (0, t, sections)
    return None


INITIALIZATION_CASES = [
    ("pn:2", "O(0)"),
    ("pn:2", "O(-1)"),
    ("pn:3", "O(1)"),
    ("pn:2", "O(3)+2*O(0)"),
    ("quadric:3", "S"),
    ("quadric:3", "S+O(-1)"),
    ("quadric:2", "S-"),
    ("prod:1x1", "O(1,0)"),
    ("prod:1x1", "O(0,-1)+O(2,1)"),
    ("elliptic:3", "ss(1,3,nontrivial)"),
    ("elliptic:3", "ss(2,7)"),
    ("elliptic:3", "O(1)"),
]


class TestInitialized:
    @settings(max_examples=40, deadline=None)
    @given(case=st.sampled_from(INITIALIZATION_CASES))
    def test_matches_a_column_by_column_scan(self, case):
        model = parse_variety(case[0])
        desc = parse_sheaf(case[1], model)
        lo = default_window(model)[0]
        expected = scanned_initialization_witness(desc, model, -lo)
        report = is_initialized(desc, model)
        assert report.witness == expected
        assert report.ok == (expected is None)
        # the verdict reuses its own table when that covers [lo, 0]
        # and probes a table of its own otherwise
        n = model.dim
        for window in ((lo, 2), (-n, 2)):
            verdict = is_ulrich_sheaf(desc, model, window)
            (criterion,) = [c for c in verdict.criteria if c.name == "initialized"]
            assert criterion.witness == expected
            assert criterion.passed == (expected is None)

    def test_structure_sheaf_is_initialized(self):
        report = is_initialized(line_bundle(0), proj_space(2))
        assert report.ok and report.global_verdict
        assert report.witness is None

    def test_negative_twist_has_no_sections_at_zero(self):
        report = is_initialized(line_bundle(-1), proj_space(2))
        assert not report.ok
        assert report.witness == (0, 0, 0)

    def test_positive_twist_has_early_sections(self):
        report = is_initialized(line_bundle(1), proj_space(3))
        assert not report.ok
        assert report.witness == (0, -1, 1)

    def test_probe_depth_is_recorded(self):
        report = is_initialized(line_bundle(0), proj_space(2))
        assert report.probed == (-9, 0)

    def test_abstract_data_is_window_limited(self):
        model = rank1_surface(4, 0, 2)
        witness = abstract_ulrich_sheaf(model, 1)
        report = is_initialized(witness, model)
        assert report.ok and not report.global_verdict


class TestUlrichSheaf:
    def test_criteria_names_and_order(self):
        verdict = is_ulrich_sheaf(line_bundle(0), proj_space(2))
        assert [c.name for c in verdict.criteria] == [
            "twisted-vanishing",
            "initialized",
            "section-count",
            "acm-window",
        ]
        assert verdict.passed and verdict.mode == "sheaf"
        assert verdict.witness() is None

    def test_structure_sheaf_on_every_projective_space(self):
        for n in range(1, 6):
            verdict = is_ulrich_sheaf(line_bundle(0), proj_space(n))
            assert verdict.passed, n

    def test_twists_fail_with_witnesses(self):
        p2 = proj_space(2)
        down = is_ulrich_sheaf(line_bundle(-1), p2)
        assert not down.passed
        # h^2(O(-1-2)) = 1 is the first nonzero over the probe order
        assert down.witness() is not None
        up = is_ulrich_sheaf(line_bundle(1), p2)
        assert not up.passed
        by_name = {c.name: c for c in up.criteria}
        assert by_name["twisted-vanishing"].witness == (0, -1, 1)

    def test_section_count_note(self):
        verdict = is_ulrich_sheaf(line_bundle(0), proj_space(2))
        by_name = {c.name: c for c in verdict.criteria}
        assert by_name["section-count"].note == "h0 = 1, deg * rank = 1"
        assert by_name["initialized"].note == "global"

    def test_spinor_on_the_threefold(self):
        verdict = is_ulrich_sheaf(Spinor(None), quadric(3))
        assert verdict.passed
        by_name = {c.name: c for c in verdict.criteria}
        assert by_name["section-count"].note == "h0 = 4, deg * rank = 4"

    def test_spinor_lines_on_the_surface(self):
        q2 = quadric(2)
        assert is_ulrich_sheaf(Spinor("+"), q2).passed
        assert is_ulrich_sheaf(Spinor("-"), q2).passed
        assert is_ulrich_sheaf(direct_sum(Spinor("+"), Spinor("-")), q2).passed
        assert not is_ulrich_sheaf(line_bundle(0), q2).passed

    def test_rulings_on_the_product(self):
        p11 = product_proj(1, 1)
        assert is_ulrich_sheaf(LineBundle((1, 0)), p11).passed
        assert is_ulrich_sheaf(LineBundle((0, 1)), p11).passed
        assert not is_ulrich_sheaf(LineBundle((0, 0)), p11).passed
        assert not is_ulrich_sheaf(LineBundle((1, 1)), p11).passed

    def test_elliptic_dichotomy_decides_the_verdict(self):
        model = elliptic_curve(3)
        good = is_ulrich_sheaf(SemistableEC(1, 3, False), model)
        assert good.passed
        # the forced-trivial twist keeps one section at -1
        bad = is_ulrich_sheaf(SemistableEC(1, 3, True), model)
        assert not bad.passed
        by_name = {c.name: c for c in bad.criteria}
        assert by_name["twisted-vanishing"].witness == (0, -1, 1)

    def test_abstract_witness_passes_window_limited(self):
        model = rank1_surface(4, 0, 2)
        for rank in (1, 2, 3):
            witness = abstract_ulrich_sheaf(model, rank)
            verdict = is_ulrich_sheaf(witness, model)
            assert verdict.passed, rank
            by_name = {c.name: c for c in verdict.criteria}
            assert by_name["initialized"].note == "window-limited"

    def test_as_dict_round_trip_shape(self):
        verdict = is_ulrich_sheaf(line_bundle(0), proj_space(2))
        data = verdict.as_dict()
        assert data["passed"] is True
        assert {c["name"] for c in data["criteria"]} == {
            "twisted-vanishing",
            "initialized",
            "section-count",
            "acm-window",
        }


class TestUlrichObject:
    def test_sums_of_shifts_pass_both_modes(self):
        p3 = proj_space(3)
        E = formal_complex(
            p3, {0: direct_sum((line_bundle(0), 2)), -2: line_bundle(0)}
        )
        for mode in ("direct", "sheafwise", "both"):
            verdict = is_ulrich_object(E, mode)
            assert verdict.passed, mode

    def test_modes_agree_on_failures_too(self):
        p2 = proj_space(2)
        E = formal_complex(p2, {0: line_bundle(1)})
        for mode in ("direct", "sheafwise", "both"):
            assert not is_ulrich_object(E, mode).passed, mode

    def test_unknown_mode_is_rejected(self):
        p2 = proj_space(2)
        E = formal_complex(p2, {0: line_bundle(0)})
        with pytest.raises(MalformedDescriptor):
            is_ulrich_object(E, "quick")

    def test_glued_pass_is_certified_by_vanishing(self):
        model = rank1_surface(4, 0, 2)
        F = abstract_ulrich_sheaf(model, 1, label="F")
        G = abstract_ulrich_sheaf(model, 1, label="G")
        E = formal_complex(model, {0: F, -1: G}, (GlueWitness(0, -1),))
        verdict = is_ulrich_object(E, "direct")
        assert verdict.passed
        assert verdict.criteria[0].note == "exact-by-vanishing"

    def test_engineered_disagreement_raises(self):
        # a table that vanishes at the Ulrich twists but miscounts its
        # sections passes the direct check and fails the sheafwise one;
        # the kit must refuse to pick a side
        p2 = proj_space(2)
        window = default_window(p2)
        base = sheaf_table(line_bundle(0), p2, window)
        entries = dict(base.entries)
        entries[(0, 0)] = 2  # wrong section count for rank 1
        impostor = AbstractSheaf(
            rank=1,
            label="miscounted",
            table=CohomologyTable(window=window, entries=entries),
        )
        E = formal_complex(p2, {0: impostor})
        assert is_ulrich_object(E, "direct").passed
        assert not is_ulrich_object(E, "sheafwise").passed
        with pytest.raises(ModeDisagreement):
            is_ulrich_object(E, "both")


    def test_both_mode_builds_one_table_per_sheaf(self, monkeypatch):
        # count table builds wherever the kit looks sheaf_table up, so a
        # second build through hyper_table would be counted as well
        import ulrich_kit.complexes
        import ulrich_kit.ulrich

        built = []

        def counting(desc, model, window=None):
            built.append(desc)
            return sheaf_table(desc, model, window)

        for module in (ulrich_kit.ulrich, ulrich_kit.complexes):
            monkeypatch.setattr(module, "sheaf_table", counting)
        model = rank1_surface(4, 0, 2)
        F = abstract_ulrich_sheaf(model, 1, "F")
        G = abstract_ulrich_sheaf(model, 2, "G")
        E = yoneda_build(F, G, 2, model, witness="asserted")
        built.clear()
        assert is_ulrich_object(E, "both").passed
        assert sorted(built, key=id) == sorted((F, G), key=id)

        p2 = proj_space(2)
        built.clear()
        assert pn_decompose(formal_complex(p2, {-1: line_bundle(0)})) == {-1: 1}
        # one for the object; the reconstruction is read off its column
        assert len(built) == 1

    @pytest.mark.parametrize("mode", ["direct", "sheafwise", "both"])
    def test_abstract_class_on_another_model_is_refused(self, mode):
        # a sheaf on the K3-type surface carrying a class that lives on P^2
        model = rank1_surface(4, 0, 2)
        p2 = proj_space(2)
        stray = AbstractSheaf(
            rank=1,
            label="stray",
            num_class=class_of(line_bundle(0), p2),
            table=abstract_ulrich_sheaf(model, 1).table,
        )
        with pytest.raises(ModelMismatch):
            formal_complex(model, {0: stray})
        E = FormalComplex(model=model, sheaves=((0, stray),))
        with pytest.raises(ModelMismatch):
            is_ulrich_object(E, mode)

    @pytest.mark.parametrize("mode", ["direct", "sheafwise", "both"])
    def test_abstract_table_short_of_the_window_is_refused(self, mode):
        # O(1)'s table on twists 0..4 says nothing about the Ulrich twists
        # -1, -2; no mode may read the missing columns as zero
        p2 = proj_space(2)
        short = sheaf_table(line_bundle(1), p2, (0, 4))
        E = formal_complex(p2, {0: AbstractSheaf(rank=1, label="short", table=short)})
        with pytest.raises(IncompleteTable):
            is_ulrich_object(E, mode)


class TestPnDecompose:
    def test_single_structure_sheaf(self):
        p2 = proj_space(2)
        E = formal_complex(p2, {0: line_bundle(0)})
        assert pn_decompose(E) == {0: 1}

    def test_shifted_sum(self):
        p3 = proj_space(3)
        E = formal_complex(
            p3, {0: direct_sum((line_bundle(0), 2)), -1: line_bundle(0)}
        )
        assert pn_decompose(E) == {-1: 1, 0: 2}

    def test_shift_moves_the_multiplicities(self):
        p2 = proj_space(2)
        E = formal_complex(p2, {0: direct_sum((line_bundle(0), 3))})
        assert pn_decompose(shift(E, 2)) == {-2: 3}

    def test_rejects_non_ulrich_input(self):
        p2 = proj_space(2)
        with pytest.raises(NotUlrich):
            pn_decompose(formal_complex(p2, {0: line_bundle(2)}))

    def test_rejects_other_models(self):
        q2 = quadric(2)
        with pytest.raises(MalformedDescriptor):
            pn_decompose(formal_complex(q2, {0: Spinor("+")}))

    def test_impostor_table_is_caught_by_reconstruction(self):
        # passes every pointwise criterion, but the table deviates from
        # the structure sheaf away from the probed twists
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
        E = formal_complex(p2, {0: impostor})
        assert is_ulrich_object(E, "both").passed
        with pytest.raises(NotUlrich):
            pn_decompose(E)


class TestQuadricDecompose:
    def test_spinor_multiplicities_on_q3(self):
        q3 = quadric(3)
        E = formal_complex(q3, {0: direct_sum((Spinor(None), 2)), -1: Spinor(None)})
        assert quadric_decompose(E) == {-1: 1, 0: 2}

    def test_even_split_on_q2(self):
        q2 = quadric(2)
        E = formal_complex(q2, {0: direct_sum(Spinor("+"), (Spinor("-"), 2))})
        assert quadric_decompose(E) == {0: {"+": 1, "-": 2}}

    def test_even_split_on_the_product_model(self):
        p11 = product_proj(1, 1)
        E = formal_complex(p11, {0: LineBundle((1, 0)), -1: LineBundle((0, 1))})
        assert quadric_decompose(E) == {
            -1: {"+": 0, "-": 1},
            0: {"+": 1, "-": 0},
        }

    @pytest.mark.parametrize(
        "left, right, split",
        [
            (direct_sum((line_bundle(1), 2)), line_bundle(0), {"+": 2, "-": 0}),
            (line_bundle(0), direct_sum((line_bundle(1), 3)), {"+": 0, "-": 3}),
        ],
    )
    def test_external_tensor_of_a_sum_splits(self, left, right, split):
        # [2*O(1)]x[O(0)] is O(1,0)^2: the sum distributes before the
        # ruling of each line bundle is read
        E = formal_complex(product_proj(1, 1), {0: ExternalTensor(left, right)})
        assert is_ulrich_object(E, "both").passed
        assert quadric_decompose(E) == {0: split}

    def test_rejects_non_ulrich_input(self):
        q3 = quadric(3)
        with pytest.raises(NotUlrich):
            quadric_decompose(formal_complex(q3, {0: line_bundle(0)}))

    def test_rejects_other_models(self):
        p2 = proj_space(2)
        with pytest.raises(MalformedDescriptor):
            quadric_decompose(formal_complex(p2, {0: line_bundle(0)}))

    @pytest.mark.parametrize("spec, atom", [("quadric:2", "S+"), ("prod:1x1", "O(1,0)")])
    def test_even_split_of_an_abstract_sheaf_is_indeterminate(self, spec, atom):
        # the table is a spinor line's, but a table alone cannot tell
        # which ruling the sheaf belongs to
        model = parse_variety(spec)
        window = default_window(model)
        table = sheaf_table(parse_sheaf(atom, model), model, window)
        E = formal_complex(model, {0: AbstractSheaf(rank=1, label="ruling", table=table)})
        assert is_ulrich_object(E, "both").passed
        with pytest.raises(Indeterminate):
            quadric_decompose(E)

    def test_abstract_factor_of_an_external_tensor_is_indeterminate(self):
        # the abstract sheaf hides inside [A]x[O(1)] on P^1 x P^1, not as
        # a summand; the split must still refuse rather than misread it
        p1 = proj_space(1)
        table = sheaf_table(line_bundle(0), p1, (-20, 20))
        hidden = AbstractSheaf(rank=1, label="O-like", table=table)
        E = external_product(
            formal_complex(p1, {0: hidden}), formal_complex(p1, {0: line_bundle(0)})
        )
        assert is_ulrich_object(E, "both").passed
        with pytest.raises(Indeterminate):
            quadric_decompose(E)

    def test_non_divisible_rank_is_reported(self):
        # an abstract table with the section counts of one and a half
        # spinors passes the pointwise criteria but cannot decompose
        q3 = quadric(3)
        window = default_window(q3)
        base = sheaf_table(Spinor(None), q3, window)
        impostor = AbstractSheaf(
            rank=3,
            label="three-halves-spinor",
            table=CohomologyTable(
                window=window, entries=scaled_entries(base, 3, 2)
            ),
        )
        E = formal_complex(q3, {0: impostor})
        assert is_ulrich_object(E, "both").passed
        with pytest.raises(NonDivisibleRank):
            quadric_decompose(E)


class TestExtDimension:
    def test_line_bundle_pairs_on_the_plane(self):
        p2 = proj_space(2)
        assert ext_dimension(line_bundle(0), line_bundle(1), 0, p2) == 3
        assert ext_dimension(line_bundle(0), line_bundle(1), 1, p2) == 0
        assert ext_dimension(line_bundle(1), line_bundle(-2), 2, p2) == 1
        assert ext_dimension(line_bundle(0), line_bundle(0), 0, p2) == 1

    def test_direct_sum_source_is_additive(self):
        p2 = proj_space(2)
        total = ext_dimension(
            direct_sum(line_bundle(0), line_bundle(1)), line_bundle(1), 0, p2
        )
        assert total == 3 + 1

    def test_spinor_orthogonality_on_q2(self):
        q2 = quadric(2)
        for k in range(0, 3):
            assert ext_dimension(Spinor("+"), Spinor("-"), k, q2) == 0
            assert ext_dimension(Spinor("-"), Spinor("+"), k, q2) == 0
        assert ext_dimension(Spinor("+"), Spinor("+"), 0, q2) == 1
        assert ext_dimension(Spinor("-"), line_bundle(1), 0, q2) == 2

    def test_spinor_sections_from_the_structure_sheaf(self):
        q3 = quadric(3)
        assert ext_dimension(line_bundle(0), Spinor(None), 0, q3) == 4
        assert ext_dimension(line_bundle(0), Spinor(None), 1, q3) == 0

    def test_odd_spinor_source_has_no_dual_rule(self):
        q3 = quadric(3)
        with pytest.raises(NoDualRule):
            ext_dimension(Spinor(None), line_bundle(0), 0, q3)

    def test_elliptic_hom_spaces(self):
        model = elliptic_curve(3)
        triv = SemistableEC(1, 0, True)
        nontriv = SemistableEC(1, 0, False)
        assert ext_dimension(triv, triv, 0, model) == 1
        assert ext_dimension(triv, triv, 1, model) == 1
        assert ext_dimension(triv, nontriv, 0, model) == 0
        assert ext_dimension(triv, nontriv, 1, model) == 0
        assert ext_dimension(triv, SemistableEC(1, 3), 0, model) == 3
        assert ext_dimension(triv, SemistableEC(1, 3), 1, model) == 0
        assert ext_dimension(SemistableEC(1, 2, True), triv, 1, model) == 2

    def test_trivial_type_source_of_degree_k_d_is_a_line_bundle(self):
        # ss(1, 3k, trivial) is O(k) on elliptic:3, so Ext out of it reads
        # the twisted column of the target, of any rank
        model = elliptic_curve(3)
        target = SemistableEC(2, 0, True)
        assert sheaf_column(target, model, 0) == {0: 1, 1: 1}
        for source in (line_bundle(0), SemistableEC(1, 0, True)):
            assert ext_dimension(source, target, 0, model) == 1
            assert ext_dimension(source, target, 1, model) == 1
        assert ext_dimension(SemistableEC(1, 3, True), SemistableEC(2, 6, True), 0, model) == 1

    def test_elliptic_unknowns_are_refused(self):
        model = elliptic_curve(3)
        with pytest.raises(UnknownSlopeZero, match=r"^ss\(1,0\): twisted degree zero"):
            ext_dimension(SemistableEC(1, 0, True), SemistableEC(1, 0), 0, model)
        with pytest.raises(NoDualRule):
            ext_dimension(SemistableEC(2, 0, True), SemistableEC(1, 1), 0, model)

    def test_serre_cross_check_always_runs(self, monkeypatch):
        import ulrich_kit.ulrich

        monkeypatch.setattr(
            ulrich_kit.ulrich, "_ext_serre_partner", lambda F, G, k, model: 99
        )
        with pytest.raises(OracleDefect):
            ext_dimension(line_bundle(0), line_bundle(1), 0, proj_space(2))

    def test_product_pairs(self):
        p11 = product_proj(1, 1)
        assert ext_dimension(LineBundle((1, 0)), LineBundle((1, 1)), 0, p11) == 2
        assert ext_dimension(LineBundle((0, 0)), LineBundle((-2, -2)), 2, p11) == 1

    @pytest.mark.parametrize(
        "spec", ["pn:3", "quadric:3", "quadric:4", "prod:1x1", "prod:1x2", "elliptic:4"]
    )
    def test_serre_partner_runs_and_agrees_on_line_bundles(self, spec):
        from ulrich_kit.sheaves import twist_components
        from ulrich_kit.ulrich import _ext_primary, _ext_serre_partner

        model = parse_variety(spec)
        twists = itertools.product(range(-2, 3), repeat=twist_components(model))
        lines = [LineBundle(twist) for twist in twists]
        for F, G in itertools.product(lines, repeat=2):
            for k in range(model.dim + 1):
                partner = _ext_serre_partner(F, G, k, model)
                assert partner is not None, (spec, F, G, k)
                assert partner == _ext_primary(F, G, k, model), (spec, F, G, k)


class TestYonedaBuild:
    def surface_pair(self):
        model = rank1_surface(4, 0, 2)
        F = abstract_ulrich_sheaf(model, 1, label="F")
        G = abstract_ulrich_sheaf(model, 2, label="G")
        return model, F, G

    def test_degree_one_is_a_sheaf_not_a_complex(self):
        model, F, G = self.surface_pair()
        for m in (1, 0, -1):
            with pytest.raises(MalformedDescriptor):
                yoneda_build(F, G, m, model, witness="asserted")

    def test_non_ulrich_input_is_rejected(self):
        p2 = proj_space(2)
        with pytest.raises(NotUlrichInput):
            yoneda_build(line_bundle(1), line_bundle(0), 2, p2)

    def test_computed_witness_fails_on_vanishing_ext(self):
        p2 = proj_space(2)
        with pytest.raises(ZeroExt):
            yoneda_build(line_bundle(0), line_bundle(0), 2, p2)
        model = elliptic_curve(3)
        witness = SemistableEC(1, 3, False)
        with pytest.raises(ZeroExt):
            yoneda_build(witness, witness, 2, model)

    def test_computed_witness_needs_an_ext_oracle(self):
        model, F, G = self.surface_pair()
        with pytest.raises(NoDualRule):
            yoneda_build(F, G, 2, model, witness="computed")

    def test_asserted_glue_in_degree_two(self):
        model, F, G = self.surface_pair()
        E = yoneda_build(F, G, 2, model, witness="asserted")
        assert E.sheaf_map() == {0: F, -1: G}
        assert E.glue == (GlueWitness(0, -1),)
        assert E.has_glue()
        verdict = is_ulrich_object(E, "both")
        assert verdict.passed

    def test_higher_degrees_are_formal(self):
        model, F, G = self.surface_pair()
        E = yoneda_build(F, G, 3, model, witness="asserted")
        assert E.support() == [-2, 0]
        assert E.glue == ()

    def test_witness_policy_validation(self):
        model, F, G = self.surface_pair()
        with pytest.raises(MalformedDescriptor):
            yoneda_build(F, G, 2, model, witness="hoped-for")


class TestAbstractUlrichSheaf:
    def test_table_realizes_the_universal_euler_polynomial(self):
        model = rank1_surface(4, 0, 2)
        for rank in (1, 2, 3):
            witness = abstract_ulrich_sheaf(model, rank)
            table = witness.table
            for t in range(table.window[0], table.window[1] + 1):
                want = rank * model.deg * (t + 1) * (t + 2) // 2
                assert table.euler(t) == want, (rank, t)

    def test_class_matches_the_solver(self):
        model = rank1_surface(3, -1, 1)
        witness = abstract_ulrich_sheaf(model, 2)
        solved = ulrich_chern_solve(model, 2)
        assert witness.num_class == solved

    def test_sections_sit_at_the_forced_degrees(self):
        model = rank1_surface(5, 1, 1)
        witness = abstract_ulrich_sheaf(model, 1)
        for (i, t), h in witness.table.entries.items():
            assert h > 0
            assert i == (0 if t >= 0 else 2)
            assert t not in (-1, -2)

    def test_each_instance_is_its_own_sheaf(self):
        model = rank1_surface(4, 0, 2)
        a = abstract_ulrich_sheaf(model, 1)
        b = abstract_ulrich_sheaf(model, 1)
        assert a != b and a == a

    def test_rank_validation(self):
        model = rank1_surface(4, 0, 2)
        with pytest.raises(MalformedDescriptor):
            abstract_ulrich_sheaf(model, 0)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=12),
    twice_i=st.integers(min_value=-10, max_value=10),
    chi0=st.integers(min_value=-4, max_value=4),
    rank=st.integers(min_value=1, max_value=6),
)
def test_abstract_sheaf_euler_columns_follow_riemann_roch(d, twice_i, chi0, rank):
    # the table comes from the Eisenbud-Schreyer rule, the class from the
    # Chern solve; Riemann-Roch on the class must give every Euler column
    model = rank1_surface(d, Fraction(twice_i, 2), chi0)
    witness = abstract_ulrich_sheaf(model, rank)
    lo, hi = witness.table.window
    for t in range(lo, hi + 1):
        assert witness.table.euler(t) == euler_char(twist_class(witness.num_class, t))


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    mults=st.dictionaries(
        keys=st.integers(min_value=-3, max_value=3),
        values=st.integers(min_value=1, max_value=3),
        min_size=1,
        max_size=3,
    ),
)
def test_every_sum_of_shifts_is_ulrich(n, mults):
    model = proj_space(n)
    E = formal_complex(
        model,
        {degree: direct_sum((line_bundle(0), mult)) for degree, mult in mults.items()},
    )
    assert is_ulrich_object(E, "both").passed
    assert pn_decompose(E) == dict(sorted(mults.items()))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=-4, max_value=4).filter(lambda k: k != 0),
)
def test_no_nonzero_twist_is_ulrich(n, k):
    model = proj_space(n)
    E = formal_complex(model, {0: line_bundle(k)})
    verdict = is_ulrich_object(E, "both")
    assert not verdict.passed
    assert verdict.witness() is not None


@pytest.mark.parametrize("mults", [{0: 1}, {-1: 1, 0: 2}, {-2: 1, 1: 3}], ids=str)
@pytest.mark.parametrize("spec", ["pn:1", "pn:2", "pn:3", "pn:4", "quadric:3"])
def test_the_eisenbud_schreyer_readers_agree(spec, mults):
    # pushforward_finite reads h^q(E) off the projection to P^n; the
    # decomposers divide it by the sections of their unit: 1 for O on
    # P^n, 4 for S on Q^3, which pushes forward to O^4
    model = parse_variety(spec)
    unit = parse_sheaf("S" if model.spinor_signs else "O(0)", model)
    E = formal_complex(model, {d: direct_sum((unit, m)) for d, m in mults.items()})
    pushed = pushforward_finite(E)
    assert pushed.trivialized and pushed.reconstruction_ok
    if model.spinor_signs:
        split = quadric_decompose(E)
        assert split == mults
        assert pushed.multiplicities == {d: 4 * m for d, m in split.items()}
    else:
        assert pushed.multiplicities == pn_decompose(E) == mults


@settings(max_examples=60, deadline=None)
@given(model=st.sampled_from(ORACLE_MODELS), data=st.data())
def test_both_mode_is_the_direct_criterion_then_the_sheafwise_ones(model, data):
    window = default_window(model)
    degrees = data.draw(st.sets(st.integers(-2, 1), min_size=1, max_size=3))
    E = formal_complex(
        model, {d: data.draw(oracle_descriptors(model, window, 1)) for d in degrees}
    )
    direct = is_ulrich_object(E, "direct")
    sheafwise = is_ulrich_object(E, "sheafwise")
    for verdict in (direct, sheafwise):
        assert verdict.passed == (verdict.witness() is None)
    if direct.passed != sheafwise.passed:  # a stored table can pass one and fail the other
        with pytest.raises(ModeDisagreement):
            is_ulrich_object(E, "both")
        return
    both = is_ulrich_object(E, "both")
    assert both.criteria == direct.criteria + sheafwise.criteria
    assert both.passed == (both.witness() is None) == direct.passed


def product_reference(desc, model, twists) -> dict[int, int]:
    """h^i(desc x O(a, b)) on P^n1 x P^n2, each factor twisted by its own
    component, from the per-twist reference."""
    if isinstance(desc, DirectSum):
        out = {}
        for part, mult in desc.parts:
            for i, h in product_reference(part, model, twists).items():
                out[i] = out.get(i, 0) + mult * h
        return out
    (n1, n2), (a, b) = model.factors, twists
    if isinstance(desc, LineBundle):
        c, d = desc.twists
        return convolve(ambient_line_table(n1, c + a), ambient_line_table(n2, d + b))
    return convolve(
        reference_column(desc.left, proj_space(n1), a),
        reference_column(desc.right, proj_space(n2), b),
    )


@settings(max_examples=100, deadline=None)
@given(model=st.sampled_from(ORACLE_MODELS), data=st.data())
def test_ext_from_a_line_bundle_is_a_twisted_column(model, data):
    # Ext^k(O(v), G) = H^k(G(-v)) on every family; stored tables and
    # spinors take no off-diagonal twist, so products draw neither
    product = model.kind == "prod"
    width = 2 if product else 1
    twists = data.draw(st.tuples(*[st.integers(-8, 8)] * width))
    targets = oracle_descriptors(model, (-8, 8), opaque=not product)
    if model.product_form_model is not None:  # read on P^1 x P^1, which has no stored tables
        targets = targets.filter(lambda d: "abstract" not in format_sheaf(d))
    G = data.draw(targets)
    minus = tuple(-a for a in twists)
    want = product_reference(G, model, minus) if product else reference_column(G, model, minus[0])
    for k in range(model.dim + 1):
        assert ext_dimension(LineBundle(twists), G, k, model) == want.get(k, 0), k
