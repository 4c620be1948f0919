"""Ulrich predicates, decomposition reporters, Ext dimensions, and the
two-sheaf extension construction.

Synthetic abstract sheaves are used where an impostor is needed: tables
that pass the pointwise criteria but are not what they pretend to be.
Those tests pin down that the reconstruction cross-checks actually run.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ulrich_kit.ulrich
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
    formal_complex,
    hyper_table,
    is_initialized,
    is_ulrich_object,
    is_ulrich_sheaf,
    line_bundle,
    orthogonal_membership,
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
    UlrichKitError,
    UnknownSlopeZero,
    ZeroExt,
)
from ulrich_kit.cohomology import _filled, ulrich_table
from ulrich_kit.complexes import _rebuilds
from ulrich_kit.tables import shifted_sum
from test_cohomology import (
    ORACLE_MODELS,
    ambient_line_table,
    convolve,
    oracle_descriptors,
    reference_column,
    stored_tables,
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
        assert report.passed == (expected is None)
        # the verdict reuses its own table when that covers [lo, 0]
        # and probes a table of its own otherwise; either way its
        # criterion is the one is_initialized returns
        n = model.dim
        for window in ((lo, 2), (-n, 2)):
            verdict = is_ulrich_sheaf(desc, model, window)
            (criterion,) = [c for c in verdict.criteria if c.name == "initialized"]
            assert criterion == report

    def test_structure_sheaf_is_initialized(self):
        report = is_initialized(line_bundle(0), proj_space(2))
        assert report.passed and report.note == "global"
        assert report.witness is None

    def test_negative_twist_has_no_sections_at_zero(self):
        report = is_initialized(line_bundle(-1), proj_space(2))
        assert not report.passed
        assert report.witness == (0, 0, 0)

    def test_positive_twist_has_early_sections(self):
        report = is_initialized(line_bundle(1), proj_space(3))
        assert not report.passed
        assert report.witness == (0, -1, 1)

    def test_probe_depth_is_recorded(self):
        report = is_initialized(line_bundle(0), proj_space(2))
        assert report.twists == range(-9, 0)

    def test_abstract_data_is_window_limited(self):
        model = rank1_surface(4, 0, 2)
        witness = abstract_ulrich_sheaf(model, 1)
        report = is_initialized(witness, model)
        assert report.passed and report.note == "window-limited"


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
        # count table builds wherever the kit looks a table builder up:
        # the verdict's and the decomposers' builders in ulrich, and
        # sheaf_table there and in complexes, so a second build through
        # hyper_table would be counted as well
        import ulrich_kit.complexes
        import ulrich_kit.ulrich

        built = []

        def counting(build, per_pair):
            # the verdict's and the decomposers' builders take (degree, sheaf) pairs
            def count(first, model, window=None):
                if per_pair:
                    built.extend(desc for _, desc in first)
                else:
                    built.append(first)
                return build(first, model, window)

            return count

        for module, name, per_pair in (
            (ulrich_kit.ulrich, "_verdict_tables", True),
            (ulrich_kit.ulrich, "_decomposition_tables", True),
            (ulrich_kit.ulrich, "_window_table", False),
            (ulrich_kit.ulrich, "sheaf_table", False),
            (ulrich_kit.complexes, "sheaf_table", False),
        ):
            monkeypatch.setattr(module, name, counting(getattr(module, name), per_pair))
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

    COUNT_CASES = [
        ("pn:2", {0: "O(0)", -1: "2*O(0)"}),
        ("pn:3", {0: "O(1)"}),
        ("quadric:3", {0: "2*S", -2: "S"}),
        ("quadric:2", {0: "S+ + S-", 1: "S-"}),
        ("prod:1x1", {0: "O(1,0)", -1: "O(0,1)"}),
    ]

    @pytest.mark.parametrize("spec, sheaves", COUNT_CASES)
    @pytest.mark.parametrize("widen", [0, 3])
    def test_table_builds_are_one_per_sheaf_and_two_per_decomposition(
        self, monkeypatch, spec, sheaves, widen
    ):
        # every CohomologyTable built is counted, whoever builds it; the
        # window reaches the probe depth, so no probe table is needed, and
        # mode direct reads its columns without a table
        model = parse_variety(spec)
        E = formal_complex(model, {d: parse_sheaf(s, model) for d, s in sheaves.items()})
        lo, hi = default_window(model)
        window = (lo - widen, hi + widen)
        built = []
        post_init = CohomologyTable.__post_init__

        def counting(table):
            built.append(table.window)
            post_init(table)

        monkeypatch.setattr(CohomologyTable, "__post_init__", counting)
        for mode in ("direct", "sheafwise", "both"):
            built.clear()
            ulrich = is_ulrich_object(E, mode, window).passed
            assert built == ([] if mode == "direct" else [window] * len(sheaves)), mode
        decompose = pn_decompose if model.kind == "pn" else quadric_decompose
        if ulrich:
            built.clear()
            decompose(E, window)
            # the sheaf tables, then the hyper table and the rebuild
            assert built == [window] * (len(sheaves) + 2)

    @pytest.mark.parametrize("spec, sheaves", COUNT_CASES)
    def test_span_tables_are_laid_out_once(self, monkeypatch, spec, sheaves):
        # on a window wide enough to cut, every call of tables.placed is
        # counted, from whichever module, against the span tables built: a
        # verdict lays out each table's spans once, and a decomposition
        # lays out its sheaf tables' one layout once, which its hyper table
        # shares, and its rebuild's once
        model = parse_variety(spec)
        E = formal_complex(model, {d: parse_sheaf(s, model) for d, s in sheaves.items()})
        window = (-300, 300)
        span_tables, calls = [], []
        post_init, placed = CohomologyTable.__post_init__, ulrich_kit.tables.placed

        def counting(table):
            span_tables.extend([table] * (table.spans is not None))
            post_init(table)

        def counting_placed(spans):
            calls.append(spans)
            return placed(spans)

        monkeypatch.setattr(CohomologyTable, "__post_init__", counting)
        for module in (ulrich_kit.tables, ulrich_kit.cohomology):
            if hasattr(module, "placed"):
                monkeypatch.setattr(module, "placed", counting_placed)
        for mode in ("sheafwise", "both"):
            span_tables.clear(), calls.clear()
            ulrich = is_ulrich_object(E, mode, window).passed
            assert len(calls) <= len(span_tables), mode
        decompose = pn_decompose if model.kind == "pn" else quadric_decompose
        if ulrich:
            span_tables.clear(), calls.clear()
            decompose(E, window)
            assert len(span_tables) in (0, len(sheaves) + 2)
            assert len(calls) == (2 if span_tables else 0)

    def test_the_direct_criterion_reads_only_the_ulrich_twists(self):
        # twist 0 of ss(1,0) needs its triviality bit, which the direct
        # criterion never reads: it answers as membership against O(1) does
        curve = parse_variety("elliptic:3")
        E = formal_complex(curve, {0: parse_sheaf("ss(1,0)", curve)})
        assert is_ulrich_object(E, "direct").witness() == (1, -1, 3)
        with pytest.raises(UnknownSlopeZero):
            is_ulrich_object(E, "sheafwise")
        # the spinor columns at -1..-3 need no table over the wide window
        q3 = parse_variety("quadric:3")
        spinors = formal_complex(q3, {0: parse_sheaf("2*S", q3)})
        assert is_ulrich_object(spinors, "direct", (-1600, 1600)).passed

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

    @pytest.mark.parametrize("mode", ["direct", "sheafwise", "both"])
    def test_every_sheaf_is_validated_before_any_table_is_built(self, mode):
        # a hand-built complex: degree 0's table raises at twist 0, where
        # ss(1,0) needs its triviality bit, and the later degree 1 holds a
        # line bundle with two twists on a curve; every mode validates all
        # sheaves first, once, so the malformed one is what every mode reports
        curve = parse_variety("elliptic:3")
        E = FormalComplex(
            model=curve, sheaves=((0, SemistableEC(1, 0)), (1, LineBundle((1, 2))))
        )
        with pytest.raises(MalformedDescriptor, match="needs 1 twist"):
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

    @pytest.mark.parametrize("n", [5, 7])
    def test_odd_split_reads_the_table_alone_past_q3(self, n):
        # no spinor oracle exists on Q^5 or Q^7, but the Eisenbud-Schreyer
        # table of a spinor's sections decomposes all the same
        model = quadric(n)
        window = default_window(model)
        sections = model.deg * model.spinor_rank

        def unit(copies):
            table = ulrich_table(n, {0: copies * sections}, window)
            return AbstractSheaf(copies * model.spinor_rank, "spinor-like", table=table)

        assert quadric_decompose(formal_complex(model, {0: unit(1)})) == {0: 1}
        E = formal_complex(model, {0: unit(1), -1: unit(2)})
        assert quadric_decompose(E) == {-1: 2, 0: 1}

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

    @pytest.mark.parametrize("spec, atom", [("quadric:2", "S+"), ("prod:1x1", "O(1,0)")])
    @pytest.mark.parametrize(
        "twist, h2, error", [(0, 1, NonDivisibleRank), (3, 2, NotUlrich)]
    )
    def test_even_split_reads_the_table_before_it_refuses_an_abstract_sheaf(
        self, spec, atom, twist, h2, error
    ):
        # a ruling line's table with a stray h^2 that no criterion reads:
        # at twist 0 the sections do not divide it, further up the rebuild
        # fails; either refusal comes before the abstract sheaf's
        model = parse_variety(spec)
        window = default_window(model)
        entries = dict(sheaf_table(parse_sheaf(atom, model), model, window).entries)
        entries[(2, twist)] = h2
        table = CohomologyTable(window=window, entries=entries)
        E = formal_complex(model, {0: AbstractSheaf(rank=1, label="stray", table=table)})
        assert is_ulrich_object(E, "both").passed
        with pytest.raises(error):
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

    def test_ruling_counts_must_add_up_to_the_unit_multiplicities(self, monkeypatch):
        # the split reads one hyper column per ruling; a count one off is
        # caught against the twist-0 column of the table
        p11 = product_proj(1, 1)
        E = formal_complex(p11, {0: LineBundle((1, 0)), -1: LineBundle((0, 1))})
        read = ulrich_kit.ulrich.hyper_column

        def off_by_one(pairs, model, twists):
            column = read(pairs, model, twists)
            if twists == (-1, 0):
                column[0] = column.get(0, 0) + 1
            return column

        monkeypatch.setattr(ulrich_kit.ulrich, "hyper_column", off_by_one)
        with pytest.raises(OracleDefect, match="do not add up"):
            quadric_decompose(E)


def kit_outcome(fn, *args):
    """The value of fn(*args), or the type and message of the error the
    kit raises, its two self-detected defects included."""
    try:
        return ("ok", fn(*args))
    except (UlrichKitError, ModeDisagreement, OracleDefect) as err:
        return (type(err), str(err))


@st.composite
def signed_tables(draw, window):
    """An abstract sheaf whose stored table was given zero and negative
    entries (the zeros are dropped as it is built)."""
    lo, hi = window
    entries = draw(
        st.dictionaries(
            st.tuples(st.integers(-1, 3), st.integers(lo, hi)), st.integers(-3, 3), max_size=8
        )
    )
    return AbstractSheaf(rank=1, label="signed", table=CohomologyTable(window, entries))


def cancelling_partner(sheaf: AbstractSheaf) -> AbstractSheaf:
    """Placed one complex degree above sheaf, a table whose hyper sum with
    sheaf's is zero: each entry negated, one cohomological degree lower."""
    table = sheaf.table
    entries = {(i - 1, t): -h for (i, t), h in table.entries.items()}
    return AbstractSheaf(rank=1, label="cancelling", table=CohomologyTable(table.window, entries))


def glue_between(draw, sheaves) -> tuple:
    return tuple(
        GlueWitness(d, d - 1) for d in sorted(sheaves) if d - 1 in sheaves and draw(st.booleans())
    )


@st.composite
def direct_cases(draw):
    """A complex on any family, abstract surfaces included, with zero to
    three cohomology sheaves, and a window that may be empty or miss an
    Ulrich twist.  Stored tables hold signed entries, and some cancel
    across degrees in the hyper sum."""
    model = draw(st.sampled_from(ORACLE_MODELS + [rank1_surface(4, 0, 2)]))
    n = model.dim
    if draw(st.booleans()):
        window = (draw(st.integers(-n - 8, -n)), draw(st.integers(-1, 8)))
    else:
        lo = draw(st.integers(-12, 1))
        window = (lo, lo + draw(st.integers(-1, 14)))
    cover = (min(window), max(window))  # stored tables need a window that is not empty
    degrees = sorted(draw(st.sets(st.integers(-3, 2), min_size=1, max_size=3)))
    if draw(st.sampled_from([False] * 9 + [True])):
        degrees = []
    sheaves = {}
    for degree in degrees:
        if draw(st.booleans()):
            sheaves[degree] = draw(oracle_descriptors(model, cover))
            continue
        sheaves[degree] = draw(signed_tables(cover))
        if degree + 1 not in degrees and draw(st.booleans()):
            sheaves[degree + 1] = cancelling_partner(sheaves[degree])
    return formal_complex(model, sheaves, glue_between(draw, sheaves)), window


def one_twist_hyper_witness(E, window):
    """The first nonzero entry of the hyper tables on the one-twist windows
    (t, t) over the Ulrich twists in order; a twist the window misses is
    read off an empty table over the window, which raises its error."""
    lo, hi = window
    for t in E.model.ulrich_twists:
        table = hyper_table(E, (t, t)).table if lo <= t <= hi else CohomologyTable(window)
        hit = table.first_nonzero([t])
        if hit is not None:
            return hit
    return None


@settings(max_examples=300, deadline=None)
@given(case=direct_cases())
@example(case=(formal_complex(proj_space(2), {}), (0, 3)))
def test_the_direct_witness_is_the_hyper_tables(case):
    # the direct criterion reads the columns at the Ulrich twists; it must
    # find what the whole hyper table finds there.  Where that table
    # raises, it must give what the one-twist hyper tables at the Ulrich
    # twists give, an answer where the table failed at another twist (an
    # empty complex on (0, 3) misses twist -1)
    E, window = case
    twists = E.model.ulrich_twists
    want = kit_outcome(lambda: hyper_table(E, window).table.first_nonzero(twists))
    got = kit_outcome(lambda: is_ulrich_object(E, "direct", window).criteria[0])
    if want[0] != "ok":
        want = kit_outcome(one_twist_hyper_witness, E, window)
        if got[0] == "ok":
            got = ("ok", got[1].witness)
        assert got == want
        return
    assert got[0] == "ok"
    criterion = got[1]
    assert criterion.twists == twists
    assert criterion.witness == want[1]
    vanishing = E.has_glue() and want[1] is None
    assert criterion.note == ("exact-by-vanishing" if vanishing else "")


def covers_the_ulrich_twists(case) -> bool:
    E, (lo, hi) = case
    return lo <= -E.model.dim and -1 <= hi


def membership_witness(E):
    """``orthogonal_membership`` against O(1..n), diagonal on products,
    its witness read as the direct criterion's (degree, twist, value)."""
    width = len(E.model.factors or (0,))
    members = [LineBundle((-t,) * width) for t in E.model.ulrich_twists]
    witness = orthogonal_membership(E, members, E.model).witness
    if witness is None:
        return None
    _, degree, twist, value = witness
    return (degree, twist[0] if isinstance(twist, tuple) else twist, value)


@settings(max_examples=200, deadline=None)
@given(case=direct_cases().filter(covers_the_ulrich_twists))
def test_membership_in_the_orthogonal_of_o1_to_on_is_the_direct_criterion(case):
    # Hom^*(O(j), E) = H^*(E(-j)): the same E2 sums, zero sums dropped,
    # so the same first witness, or none on both sides, or the same error
    E, window = case
    want = kit_outcome(lambda: is_ulrich_object(E, "direct", window).criteria[0].witness)
    assert kit_outcome(membership_witness, E) == want


def test_a_cancelling_pair_is_in_the_orthogonal():
    # h^1(A(-1)) = 1 in degree 0 and h^0(B(-1)) = -1 in degree 1 sum to
    # zero in hyper degree 1: no witness, where a zero sum was one before
    surface = parse_variety("surface:d=4,i=0,chi=2")
    window = default_window(surface)
    A = AbstractSheaf(rank=1, label="A", table=CohomologyTable(window, {(1, -1): 1}))
    B = AbstractSheaf(rank=1, label="B", table=CohomologyTable(window, {(0, -1): -1}))
    E = formal_complex(surface, {0: A, 1: B})
    assert is_ulrich_object(E, "direct").passed
    assert membership_witness(E) is None


def test_the_direct_criterion_refuses_an_empty_window():
    with pytest.raises(IncompleteTable, match=r"empty window \(3, 1\)"):
        is_ulrich_object(formal_complex(proj_space(2), {}), "direct", (3, 1))


PIECE_MODELS = (
    [proj_space(n) for n in range(1, 5)]
    + [product_proj(1, 1), quadric(2), quadric(3)]
    + [elliptic_curve(d) for d in range(3, 7)]
)


@st.composite
def piece_windows(draw, model):
    """A window inside [-400, 400]: wide or narrow, and some that start
    at the probe depth, at -dim or at 0, so miss the probe or twist 0;
    a few are empty."""
    probe = default_window(model)[0]
    starts = st.sampled_from([probe, probe + 1, -model.dim, 0, 1])
    lo = draw(st.one_of(st.integers(-400, 400), starts))
    width = draw(st.one_of(st.integers(0, 800), st.integers(0, 40), st.just(-1)))
    return lo, min(lo + width, 400)


@st.composite
def piece_sheaves(draw, model, window):
    """An oracle descriptor, sums among them, at times with spinors and
    stored tables, which have no breaks.  Some get a line bundle summand
    with twists up to 300, whose breaks lie deep inside a wide window
    (on P^1 x P^1 with intermediate cohomology over a long range), and
    some a summand whose table raises: a stored table short of the
    window, or on a curve an atom with no triviality bit."""
    parts = [(draw(oracle_descriptors(model, window, opaque=draw(st.integers(0, 2)) == 0)), 1)]
    if draw(st.booleans()):
        width = 2 if model.kind == "prod" else 1
        parts.append((LineBundle(tuple(draw(st.integers(-300, 300)) for _ in range(width))), 1))
    if not draw(st.integers(0, 5)):
        if model.kind == "elliptic":
            degree = draw(st.integers(-1200, 1200))  # its zero twist anywhere in the window
            parts.append((SemistableEC(draw(st.integers(1, 3)), degree), 1))
        else:
            parts.append((draw(stored_tables(window, short=True)), 1))
    return DirectSum(tuple(draw(st.permutations(parts)))) if len(parts) > 1 else parts[0][0]


@st.composite
def piece_cases(draw):
    model = draw(st.sampled_from(PIECE_MODELS))
    window = draw(piece_windows(model))
    cover = (window[0], max(window))  # stored tables need a window that is not empty
    degrees = draw(st.sets(st.integers(-2, 1), min_size=1, max_size=3))
    sheaves = {degree: draw(piece_sheaves(model, cover)) for degree in sorted(degrees)}
    return formal_complex(model, sheaves, glue_between(draw, sheaves)), window


def whole_tables(pairs, model, window):
    """The whole sheaf table of each (degree, sheaf) pair, keyed by degree."""
    return {degree: sheaf_table(desc, model, window) for degree, desc in pairs}


@settings(max_examples=250, deadline=None)
@given(case=piece_cases())
def test_verdicts_on_piece_ends_are_the_whole_table_verdicts(case):
    # the verdicts hold each sheaf table at the ends of its pieces only;
    # criteria, witnesses, notes and errors must be what the whole tables give
    E, window = case
    model = E.model
    for mode in ("sheafwise", "both"):
        want = kit_outcome(ulrich_kit.ulrich._object_verdict, E, mode, window, whole_tables)
        if want[0] == "ok":
            want = ("ok", want[1][0])
        assert kit_outcome(is_ulrich_object, E, mode, window) == want, mode
    for _, desc in E.sheaves:
        want = kit_outcome(
            lambda: ulrich_kit.ulrich._sheaf_verdict(
                desc, model, window, sheaf_table(desc, model, window)
            )
        )
        assert kit_outcome(is_ulrich_sheaf, desc, model, window) == want


def test_a_verdict_holds_as_many_twists_on_any_window(monkeypatch):
    # pn:4, O(0) + O(3): breaks at -7, -4, -3 and 0, cuts at -13, -4 and
    # 0; only the two outer pieces grow with the window, and each is held
    # at its five first and five last twists.  (-10000, 9999) is the
    # widest window MAX_TWISTS admits.  The Q^3 spinor breaks at -3, and
    # its cold recursion bounds its windows: h^3 from below -490 overflows.
    pn4, q3 = proj_space(4), quadric(3)
    cases = (
        (pn4, {0: "O(0) + O(3)"}, ((-100, 100), (-10_000, 9_999))),
        (q3, {0: "2*S", -1: "S"}, ((-60, 60), (-450, 450))),
    )
    tables = []
    post_init = CohomologyTable.__post_init__

    def recording(table):
        tables.append(table)
        post_init(table)

    monkeypatch.setattr(CohomologyTable, "__post_init__", recording)
    for model, texts, windows in cases:
        E = formal_complex(model, {q: parse_sheaf(text, model) for q, text in texts.items()})
        desc = dict(E.sheaves)[0]
        held = {}
        for lo, hi in windows:
            for name, verdict in (
                ("sheaf", lambda: is_ulrich_sheaf(desc, model, (lo, hi))),
                ("sheafwise", lambda: is_ulrich_object(E, "sheafwise", (lo, hi))),
                ("both", lambda: is_ulrich_object(E, "both", (lo, hi))),
            ):
                tables.clear()
                verdict()
                count = sum(table.covers(t) for table in tables for t in range(lo, hi + 1))
                held.setdefault(name, []).append(count)
        assert all(small == wide <= 60 for small, wide in held.values()), (texts, held)


def test_a_cold_spinor_verdict_reads_far_positive_twists():
    # a piece table reads h^0 of the Q^3 spinor first at the last twists
    # of a wide window, and its recursion runs down to twist 0; read cold,
    # it must stay inside the interpreter's recursion depth there, as the
    # ascending fill of a whole table does
    q3 = quadric(3)
    E = formal_complex(q3, {0: parse_sheaf("2*S", q3)})
    ulrich_kit.cohomology._spinor3_h0.cache_clear()
    assert is_ulrich_object(E, "both", (-15, 5_000)).passed


def reference_ulrich_hyper_table(E, window):
    """The decomposers' table as the whole hyper table gives it."""
    verdict = is_ulrich_object(E, "both", window)
    if not verdict.passed:
        raise NotUlrich(f"not an Ulrich object, witness {verdict.witness()}")
    return hyper_table(E, window).table


def reference_rebuilds(n, table):
    """The rebuild compared column by column over the window."""
    return ulrich_table(n, table.column(0), table.window).same_entries(table)


DECOMPOSE_ATOMS = {  # Ulrich units first, each drawn more often than the rest
    "pn:1": ("O(0)", "O(1)"),
    "pn:2": ("O(0)", "O(-1)"),
    "pn:3": ("O(0)", "O(1)"),
    "quadric:3": ("S", "O(0)"),
    "quadric:2": ("S+", "S-", "O(0)"),
    "prod:1x1": ("O(1,0)", "O(0,1)", "O(0,0)"),
}


@st.composite
def decompose_cases(draw):
    """A complex that is mostly a sum of shifted Ulrich units, with some
    non-Ulrich atoms, abstract copies of a unit's table (scaled, and some
    with one entry off), external tensors on P^1 x P^1, and a window that
    is the default one, a random one inside -12..14, or one reaching up
    to +-400, which the decompositions cut into pieces unless a sheaf is
    abstract."""
    spec = draw(st.sampled_from(sorted(DECOMPOSE_ATOMS)))
    model = parse_variety(spec)
    atoms = DECOMPOSE_ATOMS[spec]
    window = default_window(model)
    shape = draw(st.integers(0, 2))
    if shape == 0:
        lo = draw(st.integers(-12, 0))
        window = (lo, lo + draw(st.integers(0, 14)))
    elif shape == 1:
        window = (draw(st.integers(-400, -1)), draw(st.integers(0, 400)))
    sheaves = {}
    for degree in draw(st.sets(st.integers(-3, 2), min_size=1, max_size=3)):
        kind = draw(st.sampled_from(("units", "units", "abstract", "tensor")))
        if kind == "abstract":
            unit = parse_sheaf(atoms[0], model)
            entries = {k: 2 * h for k, h in sheaf_table(unit, model, window).entries.items()}
            lo, hi = window
            if draw(st.booleans()) and hi >= 1:  # a tail no pointwise criterion reads
                key = (0, draw(st.integers(1, hi)))
                entries[key] = entries.get(key, 0) + 1
            elif draw(st.booleans()):
                key = (draw(st.integers(0, model.dim)), draw(st.integers(lo, hi)))
                entries[key] = entries.get(key, 0) + 1
            table = CohomologyTable(window, entries)
            sheaves[degree] = AbstractSheaf(rank=2, label="unit-like", table=table)
        elif kind == "tensor" and spec == "prod:1x1":
            left = direct_sum((line_bundle(1), draw(st.integers(1, 2))))
            sheaves[degree] = ExternalTensor(left, line_bundle(draw(st.integers(0, 1))))
        else:
            weights = [atoms[0]] * 3 + list(atoms[1:])
            parts = draw(st.lists(st.sampled_from(weights), min_size=1, max_size=3))
            sheaves[degree] = parse_sheaf("+".join(parts), model)
    return formal_complex(model, sheaves, glue_between(draw, sheaves)), window


@settings(max_examples=150, deadline=None)
@given(case=decompose_cases())
def test_decompositions_match_the_whole_hyper_table_reference(case):
    E, window = case
    for decompose in (pn_decompose, quadric_decompose):
        got = kit_outcome(decompose, E, window)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ulrich_kit.ulrich, "_ulrich_hyper_table", reference_ulrich_hyper_table)
            patch.setattr(ulrich_kit.ulrich, "_rebuilds", reference_rebuilds)
            want = kit_outcome(decompose, E, window)
        assert got == want, decompose.__name__


def test_a_piece_rebuild_refuses_one_held_entry_off():
    # the hyper table of 2*O(0) + O(0)[1] on pn:3 over (-200, 200) holds
    # the ends of each piece only; moving any one held entry by one, in
    # any degree, breaks the Eisenbud-Schreyer rebuild on the same spans
    model, window = proj_space(3), (-200, 200)
    E = formal_complex(model, {0: direct_sum((line_bundle(0), 2)), -1: line_bundle(0)})
    table = ulrich_kit.ulrich._ulrich_hyper_table(E, window)
    held = [t for t in range(-200, 201) if table.covers(t)]
    assert table.spans is not None and len(held) < 100
    assert _rebuilds(model.dim, table)
    for t in held:
        for i in range(-1, model.dim + 1):

            def one_off(lo, hi, mult, rows, base, i=i, t=t):
                if lo <= t <= hi:
                    rows[i][t - base] += mult

            bump = _filled([(one_off, None, 1)], window, table.spans)
            assert not _rebuilds(model.dim, shifted_sum(window, [(0, table), (0, bump)])), (i, t)


def test_a_decomposition_holds_as_many_twists_on_any_window(monkeypatch):
    # the glued three-degree pn:4 complex, a sum of rulings on P^1 x P^1
    # and a glued spinor complex on Q^3: every table a decomposition builds
    # holds the ends of each piece, so only the outer pieces grow with the
    # window, and their held twists do not.  On P^1 x P^1 at +-15 the spans
    # would hold 20 of the 31 twists, more than half: every table is whole.
    pn4, p11, q3 = proj_space(4), product_proj(1, 1), quadric(3)
    glued = formal_complex(
        pn4,
        {0: direct_sum((line_bundle(0), 2)), -1: line_bundle(0), -2: line_bundle(0)},
        (GlueWitness(0, -1), GlueWitness(-1, -2)),
    )
    rulings = formal_complex(
        p11, {0: parse_sheaf("O(1,0) + 2*O(0,1)", p11), -1: parse_sheaf("O(1,0)", p11)}
    )
    spinors = formal_complex(
        q3, {0: parse_sheaf("2*S", q3), -1: parse_sheaf("S", q3)}, (GlueWitness(0, -1),)
    )
    tables = []
    post_init = CohomologyTable.__post_init__

    def recording(table):
        tables.append(table)
        post_init(table)

    monkeypatch.setattr(CohomologyTable, "__post_init__", recording)
    for decompose, E, want, widths in (
        (pn_decompose, glued, {0: 2, -1: 1, -2: 1}, (240, 9_999)),
        (quadric_decompose, rulings, {0: {"+": 1, "-": 2}, -1: {"+": 1, "-": 0}}, (240, 9_999)),
        (quadric_decompose, spinors, {0: 2, -1: 1}, (60, 450)),
    ):
        tables.clear()
        assert decompose(E, (-15, 15)) == want
        if E is rulings:
            assert all(table.covers(t) for table in tables for t in range(-15, 16))
        held = []
        for w in widths:
            tables.clear()
            assert decompose(E, (-w, w)) == want
            held.append(sum(table.covers(t) for table in tables for t in range(-w, w + 1)))
        assert held[0] == held[1], (decompose.__name__, held)


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

    def test_a_tensor_of_two_line_bundles_is_its_line_bundle_as_a_source(self):
        p12 = product_proj(1, 2)
        targets = (
            LineBundle((1, 2)),
            ExternalTensor(direct_sum(line_bundle(0), line_bundle(-3)), line_bundle(1)),
        )
        for a, b in itertools.product(range(-2, 3), repeat=2):
            tensor = ExternalTensor(line_bundle(a), line_bundle(b))
            for G, k in itertools.product(targets, range(4)):
                assert ext_dimension(tensor, G, k, p12) == ext_dimension(
                    LineBundle((a, b)), G, k, p12
                )

    def test_a_tensor_of_a_sum_distributes_as_a_source(self):
        p11 = product_proj(1, 1)
        tensor = ExternalTensor(direct_sum(line_bundle(-1), line_bundle(-2)), line_bundle(0))
        # Ext^0 = h^0(O(1,0)) + h^0(O(2,0)) = 2 + 3
        assert ext_dimension(tensor, LineBundle((0, 0)), 0, p11) == 5
        for k in range(3):
            assert ext_dimension(tensor, LineBundle((1, -2)), k, p11) == sum(
                ext_dimension(LineBundle((a, 0)), LineBundle((1, -2)), k, p11) for a in (-1, -2)
            )
        with_abstract = ExternalTensor(direct_sum(line_bundle(-1), AbstractSheaf(rank=1)), line_bundle(0))
        with pytest.raises(NoDualRule, match=r"^\[abstract"):
            ext_dimension(with_abstract, LineBundle((0, 0)), 0, p11)

    def test_a_line_bundle_source_reads_a_stored_table_on_the_quadric_surface(self):
        q2 = quadric(2)
        stored = AbstractSheaf(rank=1, table=sheaf_table(line_bundle(1), q2, (-8, 8)))
        assert sheaf_column(stored, q2, 0) == {0: 4}
        assert [ext_dimension(line_bundle(0), stored, k, q2) for k in range(3)] == [4, 0, 0]
        with pytest.raises(MalformedDescriptor, match="has no quadric-surface product form"):
            ext_dimension(Spinor("+"), stored, 0, q2)  # a ruling twist is off the diagonal
        with pytest.raises(NoDualRule):
            ext_dimension(stored, line_bundle(0), 0, q2)

    def test_serre_partner_reads_spinor_lines_on_the_product_form(self):
        from ulrich_kit.ulrich import _ext_serre_partner

        q2 = quadric(2)
        sheaves = [Spinor("+"), Spinor("-"), line_bundle(-1), direct_sum(line_bundle(0), Spinor("+"))]
        for F, G in itertools.product(sheaves, repeat=2):
            partner = _ext_serre_partner(F, G, q2)
            for k in range(3):
                assert partner.get(k, 0) == ext_dimension(F, G, k, q2), (F, G, k)

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
        # ss(1, 1) is no twist of O, so the dual rule reads the degree
        # gap 4 - 1 = 3: sections one way, h^1 the other
        F, G = SemistableEC(1, 1, False), SemistableEC(1, 4, True)
        assert [ext_dimension(F, G, k, model) for k in (0, 1)] == [3, 0]
        assert [ext_dimension(G, F, k, model) for k in (0, 1)] == [0, 3]

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
            ulrich_kit.ulrich, "_ext_serre_partner", lambda F, G, model: {0: 99}
        )
        with pytest.raises(OracleDefect):
            ext_dimension(line_bundle(0), line_bundle(1), 0, proj_space(2))

    def test_serre_cross_check_covers_every_degree(self, monkeypatch):
        # Ext^*(O, O(1)) on P^2 is 3 in degree 0 only; a partner that agrees
        # there but not in degree 2 is a defect whichever degree is asked
        import ulrich_kit.ulrich

        monkeypatch.setattr(
            ulrich_kit.ulrich, "_ext_serre_partner", lambda F, G, model: {0: 3, 2: 1}
        )
        for k in range(3):
            with pytest.raises(OracleDefect) as info:
                ext_dimension(line_bundle(0), line_bundle(1), k, proj_space(2))
            assert str(info.value) == (
                "Serre duality cross-check failed: ext^2(O(0), O(1)) = 0"
                " but the dual side gave 1"
            )

    def test_product_pairs(self):
        p11 = product_proj(1, 1)
        assert ext_dimension(LineBundle((1, 0)), LineBundle((1, 1)), 0, p11) == 2
        assert ext_dimension(LineBundle((0, 0)), LineBundle((-2, -2)), 2, p11) == 1

    @pytest.mark.parametrize(
        "spec",
        ["pn:3", "quadric:2", "quadric:3", "quadric:4", "prod:1x1", "prod:1x2", "elliptic:4"],
    )
    def test_serre_partner_runs_and_agrees_on_line_bundles(self, spec):
        from ulrich_kit.sheaves import twist_components
        from ulrich_kit.ulrich import _ext_primary, _ext_serre_partner

        model = parse_variety(spec)
        twists = itertools.product(range(-2, 3), repeat=twist_components(model))
        lines = [LineBundle(twist) for twist in twists]
        for F, G in itertools.product(lines, repeat=2):
            partner = _ext_serre_partner(F, G, model)
            assert partner is not None, (spec, F, G)
            assert partner == _ext_primary(F, G, model), (spec, F, G)


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


# one copy of the unit in each degree; on Q^2 = P^1 x P^1 it holds one
# line of the + ruling and two of the -
READER_UNITS = {"quadric:3": "S", "quadric:2": "S+ + 2*S-", "prod:1x1": "O(1,0) + 2*O(0,1)"}


@pytest.mark.parametrize("mults", [{0: 1}, {-1: 1, 0: 2}, {-2: 1, 1: 3}], ids=str)
@pytest.mark.parametrize(
    "spec", ["pn:1", "pn:2", "pn:3", "pn:4", "quadric:3", "quadric:2", "prod:1x1"]
)
def test_the_eisenbud_schreyer_readers_agree(spec, mults):
    # pushforward_finite reads h^q(E) off the projection to P^n; the
    # decomposers divide it by the sections of their unit: 1 for O on
    # P^n, 4 for S on Q^3, which pushes forward to O^4, and deg = 2 for
    # each ruling line on Q^2, split by the ruling's own hyper column
    model = parse_variety(spec)
    unit = parse_sheaf(READER_UNITS.get(spec, "O(0)"), model)
    E = formal_complex(model, {d: direct_sum((unit, m)) for d, m in mults.items()})
    pushed = pushforward_finite(E)
    assert pushed.trivialized and pushed.reconstruction_ok
    if model.kind == "pn":
        assert pushed.multiplicities == pn_decompose(E) == mults
    elif model.spinor_signs == (None,):
        split = quadric_decompose(E)
        assert split == mults
        assert pushed.multiplicities == {d: 4 * m for d, m in split.items()}
    else:
        split = quadric_decompose(E)
        assert split == {d: {"+": m, "-": 2 * m} for d, m in mults.items()}
        assert pushed.multiplicities == {
            d: model.deg * sum(counts.values()) for d, counts in split.items()
        }


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
    G = data.draw(oracle_descriptors(model, (-8, 8), opaque=not product))
    minus = tuple(-a for a in twists)
    want = product_reference(G, model, minus) if product else reference_column(G, model, minus[0])
    for k in range(model.dim + 1):
        assert ext_dimension(LineBundle(twists), G, k, model) == want.get(k, 0), k
